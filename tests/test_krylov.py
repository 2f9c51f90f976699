import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from chaostomo.checks import _krylov_vectors
from chaostomo.dynamics import (
    KickedIsing,
    KickedTop,
    TiltedIsing,
    XXZChain,
    angular_momentum_ops,
    build_propagator,
    collective_spin,
    hamiltonian,
    heisenberg_timeline,
    pauli_site,
)
from chaostomo.experiments import config_from_preset, run_experiment
from chaostomo.krylov import (
    _observable_coords,
    arnoldi_unitary_dim,
    krylov_amplitudes,
    krylov_complexity,
    krylov_entropy,
    lanczos_full_orth,
    liouvillian,
    orbit_span,
)
from chaostomo.operator_space import bloch_encode_batch, gell_mann_basis
from helpers import (
    apply_generator,
    dense_frame,
    lanczos_full_vector,
    stepwise_amplitudes,
    unitary_mode_count,
)


def liouvillian_matrix(h):
    """Dense d^2 x d^2 matrix of [H, .] on row-major flattened operators."""
    eye = np.eye(h.shape[0])
    return np.kron(h, eye) - np.kron(eye, h.T)


def coordinate_frame(liou):
    """Rows vec(V F_a V^dag), F_a = I/sqrt(d), E_1, ..., E_{d^2-1}: the generator's coordinate directions."""
    v = liou.eigenvectors
    d = v.shape[0]
    rows = np.vstack([np.eye(d)[None] / np.sqrt(d), liou.operator_basis.matrices()])
    return (v @ rows @ v.conj().T).reshape(d * d, -1)


def real_generator(liou, h):
    """Dense matrix of X -> i[H, X] on the coordinates: i L conjugated into the frame."""
    frame = coordinate_frame(liou)
    m = frame.conj() @ (1j * liouvillian_matrix(h)) @ frame.T
    assert np.max(np.abs(m.imag)) < 1e-12
    return m.real


def dense_lanczos(matrix, start, n_max):
    """Plain fully re-orthogonalized Lanczos on a dense generator matrix."""
    q = [start / np.linalg.norm(start)]
    bs = []
    while len(q) < n_max:
        w = matrix @ q[-1]
        for _ in range(2):
            w -= np.array(q).T @ (np.array(q) @ w)
        if np.linalg.norm(w) <= 1e-8:
            break
        bs.append(np.linalg.norm(w))
        q.append(w / bs[-1])
    return np.array(q), np.array(bs)


def lanczos_dim_oracle(h, op, weight_tol=1e-18):
    """Independent count of Krylov directions from the gap decomposition.

    In the eigenbasis of H the Liouvillian eigenoperators are |i><k| with
    eigenvalue E_i - E_k; the Krylov space of O is spanned by O's projection
    onto each distinct-eigenvalue group it touches (Vandermonde argument).
    """
    ev, v = np.linalg.eigh(h)
    ob = v.conj().T @ op @ v
    d = len(ev)
    items = sorted(
        ((ev[i] - ev[k], abs(ob[i, k]) ** 2) for i in range(d) for k in range(d) if i != k),
        key=lambda t: t[0],
    )
    groups = []
    for g, w in items:
        if groups and abs(g - groups[-1][0]) < 1e-9:
            groups[-1][1] += w
        else:
            groups.append([g, w])
    n = sum(1 for _, w in groups if w > weight_tol)
    diag_weight = float(np.sum(np.abs(np.diag(ob)) ** 2))
    return n + (1 if diag_weight > weight_tol else 0)


def spectral_complexity(h, op, times):
    """Krylov complexity from the spectral measure of O, independent of the operator frame.

    The measure puts weight |O_ik|^2 on each gap E_i - E_k (eigenbasis of
    H, gaps within 1e-9 merged, the diagonal at 0).  Lanczos on
    multiplication by the gap, started from the square-root weights, gives
    the operator Lanczos coefficients, and |phi_k(t)| is the modulus of the
    k-th Lanczos vector's overlap with the weights rotated by e^{-i w t}.
    """
    ev, v = np.linalg.eigh(h)
    ob = v.conj().T @ op @ v
    gaps = (ev[:, None] - ev[None, :]).reshape(-1)
    weights = np.abs(ob.reshape(-1)) ** 2
    order = np.argsort(gaps)
    freqs, mass = [], []
    for g, w in zip(gaps[order], weights[order]):
        if freqs and g - freqs[-1] < 1e-9:
            mass[-1] += w
        else:
            freqs.append(g)
            mass.append(w)
    keep = np.array(mass) > 1e-18
    freqs, amp = np.array(freqs)[keep], np.sqrt(np.array(mass)[keep])
    norm = np.linalg.norm(amp)
    q = [amp / norm]
    while len(q) < len(freqs):
        x = freqs * q[-1]
        for _ in range(2):
            x -= np.array(q).T @ (np.array(q) @ x)
        if np.linalg.norm(x) <= 1e-8 * norm:
            break
        q.append(x / np.linalg.norm(x))
    q = np.array(q)
    phi2 = np.abs(q @ (amp[:, None] * np.exp(-1j * np.outer(freqs, times)))) ** 2 / norm**2
    return np.arange(len(q)) @ phi2


class TestLiouvillian:
    def test_annihilates_identity_and_generator(self, hermitian_factory):
        h = hermitian_factory(4)
        liou = liouvillian(h)
        assert np.linalg.norm(apply_generator(liou, liou.coords(np.eye(4)))) < 1e-12
        assert np.linalg.norm(apply_generator(liou, liou.coords(h))) < 1e-12

    def test_spectrum_is_pairwise_differences(self, hermitian_factory):
        h = hermitian_factory(4)
        ev_l = np.sort(np.linalg.eigvalsh(liouvillian_matrix(h)))
        ev_h = np.linalg.eigvalsh(h)
        want = np.sort((ev_h[:, None] - ev_h[None, :]).reshape(-1))
        assert np.max(np.abs(ev_l - want)) < 1e-10

    def test_matrix_free_matches_dense(self, hermitian_factory, rng):
        h = hermitian_factory(5)
        liou = liouvillian(h)
        v = rng.standard_normal(25)
        dense = real_generator(liou, h)
        assert np.max(np.abs(dense + dense.T)) < 1e-12  # antisymmetric
        assert np.max(np.abs(apply_generator(liou, v) - dense @ v)) < 1e-12

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(ValueError):
            liouvillian(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))


class TestLanczos:
    def test_commuting_pair_terminates_immediately(self):
        h = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        o = np.diag([1.0, -1.0, 0.5, -0.5]).astype(complex)
        assert lanczos_full_orth(liouvillian(h), o).dim_k == 1

    def test_zero_observable_rejected(self, hermitian_factory):
        with pytest.raises(ValueError):
            lanczos_full_orth(liouvillian(hermitian_factory(3)), np.zeros((3, 3)))

    @pytest.mark.parametrize("L", [2, 3])
    def test_dimension_matches_gap_oracle(self, L):
        h = hamiltonian(TiltedIsing(L=L, J=1.0, hx=1.4, hz=1.4))
        o = pauli_site("y", 1, L) / 2
        kb = lanczos_full_orth(liouvillian(h), o)
        assert kb.dim_k == lanczos_dim_oracle(h, o)
        # real-symmetric H with an imaginary antisymmetric O: the commutant
        # component vanishes identically, so the d^2 - d + 1 bound is not met
        assert kb.dim_k == {2: 12, 3: 54}[L]

    def test_generic_hermitian_reaches_bound(self, hermitian_factory):
        d = 3
        h = hermitian_factory(d)
        o = hermitian_factory(d)
        kb = lanczos_full_orth(liouvillian(h), o)
        assert kb.dim_k == d * d - d + 1 == lanczos_dim_oracle(h, o)

    def test_dense_and_matrix_free_agree(self, hermitian_factory):
        h = hermitian_factory(4)
        o = hermitian_factory(4)
        liou = liouvillian(h)
        kb_free = lanczos_full_orth(liou, o)
        vectors, bs = dense_lanczos(real_generator(liou, h), liou.coords(o), 16)
        assert kb_free.dim_k == len(vectors)
        assert np.max(np.abs(kb_free.lanczos_b - bs)) < 1e-10
        assert np.max(np.abs(_krylov_vectors(kb_free) - vectors)) < 1e-9

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_hygiene_orthonormality_and_tridiagonality(self, L):
        h = hamiltonian(TiltedIsing(L=L, J=1.0, hx=1.4, hz=1.4))
        o = pauli_site("y", 1, L) / 2
        kb = lanczos_full_orth(liouvillian(h), o)
        vectors = _krylov_vectors(kb)
        gram = vectors.conj() @ vectors.T
        assert np.max(np.abs(gram - np.eye(kb.dim_k))) < 1e-10
        liou = liouvillian(h)
        lq = np.array([apply_generator(liou, v) for v in vectors])
        tri = vectors.conj() @ lq.T
        ev = np.linalg.eigvalsh(h)
        norm_l = ev[-1] - ev[0]  # spectral width bounds the Liouvillian norm
        off = np.triu(tri, 2)
        assert np.max(np.abs(off)) < 1e-8 * norm_l
        sub = np.array([tri[i + 1, i] for i in range(kb.dim_k - 1)])
        assert np.max(np.abs(sub - kb.lanczos_b)) < 1e-8


def _tilted(L, hz):
    return hamiltonian(TiltedIsing(L=L, J=1.0, hx=1.4, hz=hz))


class TestParitySplit:
    """The half-length recursion against the full-vector one of ``tests/helpers.py``."""

    @staticmethod
    def assert_matches_full_vector(h, o):
        liou = liouvillian(h)
        kb = lanczos_full_orth(liou, o)
        dim_k, bs = lanczos_full_vector(liou, o)
        assert kb.dim_k == dim_k
        assert np.max(np.abs(kb.lanczos_b - bs) / bs) <= 1e-12

    @pytest.mark.parametrize("L", [3, 4, 5])
    @pytest.mark.parametrize("hz", [0.0, 0.4, 1.4])
    @pytest.mark.parametrize("obs", ["Sz", "s1y"])
    def test_tilted_ising_matches_full_vector(self, L, hz, obs):
        o = collective_spin("z", L) if obs == "Sz" else pauli_site("y", 1, L) / 2
        self.assert_matches_full_vector(_tilted(L, hz), o)

    @pytest.mark.parametrize("g", [0.0, 0.16, 0.94])
    def test_xxz_matches_full_vector(self, g):
        spec = XXZChain(L=4, Jxy=1.0, Jzz=1.1, g=g, site=2)
        o = (pauli_site("y", 2, 4) + pauli_site("y", 4, 4)) / 2
        self.assert_matches_full_vector(hamiltonian(spec), o)

    @pytest.mark.parametrize("L,obs", [(4, "Sz"), (4, "s1y"), (5, "Sz")])
    def test_parity_of_frame_coordinates(self, L, obs):
        # real H: O is real symmetric or imaginary antisymmetric in the
        # eigenbasis, so every frame row lives on the symmetric or on the
        # antisymmetric Bloch coordinates, and the zeros are exact
        o = collective_spin("z", L) if obs == "Sz" else pauli_site("y", 1, L) / 2
        liou = liouvillian(_tilted(L, 0.4))
        kb = lanczos_full_orth(liou, o)
        frame, m, freqs = dense_frame(liou, _observable_coords(liou, o)[0])
        coords = _krylov_vectors(kb) @ frame.T
        split = m + len(freqs)
        assert np.all(coords[0::2, split:] == 0.0)
        assert np.all(coords[1::2, :split] == 0.0)
        assert np.max(np.abs(np.sum(coords**2, axis=1) - 1.0)) < 1e-12

    def test_hygiene_at_l5(self):
        # the fig2.3 cell: O = Sz, hz = 1.4, K = 513
        h = _tilted(5, 1.4)
        liou = liouvillian(h)
        kb = lanczos_full_orth(liou, collective_spin("z", 5))
        assert kb.dim_k == 513
        vectors = _krylov_vectors(kb)
        assert np.max(np.abs(vectors @ vectors.T - np.eye(kb.dim_k))) < 1e-10
        tri = vectors @ np.array([apply_generator(liou, v) for v in vectors]).T
        ev = np.linalg.eigvalsh(h)
        assert np.max(np.abs(np.triu(tri, 2))) < 1e-8 * (ev[-1] - ev[0])
        assert np.max(np.abs(np.diag(tri, -1) - kb.lanczos_b)) < 1e-8


class TestFootprint:
    """Traced peak memory of the Krylov calls at d = 32.

    None keeps a dense (K, d^2) basis or (m + 2n, d^2) frame: at these
    cells either alone is 4 MiB or more (513 and 993 rows of 1024 doubles).
    """

    @staticmethod
    def traced(call, *args):
        tracemalloc.start()
        try:
            return call(*args), tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_lanczos_at_fig23_cell(self):
        liou = liouvillian(_tilted(5, 1.4))
        kb, peak = self.traced(lanczos_full_orth, liou, collective_spin("z", 5))
        assert kb.dim_k == 513
        assert peak < 4.0

    def test_amplitudes_at_fig23_cell(self):
        # 61 times: the full (T, d^2) coordinates of O(t) alone would take 0.48 MiB,
        # and the three (T, d(d-1)/2) angle, cosine and sine arrays 0.69 MiB more
        o = collective_spin("z", 5)
        kb = lanczos_full_orth(liouvillian(_tilted(5, 1.4)), o)
        phi, peak = self.traced(krylov_amplitudes, kb, np.arange(61.0))
        assert phi.shape == (61, 513)
        assert peak < 1.3

    def test_unitary_orbit_count(self):
        u = build_propagator(KickedIsing(L=5, J=1.0, hx=1.4, hz=0.4))
        k, peak = self.traced(arnoldi_unitary_dim, u, pauli_site("y", 1, 5) / 2)
        assert k == 993
        assert peak < 1.0


class TestAmplitudes:
    @pytest.fixture
    def small_system(self):
        h = hamiltonian(TiltedIsing(L=2, J=1.0, hx=1.4, hz=1.4))
        o = pauli_site("y", 1, 2) / 2
        return h, o, lanczos_full_orth(liouvillian(h), o)

    def test_initial_amplitudes(self, small_system):
        h, o, kb = small_system
        phi = krylov_amplitudes(kb, [0.0])[0]
        assert phi[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(phi[1:])) < 1e-12

    def test_weight_escaping_the_span_raises(self):
        # one mode of two pairs at the gap 1 (H = diag(0, 1, 2), O = spin-1 J_x);
        # shift one pair's exact gap and the pairs drift apart in phase, so O(t)
        # leaves the span, more the later t is
        kb = lanczos_full_orth(liouvillian(np.diag([0.0, 1.0, 2.0])), angular_momentum_ops(1)[0])
        assert len(kb.frame.freqs) == 1 and len(kb.frame.pairs) == 2
        assert np.allclose(np.sum(krylov_amplitudes(kb, [0.0, 1.0, 500.0]) ** 2, axis=-1), 1.0)
        shifted = replace(kb, generator=replace(kb.generator, energies=np.array([0.0, 1.0, 2.001])))
        krylov_amplitudes(shifted, [0.0])
        with pytest.raises(ValueError, match=r"escapes the Krylov span by .* at t = 500;"):
            krylov_amplitudes(shifted, [0.0, 1.0, 500.0])

    @pytest.mark.parametrize("t", [0.5, 1.7, 6.3])
    def test_normalization(self, small_system, t):
        h, o, kb = small_system
        phi = krylov_amplitudes(kb, [t])
        assert abs(np.sum(phi**2) - 1.0) < 1e-8

    def test_short_time_slope_is_b1(self, small_system):
        h, o, kb = small_system
        t = 1e-6
        phi = krylov_amplitudes(kb, [t])
        assert phi[0, 1] / t == pytest.approx(kb.lanczos_b[0], rel=1e-5)

    def test_complexity_and_entropy_trivials(self, small_system):
        h, o, kb = small_system
        phi0 = krylov_amplitudes(kb, [0.0])
        assert krylov_complexity(phi0)[0] == pytest.approx(0.0, abs=1e-12)
        assert krylov_entropy(phi0)[0] == pytest.approx(0.0, abs=1e-10)
        # all the weight on one vector: +0, not -0
        one = krylov_entropy(np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]))
        assert np.array_equal(one, [0.0, 0.0]) and not np.any(np.signbit(one))
        k = kb.dim_k
        uniform = np.full(k, 1 / np.sqrt(k))
        assert krylov_complexity(uniform) == pytest.approx((k - 1) / 2, rel=1e-12)
        assert krylov_entropy(uniform) == pytest.approx(np.log(k), rel=1e-12)

    def test_entropy_bounded_by_log_k(self, small_system):
        h, o, kb = small_system
        phi = krylov_amplitudes(kb, [0.5, 2.0, 10.0])
        assert np.all(krylov_entropy(phi) <= np.log(kb.dim_k) + 1e-10)


class TestAmplitudeSeries:
    """The eigenframe series of ``krylov_amplitudes`` against per-step evolution."""

    @staticmethod
    def assert_matches_stepwise(h, o):
        times = np.arange(1, 61) * 1.0
        kb = lanczos_full_orth(liouvillian(h), o)
        series = krylov_amplitudes(kb, times)
        reference = stepwise_amplitudes(h, o, kb, times)
        for measure in (krylov_complexity, krylov_entropy):
            want = measure(reference)
            assert np.max(np.abs(measure(series) - want) / want) <= 1e-12

    @pytest.mark.parametrize("L", [3, 4, 5])
    @pytest.mark.parametrize("hz", [0.0, 0.4, 1.4])
    @pytest.mark.parametrize("obs", ["Sz", "s1y"])
    def test_tilted_ising_matches_stepwise(self, L, hz, obs):
        o = collective_spin("z", L) if obs == "Sz" else pauli_site("y", 1, L) / 2
        self.assert_matches_stepwise(_tilted(L, hz), o)

    @pytest.mark.parametrize("g", [0.0, 0.16, 0.94])
    def test_xxz_matches_stepwise(self, g):
        spec = XXZChain(L=4, Jxy=1.0, Jzz=1.1, g=g, site=2)
        o = (pauli_site("y", 2, 4) + pauli_site("y", 4, 4)) / 2
        self.assert_matches_stepwise(hamiltonian(spec), o)

    def test_nearly_equal_gaps_turn_at_their_own_rate(self, rng, hermitian_factory):
        # gaps 1 and 1 + 3e-11 merge into one pair of Krylov directions, but
        # O(t) turns each at its exact gap; at the merged gap it would be
        # 2e-9 out of phase by t = 60
        q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        h = (q * [0.0, 1.0, 2.0 + 3e-11, 3.7]) @ q.conj().T
        self.assert_matches_stepwise(h, hermitian_factory(4))


class TestFig23Cells:
    """The fig2.3 krylov cell (O = Sz, steps 1..60) at L = 4, per hz.

    Sz is even under the site reflection, and at hz = 0 odd under the
    global spin flip, so most gaps carry no weight: K is 121 at hz = 0.4
    and 1.4 and 40 at hz = 0, well below d^2 - d + 1 = 241.
    """

    @staticmethod
    def cell(hz):
        model = {"kind": "tilted_ising", "L": 4, "J": 1.0, "hx": 1.4, "dt": 1.0}
        cfg = config_from_preset("fig2.3-krylov-complexity", model=model)
        cfg.sweep = {"param": "hz", "values": [hz]}
        h = hamiltonian(TiltedIsing(L=4, J=1.0, hx=1.4, hz=hz))
        return cfg, run_experiment(cfg).rows, h, collective_spin("z", 4)

    @pytest.mark.parametrize("hz", [0.0, 0.4, 1.4])
    def test_dimension_bound_oracle_and_norm(self, hz):
        d = 16
        cfg, rows, h, o = self.cell(hz)
        dims = [r[4] for r in rows if r[3] == "krylov_dim"]
        assert dims == [lanczos_dim_oracle(h, o)]
        assert dims[0] <= d * d - d + 1
        kb = lanczos_full_orth(liouvillian(h), o)
        phi = krylov_amplitudes(kb, np.arange(1, cfg.steps + 1) * cfg.model["dt"])
        assert np.max(np.abs(np.sum(phi**2, axis=-1) - 1)) <= 1e-12

    @pytest.mark.parametrize("hz", [0.0, 0.4, 1.4])
    def test_complexity_matches_spectral_measure(self, hz):
        cfg, rows, h, o = self.cell(hz)
        got = np.array([r[4] for r in rows if r[3] == "krylov_complexity"])
        want = spectral_complexity(h, o, np.arange(1, cfg.steps + 1) * cfg.model["dt"])
        assert np.max(np.abs(got - want)) < 1e-8 * np.max(want)

    @pytest.mark.parametrize("L,dims", [(5, [122, 513, 513]), (4, [40, 121, 121])])
    def test_preset_krylov_dims(self, L, dims):
        # exact Krylov dimensions of the full hz sweep; a Lanczos that
        # amplifies rounding residue reports more (993 at L=5)
        model = {"kind": "tilted_ising", "L": L, "J": 1.0, "hx": 1.4, "dt": 1.0}
        cfg = config_from_preset("fig2.3-krylov-complexity", steps=0, model=model)
        rows = run_experiment(cfg).rows
        assert [(r[1], r[4]) for r in rows if r[3] == "krylov_dim"] == list(
            zip(["0", "0.4", "1.4"], dims)
        )


class TestArnoldi:
    def test_identity_propagator(self):
        o = np.diag([1.0, -1.0, 0.5, -0.5]).astype(complex)
        assert arnoldi_unitary_dim(np.eye(4), o) == 1

    @pytest.mark.parametrize("L,expected", [(2, 13), (3, 55)])
    def test_kicked_ising_dimension(self, L, expected):
        u = build_propagator(KickedIsing(L=L, J=1.0, hx=1.4, hz=1.4))
        o = pauli_site("y", 1, L) / 2
        assert arnoldi_unitary_dim(u, o) == expected == unitary_mode_count(u, o)

    def test_bound_respected(self, rng):
        d = 5
        q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        o = (a + a.conj().T) / 2
        k = arnoldi_unitary_dim(q, o)
        assert k <= d * d - d + 1
        assert k == unitary_mode_count(q, o)

    def test_matches_covariance_rank(self):
        # both count span{O_n}; the covariance route works in Bloch
        # coordinates, this one in raw operator space
        from chaostomo.operator_space import gell_mann_basis
        from chaostomo.dynamics import heisenberg_timeline
        from helpers import timeline_covariance

        u = build_propagator(KickedIsing(L=2, J=1.0, hx=1.4, hz=1.4))
        o = pauli_site("y", 1, 2) / 2
        K = arnoldi_unitary_dim(u, o)
        cov = timeline_covariance(heisenberg_timeline(o, u, 40), gell_mann_basis(4), u)
        assert K == cov.rank() == 13

    @pytest.mark.parametrize("lam,expected", [(0.5, 180), (2.5, 220), (7.0, 220)])
    def test_kicked_top_mode_count(self, lam, expected):
        # at lambda = 0.5 the eigenphases are degenerate to 1e-14; an orbit
        # rank under a tolerance cut counts 184 there
        u = build_propagator(KickedTop(j=10, lam=lam, alpha=np.pi / 2))
        o = angular_momentum_ops(10)[1]
        assert arnoldi_unitary_dim(u, o) == expected == unitary_mode_count(u, o)

    @pytest.mark.parametrize("L,expected", [(4, 241), (5, 993)])
    def test_kicked_ising_hz04_mode_count(self, L, expected):
        # an orbit rank under a tolerance cut counts 239 and 985 here
        u = build_propagator(KickedIsing(L=L, J=1.0, hx=1.4, hz=0.4))
        o = pauli_site("y", 1, L) / 2
        assert arnoldi_unitary_dim(u, o) == expected == unitary_mode_count(u, o)

    @pytest.mark.parametrize("power,expected", [(1, 2), (2, 2)])
    def test_gap_pi_is_one_direction(self, power, expected):
        # alpha = pi/2, lambda = 0: U is a quarter turn about x, so J_y -> J_z
        # -> -J_y has period 4 and J_y^2 -> J_z^2 -> J_y^2 has period 2.  The
        # gap-pi modes of J_y^2 flip sign each step: one direction, not two
        u = build_propagator(KickedTop(j=3, lam=0.0, alpha=np.pi / 2))
        o = np.linalg.matrix_power(angular_momentum_ops(3)[1], power)
        assert arnoldi_unitary_dim(u, o) == expected == unitary_mode_count(u, o)

    @pytest.mark.parametrize("L,dims", [(3, [14, 33, 33]), (4, [40, 121, 121]),
                                        (5, [122, 513, 513])])
    def test_step_unitary_matches_lanczos(self, L, dims):
        # at dt = 1 no two gaps of H coincide mod 2 pi here, so the orbit of
        # exp(-iH) spans the Krylov space of H
        sz = collective_spin("z", L)
        got = []
        for hz in (0.0, 0.4, 1.4):
            spec = TiltedIsing(L=L, J=1.0, hx=1.4, hz=hz)
            k = arnoldi_unitary_dim(build_propagator(spec), sz)
            assert k == lanczos_full_orth(liouvillian(hamiltonian(spec)), sz).dim_k
            got.append(k)
        assert got == dims

    @pytest.mark.parametrize("g,expected", [(0.0, 56), (0.16, 112), (0.94, 112)])
    def test_xxz_step_unitary_matches_lanczos(self, g, expected):
        spec = XXZChain(L=4, Jxy=1.0, Jzz=1.1, g=g, site=2)
        o = (pauli_site("y", 2, 4) + pauli_site("y", 4, 4)) / 2
        k = arnoldi_unitary_dim(build_propagator(spec), o)
        assert k == lanczos_full_orth(liouvillian(hamiltonian(spec)), o).dim_k == expected


# the factored-design cases of chaostomo check
ORBIT_CASES = {
    "kicked-ising-hz0": (KickedIsing(L=4, hz=0.0), pauli_site("y", 1, 4) / 2),
    "xxz-g0": (XXZChain(L=4, g=0.0), (pauli_site("y", 2, 4) + pauli_site("y", 4, 4)) / 2),
}


class TestOrbitSpan:
    """Bloch rows of the orbit frame against the timeline they span."""

    @pytest.mark.parametrize("name", list(ORBIT_CASES))
    def test_frame_holds_the_orbit(self, name):
        # pairs whose phase difference folds past pi turn the other way; with
        # their sign unflipped the rows miss the timeline at order 1
        model, o = ORBIT_CASES[name]
        u = build_propagator(model)
        span = orbit_span(u, o, 255)
        design = bloch_encode_batch(heisenberg_timeline(o, u, 511), gell_mann_basis(16))
        resid = design - (design @ span.T) @ span
        assert np.linalg.norm(resid) <= 1e-11 * np.linalg.norm(design)
        assert np.max(np.abs(span @ span.T - np.eye(len(span)))) <= 1e-12
        traceless = o - np.trace(o) / 16 * np.eye(16)
        assert len(span) == arnoldi_unitary_dim(u, traceless) == unitary_mode_count(u, traceless)
        assert orbit_span(u, o, len(span) - 1) is None

    def test_identity_has_no_span(self):
        u = build_propagator(KickedIsing(L=2))
        assert orbit_span(u, 0.7 * np.eye(4), 15) is None
