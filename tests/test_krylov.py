import numpy as np
import pytest
from scipy.linalg import schur

from chaostomo.dynamics import (
    KickedIsing,
    TiltedIsing,
    UnitaryPropagator,
    pauli_site,
    ti_hamiltonian,
    tki_floquet,
)
from chaostomo.krylov import (
    arnoldi_unitary_dim,
    evolve_operator,
    krylov_amplitudes,
    krylov_complexity,
    krylov_entropy,
    lanczos_full_orth,
    liouvillian,
)


def liouvillian_matrix(h):
    """Dense d^2 x d^2 matrix of [H, .] on row-major flattened operators."""
    eye = np.eye(h.shape[0])
    return np.kron(h, eye) - np.kron(eye, h.T)


class DenseOperator:
    """A superoperator given as a dense matrix, with the ``apply`` Lanczos calls."""

    def __init__(self, matrix):
        self.matrix = matrix

    def apply(self, vec):
        return self.matrix @ vec


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


def arnoldi_dim_oracle(u, op, weight_tol=1e-18):
    """Same mode count for a unitary generator, via its Schur form."""
    t, z = schur(u, output="complex")
    phases = np.angle(np.diag(t))
    ob = z.conj().T @ op @ z
    d = len(phases)
    items = sorted(
        (
            (float(np.mod(phases[i] - phases[k], 2 * np.pi)), float(abs(ob[i, k]) ** 2))
            for i in range(d)
            for k in range(d)
            if i != k
        ),
        key=lambda t_: t_[0],
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


class TestLiouvillian:
    def test_annihilates_identity_and_generator(self, hermitian_factory):
        h = hermitian_factory(4)
        liou = liouvillian(h)
        assert np.linalg.norm(liou.apply(np.eye(4).reshape(-1))) < 1e-12
        assert np.linalg.norm(liou.apply(h.reshape(-1))) < 1e-12

    def test_spectrum_is_pairwise_differences(self, hermitian_factory):
        h = hermitian_factory(4)
        ev_l = np.sort(np.linalg.eigvalsh(liouvillian_matrix(h)))
        ev_h = np.linalg.eigvalsh(h)
        want = np.sort((ev_h[:, None] - ev_h[None, :]).reshape(-1))
        assert np.max(np.abs(ev_l - want)) < 1e-10

    def test_matrix_free_matches_dense(self, hermitian_factory, rng):
        h = hermitian_factory(5)
        liou = liouvillian(h)
        v = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        assert np.max(np.abs(liou.apply(v) - liouvillian_matrix(h) @ v)) < 1e-12

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
        h = ti_hamiltonian(TiltedIsing(L=L, J=1.0, hx=1.4, hz=1.4))
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
        kb_free = lanczos_full_orth(liouvillian(h), o)
        kb_dense = lanczos_full_orth(DenseOperator(liouvillian_matrix(h)), o)
        assert kb_free.dim_k == kb_dense.dim_k
        assert np.max(np.abs(kb_free.lanczos_b - kb_dense.lanczos_b)) < 1e-10
        assert np.max(np.abs(kb_free.vectors - kb_dense.vectors)) < 1e-9

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_hygiene_orthonormality_and_tridiagonality(self, L):
        h = ti_hamiltonian(TiltedIsing(L=L, J=1.0, hx=1.4, hz=1.4))
        o = pauli_site("y", 1, L) / 2
        kb = lanczos_full_orth(liouvillian(h), o)
        gram = kb.vectors.conj() @ kb.vectors.T
        assert np.max(np.abs(gram - np.eye(kb.dim_k))) < 1e-10
        liou = liouvillian(h)
        lq = np.array([liou.apply(v) for v in kb.vectors])
        tri = kb.vectors.conj() @ lq.T
        ev = np.linalg.eigvalsh(h)
        norm_l = ev[-1] - ev[0]  # spectral width bounds the Liouvillian norm
        off = np.triu(tri, 2)
        assert np.max(np.abs(off)) < 1e-8 * norm_l
        sub = np.array([tri[i + 1, i] for i in range(kb.dim_k - 1)])
        assert np.max(np.abs(sub - kb.lanczos_b)) < 1e-8


class TestAmplitudes:
    @pytest.fixture
    def small_system(self):
        h = ti_hamiltonian(TiltedIsing(L=2, J=1.0, hx=1.4, hz=1.4))
        o = pauli_site("y", 1, 2) / 2
        return h, o, lanczos_full_orth(liouvillian(h), o)

    def test_initial_amplitudes(self, small_system):
        h, o, kb = small_system
        amp = krylov_amplitudes(o, kb, t=0.0)
        assert amp.phi[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(amp.phi[1:])) < 1e-12

    @pytest.mark.parametrize("t", [0.5, 1.7, 6.3])
    def test_normalization(self, small_system, t):
        h, o, kb = small_system
        amp = krylov_amplitudes(evolve_operator(h, o, t), kb, t=t)
        assert abs(np.sum(amp.phi**2) - 1.0) < 1e-8

    def test_short_time_slope_is_b1(self, small_system):
        h, o, kb = small_system
        t = 1e-6
        amp = krylov_amplitudes(evolve_operator(h, o, t), kb)
        assert amp.phi[1] / t == pytest.approx(kb.lanczos_b[0], rel=1e-5)

    def test_wrong_pairing_raises(self, small_system, hermitian_factory):
        h, o, kb = small_system
        other = evolve_operator(hermitian_factory(4), o, 2.0)
        with pytest.raises(ValueError):
            krylov_amplitudes(other, kb)

    def test_complexity_and_entropy_trivials(self, small_system):
        h, o, kb = small_system
        amp0 = krylov_amplitudes(o, kb, t=0.0)
        assert krylov_complexity(amp0) == pytest.approx(0.0, abs=1e-12)
        assert krylov_entropy(amp0) == pytest.approx(0.0, abs=1e-10)
        from chaostomo.krylov import KrylovAmplitudes

        k = kb.dim_k
        uniform = KrylovAmplitudes(phi=np.full(k, 1 / np.sqrt(k)))
        assert krylov_complexity(uniform) == pytest.approx((k - 1) / 2, rel=1e-12)
        assert krylov_entropy(uniform) == pytest.approx(np.log(k), rel=1e-12)

    def test_entropy_bounded_by_log_k(self, small_system):
        h, o, kb = small_system
        for t in (0.5, 2.0, 10.0):
            amp = krylov_amplitudes(evolve_operator(h, o, t), kb, t=t)
            assert krylov_entropy(amp) <= np.log(kb.dim_k) + 1e-10


class TestArnoldi:
    def test_identity_propagator(self):
        o = np.diag([1.0, -1.0, 0.5, -0.5]).astype(complex)
        assert arnoldi_unitary_dim(UnitaryPropagator(np.eye(4)), o) == 1

    @pytest.mark.parametrize("L,expected", [(2, 13), (3, 55)])
    def test_kicked_ising_dimension(self, L, expected):
        u = tki_floquet(KickedIsing(L=L, J=1.0, hx=1.4, hz=1.4))
        o = pauli_site("y", 1, L) / 2
        assert arnoldi_unitary_dim(u, o) == expected == arnoldi_dim_oracle(u.matrix, o)

    def test_bound_respected(self, rng):
        d = 5
        q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        o = (a + a.conj().T) / 2
        k = arnoldi_unitary_dim(UnitaryPropagator(q), o)
        assert k <= d * d - d + 1
        assert k == arnoldi_dim_oracle(q, o)

    def test_matches_covariance_rank(self):
        # both count span{O_n}; the covariance route works in Bloch
        # coordinates, this one in raw operator space
        from chaostomo.operator_space import gell_mann_basis
        from chaostomo.tomography import build_covariance
        from chaostomo.dynamics import heisenberg_timeline

        u = tki_floquet(KickedIsing(L=2, J=1.0, hx=1.4, hz=1.4))
        o = pauli_site("y", 1, 2) / 2
        K = arnoldi_unitary_dim(u, o)
        cov = build_covariance(heisenberg_timeline(o, u, 40), gell_mann_basis(4))
        assert K == cov.rank() == 13
