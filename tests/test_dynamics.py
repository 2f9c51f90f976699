import numpy as np
import pytest

from chaostomo.dynamics import (
    TIMELINE_BLOCK,
    HaarSteps,
    KickedIsing,
    KickedTop,
    TiltedIsing,
    XXZChain,
    angular_momentum_ops,
    build_propagator,
    classical_kicked_top_step,
    collective_spin,
    expm_hermitian,
    hamiltonian,
    heisenberg_timeline,
    kicked_top_floquet,
    pauli_site,
    timeline_blocks,
    tki_floquet,
    unitary_eigh,
)
from chaostomo.checks import _reflection_operator as reflection_operator
from chaostomo.rmt import haar_unitary
from helpers import stack


def unitarity_defect(u):
    return np.max(np.abs(u.conj().T @ u - np.eye(len(u))))


class TestAngularMomentum:
    def test_spin_half_is_pauli_over_two(self):
        jx, jy, jz = angular_momentum_ops(0.5)
        assert np.allclose(jx, np.array([[0, 1], [1, 0]]) / 2)
        assert np.allclose(jy, np.array([[0, -1j], [1j, 0]]) / 2)
        assert np.allclose(jz, np.diag([0.5, -0.5]))

    @pytest.mark.parametrize("j", [0.5, 1, 1.5, 4, 10.5])
    def test_commutation_relations(self, j):
        jx, jy, jz = angular_momentum_ops(j)
        assert np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)) < 1e-12 * max(1, j * j)
        assert np.max(np.abs(jy @ jz - jz @ jy - 1j * jx)) < 1e-12 * max(1, j * j)
        assert np.max(np.abs(jz @ jx - jx @ jz - 1j * jy)) < 1e-12 * max(1, j * j)

    @pytest.mark.parametrize("j", [0.5, 2, 7.5])
    def test_casimir(self, j):
        jx, jy, jz = angular_momentum_ops(j)
        d = round(2 * j) + 1
        casimir = jx @ jx + jy @ jy + jz @ jz
        assert np.max(np.abs(casimir - j * (j + 1) * np.eye(d))) < 1e-11

    def test_jz_descending(self):
        jz = angular_momentum_ops(1.5)[2]
        assert np.allclose(np.diag(jz).real, [1.5, 0.5, -0.5, -1.5])

    def test_bad_spin(self):
        with pytest.raises(ValueError):
            angular_momentum_ops(0.7)
        with pytest.raises(ValueError):
            angular_momentum_ops(-1)


class TestKickedTop:
    def test_zero_kick_is_rotation(self):
        spec = KickedTop(j=3, lam=0.0, alpha=0.9)
        u = kicked_top_floquet(spec)
        jx = angular_momentum_ops(3)[0]
        w, v = np.linalg.eigh(jx)
        want = (v * np.exp(-1j * 0.9 * w)) @ v.conj().T
        assert np.max(np.abs(u - want)) < 1e-12

    def test_quarter_turn_period_four(self):
        u = kicked_top_floquet(KickedTop(j=4, lam=0.0, alpha=np.pi / 2))
        u4 = np.linalg.matrix_power(u, 4)
        assert np.max(np.abs(u4 - np.eye(9))) < 1e-10

    @pytest.mark.parametrize("lam", [0.5, 2.5, 7.0])
    def test_unitary(self, lam):
        u = kicked_top_floquet(KickedTop(j=10, lam=lam, alpha=1.4))
        assert unitarity_defect(u) < 1e-10

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KickedTop(j=1.2, lam=1.0, alpha=1.0)


class TestClassicalMap:
    def test_x_axis_fixed_point(self):
        assert classical_kicked_top_step(1.0, 0.0, 0.0, 3.3, 0.7) == (1.0, 0.0, 0.0)

    def test_zero_kick_rotates_about_x(self):
        x, y, z = classical_kicked_top_step(0.0, 1.0, 0.0, 0.0, np.pi / 2)
        assert (x, y) == pytest.approx((0.0, 0.0), abs=1e-15)
        assert z == pytest.approx(1.0, abs=1e-15)

    def test_norm_preserved_over_many_iterates(self):
        pt = np.array([0.0, 0.6, 0.8])
        for _ in range(10_000):
            pt = np.array(classical_kicked_top_step(*pt, 2.5, np.pi / 2))
        assert abs(np.linalg.norm(pt) - 1.0) < 1e-12

    def test_off_sphere_rejected(self):
        with pytest.raises(ValueError):
            classical_kicked_top_step(1.0, 1.0, 0.0, 1.0, 1.0)

    def test_chaotic_trajectory_explores_more(self):
        # crude regular-vs-chaotic proxy: count visited theta-phi cells
        def visited_cells(lam):
            x, y, z = 0.437, 0.62, np.sqrt(1 - 0.437**2 - 0.62**2)
            cells = set()
            for _ in range(4000):
                x, y, z = classical_kicked_top_step(x, y, z, lam, np.pi / 2)
                cells.add((int((z + 1) * 10), int(np.mod(np.arctan2(y, x), 2 * np.pi) * 3)))
            return len(cells)

        assert visited_cells(6.5) > 2 * visited_cells(0.5)


class TestChains:
    def test_tki_dimension_and_unitarity(self):
        u = tki_floquet(KickedIsing(L=2))
        assert u.shape == (4, 4)
        assert unitarity_defect(u) < 1e-10

    def test_tki_diagonal_when_no_transverse_field(self):
        u = tki_floquet(KickedIsing(L=3, hx=0.0, hz=0.8))
        off = u - np.diag(np.diag(u))
        assert np.max(np.abs(off)) == 0.0

    def test_ti_group_property(self):
        u1 = build_propagator(TiltedIsing(L=3, hz=1.4, dt=1.0))
        u2 = build_propagator(TiltedIsing(L=3, hz=1.4, dt=2.0))
        assert np.max(np.abs(u1 @ u1 - u2)) < 1e-10

    def test_ti_dt_zero_invalid(self):
        with pytest.raises(ValueError):
            TiltedIsing(L=3, dt=0.0)

    @pytest.mark.parametrize("g", [0.0, 0.16, 0.94])
    def test_xxz_conserves_total_sz(self, g):
        u = build_propagator(XXZChain(L=5, Jxy=1.0, Jzz=1.1, g=g, site=3))
        sz = collective_spin("z", 5)
        assert np.max(np.abs(u @ sz - sz @ u)) < 1e-10

    def test_site_bounds(self):
        with pytest.raises(ValueError):
            XXZChain(L=3, site=4)

    def test_pauli_site_placement(self):
        s2x = pauli_site("x", 2, 3)
        want = np.kron(np.kron(np.eye(2), np.array([[0, 1], [1, 0]])), np.eye(2))
        assert np.array_equal(s2x, want)

    def test_pauli_site_matches_site_by_site_product(self):
        # reference: one kron per site, identities on every other site
        paulis = {"x": [[0, 1], [1, 0]], "y": [[0, -1j], [1j, 0]], "z": [[1, 0], [0, -1]]}
        for L in range(2, 7):
            for site in range(1, L + 1):
                for axis, sigma in paulis.items():
                    want = np.array([[1.0 + 0j]])
                    for s in range(1, L + 1):
                        want = np.kron(want, np.array(sigma, dtype=complex) if s == site else np.eye(2))
                    got = pauli_site(axis, site, L)
                    assert np.array_equal(got, want)
                    for part in (np.real, np.imag):
                        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))
        with pytest.raises(ValueError):
            pauli_site("x", 1, 1)


class TestTimelines:
    def test_zero_steps(self):
        o = pauli_site("y", 1, 2) / 2
        u = tki_floquet(KickedIsing(L=2))
        tl = heisenberg_timeline(o, u, 0)
        assert len(tl) == 1
        assert np.array_equal(tl[0], o)

    def test_identity_propagator_constant(self):
        o = pauli_site("z", 1, 2)
        tl = heisenberg_timeline(o, np.eye(4), 5)
        assert all(np.array_equal(s, o) for s in tl)

    def test_rotation_period_four_timeline(self):
        jy = angular_momentum_ops(3)[1]
        u = kicked_top_floquet(KickedTop(j=3, lam=0.0, alpha=np.pi / 2))
        tl = heisenberg_timeline(jy, u, 8)
        assert np.max(np.abs(tl[4] - tl[0])) < 1e-10
        assert np.max(np.abs(tl[8] - tl[0])) < 1e-10

    @pytest.mark.parametrize("make", [
        lambda: (kicked_top_floquet(KickedTop(j=5, lam=3.0, alpha=1.4)), angular_momentum_ops(5)[1]),
        lambda: (tki_floquet(KickedIsing(L=3)), pauli_site("y", 1, 3) / 2),
        lambda: (build_propagator(XXZChain(L=3, g=0.94, site=2)), pauli_site("y", 2, 3) / 2),
    ])
    def test_isometry_over_200_steps(self, make):
        u, o = make()
        tl = heisenberg_timeline(o, u, 200)
        norm0 = np.vdot(o, o).real
        norms = np.einsum("nij,nij->n", tl.conj(), tl).real
        assert np.max(np.abs(norms - norm0)) < 1e-8 * norm0
        herm = max(np.max(np.abs(s - s.conj().T)) for s in tl[::40])
        assert herm < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            heisenberg_timeline(np.eye(3), tki_floquet(KickedIsing(L=2)), 3)

    @pytest.mark.parametrize("n_rows", [1, TIMELINE_BLOCK - 1, TIMELINE_BLOCK, TIMELINE_BLOCK + 1,
                                        2 * TIMELINE_BLOCK - 1, 3 * TIMELINE_BLOCK + 5])
    def test_blocks_cover_the_timeline(self, n_rows):
        # every block holds TIMELINE_BLOCK operators, the last one also the rest
        sizes = [len(b) for b in timeline_blocks(np.eye(2), n_rows - 1, np.eye(2))]
        assert sum(sizes) == n_rows
        assert all(k == TIMELINE_BLOCK for k in sizes[:-1])
        assert sizes[-1] < 2 * TIMELINE_BLOCK and (sizes[-1] >= TIMELINE_BLOCK or len(sizes) == 1)

    @pytest.mark.parametrize("haar", [False, True], ids=["fixed", "haar"])
    def test_recurrence_is_stepwise_conjugation(self, haar):
        # the collected timeline is each previous entry conjugated once, bit for bit
        d, n_steps = 5, 2 * TIMELINE_BLOCK + 3
        o = angular_momentum_ops(2)[1]
        u = kicked_top_floquet(KickedTop(j=2, lam=3.0, alpha=1.4))
        draws = np.random.default_rng(4)
        want = [o]
        for _ in range(n_steps):
            step = haar_unitary(d, draws) if haar else u
            want.append(step.conj().T @ want[-1] @ step)
        if haar:
            tl = stack(timeline_blocks(o, n_steps, np.random.default_rng(4)))
        else:
            tl = heisenberg_timeline(o, u, n_steps)
        assert np.array_equal(tl, np.array(want))

    def test_haar_timeline_spans_fast(self, rng):
        o = np.diag([1.0, -1.0, 0.5, -0.5]).astype(complex)
        tl = stack(timeline_blocks(o, 20, rng))
        flat = tl.reshape(21, -1)
        assert np.linalg.matrix_rank(flat) > 13  # a fixed unitary caps at d^2-d+1 = 13


def test_build_propagator_dispatch():
    for spec in (KickedTop(j=2, lam=1.0, alpha=1.0), KickedIsing(L=2), TiltedIsing(L=2), XXZChain(L=2)):
        u = build_propagator(spec)
        assert isinstance(u, np.ndarray) and unitarity_defect(u) < 1e-10
    # a chain's step is its Hamiltonian exponentiated over dt
    for spec in (TiltedIsing(L=3, hz=0.4, dt=0.7), XXZChain(L=3, g=0.5, site=2, dt=1.3)):
        want = expm_hermitian(hamiltonian(spec), -1j * spec.dt)
        assert np.array_equal(build_propagator(spec), want)
    with pytest.raises(TypeError):
        build_propagator(HaarSteps(dim=4))
    for spec in (KickedTop(j=2, lam=1.0, alpha=1.0), KickedIsing(L=2), HaarSteps(dim=4)):
        with pytest.raises(TypeError):
            hamiltonian(spec)


class TestUnitaryEigh:
    @pytest.mark.parametrize("case", ["I", "-I", "reflection", "haar6", "haar21", "haar41",
                                      "top0.5"])
    def test_reconstructs_with_orthonormal_basis(self, case):
        u = {
            "I": lambda: np.eye(5, dtype=complex),
            "-I": lambda: -np.eye(5, dtype=complex),
            "reflection": lambda: reflection_operator(3).astype(complex),  # eigenvalues +-1
            "haar6": lambda: haar_unitary(6, np.random.default_rng(6)),
            "haar21": lambda: haar_unitary(21, np.random.default_rng(21)),
            "haar41": lambda: haar_unitary(41, np.random.default_rng(41)),
            # eigenphases degenerate to 1e-14
            "top0.5": lambda: kicked_top_floquet(KickedTop(j=10, lam=0.5, alpha=np.pi / 2)),
        }[case]()
        phases, v = unitary_eigh(u)
        assert np.all((phases > -np.pi) & (phases <= np.pi))
        assert np.max(np.abs(v.conj().T @ v - np.eye(len(u)))) < 1e-12
        assert np.max(np.abs((v * np.exp(1j * phases)) @ v.conj().T - u)) < 1e-12
