import numpy as np
import pytest
from scipy.stats import ks_2samp

from chaostomo.checks import _reflection_operator as reflection_operator
from chaostomo.dynamics import KickedIsing, build_propagator
from chaostomo.rmt import (
    block_diagonal_sample,
    haar_unitary,
    reflection_eigenbasis,
)


def sample(kind, d, rng):
    """One draw from the ensemble: a single block in the identity basis."""
    return block_diagonal_sample(kind, (d,), np.eye(d), rng)


class TestGaussian:
    def test_goe_real_symmetric(self):
        h = sample("GOE", 12, np.random.default_rng(3))
        assert np.max(np.abs(h - h.T)) == 0.0
        assert np.max(np.abs(h.imag)) == 0.0

    def test_kind_guard(self):
        for kind in ("XOE", "GUE", "CUE"):
            with pytest.raises(ValueError, match="kind"):
                sample(kind, 4, np.random.default_rng(0))

    def test_level_repulsion(self):
        # nearest-neighbor spacings of GOE/COE avoid zero; compare the
        # smallest-spacing decile against the Poisson (uncorrelated) case
        rng = np.random.default_rng(11)
        poisson = 1 - np.exp(-0.1)  # ~0.095

        def check(spacings):
            spacings = np.asarray(spacings)
            assert np.mean(spacings < 0.1) < 0.5 * poisson

        spacings = []
        for _ in range(200):
            ev = np.linalg.eigvalsh(sample("GOE", 64, rng))
            mid = ev[16:48]  # bulk
            s = np.diff(mid)
            spacings.extend(s / s.mean())
        check(spacings)
        spacings = []
        for _ in range(200):
            w = sample("COE", 64, rng)
            phases = np.sort(np.angle(np.linalg.eigvals(w)))
            s = np.diff(phases)  # eigenphases are uniformly dense; no unfolding needed
            spacings.extend(s / s.mean())
        check(spacings)


class TestCircular:
    def test_cue_unitary(self):
        u = haar_unitary(10, np.random.default_rng(4))
        assert np.max(np.abs(u.conj().T @ u - np.eye(10))) < 1e-12

    def test_coe_symmetric_unitary(self):
        w = sample("COE", 10, np.random.default_rng(4))
        assert np.max(np.abs(w - w.T)) < 1e-12
        assert np.max(np.abs(w.conj().T @ w - np.eye(10))) < 1e-12

    def test_eigenvalues_on_unit_circle(self):
        for u in (haar_unitary(16, np.random.default_rng(9)),
                  sample("COE", 16, np.random.default_rng(9))):
            assert np.max(np.abs(np.abs(np.linalg.eigvals(u)) - 1.0)) < 1e-10

    def test_cue_invariance_under_fixed_unitary(self):
        # eigenphase spacing distribution unchanged by left multiplication
        rng = np.random.default_rng(2)
        fixed = haar_unitary(8, np.random.default_rng(123))

        def spacing_sample(transform):
            out = []
            for _ in range(500):
                u = haar_unitary(8, rng)
                phases = np.sort(np.angle(np.linalg.eigvals(transform(u))))
                s = np.diff(phases)
                out.extend(s / s.mean())
            return np.array(out)

        plain = spacing_sample(lambda u: u)
        rotated = spacing_sample(lambda u: fixed @ u)
        assert ks_2samp(plain, rotated).pvalue > 0.01


def old_bit_reversal(n_spins):
    """The per-label bit loop that the vectorized permutation replaced."""
    perm = np.empty(2**n_spins, dtype=int)
    for b in range(2**n_spins):
        rev = 0
        for bit in range(n_spins):
            rev = (rev << 1) | ((b >> bit) & 1)
        perm[b] = rev
    return perm


class TestReflection:
    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
    def test_permutation_matches_bit_loop(self, L):
        perm = old_bit_reversal(L)
        want = np.zeros((2**L, 2**L))
        want[perm, np.arange(2**L)] = 1.0
        assert np.array_equal(reflection_operator(L), want)

    def test_small_chain_permutation(self):
        p = reflection_operator(2)
        # |01> <-> |10>, fixes |00> and |11>
        want = np.eye(4)[:, [0, 2, 1, 3]]
        assert np.array_equal(p, want)

    @pytest.mark.parametrize("L", [2, 3, 5])
    def test_involution(self, L):
        p = reflection_operator(L)
        assert np.array_equal(p @ p, np.eye(2**L))

    def test_commutes_with_kicked_ising(self):
        p = reflection_operator(4)
        u = build_propagator(KickedIsing(L=4, J=1.0, hx=1.4, hz=1.4))
        assert np.max(np.abs(p @ u - u @ p)) < 1e-10

    @pytest.mark.parametrize("L,dims", [(2, (3, 1)), (3, (6, 2)), (4, (10, 6)), (5, (20, 12))])
    def test_eigenbasis_block_dims(self, L, dims):
        vbasis, got = reflection_eigenbasis(L)
        assert got == dims
        p = reflection_operator(L)
        diag = vbasis.T @ p @ vbasis
        want = np.diag([1.0] * dims[0] + [-1.0] * dims[1])
        assert np.max(np.abs(diag - want)) < 1e-12


class TestBlockSampling:
    def test_commutes_with_reflection(self):
        L = 4
        vbasis, dims = reflection_eigenbasis(L)
        p = reflection_operator(L)
        for kind in ("COE", "GOE"):
            m = block_diagonal_sample(kind, dims, vbasis, np.random.default_rng(1))
            assert np.max(np.abs(m @ p - p @ m)) < 1e-10

    def test_coe_blocks_give_unitary(self):
        vbasis, dims = reflection_eigenbasis(4)
        m = block_diagonal_sample("COE", dims, vbasis, np.random.default_rng(2))
        assert np.max(np.abs(m.conj().T @ m - np.eye(16))) < 1e-10

    def test_requires_block_dims(self):
        vbasis, _ = reflection_eigenbasis(3)
        with pytest.raises(ValueError, match="square"):
            block_diagonal_sample("COE", (), vbasis, np.random.default_rng(0))

    def test_block_dims_must_sum(self):
        vbasis, _ = reflection_eigenbasis(3)
        for dims in ((5, 2), (6, 3)):
            with pytest.raises(ValueError, match="square"):
                block_diagonal_sample("COE", dims, vbasis, np.random.default_rng(0))
        with pytest.raises(ValueError, match="square"):
            block_diagonal_sample("GOE", (6, 2), vbasis[:, :6], np.random.default_rng(0))

    @pytest.mark.parametrize("kind", ["GOE", "COE"])
    def test_block_draw_order(self, kind):
        # each block is drawn in turn from one stream: GOE (A + A^T)/2 of a
        # real standard-normal A, COE V^T V of a Haar V
        dims = (3, 2)
        got = block_diagonal_sample(kind, dims, np.eye(5), np.random.default_rng(6))
        rng = np.random.default_rng(6)
        want = np.zeros((5, 5), dtype=complex)
        start = 0
        for nb in dims:
            if kind == "GOE":
                a = rng.standard_normal((nb, nb))
                want[start:start + nb, start:start + nb] = (a + a.T) / 2
            else:
                v = haar_unitary(nb, rng)
                want[start:start + nb, start:start + nb] = v.T @ v
            start += nb
        assert np.array_equal(got, want)
