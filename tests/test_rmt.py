import numpy as np
import pytest
from scipy.stats import ks_2samp

from chaostomo.dynamics import KickedIsing, tki_floquet
from chaostomo.rmt import (
    EnsembleSpec,
    block_diagonal_sample,
    haar_unitary,
    reflection_eigenbasis,
    reflection_operator,
)


def sample(kind, d, rng):
    """One draw from the ensemble: a single block in the identity basis."""
    return block_diagonal_sample(EnsembleSpec(kind, d, block_dims=(d,)), np.eye(d), rng)


class TestGaussian:
    def test_goe_real_symmetric(self):
        h = sample("GOE", 12, np.random.default_rng(3))
        assert np.max(np.abs(h - h.T)) == 0.0
        assert np.max(np.abs(h.imag)) == 0.0

    def test_gue_hermitian_complex(self):
        h = sample("GUE", 12, np.random.default_rng(3))
        assert np.max(np.abs(h - h.conj().T)) < 1e-14
        assert np.max(np.abs(h.imag)) > 0.01

    def test_kind_guard(self):
        with pytest.raises(ValueError):
            EnsembleSpec("XOE", 4)

    def test_level_repulsion(self):
        # nearest-neighbor spacings of GOE/GUE/COE avoid zero; compare the
        # smallest-spacing decile against the Poisson (uncorrelated) case
        rng = np.random.default_rng(11)
        poisson = 1 - np.exp(-0.1)  # ~0.095

        def check(spacings):
            spacings = np.asarray(spacings)
            assert np.mean(spacings < 0.1) < 0.5 * poisson

        for kind in ("GOE", "GUE"):
            spacings = []
            for _ in range(200):
                ev = np.linalg.eigvalsh(sample(kind, 64, rng))
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
        u = sample("CUE", 10, np.random.default_rng(4))
        assert np.max(np.abs(u.conj().T @ u - np.eye(10))) < 1e-12

    def test_coe_symmetric_unitary(self):
        w = sample("COE", 10, np.random.default_rng(4))
        assert np.max(np.abs(w - w.T)) < 1e-12
        assert np.max(np.abs(w.conj().T @ w - np.eye(10))) < 1e-12

    def test_eigenvalues_on_unit_circle(self):
        for kind in ("CUE", "COE"):
            u = sample(kind, 16, np.random.default_rng(9))
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


class TestReflection:
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
        u = tki_floquet(KickedIsing(L=4, J=1.0, hx=1.4, hz=1.4)).matrix
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
            m = block_diagonal_sample(EnsembleSpec(kind, 16, block_dims=dims), vbasis,
                                      np.random.default_rng(1))
            assert np.max(np.abs(m @ p - p @ m)) < 1e-10

    def test_coe_blocks_give_unitary(self):
        vbasis, dims = reflection_eigenbasis(4)
        m = block_diagonal_sample(EnsembleSpec("COE", 16, block_dims=dims), vbasis,
                                  np.random.default_rng(2))
        assert np.max(np.abs(m.conj().T @ m - np.eye(16))) < 1e-10

    def test_requires_block_dims(self):
        vbasis, _ = reflection_eigenbasis(3)
        with pytest.raises(ValueError):
            block_diagonal_sample(EnsembleSpec("COE", 8), vbasis, np.random.default_rng(0))

    def test_block_dims_must_sum(self):
        with pytest.raises(ValueError):
            EnsembleSpec("COE", 8, block_dims=(5, 2))
