import numpy as np
import pytest

from chaostomo.dynamics import (
    KickedIsing,
    heisenberg_timeline,
    pauli_site,
    tki_floquet,
)
from chaostomo.operator_space import gell_mann_basis
from chaostomo.quantifiers import (
    fisher_information,
    mutual_information,
    ordered_bloch_values,
    quantifier_series,
    shannon_entropy,
)
from chaostomo.tomography import CovarianceData, haar_random_pure
from helpers import timeline_covariance


def cov_from_rows(rows):
    return CovarianceData(np.asarray(rows, dtype=float))


def sv(rows):
    """Singular values of a design given by its rows."""
    return cov_from_rows(rows).singular_values()


class TestShannon:
    def test_single_row_zero(self):
        # all the weight in one direction gives exactly 0, which must not be -0
        value = shannon_entropy(sv([[1.0, 2.0, 0.0]]))
        assert value == 0.0 and not np.signbit(value)

    def test_equal_eigenvalues_log_k(self):
        assert shannon_entropy(sv(np.eye(5))) == pytest.approx(np.log(5), abs=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy(sv(np.zeros((2, 4))))

    def test_bounded_by_log_rank(self, rng):
        design = rng.standard_normal((12, 8))
        cov = cov_from_rows(design)
        assert shannon_entropy(cov.singular_values()) <= np.log(cov.rank()) + 1e-12

    def test_chaotic_dynamics_saturates_higher(self):
        # kicked Ising at strong tilt spreads information more evenly
        o = pauli_site("y", 1, 3) / 2
        basis = gell_mann_basis(8)
        ent = {}
        for hz in (0.0, 0.4, 1.4):
            u = tki_floquet(KickedIsing(L=3, J=1.0, hx=1.4, hz=hz))
            cov = timeline_covariance(heisenberg_timeline(o, u, 199), basis, u)
            ent[hz] = shannon_entropy(cov.singular_values())
        assert ent[1.4] > ent[0.4] > ent[0.0]

    def test_xxz_impurity_strength_raises_quantifiers(self):
        # breaking XXZ integrability with the impurity raises entropy and rank
        from chaostomo.dynamics import XXZChain, build_propagator

        o = pauli_site("y", 2, 4) / 2
        basis = gell_mann_basis(16)
        ent, rank = {}, {}
        for g in (0.0, 0.94):
            u = build_propagator(XXZChain(L=4, Jxy=1.0, Jzz=1.1, g=g, site=2))
            cov = timeline_covariance(heisenberg_timeline(o, u, 299), basis, u)
            ent[g] = shannon_entropy(cov.singular_values())
            rank[g] = cov.rank()
        assert ent[0.94] > ent[0.0]
        assert rank[0.94] >= rank[0.0]


class TestFisher:
    def test_identity_covariance(self):
        assert fisher_information(sv(np.eye(8)), 8, reg=1e-12) == pytest.approx(1 / 8, rel=1e-6)

    def test_zero_matrix_pure_regularizer(self):
        reg = 0.37
        assert fisher_information(sv(np.zeros((3, 8))), 8, reg) == pytest.approx(reg / 8, rel=1e-12)

    def test_rejects_nonpositive_reg(self):
        with pytest.raises(ValueError):
            fisher_information(sv(np.eye(3)), 3, reg=0.0)

    def test_monotone_in_rows(self, rng):
        # Loewner order: appending a row never decreases J at fixed reg
        k = 10
        for _ in range(5):
            design = rng.standard_normal((6, k))
            extra = rng.standard_normal((1, k))
            j1 = fisher_information(sv(design), k, reg=1e-3)
            j2 = fisher_information(sv(np.vstack([design, extra])), k, reg=1e-3)
            assert j2 >= j1 - 1e-12


class TestRankAndMutualInfo:
    def test_single_row_rank(self):
        assert cov_from_rows([[0.3, 0.0, 0.1]]).rank() == 1

    def test_identity_mi_zero(self):
        assert mutual_information(sv(np.eye(6))) == pytest.approx(0.0, abs=1e-12)

    def test_row_scaling_adds_k_log_c(self, rng):
        design = rng.standard_normal((5, 5))
        c = 2.7
        mi1 = mutual_information(sv(design))
        mi2 = mutual_information(sv(c * design))
        assert mi2 - mi1 == pytest.approx(5 * np.log(c), abs=1e-9)

    def test_am_gm_bound_on_measured_subspace(self, rng):
        for _ in range(5):
            design = rng.standard_normal((7, 12))
            cov = cov_from_rows(design)
            k = cov.rank()
            lam = cov.singular_values()[:k] ** 2
            bound = (k / 2) * np.log(np.sum(lam) / k)
            assert mutual_information(cov.singular_values()) <= bound + 1e-10

    def test_am_gm_equality_for_uniform_spectrum(self):
        cov = cov_from_rows(3.0 * np.eye(4))
        k = cov.rank()
        bound = (k / 2) * np.log(np.sum(cov.design**2) / k)
        assert mutual_information(cov.singular_values()) == pytest.approx(bound, abs=1e-12)


class TestSeries:
    def test_series_shapes_and_fisher_monotone(self):
        o = pauli_site("y", 1, 2) / 2
        u = tki_floquet(KickedIsing(L=2, J=1.0, hx=1.4, hz=1.4))
        cov = timeline_covariance(heisenberg_timeline(o, u, 39), gell_mann_basis(4), u)
        series = quantifier_series([cov.truncated(n).singular_values() for n in range(1, 41)],
                                   cov.design.shape[1])
        assert list(series) == ["shannon", "fisher", "rank", "mutual_info"]
        assert all(len(column) == 40 for column in series.values())
        rank, fisher = series["rank"], series["fisher"]
        assert all(a <= b for a, b in zip(rank, rank[1:]))
        assert all(b >= a - 1e-15 for a, b in zip(fisher, fisher[1:]))
        assert np.all(series["shannon"] >= -1e-12)


class TestOrderedBloch:
    def test_maximally_mixed(self):
        basis = gell_mann_basis(4)
        partial, bound = ordered_bloch_values(np.eye(4) / 4, basis)
        assert np.max(np.abs(partial)) < 1e-20
        assert np.allclose(bound, 0.25)

    def test_pure_state_terminal_values(self, rng):
        d = 5
        basis = gell_mann_basis(d)
        psi = haar_random_pure(d, rng)
        partial, bound = ordered_bloch_values(np.outer(psi, psi.conj()), basis)
        assert partial[-1] == pytest.approx(1 - 1 / d, abs=1e-10)
        assert bound[-1] == pytest.approx(1.0, abs=1e-10)

    def test_descending_dominates_ascending(self, rng):
        d = 6
        basis = gell_mann_basis(d)
        for _ in range(5):
            psi = haar_random_pure(d, rng)
            rho = np.outer(psi, psi.conj())
            down, _ = ordered_bloch_values(rho, basis, "descending")
            up, _ = ordered_bloch_values(rho, basis, "ascending")
            assert np.all(down >= up - 1e-12)

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            ordered_bloch_values(np.eye(2) / 2, gell_mann_basis(2), "sideways")
