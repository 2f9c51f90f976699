import numpy as np
import pytest

from chaostomo.dynamics import (
    KickedIsing,
    build_propagator,
    heisenberg_timeline,
    pauli_site,
)
from chaostomo.operator_space import gell_mann_basis
from chaostomo.quantifiers import ordered_bloch_values, quantifier_series
from chaostomo.tomography import CovarianceData, haar_random_pure, measured_rank
from helpers import shannon, timeline_covariance


def cov_from_rows(rows):
    return CovarianceData(np.asarray(rows, dtype=float))


def sv(rows):
    """Singular values of a design given by its rows."""
    return cov_from_rows(rows).singular_values()


def column(metric, *designs):
    """One quantifier column of the prefixes ``designs``, the full record last."""
    k = np.shape(designs[-1])[1]
    return quantifier_series([sv(rows) for rows in designs], k)[metric]


class TestShannon:
    def test_single_row_zero(self):
        # all the weight in one direction gives exactly 0, which must not be -0
        value = shannon(sv([[1.0, 2.0, 0.0]]))
        assert value == 0.0 and not np.signbit(value)

    def test_equal_eigenvalues_log_k(self):
        assert shannon(sv(np.eye(5))) == pytest.approx(np.log(5), abs=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="no support"):
            column("shannon", np.zeros((2, 4)))
        # any prefix that measures nothing, not only the last one
        with pytest.raises(ValueError, match="no support"):
            column("fisher", np.zeros((1, 4)), np.eye(4))

    def test_bounded_by_log_rank(self, rng):
        design = rng.standard_normal((12, 8))
        cov = cov_from_rows(design)
        assert shannon(cov.singular_values()) <= np.log(cov.rank()) + 1e-12

    def test_chaotic_dynamics_saturates_higher(self):
        # kicked Ising at strong tilt spreads information more evenly
        o = pauli_site("y", 1, 3) / 2
        basis = gell_mann_basis(8)
        ent = {}
        for hz in (0.0, 0.4, 1.4):
            u = build_propagator(KickedIsing(L=3, J=1.0, hx=1.4, hz=hz))
            cov = timeline_covariance(heisenberg_timeline(o, u, 199), basis, u)
            ent[hz] = shannon(cov.singular_values())
        assert ent[1.4] > ent[0.4] > ent[0.0]

    def test_xxz_impurity_strength_raises_quantifiers(self):
        # breaking XXZ integrability with the impurity raises entropy and rank
        from chaostomo.dynamics import XXZChain

        o = pauli_site("y", 2, 4) / 2
        basis = gell_mann_basis(16)
        ent, rank = {}, {}
        for g in (0.0, 0.94):
            u = build_propagator(XXZChain(L=4, Jxy=1.0, Jzz=1.1, g=g, site=2))
            cov = timeline_covariance(heisenberg_timeline(o, u, 299), basis, u)
            ent[g] = shannon(cov.singular_values())
            rank[g] = cov.rank()
        assert ent[0.94] > ent[0.0]
        assert rank[0.94] >= rank[0.0]


class TestFisher:
    def test_identity_covariance(self):
        # every eigenvalue 1, lifted by the regularizer 1e-6 lam_0 = 1e-6
        assert column("fisher", np.eye(8))[0] == pytest.approx((1 + 1e-6) / 8, rel=1e-12)

    def test_unmeasured_directions_take_last_prefix_regularizer(self):
        # the first prefix measures one of 8 directions at lam = 1; the regularizer
        # comes from the last prefix's largest eigenvalue, 9
        reg = 1e-6 * 9.0
        fisher = column("fisher", np.eye(1, 8), 3.0 * np.eye(8))
        assert fisher[0] == pytest.approx(1 / (1 / (1 + reg) + 7 / reg), rel=1e-12)
        assert fisher[1] == pytest.approx((9 + reg) / 8, rel=1e-12)

    def test_monotone_in_rows(self, rng):
        # Loewner order: appending a row never decreases J at the series' fixed reg
        k = 10
        for _ in range(5):
            design = rng.standard_normal((6, k))
            extra = rng.standard_normal((1, k))
            j1, j2 = column("fisher", design, np.vstack([design, extra]))
            assert j2 >= j1 - 1e-12


class TestRankAndMutualInfo:
    def test_single_row_rank(self):
        assert cov_from_rows([[0.3, 0.0, 0.1]]).rank() == 1
        assert column("rank", [[0.3, 0.0, 0.1]])[0] == 1

    def test_identity_mi_zero(self):
        assert column("mutual_info", np.eye(6))[0] == pytest.approx(0.0, abs=1e-12)

    def test_row_scaling_adds_k_log_c(self, rng):
        design = rng.standard_normal((5, 5))
        c = 2.7
        mi1 = column("mutual_info", design)[0]
        mi2 = column("mutual_info", c * design)[0]
        assert mi2 - mi1 == pytest.approx(5 * np.log(c), abs=1e-9)

    def test_am_gm_bound_on_measured_subspace(self, rng):
        for _ in range(5):
            design = rng.standard_normal((7, 12))
            cov = cov_from_rows(design)
            k = cov.rank()
            lam = cov.singular_values()[:k] ** 2
            bound = (k / 2) * np.log(np.sum(lam) / k)
            assert column("mutual_info", design)[0] <= bound + 1e-10

    def test_am_gm_equality_for_uniform_spectrum(self):
        cov = cov_from_rows(3.0 * np.eye(4))
        k = cov.rank()
        bound = (k / 2) * np.log(np.sum(cov.design**2) / k)
        assert column("mutual_info", 3.0 * np.eye(4))[0] == pytest.approx(bound, abs=1e-12)


class TestSeries:
    def test_series_shapes_and_fisher_monotone(self):
        o = pauli_site("y", 1, 2) / 2
        u = build_propagator(KickedIsing(L=2, J=1.0, hx=1.4, hz=1.4))
        cov = timeline_covariance(heisenberg_timeline(o, u, 39), gell_mann_basis(4), u)
        series = quantifier_series([cov.truncated(n).singular_values() for n in range(1, 41)],
                                   cov.design.shape[1])
        assert list(series) == ["shannon", "fisher", "rank", "mutual_info"]
        assert all(len(column) == 40 for column in series.values())
        rank, fisher = series["rank"], series["fisher"]
        assert all(a <= b for a, b in zip(rank, rank[1:]))
        assert all(b >= a - 1e-15 for a, b in zip(fisher, fisher[1:]))
        assert np.all(series["shannon"] >= -1e-12)


    def test_columns_keep_the_per_prefix_bits(self, rng):
        # reference: each measure on its own, as separate per-prefix functions computed
        # them, with singular values below the measured cut in every prefix
        design = rng.standard_normal((30, 15)) * np.logspace(0, -12, 15)
        spectra = [sv(design[:n]) for n in (3, 9, 15, 30)]
        k = 20

        def measured(s):
            return s[: measured_rank(s)] ** 2

        reg = 1e-6 * measured(spectra[-1])[0]
        want = {"shannon": [], "fisher": [], "rank": [], "mutual_info": []}
        for s in spectra:
            lam = measured(s)
            p = lam / lam.sum()
            want["shannon"].append(float(0.0 - np.sum(p * np.log(p))))
            lifted = np.zeros(k)
            lifted[: len(s)] = s**2
            want["fisher"].append(float(1.0 / np.sum(1.0 / (lifted + reg))))
            want["rank"].append(measured_rank(s))
            want["mutual_info"].append(float(0.5 * np.sum(np.log(lam))))
        assert [measured_rank(s) for s in spectra][-1] < 15  # the cut drops values
        got = quantifier_series(spectra, k)
        for metric, column in want.items():
            assert np.array_equal(got[metric], np.array(column)), metric
            assert got[metric].dtype == np.array(column).dtype


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
