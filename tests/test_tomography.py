import numpy as np
import pytest

from chaostomo.dynamics import (
    HaarSteps,
    KickedIsing,
    KickedTop,
    TiltedIsing,
    XXZChain,
    angular_momentum_ops,
    build_propagator,
    heisenberg_timeline,
    kicked_top_floquet,
    pauli_site,
    tki_floquet,
)
from chaostomo import tomography
from chaostomo.operator_space import bloch_decode, bloch_encode, gell_mann_basis
from chaostomo.tomography import (
    CovarianceData,
    MeasurementRecord,
    build_covariance,
    fidelity,
    generate_record,
    haar_random_pure,
    ml_estimate,
    model_timeline,
    psd_project,
    reconstruct_series,
)
from helpers import run_tomography


class TestHaarStates:
    def test_unit_norm(self, rng):
        for d in (2, 5, 21):
            psi = haar_random_pure(d, rng)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_first_component_moment(self, rng):
        # Haar moment: E|<e_1|psi>|^2 = 1/d, checked by Monte Carlo
        d, n = 4, 10_000
        vals = np.array([abs(haar_random_pure(d, rng)[0]) ** 2 for _ in range(n)])
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1.0 / d) < 3 * se

    def test_bloch_norm(self, rng):
        d = 6
        basis = gell_mann_basis(d)
        psi = haar_random_pure(d, rng)
        r = bloch_encode(np.outer(psi, psi.conj()), basis)
        assert abs(np.sum(r**2) - (1 - 1 / d)) < 1e-10


class TestRecords:
    def test_noiseless_record_is_expectations(self, rng):
        jy = angular_momentum_ops(2)[1]
        u = kicked_top_floquet(KickedTop(j=2, lam=3.0, alpha=1.4))
        tl = heisenberg_timeline(jy, u, 10)
        psi = haar_random_pure(5, rng)
        rec = generate_record(psi, tl, 0.0, 1)
        rho = np.outer(psi, psi.conj())
        want = [np.trace(o @ rho).real for o in tl.steps]
        assert np.allclose(rec.values, want, atol=1e-12)

    def test_maximally_mixed_gives_pure_noise(self):
        jy = angular_momentum_ops(2)[1]
        u = kicked_top_floquet(KickedTop(j=2, lam=3.0, alpha=1.4))
        tl = heisenberg_timeline(jy, u, 30)
        rec0 = generate_record(np.eye(5) / 5, tl, 0.0, 7)
        assert np.max(np.abs(rec0.values)) < 1e-12
        rec = generate_record(np.eye(5) / 5, tl, 0.1, 7)
        noise = np.random.default_rng(7).standard_normal(31) * 0.1
        assert np.allclose(rec.values, noise)

    def test_deterministic_for_seed(self, rng):
        jy = angular_momentum_ops(2)[1]
        u = kicked_top_floquet(KickedTop(j=2, lam=3.0, alpha=1.4))
        tl = heisenberg_timeline(jy, u, 10)
        psi = haar_random_pure(5, rng)
        a = generate_record(psi, tl, 0.1, 42)
        b = generate_record(psi, tl, 0.1, 42)
        assert np.array_equal(a.values, b.values)

    def test_negative_sigma_rejected(self, rng):
        jy = angular_momentum_ops(2)[1]
        tl = heisenberg_timeline(jy, kicked_top_floquet(KickedTop(2, 1.0, 1.0)), 3)
        with pytest.raises(ValueError):
            generate_record(haar_random_pure(5, rng), tl, -0.1, 0)


MODEL_CASES = [
    (KickedTop(j=4, lam=3.0, alpha=1.4), lambda d: angular_momentum_ops(4)[1]),
    (KickedIsing(L=3, J=1.0, hx=1.4, hz=1.4), lambda d: pauli_site("y", 1, 3) / 2),
    (TiltedIsing(L=3, J=1.0, hx=1.4, hz=0.1), lambda d: pauli_site("y", 1, 3) / 2),
    (XXZChain(L=3, Jxy=1.0, Jzz=1.1, g=0.94, site=2), lambda d: pauli_site("y", 2, 3) / 2),
]


class TestCovariance:
    @pytest.mark.parametrize("model,obs", MODEL_CASES)
    def test_trace_identity(self, model, obs):
        # Tr(C^-1) = (number of rows) x |O|^2 for every model family
        d = model.dim
        basis = gell_mann_basis(d)
        o = obs(d)
        tl = heisenberg_timeline(o, build_propagator(model), 199)
        cov = build_covariance(tl, basis)
        lhs = float(np.sum(cov.design**2))  # Tr(design^T design)
        rhs = len(tl) * float(np.sum(bloch_encode(o, basis) ** 2))
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)

    def test_single_row_rank_one(self):
        jy = angular_momentum_ops(1)[1]
        basis = gell_mann_basis(3)
        tl = heisenberg_timeline(jy, kicked_top_floquet(KickedTop(1, 2.0, 1.0)), 0)
        cov = build_covariance(tl, basis)
        assert cov.rank() == 1

    def test_kicked_ising_rank_saturates_at_13(self):
        o = pauli_site("y", 1, 2) / 2
        u = tki_floquet(KickedIsing(L=2, J=1.0, hx=1.4, hz=1.4))
        tl = heisenberg_timeline(o, u, 60)
        cov = build_covariance(tl, gell_mann_basis(4))
        assert cov.rank() == 13

    def test_rank_bound_for_single_unitary_timelines(self, rng):
        # span of a conjugation orbit always leaves out >= d - 2 directions
        d = 4
        u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        o = (a + a.conj().T) / 2
        tl = heisenberg_timeline(o, u, 50)
        cov = build_covariance(tl, gell_mann_basis(d))
        assert cov.rank() <= d * d - d + 1

    def test_monotone_rank_and_saturating_entropy(self):
        # rank is monotone by inclusion of row spans; the normalized-spectrum
        # entropy is NOT exactly monotone (a row reinforcing an already
        # measured direction lowers it), but it rises to saturation with at
        # most small dips along the way
        from chaostomo.quantifiers import shannon_entropy

        o = pauli_site("y", 1, 2) / 2
        u = tki_floquet(KickedIsing(L=2, J=1.0, hx=1.4, hz=1.4))
        tl = heisenberg_timeline(o, u, 30)
        cov = build_covariance(tl, gell_mann_basis(4))
        ranks = [cov.truncated(n).rank() for n in range(1, 31)]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))
        entropies = np.array([shannon_entropy(cov.truncated(n)) for n in range(2, 31)])
        assert entropies[-1] > entropies[0]
        assert np.min(np.diff(entropies)) > -0.05


def _chain_case(model):
    """Observable and record length of the preset cells: s1y on the kicked
    Ising chain, s2y+s4y on XXZ; 2 d^2 rows at L=4, 1200 at L=5."""
    L = model.L
    if isinstance(model, KickedIsing):
        o = pauli_site("y", 1, L) / 2
    else:
        o = (pauli_site("y", 2, L) + pauli_site("y", 4, L)) / 2
    return o, 2 * model.dim**2 if L == 4 else 1200


FACTORED_CASES = [KickedIsing(L=L, hz=0.0) for L in (4, 5)] + [
    XXZChain(L=L, g=g, site=(L + 1) // 2) for L in (4, 5) for g in (0.0, 0.16, 0.94)
]


class TestMeasuredSubspace:
    """``measured()`` against the masked SVD triple the estimator used to cut itself."""

    @pytest.mark.parametrize("factored", [True, False], ids=["factored", "plain"])
    def test_matches_masked_triple(self, factored, rng):
        if factored:
            model = KickedIsing(L=4, hz=0.0)
            o, n_rows = _chain_case(model)
            tl = heisenberg_timeline(o, build_propagator(model), n_rows - 1)
            cov = build_covariance(tl, gell_mann_basis(model.dim))
            assert cov.span is not None
        else:
            # rank 5 of 8 directions, so the cut drops rounding-level values
            cov = CovarianceData(rng.standard_normal((12, 5)) @ rng.standard_normal((5, 8)))
        for c in (cov, cov.truncated(cov.n_rows // 2)):
            u, s, vt = c.svd()
            keep = s > 1e-10 * s[0]
            got = c.measured()
            for a, b in zip(got, (u[:, keep], s[keep], vt[keep])):
                assert np.array_equal(a, b)
            assert c.rank() == len(got[1]) == np.count_nonzero(keep)
            assert 0 < c.rank() < len(s)

    def test_zero_design_measures_nothing(self):
        cov = CovarianceData(np.zeros((3, 8)))
        u, s, vt = cov.measured()
        assert cov.rank() == 0 and u.shape == (3, 0) and s.shape == (0,) and vt.shape == (0, 8)


class TestSingularValues:
    """Values-only singular values against those of the full decomposition."""

    @pytest.mark.parametrize("factored", [True, False], ids=["factored", "plain"])
    def test_matches_full_svd(self, factored):
        from chaostomo.quantifiers import quantifier_series

        model = XXZChain(L=4, g=0.94, site=2) if factored else KickedIsing(L=4, hz=1.4)
        o, n_rows = _chain_case(model)
        tl = heisenberg_timeline(o, build_propagator(model), n_rows - 1)
        values, full = (build_covariance(tl, gell_mann_basis(16)) for _ in range(2))
        assert (values.span is not None) == factored
        full.svd()
        s = full.svd()[1]
        assert np.max(np.abs(values.singular_values() - s)) <= 1e-13 * s[0]
        steps = [n_rows // 8, n_rows // 4, n_rows // 2, n_rows]
        got, want = (quantifier_series(c, [c.truncated(n) for n in steps]) for c in (values, full))
        assert 0 < values.rank() == full.rank() < len(s)
        assert np.array_equal(got["rank"], want["rank"])
        for metric in ("shannon", "fisher", "mutual_info"):
            assert np.max(np.abs(got[metric] - want[metric]) / np.abs(want[metric])) <= 1e-12
        # a full SVD taken later replaces the values-only spectrum, and the
        # measured subspace is cut by its own singular values
        u, s, vt = values.svd()
        assert values.singular_values() is s
        assert values.rank() == len(values.measured()[1]) == np.count_nonzero(s > 1e-10 * s[0])


class TestFactoredDesign:
    """Prefix SVDs in the eigenframe span against the plain SVD of the design."""

    @pytest.mark.parametrize("model", FACTORED_CASES, ids=lambda m: (
        f"ising-L{m.L}-hz{m.hz}" if isinstance(m, KickedIsing) else f"xxz-L{m.L}-g{m.g}"))
    def test_matches_plain_svd(self, model):
        from chaostomo.quantifiers import quantifier_series

        o, n_rows = _chain_case(model)
        basis = gell_mann_basis(model.dim)
        tl = heisenberg_timeline(o, build_propagator(model), n_rows - 1)
        cov = build_covariance(tl, basis)
        assert cov.span is not None
        k = len(cov.span)
        assert k < min(n_rows, len(basis))
        assert np.max(np.abs(cov.span @ cov.span.T - np.eye(k))) < 1e-12
        resid = cov.design - cov.span_coords() @ cov.span
        assert np.linalg.norm(resid) <= 1e-11 * np.linalg.norm(cov.design)

        plain = CovarianceData(cov.design, row_offsets=cov.row_offsets)
        steps = [n_rows // 4, n_rows // 2, n_rows]
        got, want = (quantifier_series(c, [c.truncated(n) for n in steps]) for c in (cov, plain))
        assert np.array_equal(got["rank"], want["rank"])
        assert np.all(got["rank"] <= np.minimum(steps, k))
        for metric in ("shannon", "fisher"):
            a, b = got[metric], want[metric]
            assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-9, metric
        # mutual information sums ln s_i^2 of both signs and can cancel to
        # near 0, so it is relative to the sum of the terms' magnitudes
        for i, n in enumerate(steps):
            s = plain.truncated(n).svd()[1][: want["rank"][i]]
            scale = np.sum(np.abs(np.log(s**2))) / 2
            assert abs(got["mutual_info"][i] - want["mutual_info"][i]) <= 1e-9 * scale

        # the pseudoinverse amplifies the dropped residue by s_0 / s_min, so
        # the estimates are compared where every kept direction is clean
        psi = haar_random_pure(model.dim, np.random.default_rng(1))
        record = generate_record(psi, tl, 0.1, 2)
        for n in steps:
            prefix = plain.truncated(n)
            s = prefix.svd()[1]
            if s[prefix.rank() - 1] < 1e-5 * s[0]:
                continue
            rec = MeasurementRecord(record.values[:n], record.sigma)
            a, b = ml_estimate(rec, cov.truncated(n)), ml_estimate(rec, plain.truncated(n))
            assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(b)

    def test_prefix_keeps_span_while_it_limits_rank(self):
        o, n_rows = _chain_case(KickedIsing(L=4, hz=0.0))
        cov = build_covariance(heisenberg_timeline(o, tki_floquet(KickedIsing(L=4, hz=0.0)),
                                                   n_rows - 1), gell_mann_basis(16))
        k = len(cov.span)
        assert cov.truncated(k + 1).span is cov.span
        assert cov.truncated(k).span is None
        assert np.array_equal(cov.truncated(k + 1).span_coords(), cov.span_coords()[: k + 1])

    def test_full_span_designs_stay_plain(self):
        # kicked top j=10, 100 rows: the span (240 directions) exceeds the rows
        jy = angular_momentum_ops(10)[1]
        tl = heisenberg_timeline(jy, kicked_top_floquet(KickedTop(10, 0.5, np.pi / 2)), 99)
        assert build_covariance(tl, gell_mann_basis(21)).span is None
        # kicked Ising hz=1.4: O touches every eigenframe pair
        model = KickedIsing(L=4, hz=1.4)
        o, n_rows = _chain_case(model)
        tl = heisenberg_timeline(o, build_propagator(model), n_rows - 1)
        assert build_covariance(tl, gell_mann_basis(16)).span is None
        # random control: no fixed step
        tl = model_timeline(HaarSteps(dim=4, seed=1), np.diag([1.0, -1.0, 0.0, 0.0]) + 0j, 40)
        assert build_covariance(tl, gell_mann_basis(4)).span is None


class TestMLEstimate:
    def test_exact_inversion_with_complete_record(self, rng):
        d = 8
        basis = gell_mann_basis(d)
        psi = haar_random_pure(d, rng)
        tl = model_timeline(HaarSteps(dim=d, seed=3), np.diag(np.arange(d) - 3.5).astype(complex), d * d)
        cov = build_covariance(tl, basis)
        rec = generate_record(psi, tl, 0.0, 0)
        r = ml_estimate(rec, cov)
        want = bloch_encode(np.outer(psi, psi.conj()), basis)
        assert np.max(np.abs(r - want)) < 1e-8

    def test_single_row_projection(self, rng):
        d = 3
        basis = gell_mann_basis(d)
        jy = angular_momentum_ops(1)[1]
        tl = heisenberg_timeline(jy, kicked_top_floquet(KickedTop(1, 2.0, 1.0)), 0)
        cov = build_covariance(tl, basis)
        psi = haar_random_pure(d, rng)
        rec = generate_record(psi, tl, 0.0, 0)
        r = ml_estimate(rec, cov)
        o_vec = bloch_encode(jy, basis)
        r_true = bloch_encode(np.outer(psi, psi.conj()), basis)
        want = o_vec * (o_vec @ r_true) / (o_vec @ o_vec)
        assert np.max(np.abs(r - want)) < 1e-10

    def test_maximally_mixed_gives_zero(self):
        d = 3
        basis = gell_mann_basis(d)
        jy = angular_momentum_ops(1)[1]
        tl = heisenberg_timeline(jy, kicked_top_floquet(KickedTop(1, 2.0, 1.0)), 20)
        cov = build_covariance(tl, basis)
        rec = generate_record(np.eye(d) / d, tl, 0.0, 0)
        assert np.max(np.abs(ml_estimate(rec, cov))) < 1e-12

    def test_non_traceless_observable_inverts_exactly(self, rng):
        # the known Tr(O)/d offset is subtracted before inversion
        d = 5
        basis = gell_mann_basis(d)
        o = np.diag(np.arange(d, dtype=float)).astype(complex)  # nonzero trace
        tl = model_timeline(HaarSteps(dim=d, seed=8), o, d * d)
        cov = build_covariance(tl, basis)
        psi = haar_random_pure(d, rng)
        rec = generate_record(psi, tl, 0.0, 0)
        r = ml_estimate(rec, cov)
        assert np.max(np.abs(r - bloch_encode(np.outer(psi, psi.conj()), basis))) < 1e-8

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError):
            ml_estimate(MeasurementRecord(np.array([]), 0.0), CovarianceData(np.eye(3)))


class TestPsdProject:
    def test_feasible_point_unchanged(self):
        basis = gell_mann_basis(2)
        cov = CovarianceData(np.eye(3))
        r = np.array([0.1, 0.2, -0.1])
        r_bar, rho_bar, diag = psd_project(r, cov, basis)
        assert np.max(np.abs(r_bar - r)) < 1e-9
        assert diag.iters == 0 and diag.converged

    def test_qubit_ball_projection_analytic(self):
        basis = gell_mann_basis(2)
        cov = CovarianceData(np.eye(3))
        r_ml = np.array([0.9, -0.4, 0.3])
        r_bar, rho_bar, diag = psd_project(r_ml, cov, basis)
        want = r_ml / np.linalg.norm(r_ml) / np.sqrt(2)
        assert np.max(np.abs(r_bar - want)) < 1e-9
        assert diag.converged

    def test_qubit_ball_projection_grid_oracle(self):
        # independent oracle: dense search over the qubit state set
        basis = gell_mann_basis(2)
        w = np.diag([4.0, 1.0, 0.25])
        cov = CovarianceData(np.sqrt(w))  # C^-1 = w
        r_ml = np.array([0.8, -0.7, 0.45])
        r_bar, _, _ = psd_project(r_ml, cov, basis)

        best, best_val = None, np.inf
        grid = np.linspace(-1 / np.sqrt(2), 1 / np.sqrt(2), 61)
        for x in grid:
            for y in grid:
                for z in grid:
                    v = np.array([x, y, z])
                    if np.sum(v**2) > 0.5:
                        continue
                    val = (r_ml - v) @ w @ (r_ml - v)
                    if val < best_val:
                        best, best_val = v, val
        ours = (r_ml - r_bar) @ w @ (r_ml - r_bar)
        assert ours <= best_val + 1e-6
        # agreement with the grid argmin in the objective's own metric
        # (the valley is flat along weakly weighted directions)
        assert (r_bar - best) @ w @ (r_bar - best) < 2 * (0.025**2) * np.trace(w)

    def test_iteration_cap_returns_best_iterate_with_flag(self, rng, monkeypatch):
        d = 6
        basis = gell_mann_basis(d)
        cov = CovarianceData(rng.standard_normal((20, d * d - 1)))
        r_ml = 3.0 * rng.standard_normal(d * d - 1)
        monkeypatch.setattr(tomography, "_PSD_MAX_ITERS", 10)
        r_bar, rho_bar, diag = psd_project(r_ml, cov, basis)
        assert not diag.converged
        assert diag.iters == 10
        # best iterate is still a physical state
        assert np.linalg.eigvalsh(rho_bar)[0] >= -1e-8
        assert abs(np.trace(rho_bar).real - 1) < 1e-10

    def test_output_always_physical(self, rng):
        d = 6
        basis = gell_mann_basis(d)
        design = rng.standard_normal((20, d * d - 1))
        cov = CovarianceData(design)
        r_ml = rng.standard_normal(d * d - 1)
        r_bar, rho_bar, diag = psd_project(r_ml, cov, basis)
        w = np.linalg.eigvalsh(rho_bar)
        assert w[0] >= -1e-8
        assert abs(np.trace(rho_bar).real - 1) < 1e-10
        assert diag.converged and diag.residual <= 1e-7 * max(1.0, np.linalg.norm(design @ r_ml) / np.linalg.svd(design, compute_uv=False)[0])


class TestFidelity:
    def test_trivial_values(self, rng):
        d = 5
        psi = haar_random_pure(d, rng)
        assert fidelity(psi, np.outer(psi, psi.conj())) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(psi, np.eye(d) / d) == pytest.approx(1 / d, abs=1e-12)
        phi = haar_random_pure(d, rng)
        phi -= psi * np.vdot(psi, phi)
        phi /= np.linalg.norm(phi)
        assert fidelity(psi, np.outer(phi, phi.conj())) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_mismatch(self, rng):
        with pytest.raises(ValueError):
            fidelity(haar_random_pure(3, rng), np.eye(4) / 4)


class TestPipeline:
    def test_zero_noise_complete_timeline_unit_fidelity(self, rng):
        d = 8
        psi = haar_random_pure(d, rng)
        o = np.diag(np.arange(d) - 3.5).astype(complex)
        fids = run_tomography(HaarSteps(dim=d, seed=5), psi, o, d * d, 0.0, 1, eval_steps=[d * d])
        assert fids[-1] >= 1 - 1e-6

    def test_fidelity_rises_with_record_length(self, rng):
        j = 4
        d = 9
        psi = haar_random_pure(d, rng)
        jy = angular_momentum_ops(j)[1]
        fids = run_tomography(
            KickedTop(j=j, lam=7.0, alpha=np.pi / 2), psi, jy, 60, 0.1, 3,
            eval_steps=[5, 20, 60],
        )
        assert fids[-1] > fids[0]

    def test_identity_dynamics_plateau_matches_projection(self, rng):
        # a frozen observable measures one direction; fidelity sticks at the
        # rank-one information level
        d = 4
        basis = gell_mann_basis(d)
        o = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
        tl = heisenberg_timeline(o, np.eye(d), 39)
        cov = build_covariance(tl, basis)
        psi = haar_random_pure(d, rng)
        rec = generate_record(psi, tl, 0.0, 0)
        fids = reconstruct_series([rec], cov, basis, [psi], eval_steps=[10, 40]).fidelities[0]
        r_true = bloch_encode(np.outer(psi, psi.conj()), basis)
        o_vec = bloch_encode(o, basis)
        r_proj = o_vec * (o_vec @ r_true) / (o_vec @ o_vec)
        if np.linalg.eigvalsh(bloch_decode(r_proj, basis))[0] >= 0:
            want = fidelity(psi, bloch_decode(r_proj, basis))
            assert fids == pytest.approx([want, want], abs=1e-9)
        assert abs(fids[0] - fids[1]) < 1e-9

    def test_deterministic_given_seed(self, rng):
        psi = haar_random_pure(5, rng)
        jy = angular_momentum_ops(2)[1]
        runs = [
            run_tomography(KickedTop(j=2, lam=3.0, alpha=1.4), psi, jy, 15, 0.1, 99)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0], runs[1])
