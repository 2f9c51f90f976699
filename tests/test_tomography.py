import tracemalloc

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
    heisenberg_timeline,
    pauli_site,
    timeline_blocks,
)
from chaostomo import krylov, tomography
from chaostomo.operator_space import bloch_decode, bloch_encode, bloch_encode_batch, gell_mann_basis
from chaostomo.tomography import (
    RANK_TOL,
    CovarianceData,
    build_covariance,
    haar_random_pure,
    measured_rank,
    ml_estimate,
    model_step,
    psd_project,
    read_timeline,
    reconstruct_series,
)
from helpers import run_tomography, shannon, stack, timeline_covariance, timeline_record


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
        u = build_propagator(KickedTop(j=2, lam=3.0, alpha=1.4))
        tl = heisenberg_timeline(jy, u, 10)
        psi = haar_random_pure(5, rng)
        rec = timeline_record(psi, tl, 0.0, 1)
        rho = np.outer(psi, psi.conj())
        want = [np.trace(o @ rho).real for o in tl]
        assert np.allclose(rec, want, atol=1e-12)

    def test_maximally_mixed_gives_pure_noise(self):
        jy = angular_momentum_ops(2)[1]
        u = build_propagator(KickedTop(j=2, lam=3.0, alpha=1.4))
        tl = heisenberg_timeline(jy, u, 30)
        rec0 = timeline_record(np.eye(5) / 5, tl, 0.0, 7)
        assert np.max(np.abs(rec0)) < 1e-12
        rec = timeline_record(np.eye(5) / 5, tl, 0.1, 7)
        noise = np.random.default_rng(7).standard_normal(31) * 0.1
        assert np.allclose(rec, noise)

    def test_deterministic_for_seed(self, rng):
        jy = angular_momentum_ops(2)[1]
        u = build_propagator(KickedTop(j=2, lam=3.0, alpha=1.4))
        tl = heisenberg_timeline(jy, u, 10)
        psi = haar_random_pure(5, rng)
        a = timeline_record(psi, tl, 0.1, 42)
        b = timeline_record(psi, tl, 0.1, 42)
        assert np.array_equal(a, b)

    def test_negative_sigma_rejected(self, rng):
        jy = angular_momentum_ops(2)[1]
        tl = heisenberg_timeline(jy, build_propagator(KickedTop(2, 1.0, 1.0)), 3)
        with pytest.raises(ValueError):
            timeline_record(haar_random_pure(5, rng), tl, -0.1, 0)


class TestStreamedTimeline:
    """One pass over timeline blocks against the collected timeline, bit for bit.

    At d = 32, a short block would take the encode to OpenBLAS's small-matrix
    kernel, whose rows round otherwise than those of the whole stack.
    """

    @pytest.mark.parametrize("n_rows", [1, 40, TIMELINE_BLOCK + 1, 2 * TIMELINE_BLOCK,
                                        2 * TIMELINE_BLOCK + 37, 3 * TIMELINE_BLOCK + 5])
    @pytest.mark.parametrize("haar", [False, True], ids=["fixed", "haar"])
    def test_matches_collected(self, n_rows, haar, rng):
        d = 32
        basis = gell_mann_basis(d)
        o = pauli_site("y", 1, 5) / 2
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        states = [haar_random_pure(d, rng), a @ a.conj().T / np.trace(a @ a.conj().T)]
        if haar:
            step = np.random.default_rng(9)
            steps = stack(timeline_blocks(o, n_rows - 1, np.random.default_rng(9)))
        else:
            step = build_propagator(KickedIsing(L=5, hz=0.4))
            steps = heisenberg_timeline(o, step, n_rows - 1)
        keep = sorted({0, n_rows // 2, n_rows - 1})
        cov, expected, kept = read_timeline(o, n_rows, step, basis, states, keep)
        assert np.array_equal(cov.design, bloch_encode_batch(steps, basis))
        assert np.array_equal(cov.row_offsets, np.einsum("nii->n", steps).real / d)
        flat = steps.reshape(n_rows, -1)
        rhos = [np.outer(states[0], states[0].conj()), states[1]]
        assert all(np.array_equal(row, (flat @ rho.conj().reshape(-1)).real)
                   for row, rho in zip(expected, rhos))
        assert all(np.array_equal(op, steps[n]) for op, n in zip(kept, keep))

    def test_peak_below_the_stack(self, rng):
        # kicked Ising L=4 at the default record length 2 d^2
        d, n_rows = 16, 512
        o = pauli_site("y", 1, 4) / 2
        u = build_propagator(KickedIsing(L=4, hz=1.4))
        basis = gell_mann_basis(d)
        psi = haar_random_pure(d, rng)
        tracemalloc.start()
        try:
            read_timeline(o, n_rows, u, basis, [psi])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n_rows * d * d * np.dtype(complex).itemsize

    def test_row_count_checked(self, monkeypatch):
        # the pass makes its own blocks, so only its inputs can disagree, and
        # each is checked before the first block
        def no_pass(*args):
            raise AssertionError("timeline made before the inputs were checked")

        monkeypatch.setattr(tomography, "timeline_blocks", no_pass)
        o = angular_momentum_ops(1)[1]
        u = build_propagator(KickedTop(j=1, lam=2.0, alpha=1.0))
        with pytest.raises(ValueError, match="dim"):
            read_timeline(o, 10, u, gell_mann_basis(4))
        with pytest.raises(ValueError, match="state dimension"):
            read_timeline(o, 10, u, states=[np.ones(4) / 2])
        with pytest.raises(ValueError, match="keep"):
            read_timeline(o, 10, u, keep=[10])


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
        u = build_propagator(model)
        tl = heisenberg_timeline(o, u, 199)
        cov = timeline_covariance(tl, basis, u)
        lhs = float(np.sum(cov.design**2))  # Tr(design^T design)
        rhs = len(tl) * float(np.sum(bloch_encode(o, basis) ** 2))
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)

    def test_single_row_rank_one(self):
        jy = angular_momentum_ops(1)[1]
        basis = gell_mann_basis(3)
        u = build_propagator(KickedTop(1, 2.0, 1.0))
        cov = timeline_covariance(heisenberg_timeline(jy, u, 0), basis, u)
        assert cov.rank() == 1

    def test_kicked_ising_rank_saturates_at_13(self):
        o = pauli_site("y", 1, 2) / 2
        u = build_propagator(KickedIsing(L=2, J=1.0, hx=1.4, hz=1.4))
        tl = heisenberg_timeline(o, u, 60)
        cov = timeline_covariance(tl, gell_mann_basis(4), u)
        assert cov.rank() == 13

    def test_rank_bound_for_single_unitary_timelines(self, rng):
        # span of a conjugation orbit always leaves out >= d - 2 directions
        d = 4
        u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        o = (a + a.conj().T) / 2
        tl = heisenberg_timeline(o, u, 50)
        cov = timeline_covariance(tl, gell_mann_basis(d), u)
        assert cov.rank() <= d * d - d + 1

    def test_monotone_rank_and_saturating_entropy(self):
        # rank is monotone by inclusion of row spans; the normalized-spectrum
        # entropy is NOT exactly monotone (a row reinforcing an already
        # measured direction lowers it), but it rises to saturation with at
        # most small dips along the way
        o = pauli_site("y", 1, 2) / 2
        u = build_propagator(KickedIsing(L=2, J=1.0, hx=1.4, hz=1.4))
        tl = heisenberg_timeline(o, u, 30)
        cov = timeline_covariance(tl, gell_mann_basis(4), u)
        ranks = [cov.truncated(n).rank() for n in range(1, 31)]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))
        entropies = np.array([shannon(cov.truncated(n).singular_values())
                              for n in range(2, 31)])
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
    """The least-squares estimate against the masked SVD triple the estimator used to cut itself."""

    @pytest.mark.parametrize("factored", [True, False], ids=["factored", "plain"])
    def test_matches_masked_triple(self, factored, rng):
        if factored:
            model = KickedIsing(L=4, hz=0.0)
            o, n_rows = _chain_case(model)
            u = build_propagator(model)
            cov = timeline_covariance(heisenberg_timeline(o, u, n_rows - 1),
                                      gell_mann_basis(model.dim), u)
            assert cov.span is not None
        else:
            # rank 5 of 8 directions, so the cut drops rounding-level values
            cov = CovarianceData(rng.standard_normal((12, 5)) @ rng.standard_normal((5, 8)))
        for c in (cov, cov.truncated(cov.n_rows // 2)):
            u, s, vt = c.svd()
            keep = s > 1e-10 * s[0]
            m = c.design @ rng.standard_normal(c.design.shape[1]) + c.row_offsets
            want = vt[keep].T @ ((u[:, keep].T @ (m - c.row_offsets)) / s[keep])
            got = ml_estimate(m, c)
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
            assert c.rank() == np.count_nonzero(keep)
            # the orbit span has exactly the measured directions: nothing is left to cut
            assert (0 < c.rank() == len(s)) if factored else (0 < c.rank() < len(s))

    def test_zero_design_measures_nothing(self):
        cov = CovarianceData(np.zeros((3, 8)))
        assert np.array_equal(ml_estimate(np.ones(3), cov), np.zeros(8))
        assert cov.rank() == 0
        # nothing measured: the projection is the plain Euclidean one
        basis, r_ml = gell_mann_basis(3), np.array([1.0] + [0.0] * 7)
        r_bar, _, diag = psd_project(r_ml, cov, basis)
        assert diag.iters == 1 and np.array_equal(r_bar, tomography._project_feasible(r_ml, basis))


class TestSingularValues:
    """Values-only singular values against those of the full decomposition."""

    @pytest.mark.parametrize("factored", [True, False], ids=["factored", "plain"])
    def test_matches_full_svd(self, factored):
        from chaostomo.quantifiers import quantifier_series

        model = XXZChain(L=4, g=0.94, site=2) if factored else KickedIsing(L=4, hz=1.4)
        o, n_rows = _chain_case(model)
        u = build_propagator(model)
        tl = heisenberg_timeline(o, u, n_rows - 1)
        values, full = (timeline_covariance(tl, gell_mann_basis(16), u) for _ in range(2))
        assert (values.span is not None) == factored
        s = full.svd()[1]
        assert np.max(np.abs(values.singular_values() - s)) <= 1e-13 * s[0]
        steps = [n_rows // 8, n_rows // 4, n_rows // 2, n_rows]
        got, want = (quantifier_series([c.truncated(n).singular_values() for n in steps],
                                       c.design.shape[1]) for c in (values, full))
        assert 0 < values.rank() == full.rank()
        # the orbit span has exactly the measured directions: nothing is left to cut
        assert (values.rank() == len(s)) if factored else (values.rank() < len(s))
        assert np.array_equal(got["rank"], want["rank"])
        for metric in ("shannon", "fisher", "mutual_info"):
            assert np.max(np.abs(got[metric] - want[metric]) / np.abs(want[metric])) <= 1e-12
        # a least-squares solve sets the singular values, and the measured
        # subspace is cut by them
        solved = timeline_covariance(tl, gell_mann_basis(16), u)
        ml_estimate(np.zeros(n_rows), solved)
        assert np.max(np.abs(solved.singular_values() - s)) <= 1e-13 * s[0]
        assert solved.rank() == values.rank()


class TestFactoredDesign:
    """Prefix SVDs in the orbit span against the plain SVD of the design."""

    @pytest.mark.parametrize("model", FACTORED_CASES, ids=lambda m: (
        f"ising-L{m.L}-hz{m.hz}" if isinstance(m, KickedIsing) else f"xxz-L{m.L}-g{m.g}"))
    def test_matches_plain_svd(self, model):
        from chaostomo.quantifiers import quantifier_series

        o, n_rows = _chain_case(model)
        basis = gell_mann_basis(model.dim)
        u = build_propagator(model)
        tl = heisenberg_timeline(o, u, n_rows - 1)
        cov = timeline_covariance(tl, basis, u)
        assert cov.span is not None
        k = len(cov.span)
        assert k < min(n_rows, len(basis))
        assert np.max(np.abs(cov.span @ cov.span.T - np.eye(k))) < 1e-12
        resid = cov.design - cov._coords @ cov.span
        assert np.linalg.norm(resid) <= 1e-11 * np.linalg.norm(cov.design)

        plain = CovarianceData(cov.design, row_offsets=cov.row_offsets)
        steps = [n_rows // 4, n_rows // 2, n_rows]
        got, want = (quantifier_series([c.truncated(n).singular_values() for n in steps],
                                       len(basis)) for c in (cov, plain))
        assert np.array_equal(got["rank"], want["rank"])
        assert np.all(got["rank"] <= np.minimum(steps, k))
        for metric in ("shannon", "fisher"):
            a, b = got[metric], want[metric]
            assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-9, metric
        # mutual information sums ln s_i^2 of both signs and can cancel to
        # near 0, so it is relative to the sum of the terms' magnitudes
        for i, n in enumerate(steps):
            s = plain.truncated(n).singular_values()[: want["rank"][i]]
            scale = np.sum(np.abs(np.log(s**2))) / 2
            assert abs(got["mutual_info"][i] - want["mutual_info"][i]) <= 1e-9 * scale

        # the pseudoinverse amplifies the dropped residue by s_0 / s_min, so
        # the estimates are compared where every kept direction is clean
        psi = haar_random_pure(model.dim, np.random.default_rng(1))
        record = timeline_record(psi, tl, 0.1, 2)
        for n in steps:
            prefix = plain.truncated(n)
            s = prefix.singular_values()
            if s[prefix.rank() - 1] < 1e-5 * s[0]:
                continue
            rec = record[:n]
            a, b = ml_estimate(rec, cov.truncated(n)), ml_estimate(rec, plain.truncated(n))
            assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(b)

    def test_prefix_keeps_span_while_it_limits_rank(self):
        o, n_rows = _chain_case(KickedIsing(L=4, hz=0.0))
        u = build_propagator(KickedIsing(L=4, hz=0.0))
        cov = timeline_covariance(heisenberg_timeline(o, u, n_rows - 1), gell_mann_basis(16), u)
        k = len(cov.span)
        assert cov.truncated(k + 1).span is cov.span
        assert cov.truncated(k).span is None
        assert np.array_equal(cov.truncated(k + 1)._coords, cov._coords[: k + 1])

    def test_pass_spans_by_its_own_step(self):
        # the covariance of the pass is build_covariance of the collected
        # timeline, given the same O and U, bit for bit
        model = KickedIsing(L=4, hz=0.0)
        o, n_rows = _chain_case(model)
        u = build_propagator(model)
        basis = gell_mann_basis(model.dim)
        tl = heisenberg_timeline(o, u, n_rows - 1)
        want = build_covariance(bloch_encode_batch(tl, basis),
                                np.einsum("nii->n", tl).real / model.dim, basis, u, o)
        got = read_timeline(o, n_rows, u, basis)[0]
        assert got.span is not None
        for name in ("design", "row_offsets", "span", "_coords"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_span_built_in_blocks(self, monkeypatch):
        # XXZ L=5, g=0: the 101 orbit-frame rows touch 308 Gell-Mann elements,
        # encoded in four blocks, each as from one stack; the transient
        # (block, d, d) stacks hold one block, not all 308 elements
        model = XXZChain(L=5, g=0.0, site=3)
        o, n_rows = _chain_case(model)
        u = build_propagator(model)
        frame = krylov._orbit_frame(u, o, traceless=True)[0]
        support = np.count_nonzero(krylov._frame_rows(frame).any(axis=0))
        tracemalloc.start()
        try:
            span = krylov.orbit_span(u, o, n_rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert support > 4 * TIMELINE_BLOCK
        encoded = support * (model.dim**2 - 1) * np.dtype(float).itemsize
        block_stack = 2 * TIMELINE_BLOCK * model.dim**2 * np.dtype(complex).itemsize
        # the encoded blocks and their concatenation, and one block's stacks
        assert peak < 2 * encoded + block_stack
        monkeypatch.setattr(krylov, "TIMELINE_BLOCK", support + 1)  # one block
        assert np.array_equal(span, krylov.orbit_span(u, o, n_rows))

    def test_full_span_designs_stay_plain(self):
        # kicked top j=10, 100 rows: the span (240 directions) exceeds the rows
        jy = angular_momentum_ops(10)[1]
        u = build_propagator(KickedTop(10, 0.5, np.pi / 2))
        assert timeline_covariance(heisenberg_timeline(jy, u, 99), gell_mann_basis(21), u).span is None
        # kicked Ising hz=1.4: the orbit has K = 241 > 255 / 2 dimensions, the
        # plain side of the size rule
        model = KickedIsing(L=4, hz=1.4)
        o, n_rows = _chain_case(model)
        u = build_propagator(model)
        tl = heisenberg_timeline(o, u, n_rows - 1)
        assert timeline_covariance(tl, gell_mann_basis(16), u).span is None
        # random control: no fixed step
        cov, _, _ = read_timeline(np.diag([1.0, -1.0, 0.0, 0.0]), 40,
                                  model_step(HaarSteps(dim=4, seed=1)), gell_mann_basis(4))
        assert cov.span is None


class TestMLEstimate:
    def test_exact_inversion_with_complete_record(self, rng):
        d = 8
        basis = gell_mann_basis(d)
        psi = haar_random_pure(d, rng)
        cov, expected, _ = read_timeline(np.diag(np.arange(d) - 3.5), d * d,
                                         model_step(HaarSteps(dim=d, seed=3)), basis, [psi])
        r = ml_estimate(expected[0], cov)
        want = bloch_encode(np.outer(psi, psi.conj()), basis)
        assert np.max(np.abs(r - want)) < 1e-8

    def test_single_row_projection(self, rng):
        d = 3
        basis = gell_mann_basis(d)
        jy = angular_momentum_ops(1)[1]
        u = build_propagator(KickedTop(1, 2.0, 1.0))
        tl = heisenberg_timeline(jy, u, 0)
        cov = timeline_covariance(tl, basis, u)
        psi = haar_random_pure(d, rng)
        rec = timeline_record(psi, tl, 0.0, 0)
        r = ml_estimate(rec, cov)
        o_vec = bloch_encode(jy, basis)
        r_true = bloch_encode(np.outer(psi, psi.conj()), basis)
        want = o_vec * (o_vec @ r_true) / (o_vec @ o_vec)
        assert np.max(np.abs(r - want)) < 1e-10

    def test_maximally_mixed_gives_zero(self):
        d = 3
        basis = gell_mann_basis(d)
        jy = angular_momentum_ops(1)[1]
        u = build_propagator(KickedTop(1, 2.0, 1.0))
        tl = heisenberg_timeline(jy, u, 20)
        cov = timeline_covariance(tl, basis, u)
        rec = timeline_record(np.eye(d) / d, tl, 0.0, 0)
        assert np.max(np.abs(ml_estimate(rec, cov))) < 1e-12

    def test_non_traceless_observable_inverts_exactly(self, rng):
        # the known Tr(O)/d offset is subtracted before inversion
        d = 5
        basis = gell_mann_basis(d)
        o = np.diag(np.arange(d, dtype=float))  # nonzero trace
        psi = haar_random_pure(d, rng)
        cov, expected, _ = read_timeline(o, d * d, model_step(HaarSteps(dim=d, seed=8)), basis,
                                         [psi])
        r = ml_estimate(expected[0], cov)
        assert np.max(np.abs(r - bloch_encode(np.outer(psi, psi.conj()), basis))) < 1e-8

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError):
            ml_estimate(np.array([]), CovarianceData(np.eye(3)))


    def test_matches_masked_pseudoinverse_across_the_cut(self, rng):
        # singular values on both sides of RANK_TOL s_0: 3e-10 s_0 is kept,
        # 5e-11 s_0 cut.  Either cut moved would move the estimate by its
        # whole size, and the pseudoinverse's own rounding is s_0 / s_min eps.
        left, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        right, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        spectrum = np.array([1.0, 0.3, 1e-3, 1e-6, 3e-10, 5e-11, 1e-13] + [0.0] * 13)
        cov = CovarianceData((left[:, :20] * spectrum) @ right.T)
        m = rng.standard_normal(30)
        u, s, vt = np.linalg.svd(cov.design, full_matrices=False)
        keep = s > 1e-10 * s[0]
        want = vt[keep].T @ ((u[:, keep].T @ m) / s[keep])
        got = ml_estimate(m, cov)
        assert np.count_nonzero(keep) == cov.rank() == 5
        assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)

    @pytest.mark.parametrize("spectrum", [
        [1.0, 0.3, 1e-3, 3e-10, 5e-11, 1e-13],
        [1.0, 1.001e-10, 0.999e-10, 0.0, 0.0, 0.0],
        [1.0] * 6,
        [0.0] * 6,
    ], ids=["straddle", "at-the-cut", "full", "zero"])
    def test_lstsq_rank_is_measured_rank(self, spectrum, rng):
        # numpy's rcond (gelsd zeroes s <= rcond s_0) is the cut of measured_rank
        left, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        right, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        design = (left[:, :6] * spectrum) @ right.T
        _, _, rank, s = np.linalg.lstsq(design, rng.standard_normal((9, 2)), rcond=RANK_TOL)
        assert rank == measured_rank(s)


class TestGramProx:
    """The Gram-form proximal map against x + V lam/(lam + 1/t) V^T (r_ml - x) from an SVD."""

    # the "-panels" cases invert a Gram of more than one panel (_PANEL = 128)
    @pytest.mark.parametrize("shape", ["wide", "tall", "factored", "wide-panels", "tall-panels",
                                       "factored-panels"])
    def test_matches_singular_vector_form(self, shape, rng):
        if shape == "factored":
            model = KickedIsing(L=4, hz=0.0)
            o, n_rows = _chain_case(model)
            u = build_propagator(model)
            cov = timeline_covariance(heisenberg_timeline(o, u, n_rows - 1),
                                      gell_mann_basis(model.dim), u)
            assert cov.span is not None
        elif shape == "factored-panels":
            # n = 200 rows in a span of K = 150 orthonormal rows of 400 columns
            span = np.linalg.qr(rng.standard_normal((400, 150)))[0].T
            coords = rng.standard_normal((200, 150)) * np.logspace(0, -3, 150)
            cov = CovarianceData(coords @ span, span=span)
        else:
            # columns scaled over three decades, so the shrink weights differ
            n, k = {"wide": (12, 24), "tall": (40, 24), "wide-panels": (300, 400),
                    "tall-panels": (400, 300)}[shape]
            cov = CovarianceData(rng.standard_normal((n, k)) * np.logspace(0, -3, k))
        a = cov._coords
        assert (len(a) <= a.shape[1]) == shape.startswith("wide")
        assert (min(a.shape) > tomography._PANEL) == shape.endswith("-panels")
        r_ml, x = rng.standard_normal((2, cov.design.shape[1]))
        grad, prox, norm = tomography._quadratic(cov, r_ml)
        _, s, vt = cov.svd()
        lam = (s / s[0]) ** 2
        want = x + vt.T @ (lam / (lam + 1.0 / tomography._PROX_T) * (vt @ (r_ml - x)))
        assert np.max(np.abs(prox(x) - want)) <= 1e-12 * np.max(np.abs(want))
        step = x - r_ml
        assert np.max(np.abs(grad(x) - vt.T @ (lam * (vt @ step)))) <= 1e-12 * np.max(np.abs(step))
        assert abs(norm(x) - np.linalg.norm(np.sqrt(lam) * (vt @ x))) <= 1e-12 * norm(x)
        # the shrink is built once per prefix and shared by later calls
        shrink = cov._shrink
        tomography._quadratic(cov, x)
        assert cov._shrink is shrink

    @pytest.mark.parametrize("n,k", [(100, 440), (128, 300), (300, 128)],
                             ids=["kicked-top-prefix", "wide-one-panel", "tall-one-panel"])
    def test_one_panel_shrink_is_plain_inverse(self, n, k, rng):
        # a Gram of at most _PANEL rows is np.linalg.inv's, so kicked-top CSVs keep their bytes
        cov = CovarianceData(rng.standard_normal((n, k)))
        tomography._quadratic(cov, np.zeros(k))
        a, c = cov._coords, cov.singular_values()[0] ** 2 / tomography._PROX_T
        gram = a @ a.T if n <= k else a.T @ a
        gram.flat[:: len(gram) + 1] += c
        want = np.linalg.inv(gram)
        if n <= k:
            want = want @ a
        else:
            want *= -c
            want.flat[:: len(want) + 1] += 1.0
        assert np.array_equal(cov._shrink, want)

    def test_tall_shrink_footprint(self, rng):
        # np.linalg.inv's traced output alone doubles the 8.4 MB Gram at k = 1023; its
        # LAPACK copy is malloc'ed, so tracemalloc does not see it
        cov = CovarianceData(rng.standard_normal((1100, 1023)))
        cov.singular_values()
        tracemalloc.start()
        try:
            tomography._quadratic(cov, np.zeros(1023))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cov._shrink.shape == (1023, 1023)
        assert peak < 1.5 * cov._shrink.nbytes


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
        d, fidelity = 5, tomography._fidelity
        psi = haar_random_pure(d, rng)
        assert fidelity(psi, np.outer(psi, psi.conj())) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(psi, np.eye(d) / d) == pytest.approx(1 / d, abs=1e-12)
        phi = haar_random_pure(d, rng)
        phi -= psi * np.vdot(psi, phi)
        phi /= np.linalg.norm(phi)
        assert fidelity(psi, np.outer(phi, phi.conj())) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_mismatch(self, rng):
        with pytest.raises(ValueError):
            tomography._fidelity(haar_random_pure(3, rng), np.eye(4) / 4)


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
        cov = timeline_covariance(tl, basis, np.eye(d))
        psi = haar_random_pure(d, rng)
        rec = timeline_record(psi, tl, 0.0, 0)
        fids = reconstruct_series([rec], cov, basis, [psi], eval_steps=[10, 40]).fidelities[0]
        r_true = bloch_encode(np.outer(psi, psi.conj()), basis)
        o_vec = bloch_encode(o, basis)
        r_proj = o_vec * (o_vec @ r_true) / (o_vec @ o_vec)
        if np.linalg.eigvalsh(bloch_decode(r_proj, basis))[0] >= 0:
            want = tomography._fidelity(psi, bloch_decode(r_proj, basis))
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
