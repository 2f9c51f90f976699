"""Acceptance suite: one test per release criterion, with a printed verdict line.

Run with ``pytest tests/test_acceptance.py -rA`` to see every criterion's
line.  Long variants (L=5 saturation, 100-state perturbation averages) are
gated behind CHAOSTOMO_LONG=1.
"""

import os

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
    hamiltonian,
    heisenberg_timeline,
    pauli_site,
    tki_floquet,
)
from chaostomo.krylov import arnoldi_unitary_dim, lanczos_full_orth, liouvillian
from chaostomo.operator_space import bloch_encode, gell_mann_basis
from chaostomo.perturbation import (
    error_unitary,
    operator_incompatibility,
    operator_loschmidt_echo,
    perturbed_kicked_top,
)
from chaostomo.phase_space import husimi_q, sphere_grid, spin_coherent
from chaostomo.quantifiers import ordered_bloch_values, shannon_entropy
from chaostomo.rmt import (
    block_diagonal_sample,
    haar_unitary,
    reflection_eigenbasis,
    reflection_operator,
)
from chaostomo.tomography import (
    build_covariance,
    generate_record,
    haar_random_pure,
    reconstruct_series,
)
from helpers import run_tomography, unitary_mode_count

LONG = bool(os.environ.get("CHAOSTOMO_LONG"))


def verdict(num, text):
    print(f"[criterion {num}] PASS: {text}")


def tki_setup(L):
    u = tki_floquet(KickedIsing(L=L, J=1.0, hx=1.4, hz=1.4))
    return u, pauli_site("y", 1, L) / 2


def reflection_deficit(u, o, L):
    """Operator directions the site reflection R forbids, from the sectors alone.

    Free boundaries and uniform fields make the Floquet operator commute with
    R, so its eigenvectors lie in the even or odd reflection sector.  If the
    odd-odd block of O vanishes, the n_odd(n_odd-1) off-diagonal modes inside
    the odd sector carry zero weight and drop out of the orbit.
    With distinct eigenphase differences every other mode is counted once,
    so the saturation is exactly (d^2 - d + 1) - deficit.
    """
    d = 2**L
    vbasis, (n_even, n_odd) = reflection_eigenbasis(L)
    r = reflection_operator(L)
    assert np.linalg.norm(u @ r - r @ u) <= 1e-10, f"[U, R] != 0 at L={L}"
    ob = vbasis.T @ o @ vbasis
    deficit = n_odd * (n_odd - 1) if np.linalg.norm(ob[n_even:, n_even:]) <= 1e-10 else 0
    phases = np.angle(np.linalg.eigvals(u))
    diffs = np.sort(np.mod(phases[:, None] - phases[None, :], 2 * np.pi)[~np.eye(d, dtype=bool)])
    gaps = np.diff(np.concatenate([[0.0], diffs, [2 * np.pi]]))
    assert gaps.min() > 1e-9, f"degenerate eigenphase differences at L={L}"
    return deficit


@pytest.mark.parametrize("L,reference", [(2, 13), (3, 57), (4, 241)])
def test_criterion_1_rank_and_arnoldi_saturation(L, reference):
    """Kicked Ising hx=hz=1.4, O=s1y: covariance rank and Arnoldi K integers.

    ``reference`` is the generic d^2 - d + 1 ceiling; the expected saturation
    subtracts the reflection-forbidden directions (two at L=3, none at L=2, 4).
    """
    u, o = tki_setup(L)
    d = 2**L
    assert reference == d * d - d + 1
    deficit = reflection_deficit(u, o, L)
    if L in (2, 4):
        assert deficit == 0
    expected = reference - deficit
    n_rows = round(1.5 * d * d) + 8
    cov = build_covariance(heisenberg_timeline(o, u, n_rows - 1), gell_mann_basis(d))
    rank = cov.rank()
    K = arnoldi_unitary_dim(u, o)
    assert rank == K, f"rank {rank} and Arnoldi dimension {K} disagree at L={L}"
    assert rank == expected, (
        f"L={L}: measured saturation {rank} != {expected} = {reference} - {deficit}"
        " reflection-forbidden directions"
    )
    verdict(1, f"L={L}: rank = Arnoldi K = {rank} = {reference} - {deficit}"
               " reflection-forbidden directions")


def test_criterion_1_oracle_cross_check():
    """Independent Schur mode-count oracle agrees with both measured routes."""
    for L, truth in [(2, 13), (3, 55), (4, 241)]:
        u, o = tki_setup(L)
        assert unitary_mode_count(u, o) == truth
        assert arnoldi_unitary_dim(u, o) == truth


@pytest.mark.skipif(not LONG, reason="optional long run; set CHAOSTOMO_LONG=1")
def test_criterion_1_l5_long():
    u, o = tki_setup(5)
    cov = build_covariance(heisenberg_timeline(o, u, 1535), gell_mann_basis(32))
    assert cov.rank() == 993
    assert arnoldi_unitary_dim(u, o) == 993
    verdict(1, "L=5 long run: rank = Arnoldi K = 993")


def test_criterion_2_trace_identity():
    """Tr(C^-1) = N |O|^2 to relative 1e-10 for all model families, N <= 200."""
    cases = [
        ("kicked top", KickedTop(j=4, lam=3.0, alpha=1.4), angular_momentum_ops(4)[1]),
        ("kicked Ising", KickedIsing(L=3, J=1.0, hx=1.4, hz=1.4), pauli_site("y", 1, 3) / 2),
        ("tilted Ising", TiltedIsing(L=3, J=1.0, hx=1.4, hz=0.1), pauli_site("y", 1, 3) / 2),
        ("XXZ", XXZChain(L=3, Jxy=1.0, Jzz=1.1, g=0.94, site=2), pauli_site("y", 2, 3) / 2),
    ]
    for name, model, obs in cases:
        basis = gell_mann_basis(model.dim)
        cov = build_covariance(heisenberg_timeline(obs, build_propagator(model), 199), basis)
        norm2 = float(np.sum(bloch_encode(obs, basis) ** 2))
        row_norms = np.cumsum(np.sum(cov.design**2, axis=1))
        for n in (1, 50, 200):
            lhs = row_norms[n - 1]
            assert abs(lhs - n * norm2) <= 1e-10 * n * norm2, f"{name} at N={n}"
    verdict(2, "trace identity holds to 1e-10 for all four propagator families")


def test_criterion_3_error_scrambling_identity():
    """Commutator form equals the error-unitary form per step, j=10, n <= 100."""
    j = 10
    u_true, u_model = perturbed_kicked_top(j, 7.0, 1.4, 0.01)
    rng = np.random.default_rng(31)
    w = haar_unitary(21, rng)
    obs = w.conj().T @ angular_momentum_ops(j)[0] @ w
    tl_true = heisenberg_timeline(obs, u_true, 100)
    tl_model = heisenberg_timeline(obs, u_model, 100)
    worst = 0.0
    for n in range(101):
        lhs = operator_incompatibility(tl_true.steps[n], tl_model.steps[n], j=j)
        uu = error_unitary(u_true, u_model, n)
        rhs = operator_incompatibility(obs, uu.conj().T @ obs @ uu, j=j)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
        worst = max(worst, abs(lhs - rhs))
    verdict(3, f"identity holds per step to 1e-10 (worst deviation {worst:.1e})")


def test_criterion_4_zero_noise_completeness():
    """sigma=0, per-step Haar timeline of length d^2 at d=8: fidelity >= 1 - 1e-6."""
    d = 8
    o = np.diag(np.arange(d) - (d - 1) / 2).astype(complex)
    rng = np.random.default_rng(41)
    worst = 1.0
    for _ in range(20):
        psi = haar_random_pure(d, rng)
        fids = run_tomography(HaarSteps(dim=d, seed=404), psi, o, d * d, 0.0, 1,
                              eval_steps=[d * d])
        worst = min(worst, fids[-1])
    assert worst >= 1 - 1e-6
    verdict(4, f"20 random pure states reconstructed with fidelity >= {worst:.9f}")


def _mean_step50_fidelity(model, psi_source, sigma, seeds, observable, eval_step=50):
    basis = gell_mann_basis(model.dim)
    u = build_propagator(model)
    tl = heisenberg_timeline(observable, u, eval_step - 1)
    cov = build_covariance(tl, basis)
    states, records = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        states.append(psi_source(rng))
        records.append(generate_record(states[-1], tl, sigma, rng))
    run = reconstruct_series(records, cov, basis, states, eval_steps=[eval_step])
    assert all(diags[-1].converged for diags in run.results)
    fids = run.fidelities[:, -1]
    return fids.mean(), fids.std(ddof=1) / np.sqrt(len(fids))


def test_criterion_5_random_state_chaos_ordering():
    """Kicked top j=10: mean step-50 fidelity ordered 7.0 > 2.5 > 0.5 over 50 states."""
    j = 10
    jy = angular_momentum_ops(j)[1]
    seeds = np.random.SeedSequence(55).spawn(50)
    stats = {}
    for lam in (0.5, 2.5, 7.0):
        stats[lam] = _mean_step50_fidelity(
            KickedTop(j=j, lam=lam, alpha=np.pi / 2),
            lambda rng: haar_random_pure(21, rng), 0.1, seeds, jy,
        )
    assert stats[7.0][0] > stats[2.5][0] > stats[0.5][0]
    assert stats[7.0][0] - stats[7.0][1] > stats[0.5][0] + stats[0.5][1]
    verdict(5, "mean fidelity at step 50: "
               + " > ".join(f"{stats[l][0]:.3f}(lam={l})" for l in (7.0, 2.5, 0.5)))


def test_criterion_6_coherent_state_reversal():
    """Kicked top j=20 coherent state: step-50 fidelity decreasing in lambda."""
    j = 20
    jy = angular_momentum_ops(j)[1]
    psi0 = spin_coherent(j, 2.04, 2.42)
    seeds = list(range(6000, 6010))
    stats = {}
    for lam in (0.5, 2.5, 7.0):
        stats[lam] = _mean_step50_fidelity(
            KickedTop(j=j, lam=lam, alpha=np.pi / 2),
            lambda rng: psi0, 0.1, seeds, jy,
        )
    assert stats[0.5][0] > stats[2.5][0] > stats[7.0][0]
    assert stats[0.5][0] - stats[0.5][1] > stats[7.0][0] + stats[7.0][1]
    verdict(6, "coherent-state fidelity at step 50: "
               + " > ".join(f"{stats[l][0]:.3f}(lam={l})" for l in (0.5, 2.5, 7.0)))


def _perturbed_profile(lam, n_states, n_steps=100):
    j = 10
    d = 21
    basis = gell_mann_basis(d)
    u_true, u_model = perturbed_kicked_top(j, lam, 1.4, 0.01)
    rng_obs = np.random.default_rng(71)
    w = haar_unitary(d, rng_obs)
    obs = w.conj().T @ angular_momentum_ops(j)[0] @ w
    tl_true = heisenberg_timeline(obs, u_true, n_steps - 1)
    tl_model = heisenberg_timeline(obs, u_model, n_steps - 1)
    cov_model = build_covariance(tl_model, basis)
    eval_steps = list(range(2, n_steps + 1, 2))
    states, records = [], []
    for ss in np.random.SeedSequence(77).spawn(n_states):
        rng = np.random.default_rng(ss)
        states.append(haar_random_pure(d, rng))
        records.append(generate_record(states[-1], tl_true, 0.1, rng))
    run = reconstruct_series(records, cov_model, basis, states, eval_steps=eval_steps)
    mean = run.fidelities.mean(axis=0)
    f_o = operator_loschmidt_echo(tl_true.steps[-1], tl_model.steps[-1], obs)
    i_o = operator_incompatibility(tl_true.steps[-1], tl_model.steps[-1], j=j)
    return np.array(eval_steps), mean, f_o, i_o


@pytest.mark.parametrize("n_states", [pytest.param(20, id="fast-20-states")]
                         + ([pytest.param(100, id="full-100-states")] if LONG else []))
def test_criterion_7_perturbed_tomography_profile(n_states):
    """Mismatched kicked top j=10, delta_lambda=0.01: decay orderings."""
    steps, mean_reg, f_o_reg, i_o_reg = _perturbed_profile(0.5, n_states)
    steps, mean_cha, f_o_cha, i_o_cha = _perturbed_profile(7.0, n_states)
    # regular dynamics: rise to an interior peak, then decay
    peak = int(np.argmax(mean_reg))
    assert 0 < peak < len(steps) - 1
    assert mean_reg[-1] < mean_reg[peak] - 0.01
    # orderings at step 100
    assert f_o_cha > f_o_reg
    assert i_o_cha < i_o_reg
    assert mean_cha[-1] > mean_reg[-1]
    verdict(7, f"({n_states} states) peak at step {steps[peak]} then decay; "
               f"F_O {f_o_cha:.3f} > {f_o_reg:.3f}; I_O {i_o_cha:.3f} < {i_o_reg:.3f}; "
               f"late fidelity {mean_cha[-1]:.3f} > {mean_reg[-1]:.3f}")


@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_criterion_8_lanczos_hygiene(L):
    """Full-orthogonalization residuals for the tilted Ising chain."""
    h = hamiltonian(TiltedIsing(L=L, J=1.0, hx=1.4, hz=1.4))
    o = pauli_site("y", 1, L) / 2
    liou = liouvillian(h)
    kb = lanczos_full_orth(liou, o)
    gram = kb.vectors.conj() @ kb.vectors.T
    orth = np.max(np.abs(gram - np.eye(kb.dim_k)))
    assert orth <= 1e-10
    lq = np.array([liou.apply(v) for v in kb.vectors])
    tri = kb.vectors.conj() @ lq.T
    ev = np.linalg.eigvalsh(h)
    norm_l = ev[-1] - ev[0]
    tridiag = np.max(np.abs(np.triu(tri, 2))) / norm_l
    assert tridiag <= 1e-8
    verdict(8, f"L={L}: orthonormality {orth:.1e}, tridiagonality {tridiag:.1e}")


def test_criterion_9_rmt_agreement():
    """Kicked Ising L=5 vs reflection-block COE: saturated Shannon entropy within 5%."""
    L, d, n_rows = 5, 32, 1200
    basis = gell_mann_basis(d)
    rng = np.random.default_rng(91)
    u1 = haar_unitary(2, rng)
    obs = np.kron(u1, np.eye(16)).conj().T @ (pauli_site("y", 1, L) / 2) @ np.kron(u1, np.eye(16))
    u = tki_floquet(KickedIsing(L=L, J=1.0, hx=1.4, hz=1.4))
    cov = build_covariance(heisenberg_timeline(obs, u, n_rows - 1), basis)
    s_model = shannon_entropy(cov)
    vbasis, dims = reflection_eigenbasis(L)
    samples = []
    for _ in range(10):
        w = block_diagonal_sample("COE", dims, vbasis, rng)
        cov_r = build_covariance(heisenberg_timeline(obs, w, n_rows - 1), basis)
        samples.append(shannon_entropy(cov_r))
    s_rmt = float(np.mean(samples))
    assert abs(s_model - s_rmt) <= 0.05 * s_rmt
    verdict(9, f"saturated entropy {s_model:.4f} vs COE mean {s_rmt:.4f} "
               f"({100 * abs(s_model - s_rmt) / s_rmt:.2f}% off)")


def test_criterion_10_analytic_spot_checks():
    """Coherent-state uncertainty, Husimi normalization/convergence, ordered Bloch."""
    # spin-coherent minimum uncertainty, exact to 1e-12
    j = 20
    jx, jy, jz = angular_momentum_ops(j)
    psi = spin_coherent(j, 2.04, 2.42)
    ev = lambda op: np.vdot(psi, op @ psi).real
    unc = (ev(jx @ jx + jy @ jy + jz @ jz) - (ev(jx) ** 2 + ev(jy) ** 2 + ev(jz) ** 2)) / j**2
    assert abs(unc - 1.0 / j) < 1e-12

    # Husimi normalization at the default grid, and convergence under doubling
    rng = np.random.default_rng(101)
    psi_r = haar_random_pure(2 * j + 1, rng)
    rho = np.outer(psi_r, psi_r.conj())
    grid = sphere_grid()
    q = husimi_q(rho, grid)
    norm_err = abs((2 * j + 1) / (4 * np.pi) * np.sum(grid.weights * q) - 1.0)
    assert norm_err < 1e-3
    j_big = 30
    psi_b = haar_random_pure(2 * j_big + 1, rng)
    rho_b = np.outer(psi_b, psi_b.conj())
    errs = []
    for nt, nph in [(16, 32), (32, 64)]:
        g = sphere_grid(nt, nph)
        qq = husimi_q(rho_b, g)
        errs.append(abs((2 * j_big + 1) / (4 * np.pi) * np.sum(g.weights * qq) - 1.0))
    assert errs[1] <= 0.3 * errs[0] or errs[1] < 1e-12

    # ordered Bloch dominance, pointwise
    basis = gell_mann_basis(9)
    for _ in range(5):
        psi_o = haar_random_pure(9, rng)
        rho_o = np.outer(psi_o, psi_o.conj())
        down, _ = ordered_bloch_values(rho_o, basis, "descending")
        up, _ = ordered_bloch_values(rho_o, basis, "ascending")
        assert np.all(down >= up - 1e-12)
    verdict(10, f"uncertainty exact, Husimi norm err {norm_err:.1e}, "
                f"convergence ratio {errs[1] / max(errs[0], 1e-300):.2f}, dominance holds")
