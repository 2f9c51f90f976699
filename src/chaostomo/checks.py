"""Fast invariant suite behind the ``check`` CLI command.

Each check is a quick, deterministic guard on a core contract; the whole
suite runs in a few seconds and is meant as a smoke test after install
or environment changes, not as a replacement for the test suite.  The error
unitary, the chain reflection operator, the dense Krylov vectors and the
Liouvillian on full operator coordinates are built here, for the checks and
the tests; no runner needs them.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import dynamics, krylov, perturbation, phase_space, rmt, tomography
from .operator_space import bloch_decode, bloch_encode, bloch_encode_batch, gell_mann_basis


def _check_basis():
    rng = np.random.default_rng(2)
    for d in (2, 3, 5, 8):
        b = gell_mann_basis(d)
        elements = b.matrices()
        flat = elements.reshape(len(b), -1)
        if np.max(np.abs((flat.conj() @ flat.T).real - np.eye(len(b)))) > 1e-12:
            return False, f"Gram matrix deviates at d={d}"
        if np.max(np.abs(bloch_encode_batch(elements, b) - np.eye(len(b)))) > 1e-12:
            return False, f"elements do not encode to unit vectors at d={d}"
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = a + a.conj().T
        x += (1 - np.trace(x)) * np.eye(d) / d  # unit trace, which decode restores
        if np.max(np.abs(bloch_decode(bloch_encode(x, b), b) - x)) > 1e-12:
            return False, f"decode(encode(X)) differs from X at d={d}"
    return True, ("Gram matrix is the identity, E_a encodes to e_a and decode inverts "
                  "encode for d in {2, 3, 5, 8}")


def _check_parseval():
    rng = np.random.default_rng(7)
    d = 6
    b = gell_mann_basis(d)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    op = (a + a.conj().T) / 2
    op -= np.trace(op) * np.eye(d) / d
    r = bloch_encode(op, b)
    if abs(np.sum(r**2) - np.vdot(op, op).real) > 1e-10:
        return False, "Parseval identity violated"
    return True, "Parseval identity holds for a random traceless operator"


def _check_propagators():
    specs = (dynamics.KickedTop(j=5, lam=3.0, alpha=1.4), dynamics.KickedIsing(L=3),
             dynamics.TiltedIsing(L=3), dynamics.XXZChain(L=3, g=0.5, site=2))
    for u in map(dynamics.build_propagator, specs):
        dev = np.max(np.abs(u.conj().T @ u - np.eye(len(u))))
        if dev > 1e-10:
            return False, f"propagator unitarity deviates by {dev:.1e}"
    return True, "all four propagator families unitary to 1e-10"


def _check_classical_map():
    pt = np.array([0.0, 0.6, 0.8])
    for _ in range(10_000):
        pt = np.array(dynamics.classical_kicked_top_step(*pt, 2.5, np.pi / 2))
    drift = abs(np.linalg.norm(pt) - 1.0)
    return drift < 1e-11, f"unit-sphere drift {drift:.1e} after 1e4 iterates"


def _check_xxz_conservation():
    u = dynamics.build_propagator(dynamics.XXZChain(L=4, g=0.94, site=2))
    sz = dynamics.collective_spin("z", 4)
    dev = np.max(np.abs(u @ sz - sz @ u))
    return dev < 1e-10, f"[U, S_z] = {dev:.1e}"


def _check_trace_identity():
    jx, jy, _ = dynamics.angular_momentum_ops(3)
    u = dynamics.build_propagator(dynamics.KickedTop(j=3, lam=3.0, alpha=1.4))
    basis = gell_mann_basis(7)
    cov = tomography.read_timeline(jy, 80, u, basis)[0]
    lhs = float(np.sum(cov.singular_values() ** 2))
    rhs = 80 * float(np.sum(bloch_encode(jy, basis) ** 2))
    rel = abs(lhs - rhs) / abs(rhs)
    return rel < 1e-10, f"Tr(C^-1) = N |O|^2 to relative {rel:.1e}"


def _check_factored_design():
    # the orbit frame's span against the plain SVD and the orbit count, where
    # the span limits the rank
    cases = {
        "kicked Ising hz=0": (dynamics.KickedIsing(L=4, hz=0.0), dynamics.pauli_site("y", 1, 4) / 2),
        "XXZ g=0": (dynamics.XXZChain(L=4, g=0.0),
                    (dynamics.pauli_site("y", 2, 4) + dynamics.pauli_site("y", 4, 4)) / 2),
    }
    parts = []
    for name, (model, obs) in cases.items():
        u = dynamics.build_propagator(model)
        cov = tomography.read_timeline(obs, 512, u, gell_mann_basis(16))[0]
        if cov.span is None:
            return False, f"{name}: no orbit span"
        k = len(cov.span)
        orth = np.max(np.abs(cov.span @ cov.span.T - np.eye(k)))
        coords = cov.design @ cov.span.T
        resid = np.linalg.norm(cov.design - coords @ cov.span) / np.linalg.norm(cov.design)
        plain = tomography.CovarianceData(cov.design)
        s_plain, s = plain.singular_values(), cov.singular_values()
        dev = np.max(np.abs(s_plain - np.pad(s, (0, len(s_plain) - len(s))))) / s_plain[0]
        rank, orbit = cov.rank(), krylov.arnoldi_unitary_dim(u, obs)
        ok = (orth <= 1e-12 and resid <= 1e-11 and dev <= 1e-12
              and plain.rank() == rank <= min(cov.n_rows, k) and k == orbit)
        if not ok:
            return False, (f"{name}: orthonormality {orth:.1e}, residual {resid:.1e}, "
                           f"singular values {dev:.1e}, rank {plain.rank()} plain vs {rank} "
                           f"in a span of {k}, orbit dimension {orbit}")
        parts.append(f"{name} rank {rank} in a span of {k}, residual {resid:.1e}")
    return True, "; ".join(parts)


def _check_zero_noise():
    rng = np.random.default_rng(3)
    d = 5
    psi = tomography.haar_random_pure(d, rng)
    basis = gell_mann_basis(d)
    cov, expected, _ = tomography.read_timeline(
        np.diag(np.arange(d) - 2.0), d * d, np.random.default_rng(9), basis, [psi])
    run = tomography.reconstruct_series(
        [tomography.generate_record(expected[0], 0.0, 4)], cov, basis, [psi], eval_steps=[d * d])
    fid = run.fidelities[0, -1]
    return fid > 1 - 1e-9, f"zero-noise fidelity {fid:.12f}"


def _check_psd_projection():
    b2 = gell_mann_basis(2)
    r_ml = np.array([0.9, -0.4, 0.3])
    cov = tomography.CovarianceData(np.eye(3))
    r_bar, _, diag = tomography.psd_project(r_ml, cov, b2)
    want = r_ml / np.linalg.norm(r_ml) / np.sqrt(2)
    ok = np.max(np.abs(r_bar - want)) < 1e-9 and diag.converged
    return ok, "qubit Bloch-ball projection matches the analytic point"


def _rotate(vec: np.ndarray, m: int, freqs: np.ndarray) -> np.ndarray:
    """Generator on coordinates (m frozen, c_1..c_n, s_1..s_n): (c_j, s_j) -> w_j (-s_j, c_j).

    With m = d and the Liouvillian's ``pair_gaps`` as the w_j, this is
    X -> i[H, X] on the d^2 coordinates of ``Liouvillian.coords``.
    """
    n = len(freqs)
    out = np.zeros_like(vec)
    out[m : m + n] = -freqs * vec[m + n :]
    out[m + n :] = freqs * vec[m : m + n]
    return out


def _krylov_vectors(kb: krylov.KrylovBasis) -> np.ndarray:
    """Dense (K, d^2) operator coordinates of the Krylov vectors P_0..P_{K-1}."""
    rows, half = krylov._frame_rows(kb.frame), len(kb.frame.norms)
    out = np.empty((kb.dim_k, rows.shape[1]))
    out[0::2] = kb.blocks[0] @ rows[:half]
    out[1::2] = kb.blocks[1] @ rows[half:]
    return out


def _check_krylov():
    h = dynamics.hamiltonian(dynamics.TiltedIsing(L=2, hx=1.4, hz=1.4))
    o = dynamics.pauli_site("y", 1, 2) / 2
    liou = krylov.liouvillian(h)
    kb = krylov.lanczos_full_orth(liou, o)
    vectors = _krylov_vectors(kb)
    orth = np.max(np.abs(vectors @ vectors.T - np.eye(kb.dim_k)))
    # the basis turns the generator into the antisymmetric tridiagonal of the b_k
    d = liou.operator_basis.dim
    t = vectors @ np.array([_rotate(v, d, liou.pair_gaps) for v in vectors]).T
    tri = np.max(np.abs(t - np.diag(kb.lanczos_b, -1) + np.diag(kb.lanczos_b, 1)))
    times = (0.0, 1.3)
    phi = krylov.krylov_amplitudes(kb, times)
    norm = np.max(np.abs(np.sum(phi**2, axis=-1) - 1.0))
    # the eigenframe series against each O(t) evolved on its own and projected
    ref = np.array([vectors @ liou.coords(krylov.evolve_operator(h, o, t)) for t in times])
    series = np.max(np.abs(phi - ref / kb.initial_norm))
    ok = orth < 1e-10 and tri < 1e-8 and norm < 1e-8 and series < 1e-12
    return ok, (f"orthonormality {orth:.1e}, tridiagonality {tri:.1e}, "
                f"amplitude norm deviation {norm:.1e}, series vs per-step {series:.1e}")


def _check_husimi():
    j = 8
    grid = phase_space.sphere_grid()
    psi = phase_space.spin_coherent(j, 1.1, 0.7)
    q = phase_space.husimi_q(np.outer(psi, psi.conj()), grid)
    norm = (2 * j + 1) / (4 * np.pi) * np.sum(grid.weights * q)
    if abs(norm - 1) >= 1e-3:
        return False, f"Husimi normalization deviation {abs(norm - 1):.1e}"
    # the FFT kernel against the frame contraction, also on a grid with
    # n_phi < 2d - 1, where offsets fold onto shared frequency bins
    psi = tomography.haar_random_pure(round(2 * j) + 1, np.random.default_rng(8))
    rho = np.outer(psi, psi.conj())
    worst = 0.0
    for g in (grid, phase_space.sphere_grid(6, 10)):
        frame = phase_space.coherent_state_frame(j, g)
        want = np.einsum("nc,cd,nd->n", frame.conj(), rho, frame).real
        worst = max(worst, np.max(np.abs(phase_space.husimi_q(rho, g) - want)) / np.max(want))
    return worst <= 1e-13, (f"Husimi normalization deviation {abs(norm - 1):.1e}, "
                            f"kernel vs frame contraction {worst:.1e}")


def _error_unitary(u_true: np.ndarray, u_model: np.ndarray, n: int) -> np.ndarray:
    """Error unitary after n steps: model forward, true backward."""
    return np.linalg.matrix_power(u_model, n) @ np.linalg.matrix_power(u_true.conj().T, n)


def _check_error_scrambling_identity():
    j = 4
    model = dynamics.KickedTop(j=j, lam=3.0, alpha=1.4)
    # the record's top kicks with lam + delta_lambda, the estimator's with lam
    u_true = dynamics.build_propagator(replace(model, lam=model.lam + 0.01))
    u_model = dynamics.build_propagator(model)
    jx = dynamics.angular_momentum_ops(j)[0]
    tl_t = dynamics.heisenberg_timeline(jx, u_true, 20)
    tl_m = dynamics.heisenberg_timeline(jx, u_model, 20)
    worst = 0.0
    for n in range(21):
        lhs = perturbation.operator_incompatibility(tl_t[n], tl_m[n], j=j)
        uu = _error_unitary(u_true, u_model, n)
        rhs = perturbation.operator_incompatibility(jx, uu.conj().T @ jx @ uu, j=j)
        worst = max(worst, abs(lhs - rhs))
    return worst < 1e-10, f"commutator vs error-unitary form differ by {worst:.1e}"


def _reflection_operator(n_spins: int) -> np.ndarray:
    """Permutation reversing the site order of an n-spin computational basis.

    Acts on dimension 2^n by sending basis label b to its bit reversal r(b).
    r is an involution, so that matrix is the identity with its rows permuted by r.
    """
    return np.eye(2**n_spins)[rmt._bit_reversal(n_spins)]


def _check_rmt():
    p = _reflection_operator(4)
    u = dynamics.build_propagator(dynamics.KickedIsing(L=4))
    comm = np.max(np.abs(p @ u - u @ p))
    vbasis, dims = rmt.reflection_eigenbasis(4)
    w = rmt.block_diagonal_sample("COE", dims, vbasis, np.random.default_rng(5))
    bcomm = np.max(np.abs(w @ p - p @ w))
    ok = comm < 1e-10 and bcomm < 1e-10
    return ok, f"[P, U_TKI] = {comm:.1e}, [P, COE block sample] = {bcomm:.1e}"


CHECKS = [
    ("operator basis orthonormality", _check_basis),
    ("Parseval identity", _check_parseval),
    ("propagator unitarity", _check_propagators),
    ("classical map norm preservation", _check_classical_map),
    ("XXZ spin conservation", _check_xxz_conservation),
    ("covariance trace identity", _check_trace_identity),
    ("factored design rank", _check_factored_design),
    ("zero-noise reconstruction", _check_zero_noise),
    ("positivity projection", _check_psd_projection),
    ("Krylov basis hygiene", _check_krylov),
    ("Husimi normalization", _check_husimi),
    ("error-scrambling identity", _check_error_scrambling_identity),
    ("reflection-block ensembles", _check_rmt),
]


def run_checks(echo=print) -> bool:
    """Run every invariant check, print one line each, return overall pass."""
    all_ok = True
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        echo(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
