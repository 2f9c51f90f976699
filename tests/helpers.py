"""Reference code shared by the test modules.

``unitary_mode_count`` is the independent oracle for the unitary orbit
dimension: it uses scipy's Schur form, not the library's eigenbasis.
``dense_frame`` is the (m + 2n, d^2) matrix of the invariant frame's rows,
which the library keeps as a mode table.  ``lanczos_full_vector`` is the
reference for ``lanczos_full_orth``: the same recursion on full-length
frame vectors, re-orthogonalized against every earlier vector.  ``stepwise_amplitudes``
is the reference for ``krylov_amplitudes``: each O(t) evolved on its own
and projected.  ``apply_generator`` is the Liouvillian on full operator
coordinates.
``perturbed_kicked_top`` is the (true, model) step pair of the perturb
runner.
``run_tomography`` is the record-to-fidelity pipeline of the experiment
runners in one call.  ``timeline_covariance`` and ``timeline_record`` take
a collected fixed-step (N + 1, d, d) timeline: the first reads the
covariance of its observable and length off ``read_timeline``, the second
contracts a state with every entry as ``read_timeline`` does.  ``stack``
collects the blocks of any timeline, random-control ones included.
"""

from dataclasses import replace
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import schur

from chaostomo.checks import _krylov_vectors, _rotate
from chaostomo.dynamics import KickedTop, build_propagator
from chaostomo.krylov import _frame_rows, _invariant_frame, _observable_coords, evolve_operator
from chaostomo.operator_space import gell_mann_basis
from chaostomo.tomography import generate_record, model_step, read_timeline, reconstruct_series


def unitary_mode_count(u, op, weight_tol=1e-18, gap_tol=1e-9):
    """Dimension of span{U^dag^n O U^n} from the modes of U, via its Schur form.

    In the Schur basis the entry (a, b) of O_n turns at e^{i(theta_b - theta_a) n},
    and the span holds one direction for each distinct phase difference mod
    2 pi that carries weight (Vandermonde argument).  Differences are grouped
    around the circle: they are shifted into [-gap_tol, 2 pi - gap_tol), so a
    difference just below 2 pi joins the zero group.  That group, diagonal
    and zero-gap off-diagonal weight together, is the one frozen direction.
    Over Hermitian O the differences w and 2 pi - w carry equal weight and
    count twice; at w = pi they coincide and count once.
    """
    t, z = schur(np.asarray(u, dtype=complex), output="complex")
    phases = np.angle(np.diag(t))
    ob = z.conj().T @ op @ z
    diffs = np.mod(phases[:, None] - phases[None, :] + gap_tol, 2 * np.pi) - gap_tol
    weights = np.abs(ob) ** 2
    order = np.argsort(diffs, axis=None)
    groups = []
    for g, w in zip(diffs.reshape(-1)[order], weights.reshape(-1)[order]):
        if groups and g - groups[-1][0] < gap_tol:
            groups[-1][1] += w
        else:
            groups.append([g, w])
    return sum(1 for _, w in groups if w > weight_tol)


def dense_frame(liou, vec):
    """The rows of ``_invariant_frame(liou, vec)`` as one dense (m + 2n, d^2) array, and m, w_j."""
    frame = _invariant_frame(liou, vec)
    return _frame_rows(frame), len(frame.norms) - len(frame.freqs), frame.freqs


def lanczos_full_vector(liou, initial):
    """Dimension and b_k of the full-vector recursion.

    Runs in the frame of ``_invariant_frame`` on vectors of its full
    length m + 2n: each new vector is Gram-Schmidt-orthogonalized against
    all previous ones twice, then once more after normalization, and the
    recursion stops when b_k falls below 1e-8 of the observable norm.
    """
    vec0, norm0 = _observable_coords(liou, initial)
    frame, m, freqs = dense_frame(liou, vec0)
    dim = len(frame)
    q = np.empty((dim, dim))
    q[0] = frame @ vec0
    q[0] /= np.linalg.norm(q[0])
    bs = []
    k = 1
    while k < dim:
        w = _rotate(q[k - 1], m, freqs)
        for _ in range(2):
            w -= q[:k].T @ (q[:k] @ w)
        b = np.linalg.norm(w)
        if b <= 1e-8 * norm0:
            break
        bs.append(b)
        w /= b
        w -= q[:k].T @ (q[:k] @ w)
        q[k] = w / np.linalg.norm(w)
        k += 1
    return k, np.array(bs)


def stepwise_amplitudes(h, op, basis, times):
    """Amplitudes phi_k(t), (T, K): each evolve_operator(h, op, t) projected on the basis."""
    coords = [basis.generator.coords(evolve_operator(h, op, t)) for t in times]
    return np.array(coords) @ _krylov_vectors(basis).T / basis.initial_norm


def apply_generator(liou, v):
    """X -> i[H, X] on the d^2 coordinates ``v`` of ``liou.coords``."""
    return _rotate(v, liou.operator_basis.dim, liou.pair_gaps)


def perturbed_kicked_top(j, lam, alpha, delta_lambda):
    """Kicked-top steps (u_true, u_model) as the perturb runner builds them.

    The true top kicks with lam + delta_lambda.
    """
    model = KickedTop(j=j, lam=lam, alpha=alpha)
    return (build_propagator(replace(model, lam=model.lam + delta_lambda)),
            build_propagator(model))


def run_tomography(
    model,
    psi0: np.ndarray,
    observable: np.ndarray,
    n_steps: int,
    sigma: float,
    seed,
    eval_steps: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Timeline, record and per-step reconstruction fidelity for one state.

    The record has ``n_steps`` samples; sample n is taken after n - 1
    applications of the propagator.  ``eval_steps`` defaults to every
    prefix.  Deterministic for a fixed seed.
    """
    psi0 = np.asarray(psi0)
    basis = gell_mann_basis(model.dim)
    cov, expected, _ = read_timeline(observable, n_steps, model_step(model), basis, [psi0])
    record = generate_record(expected[0], sigma, seed)
    if eval_steps is None:
        eval_steps = range(1, n_steps + 1)
    return reconstruct_series([record], cov, basis, [psi0], eval_steps).fidelities[0]


def stack(blocks) -> np.ndarray:
    """The (N + 1, d, d) timeline that ``blocks`` hand out in pieces."""
    return np.concatenate(list(blocks))


def timeline_covariance(steps, basis, u):
    """The covariance ``read_timeline`` gives for the timeline ``steps`` of fixed step ``u``.

    ``steps`` fixes the observable, ``steps[0]``, and the row count; the
    pass remakes the same rows from them, bit for bit.
    """
    return read_timeline(steps[0], len(steps), u, basis)[0]


def timeline_record(state, steps, sigma, seed):
    """``generate_record`` of a state's expectations along a collected timeline.

    The contraction is the one ``read_timeline`` makes.
    """
    rho = np.outer(state, np.conj(state)) if np.ndim(state) == 1 else np.asarray(state)
    expected = (steps.reshape(len(steps), -1) @ rho.conj().reshape(-1)).real
    return generate_record(expected, sigma, seed)
