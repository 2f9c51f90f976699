"""Reference code shared by the test modules.

``unitary_mode_count`` is the independent oracle for the unitary orbit
dimension: it uses scipy's Schur form, not the library's eigenbasis.
``lanczos_full_vector`` is the reference for ``lanczos_full_orth``: the
same recursion on full-length frame vectors, re-orthogonalized against
every earlier vector.  ``stepwise_amplitudes`` is the reference for
``krylov_amplitudes``: each O(t) evolved on its own and projected.
``run_tomography`` is the record-to-fidelity pipeline of the experiment
runners in one call.
"""

from typing import Optional, Sequence

import numpy as np
from scipy.linalg import schur

from chaostomo.krylov import _invariant_frame, _observable_coords, _rotate, evolve_operator
from chaostomo.operator_space import gell_mann_basis
from chaostomo.tomography import (
    build_covariance,
    generate_record,
    model_timeline,
    reconstruct_series,
)


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


def lanczos_full_vector(liou, initial):
    """Dimension and b_k of the full-vector recursion.

    Runs in the frame of ``_invariant_frame`` on vectors of its full
    length m + 2n: each new vector is Gram-Schmidt-orthogonalized against
    all previous ones twice, then once more after normalization, and the
    recursion stops when b_k falls below 1e-8 of the observable norm.
    """
    vec0, norm0 = _observable_coords(liou, initial)
    frame, m, freqs, _ = _invariant_frame(liou, vec0)
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
    return np.array(coords) @ basis.vectors.T / basis.initial_norm


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
    applications of the propagator.  Deterministic for a fixed seed.
    """
    psi0 = np.asarray(psi0)
    timeline = model_timeline(model, observable, n_steps)
    basis = gell_mann_basis(timeline.dim)
    cov = build_covariance(timeline, basis)
    record = generate_record(psi0, timeline, sigma, seed)
    return reconstruct_series([record], cov, basis, [psi0], eval_steps).fidelities[0]
