"""Measurement-record synthesis and maximum-likelihood state reconstruction.

The protocol: a Hermitian observable is Heisenberg-evolved into a timeline
O_0, O_1, ..., and the record consists of noisy expectation values
M_n = Tr(O_n rho_0) + W_n with Gaussian white noise of spread sigma.  In
Bloch coordinates the record is linear, M = design @ r + W with
design[n, a] = Tr(O_n E_a), so the maximum-likelihood Bloch vector is the
minimum-norm least-squares solution over the measured subspace: one
LAPACK solve per prefix for every record at once, which also yields the
prefix's singular values.  The physical estimate is the closest
positive-semidefinite state in the covariance-weighted norm, found by an
operator-splitting solver that alternates a weighted least-squares step
(a Gram-form shrink, built once per prefix) with an eigenvalue projection
of the decoded matrix.  No singular vectors are formed.

The timeline is never held whole.  :func:`read_timeline` takes it block by
block from :func:`~chaostomo.dynamics.timeline_blocks` and fills, in one
pass, the design rows, the row offsets Tr(O_n)/d and each state's
noiseless record, dropping each block before the next is made; the
(N, d, d) operator stack (19.7 MB for N = 1200 at d = 32) never exists.
:func:`build_covariance` takes the design from there, and
:func:`generate_record` adds each record's noise.  Records are plain 1-D
arrays, and :func:`reconstruct_series` hands back each prefix's spectrum
as the design's singular values.

A fixed step U confines the timeline to a subspace known in advance.  In
the eigenbasis V of U, entry (a, b) of V^dag O_n V is O'_ab e^{in(theta_b -
theta_a)}: conjugation turns each entry by its own phase and never moves
weight between entries.  So every design row lies in the eigenframe span:
the d - 1 traceless diagonals of the eigenframe and the two Bloch
directions of each pair (a, b) that O touches.  Near integrability, or
under a conserved charge, that span is much smaller than d^2 - 1 (191 of
1023 directions for the hz=0 kicked Ising chain at L=5), and the prefix
solves run on the design's coordinates in it (:class:`CovarianceData`).

Units: the ensemble size is absorbed into the record (N_s = 1), so sigma is
the per-sample standard deviation and all information quantifiers read off
the covariance are dimensionless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .dynamics import HaarSteps, ModelSpec, build_propagator, timeline_blocks, unitary_eigh
# unused here; the benchmark tracer (bench/layers.py) wraps this alias
from .dynamics import heisenberg_timeline  # noqa: F401
from .operator_space import (
    HermitianBasis,
    bloch_decode,
    bloch_encode,
    bloch_encode_batch,
)

__all__ = [
    "CovarianceData",
    "SolverDiagnostics",
    "TomographyRun",
    "haar_random_pure",
    "read_timeline",
    "generate_record",
    "build_covariance",
    "ml_estimate",
    "psd_project",
    "fidelity",
    "reconstruct_series",
    "model_blocks",
]

# Relative singular-value cut of the measured subspace (measured_rank).
RANK_TOL = 1e-10
DEFAULT_SIGMA = 0.1
# Douglas-Rachford stopping rule of psd_project, read at call time, and
# its proximal parameter, tuned on kicked-top records.
_PSD_TOL = 1e-7
_PSD_MAX_ITERS = 5000
_PROX_T = 100.0


def measured_rank(s: np.ndarray) -> int:
    """Dimension of the measured subspace: descending singular values above RANK_TOL times s_0."""
    return 0 if len(s) == 0 or s[0] == 0.0 else int(np.count_nonzero(s > RANK_TOL * s[0]))


@dataclass
class CovarianceData:
    """Design matrix and derived covariance spectrum for a timeline.

    ``design[n, a] = Tr(O_n E_a)``; the inverse covariance is
    C^-1 = design^T design.  The estimator reads the design only through
    least-squares solves and Gram products: :func:`ml_estimate` takes one
    solve per prefix, which also sets the singular values, and
    :func:`psd_project` builds its shrink from the Gram matrix once per
    prefix; both are memoized here.  The information quantifiers take only
    the singular values, and :meth:`singular_values` computes them without
    vectors when no solve has set them.
    ``row_offsets`` carries Tr(O_n)/d so that records of non-traceless
    observables invert exactly.

    ``span`` (k, d^2 - 1), when set, has orthonormal rows Phi that hold
    every design row up to rounding: the eigenframe span of the module
    docstring.  It is set only when it limits the rank, k < min(n_rows,
    d^2 - 1); otherwise the plain design is no larger.  The solves and
    the Gram then run on the n x k coordinates G = design Phi^T, and their
    results are mapped back through Phi.  The cut is safe to second order:
    with E = design - G Phi, orthonormal Phi gives
    design design^T = G G^T + E E^T, so each squared singular value moves
    by at most |E|^2, and a singular value s by at most min(|E|, |E|^2 / s).
    On the preset cells |E|_F / |design|_F is 2e-14 to 3e-13, so every
    rank is unchanged.  The singular vectors move at first order, and the
    pseudoinverse scales that by s_0 / s_min: ML estimates agree to 1e-9
    wherever the kept spectrum stays above 1e-5 s_0.  G is formed once, and
    the prefixes slice it.
    """

    design: np.ndarray
    row_offsets: Optional[np.ndarray] = None
    span: Optional[np.ndarray] = None
    _coords: Optional[np.ndarray] = field(default=None, repr=False)
    _s: Optional[np.ndarray] = field(default=None, repr=False)
    _shrink: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        self.design = np.atleast_2d(np.asarray(self.design, dtype=float))
        if self.row_offsets is None:
            self.row_offsets = np.zeros(len(self.design))

    @property
    def n_rows(self) -> int:
        return self.design.shape[0]

    def span_coords(self) -> np.ndarray:
        """G = design Phi^T, the design in the coordinates of ``span``; the design when unset."""
        if self.span is None:
            return self.design
        if self._coords is None:
            self._coords = self.design @ self.span.T
        return self._coords

    def svd(self):
        """Full SVD (u, s, vt) of the design, vt mapped back through ``span``.

        The library takes no singular vectors; this stays because the
        benchmark tracer (bench/layers.py) wraps it.
        """
        u, s, vt = np.linalg.svd(self.span_coords(), full_matrices=False)
        return u, s, vt if self.span is None else vt @ self.span

    def singular_values(self) -> np.ndarray:
        """Singular values of the design, descending: the last solve's, or values only."""
        if self._s is None:
            self._s = np.linalg.svd(self.span_coords(), compute_uv=False)
        return self._s

    def rank(self) -> int:
        """Dimension of the measured subspace (:func:`measured_rank` of the singular values)."""
        return measured_rank(self.singular_values())

    def truncated(self, n: int) -> "CovarianceData":
        """Covariance restricted to the first n record rows, a new one also for n = n_rows.

        The prefix views the design's rows, and its solve and shrink are
        its own: nothing is memoized here, so they live only as long as the
        caller holds the prefix (:func:`reconstruct_series` holds one at a
        time).  A prefix keeps the span only while it still limits the
        rank, k < n.
        """
        if not 1 <= n <= self.n_rows:
            raise ValueError(f"prefix length {n} outside 1..{self.n_rows}")
        factored = self.span is not None and len(self.span) < n
        return CovarianceData(
            self.design[:n], self.row_offsets[:n],
            span=self.span if factored else None,
            _coords=self.span_coords()[:n] if factored else None,
        )


@dataclass(frozen=True)
class SolverDiagnostics:
    """Positivity-projection outcome: iterations, final residual, convergence."""

    iters: int
    residual: float
    converged: bool


def haar_random_pure(d: int, rng) -> np.ndarray:
    """Haar-random pure state: normalized complex standard-normal vector."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    rng = np.random.default_rng(rng)
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return psi / np.linalg.norm(psi)


def read_timeline(
    blocks: Iterable[np.ndarray],
    n_rows: int,
    basis: Optional[HermitianBasis] = None,
    states: Sequence[np.ndarray] = (),
    keep: Sequence[int] = (),
) -> tuple:
    """One pass over the blocks of a timeline O_0..O_{n_rows-1}, dropping each block after use.

    ``blocks`` are consecutive (k, d, d) stacks, as
    :func:`~chaostomo.dynamics.timeline_blocks` yields them.  Returns
    (design, offsets, expected, kept):

    * ``design[n, a] = Tr(O_n E_a)`` and ``offsets[n] = Tr(O_n)/d`` when a
      basis is given, else None;
    * ``expected[i, n] = Tr(O_n rho_i)``, the noiseless record of each of
      ``states`` (vectors or density matrices), shape (len(states), n_rows);
    * ``kept``, a copy of O_n for each 0-based row n in ``keep``, in order.

    So the pass holds one block at a time, never the (n_rows, d, d) stack.
    Each row is computed as from the whole stack, bit for bit, when the
    blocks are those of ``timeline_blocks``.
    """
    design = offsets = None
    if basis is not None:
        design, offsets = np.empty((n_rows, len(basis))), np.empty(n_rows)
    rhos = [np.outer(state, np.conj(state)) if np.ndim(state) == 1 else np.asarray(state)
            for state in states]
    expected = np.empty((len(rhos), n_rows))
    keep = list(keep)
    if any(not 0 <= n < n_rows for n in keep):
        raise ValueError(f"rows to keep {keep} outside 0..{n_rows - 1}")
    kept = [None] * len(keep)
    start = 0
    for block in blocks:
        stop = start + len(block)
        if stop > n_rows:
            raise ValueError(f"timeline blocks hold more than {n_rows} rows")
        if basis is not None:
            if block.shape[1:] != (basis.dim, basis.dim):
                raise ValueError(f"timeline dim {block.shape[1]} != basis dim {basis.dim}")
            design[start:stop] = bloch_encode_batch(block, basis)
            offsets[start:stop] = np.einsum("nii->n", block).real / basis.dim
        flat = block.reshape(len(block), -1)
        for i, rho in enumerate(rhos):
            if rho.shape != block.shape[1:]:
                raise ValueError(f"state dimension {rho.shape} does not match "
                                 f"timeline {block.shape[1:]}")
            expected[i, start:stop] = (flat @ rho.conj().reshape(-1)).real
        for k, n in enumerate(keep):
            if start <= n < stop:
                kept[k] = block[n - start].copy()
        start = stop
        del block, flat  # before the next block is made
    if start != n_rows:
        raise ValueError(f"timeline blocks hold {start} rows, expected {n_rows}")
    return design, offsets, expected, kept


def generate_record(expected: np.ndarray, sigma: float, seed) -> np.ndarray:
    """The record M_n = Tr(O_n rho_0) + W_n, i.i.d. Gaussian W_n of spread sigma, as a 1-D array.

    ``expected`` is the noiseless record Tr(O_n rho_0), one row of
    :func:`read_timeline`'s ``expected``.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    values = np.asarray(expected, dtype=float)
    if sigma > 0:
        values = values + sigma * np.random.default_rng(seed).standard_normal(len(values))
    return values


def build_covariance(
    design: np.ndarray,
    offsets: np.ndarray,
    basis: HermitianBasis,
    propagator: Optional[np.ndarray] = None,
    op0: Optional[np.ndarray] = None,
) -> CovarianceData:
    """Covariance of a design and its row offsets, as :func:`read_timeline` fills them.

    A timeline with one fixed step U = ``propagator`` from the observable
    ``op0`` gets the eigenframe span of that observable when the span limits
    the rank (:func:`_eigenframe_span`).
    """
    span = None if propagator is None else _eigenframe_span(propagator, op0, len(design), basis)
    return CovarianceData(design=design, row_offsets=offsets, span=span)


def _eigenframe_span(u: np.ndarray, op: np.ndarray, n_rows: int,
                     basis: HermitianBasis) -> Optional[np.ndarray]:
    """Orthonormal Bloch rows Phi spanning every O_n = U^dag^n O U^n, or None.

    Phi holds the d - 1 traceless diagonals of U's eigenframe and the two
    Bloch directions of each pair (a, b) with |O'_ab| > 1e-12 |O|,
    O' = V^dag O V, each conjugated back by V and encoded in ``basis``
    (module docstring).  On the preset cells that take this path the
    untouched entries, rounding residue of the basis change, measure at
    most 8e-14 |O| and the touched ones at least 2e-4 |O|.  Wherever the
    cut falls, conjugation keeps the modulus of each entry, so a dropped
    pair puts at most 1e-12 |O| into each row of the residual, which the
    singular values see at second order (:class:`CovarianceData`).
    Returns None when the span does not limit the rank of n_rows rows,
    k >= min(n_rows, d^2 - 1).
    """
    d = basis.dim
    op = np.asarray(op, dtype=complex)
    _, vecs = unitary_eigh(u)
    o = vecs.conj().T @ op @ vecs
    touched = np.flatnonzero(np.abs(o[basis.rows, basis.cols]) > 1e-12 * np.linalg.norm(op))
    if d - 1 + 2 * len(touched) >= min(n_rows, len(basis)):
        return None
    pairs = d - 1 + touched
    sel = np.concatenate([np.arange(d - 1), pairs, pairs + len(basis.rows)])
    return bloch_encode_batch(vecs @ basis.matrices(sel) @ vecs.conj().T, basis)


def ml_estimate(records: np.ndarray, cov: CovarianceData) -> np.ndarray:
    """Maximum-likelihood Bloch vector of a 1-D record, or one per row of a (records, n) stack.

    One ``np.linalg.lstsq`` solve with ``rcond=RANK_TOL`` serves every
    record.  LAPACK's gelsd zeroes the singular values s <= RANK_TOL s_0,
    the cut of :func:`measured_rank`, so this is the pseudoinverse over the
    measured subspace and unmeasured directions get no weight.  The
    solve's singular values become ``cov``'s (:meth:`CovarianceData.singular_values`).
    """
    m = np.asarray(records, dtype=float)
    if m.ndim not in (1, 2) or m.shape[-1] != cov.n_rows:
        raise ValueError(f"record shape {m.shape} does not match {cov.n_rows} design rows")
    x, _, _, cov._s = np.linalg.lstsq(cov.span_coords(), (m - cov.row_offsets).T, rcond=RANK_TOL)
    return x.T.copy() if cov.span is None else x.T @ cov.span


def _project_eigs_simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of an eigenvalue vector onto the probability simplex."""
    srt = np.sort(w)[::-1]
    cumsum = np.cumsum(srt) - 1.0
    ks = np.arange(1, len(w) + 1)
    mask = srt - cumsum / ks > 0
    kmax = ks[mask][-1]
    theta = cumsum[kmax - 1] / kmax
    return np.maximum(w - theta, 0.0)


def _project_feasible(r: np.ndarray, basis: HermitianBasis) -> np.ndarray:
    """Euclidean projection of a Bloch vector onto the physical-state set.

    The basis is orthonormal, so Frobenius projection of the decoded matrix
    onto {rho >= 0, Tr rho = 1} (eigenvalue simplex projection) is exactly
    the Euclidean projection in Bloch coordinates.
    """
    mat = bloch_decode(r, basis)
    w, v = np.linalg.eigh(mat)
    if w[0] >= 0.0:
        return r
    p = _project_eigs_simplex(w)
    proj = (v * p) @ v.conj().T
    return bloch_encode(proj, basis)


def _quadratic(cov: CovarianceData, r_ml: np.ndarray) -> tuple:
    """Gradient, proximal map and norm of q(r) = |A (r - r_ml)|^2 / (2 s_0^2), in Gram form.

    A is the design of ``cov``, or its span coordinates mapped through
    Phi.  With c = s_0^2 / ``_PROX_T``, the proximal map is
    x + A^T A (A^T A + c I)^-1 (r_ml - x), so no singular vectors are
    formed.  Its shrink is memoized on ``cov``, and every record of the
    prefix shares it: for n <= k rows it is B = (A A^T + c I)^-1 A, applied
    as A^T B, otherwise the k x k matrix I - c (A^T A + c I)^-1.  The
    regularized Gram matrix has condition number at most 1 + ``_PROX_T``,
    so its inverse is safe.  Directions below ``RANK_TOL`` enter the
    shrink with weight s^2 / (s^2 + c) < 1e-18.
    """
    a, phi, s0 = cov.span_coords(), cov.span, cov.singular_values()[0]
    wide = len(a) <= a.shape[1]
    if cov._shrink is None:
        c = s0**2 / _PROX_T
        inv = a @ a.T if wide else a.T @ a
        inv.flat[:: len(inv) + 1] += c
        inv = np.linalg.inv(inv)  # the Gram matrix is released here
        if wide:
            cov._shrink = inv @ a
        else:
            inv *= -c
            inv.flat[:: len(inv) + 1] += 1.0
            cov._shrink = inv

    def coords(x):  # Bloch vector -> coordinates of A's columns
        return x if phi is None else phi @ x

    def bloch(y):
        return y if phi is None else y @ phi

    def grad(r):
        return bloch(a.T @ (a @ coords(r - r_ml))) / s0**2

    def prox(x):
        y = cov._shrink @ coords(r_ml - x)
        return x + bloch(a.T @ y if wide else y)

    def norm(x):
        return float(np.linalg.norm(a @ coords(x))) / s0

    return grad, prox, norm


def psd_project(
    r_ml: np.ndarray,
    cov: CovarianceData,
    basis: HermitianBasis,
    *,
    warm_start: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, SolverDiagnostics]:
    """Closest physical state to r_ml in the covariance-weighted norm.

    Minimizes (r - r_ml)^T C^-1 (r - r_ml) subject to
    I/d + sum_a r_a E_a >= 0, by Douglas-Rachford splitting: the proximal
    step of the quadratic (a weighted least-squares shrink in Gram form,
    :func:`_quadratic`, built once per prefix) alternates with the exact
    eigenvalue projection onto the state set.  Convergence is declared
    when the projected-gradient fixed-point residual, measured in the C^-1
    norm scaled by its largest eigenvalue, drops below ``_PSD_TOL``
    relative to the data scale.

    Returns (r_bar, rho_bar, diagnostics); on hitting ``_PSD_MAX_ITERS`` the last
    iterate, which is feasible, is returned with ``converged=False``.
    """
    r_ml = np.asarray(r_ml, dtype=float)
    decoded = bloch_decode(r_ml, basis)
    if np.linalg.eigvalsh(decoded)[0] >= -1e-12:
        return r_ml, decoded, SolverDiagnostics(iters=0, residual=0.0, converged=True)

    if cov.rank() == 0:
        r_bar = _project_feasible(r_ml, basis)
        return r_bar, bloch_decode(r_bar, basis), SolverDiagnostics(1, 0.0, True)

    grad, prox_quadratic, weighted_norm = _quadratic(cov, r_ml)
    # Over-relaxation tuned on kicked-top records; < 2 keeps the splitting convergent.
    relax = 1.8

    scale = max(1.0, weighted_norm(r_ml))
    z = r_ml.copy() if warm_start is None else np.asarray(warm_start, dtype=float).copy()
    check_every = 10
    iters = 0
    residual = np.inf
    while iters < _PSD_MAX_ITERS:
        for _ in range(check_every):
            y = prox_quadratic(z)
            r_bar = _project_feasible(2.0 * y - z, basis)
            z += relax * (r_bar - y)
            iters += 1
        residual = weighted_norm(r_bar - _project_feasible(r_bar - grad(r_bar), basis))
        if residual <= _PSD_TOL * scale:
            break
    converged = residual <= _PSD_TOL * scale
    return r_bar, bloch_decode(r_bar, basis), SolverDiagnostics(iters, residual, converged)


def fidelity(psi0: np.ndarray, rho_bar: np.ndarray) -> float:
    """Reconstruction fidelity <psi_0| rho_bar |psi_0>, clamped to [0, 1]."""
    psi0 = np.asarray(psi0)
    if psi0.ndim != 1:
        raise ValueError("psi0 must be a state vector")
    if rho_bar.shape != (len(psi0), len(psi0)):
        raise ValueError(f"dimension mismatch: state {psi0.shape}, matrix {rho_bar.shape}")
    val = np.vdot(psi0, rho_bar @ psi0).real
    if not -1e-10 <= val <= 1.0 + 1e-10:
        raise ValueError(f"fidelity {val} outside [0, 1] beyond tolerance")
    return float(min(max(val, 0.0), 1.0))


@dataclass(frozen=True)
class TomographyRun:
    """Reconstructions of a batch of records against one covariance, prefix by prefix.

    ``fidelities`` is (records, prefixes); ``results[i][k]`` holds the
    positivity-solver diagnostics of record i at prefix k; ``spectra[k]``
    holds the singular values of prefix k's design that the reconstruction
    used, descending.
    """

    fidelities: np.ndarray
    results: list
    spectra: list


def reconstruct_series(
    records: Sequence[np.ndarray],
    cov: CovarianceData,
    basis: HermitianBasis,
    states: Sequence[np.ndarray],
    eval_steps: Optional[Sequence[int]] = None,
) -> TomographyRun:
    """Reconstruct every 1-D record from growing prefixes, warm-starting each record's solver.

    ``eval_steps`` lists ascending prefix lengths n (1-based row counts);
    default is every step.  ``states`` holds each record's reference state
    vector, against which its fidelities are taken.

    The loop is prefix-major.  Each prefix takes one least-squares solve
    for every record at once (:func:`ml_estimate`), which also gives its
    singular values, and every record's positivity projection shares the
    prefix's shrink (:func:`psd_project`).  Both are released with the
    prefix, before the next one, and no singular vectors are formed, so
    memory does not grow with the number of prefixes evaluated.  Each
    record's projection still runs in the order of a record-by-record loop.
    """
    if eval_steps is None:
        eval_steps = range(1, cov.n_rows + 1)
    eval_steps = [int(n) for n in eval_steps]
    fids = np.empty((len(records), len(eval_steps)))
    results = [[] for _ in records]
    warm = [None] * len(records)
    spectra = []
    for k, n in enumerate(eval_steps):
        cov_n = cov.truncated(n)
        r_ml = ml_estimate([record[:n] for record in records], cov_n)
        for i in range(len(records)):
            warm[i], rho_bar, diag = psd_project(r_ml[i], cov_n, basis, warm_start=warm[i])
            fids[i, k] = fidelity(states[i], rho_bar)
            results[i].append(diag)
        spectra.append(cov_n.singular_values())
    return TomographyRun(fidelities=fids, results=results, spectra=spectra)


def model_blocks(model: ModelSpec, observable: np.ndarray,
                 n_rows: int) -> tuple[Iterator[np.ndarray], Optional[np.ndarray]]:
    """Blocks of a model's timeline O_0..O_{n_rows-1}, and its fixed step U (None for Haar steps)."""
    if isinstance(model, HaarSteps):
        rng = np.random.default_rng(model.seed)
        return timeline_blocks(observable, n_rows - 1, rng=rng), None
    u = build_propagator(model)
    return timeline_blocks(observable, n_rows - 1, u), u
