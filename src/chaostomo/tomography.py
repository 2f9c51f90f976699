"""Measurement-record synthesis and maximum-likelihood state reconstruction.

The protocol: a Hermitian observable is Heisenberg-evolved into a timeline
O_0, O_1, ..., and the record consists of noisy expectation values
M_n = Tr(O_n rho_0) + W_n with Gaussian white noise of spread sigma.  In
Bloch coordinates the record is linear, M = design @ r + W with
design[n, a] = Tr(O_n E_a), so the maximum-likelihood Bloch vector is a
least-squares solution through the Moore-Penrose pseudoinverse (inverting
only over the measured subspace).  The physical estimate is the closest
positive-semidefinite state in the covariance-weighted norm, found by an
operator-splitting solver that alternates a weighted least-squares step
with an eigenvalue projection of the decoded matrix.

A fixed step U confines the timeline to a subspace known in advance.  In
the eigenbasis V of U, entry (a, b) of V^dag O_n V is O'_ab e^{in(theta_b -
theta_a)}: conjugation turns each entry by its own phase and never moves
weight between entries.  So every design row lies in the eigenframe span:
the d - 1 traceless diagonals of the eigenframe and the two Bloch
directions of each pair (a, b) that O touches.  Near integrability, or
under a conserved charge, that span is much smaller than d^2 - 1 (191 of
1023 directions for the hz=0 kicked Ising chain at L=5), and the prefix
SVDs run on the design's coordinates in it (:class:`CovarianceData`).

Units: the ensemble size is absorbed into the record (N_s = 1), so sigma is
the per-sample standard deviation and all information quantifiers read off
the covariance are dimensionless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dynamics import (
    HaarSteps,
    ModelSpec,
    OperatorTimeline,
    build_propagator,
    haar_timeline,
    heisenberg_timeline,
    unitary_eigh,
)
from .operator_space import (
    HermitianBasis,
    bloch_decode,
    bloch_encode,
    bloch_encode_batch,
)

__all__ = [
    "MeasurementRecord",
    "CovarianceData",
    "SolverDiagnostics",
    "TomographyRun",
    "haar_random_pure",
    "generate_record",
    "build_covariance",
    "ml_estimate",
    "psd_project",
    "fidelity",
    "reconstruct_series",
    "model_timeline",
]

# Relative singular-value cut of the measured subspace (CovarianceData.rank).
RANK_TOL = 1e-10
DEFAULT_SIGMA = 0.1
# Douglas-Rachford stopping rule of psd_project, read at call time.
_PSD_TOL = 1e-7
_PSD_MAX_ITERS = 5000


@dataclass(frozen=True)
class MeasurementRecord:
    """Noisy expectation-value series M_1..M_N with its noise spread."""

    values: np.ndarray
    sigma: float

    def __len__(self):
        return len(self.values)


@dataclass
class CovarianceData:
    """Design matrix and derived covariance spectrum for a timeline.

    ``design[n, a] = Tr(O_n E_a)``; the inverse covariance is
    C^-1 = design^T design.  The singular value decomposition of the design
    is computed once and shared by the estimator and the projection solver;
    :meth:`drop_vectors` releases its singular vectors and keeps its values.
    The information quantifiers read only :meth:`singular_values`, which
    computes no singular vectors unless the full decomposition is cached.
    ``row_offsets`` carries Tr(O_n)/d so that records of non-traceless
    observables invert exactly.

    ``span`` (k, d^2 - 1), when set, has orthonormal rows Phi that hold
    every design row up to rounding: the eigenframe span of the module
    docstring.  It is set only when it limits the rank, k < min(n_rows,
    d^2 - 1); otherwise the plain SVD is no larger.  The SVD is then taken
    of the n x k coordinates G = design Phi^T and mapped back, vt = vt_G Phi,
    so every consumer sees the same (u, s, vt) contract.  The cut is safe
    to second order: with E = design - G Phi, orthonormal Phi gives
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
    _svd: Optional[tuple] = field(default=None, repr=False)
    _s: Optional[np.ndarray] = field(default=None, repr=False)
    _rank: Optional[int] = field(default=None, repr=False)

    def __post_init__(self):
        self.design = np.atleast_2d(np.asarray(self.design, dtype=float))
        if self.row_offsets is None:
            self.row_offsets = np.zeros(len(self.design))

    @property
    def n_rows(self) -> int:
        return self.design.shape[0]

    @property
    def n_directions(self) -> int:
        return self.design.shape[1]

    def span_coords(self) -> np.ndarray:
        """G = design Phi^T, the design in the coordinates of ``span``."""
        if self._coords is None:
            self._coords = self.design @ self.span.T
        return self._coords

    def svd(self):
        if self._svd is None:
            a = self.design if self.span is None else self.span_coords()
            u, s, vt = np.linalg.svd(a, full_matrices=False)
            self._svd = (u, s, vt if self.span is None else vt @ self.span)
            self._rank = None  # measured() cuts these triples by their own s
        return self._svd

    def drop_vectors(self) -> "CovarianceData":
        """Release the cached singular vectors, keeping the singular values and the rank."""
        if self._svd is not None:
            self._s, self._svd = self._svd[1], None
        return self

    def singular_values(self) -> np.ndarray:
        """Singular values of the design, descending: the cached :meth:`svd`'s, or values only."""
        if self._svd is not None:
            return self._svd[1]
        if self._s is None:
            a = self.design if self.span is None else self.span_coords()
            self._s = np.linalg.svd(a, compute_uv=False)
        return self._s

    def eigenvalues(self) -> np.ndarray:
        """All d^2 - 1 eigenvalues of C^-1 in descending order (zeros padded)."""
        s = self.singular_values()
        out = np.zeros(self.n_directions)
        out[: len(s)] = s**2
        return out

    def rank(self) -> int:
        """Dimension of the measured subspace: singular values above RANK_TOL times s_0."""
        if self._rank is None:
            s = self.singular_values()
            self._rank = (0 if len(s) == 0 or s[0] == 0.0
                          else int(np.count_nonzero(s > RANK_TOL * s[0])))
        return self._rank

    def measured(self) -> tuple:
        """(u, s, vt) of the measured subspace: the first :meth:`rank` singular triples.

        Boolean-mask indexing hands BLAS the same contiguous copies on every
        call; they are not cached, so the decomposition is the only copy a
        prefix holds.
        """
        u, s, vt = self.svd()
        keep = np.arange(len(s)) < self.rank()
        return u[:, keep], s[keep], vt[keep]

    def truncated(self, n: int) -> "CovarianceData":
        """Covariance restricted to the first n record rows.

        The prefix views the design's rows, and its decomposition is its
        own: nothing is memoized here, so a prefix's decomposition lives only
        as long as the caller holds the prefix (:func:`reconstruct_series`
        holds one at a time).  A prefix keeps the span only while it still
        limits the rank, k < n.
        """
        if not 1 <= n <= self.n_rows:
            raise ValueError(f"prefix length {n} outside 1..{self.n_rows}")
        if n == self.n_rows:
            return self
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


def _as_density(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state)
    if state.ndim == 1:
        return np.outer(state, state.conj())
    return state


def generate_record(
    rho0: np.ndarray, timeline: OperatorTimeline, sigma: float, seed
) -> MeasurementRecord:
    """M_n = Tr(O_n rho_0) + W_n with i.i.d. Gaussian W_n of spread sigma."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    rho0 = _as_density(rho0)
    if rho0.shape != timeline.steps.shape[1:]:
        raise ValueError(
            f"state dimension {rho0.shape} does not match timeline {timeline.steps.shape[1:]}"
        )
    flat = timeline.steps.reshape(len(timeline), -1)
    values = (flat @ rho0.conj().reshape(-1)).real
    if sigma > 0:
        values = values + sigma * np.random.default_rng(seed).standard_normal(len(values))
    return MeasurementRecord(values=values, sigma=float(sigma))


def build_covariance(timeline: OperatorTimeline, basis: HermitianBasis) -> CovarianceData:
    """Design matrix Tr(O_n E_a) and covariance spectrum for a timeline.

    A timeline with one fixed step gets the eigenframe span of its
    observable when that span limits the rank (:func:`_eigenframe_span`).
    """
    if timeline.dim != basis.dim:
        raise ValueError(f"timeline dim {timeline.dim} != basis dim {basis.dim}")
    design = bloch_encode_batch(timeline.steps, basis)
    offsets = np.einsum("nii->n", timeline.steps).real / basis.dim
    return CovarianceData(design=design, row_offsets=offsets,
                          span=_eigenframe_span(timeline, basis))


def _eigenframe_span(timeline: OperatorTimeline, basis: HermitianBasis) -> Optional[np.ndarray]:
    """Orthonormal Bloch rows Phi spanning every O_n of a fixed-step timeline, or None.

    Phi holds the d - 1 traceless diagonals of U's eigenframe and the two
    Bloch directions of each pair (a, b) with |O'_ab| > 1e-12 |O|,
    O' = V^dag O V, each conjugated back by V and encoded in ``basis``
    (module docstring).  On the preset cells that take this path the
    untouched entries, rounding residue of the basis change, measure at
    most 8e-14 |O| and the touched ones at least 2e-4 |O|.  Wherever the
    cut falls, conjugation keeps the modulus of each entry, so a dropped
    pair puts at most 1e-12 |O| into each row of the residual, which the
    singular values see at second order (:class:`CovarianceData`).
    Returns None when the timeline has no fixed step or the span does not
    limit the rank, k >= min(n_rows, d^2 - 1).
    """
    u = timeline.propagator
    if u is None:
        return None
    d = basis.dim
    op = timeline.steps[0]
    _, vecs = unitary_eigh(u)
    o = vecs.conj().T @ op @ vecs
    touched = np.flatnonzero(np.abs(o[basis.rows, basis.cols]) > 1e-12 * np.linalg.norm(op))
    if d - 1 + 2 * len(touched) >= min(len(timeline), len(basis)):
        return None
    pairs = d - 1 + touched
    sel = np.concatenate([np.arange(d - 1), pairs, pairs + len(basis.rows)])
    return bloch_encode_batch(vecs @ basis.matrices(sel) @ vecs.conj().T, basis)


def ml_estimate(record: MeasurementRecord, cov: CovarianceData) -> np.ndarray:
    """Maximum-likelihood Bloch vector, pseudoinverted over the measured subspace.

    Only the measured subspace (:meth:`CovarianceData.measured`) is inverted,
    so unmeasured directions come back exactly 0.
    """
    m = np.asarray(record.values, dtype=float)
    if m.ndim != 1 or len(m) != cov.n_rows:
        raise ValueError(f"record length {m.shape} does not match {cov.n_rows} design rows")
    if len(m) == 0:
        raise ValueError("empty measurement record")
    u, s, vt = cov.measured()
    y = u.T @ (m - cov.row_offsets)
    return vt.T @ (y / s)


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
    step of the quadratic (a weighted least-squares shrink through the
    cached design SVD) alternates with the exact eigenvalue projection onto
    the state set.  Convergence is declared when the projected-gradient
    fixed-point residual, measured in the C^-1 norm scaled by its largest
    eigenvalue, drops below ``_PSD_TOL`` relative to the data scale.

    Returns (r_bar, rho_bar, diagnostics); on hitting ``_PSD_MAX_ITERS`` the best
    feasible iterate is returned with ``converged=False``.
    """
    r_ml = np.asarray(r_ml, dtype=float)
    decoded = bloch_decode(r_ml, basis)
    if np.linalg.eigvalsh(decoded)[0] >= -1e-12:
        return r_ml, decoded, SolverDiagnostics(iters=0, residual=0.0, converged=True)

    _, s, vt = cov.measured()
    v = vt.T  # (k, r) eigenvectors of C^-1 with positive eigenvalue

    if len(s) == 0:
        r_bar = _project_feasible(r_ml, basis)
        return r_bar, bloch_decode(r_bar, basis), SolverDiagnostics(1, 0.0, True)

    lam = (s / s[0]) ** 2  # normalized spectrum of C^-1, max 1
    # Proximal parameter and over-relaxation tuned on kicked-top records;
    # relaxation < 2 keeps the splitting convergent.
    prox_t = 100.0
    relax = 1.8

    def grad(r):
        return v @ (lam * (v.T @ (r - r_ml)))

    def prox_quadratic(x):
        return x + v @ ((lam / (lam + 1.0 / prox_t)) * (v.T @ (r_ml - x)))

    def weighted_norm(x):
        return float(np.sqrt(np.sum(lam * (v.T @ x) ** 2)))

    scale = max(1.0, weighted_norm(r_ml))
    z = r_ml.copy() if warm_start is None else np.asarray(warm_start, dtype=float).copy()
    r_bar = _project_feasible(z, basis)
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

    ``fidelities`` is (records, prefixes), NaN where no reference state was
    given; ``results[i][k]`` holds the positivity-solver diagnostics of
    record i at prefix k; ``spectra[k]`` is the covariance of prefix k with
    its singular vectors dropped, so it holds the singular values that the
    reconstruction used.
    """

    fidelities: np.ndarray
    results: list
    spectra: list


def reconstruct_series(
    records: Sequence[MeasurementRecord],
    cov: CovarianceData,
    basis: HermitianBasis,
    states: Optional[Sequence[np.ndarray]] = None,
    eval_steps: Optional[Sequence[int]] = None,
) -> TomographyRun:
    """Reconstruct every record from growing prefixes, warm-starting each record's solver.

    ``eval_steps`` lists ascending prefix lengths n (1-based row counts);
    default is every step.  ``states`` holds each record's reference state;
    without them the fidelities are NaN.

    The loop is prefix-major.  Each prefix is decomposed once, that one
    decomposition serves the ML estimate and positivity projection of
    every record, and its singular vectors are released before the next
    prefix.  So at most two decompositions are alive, however many
    prefixes are evaluated, and each record still sees the arithmetic of a
    record-by-record loop, in the same order.  The full record is the last
    prefix and the quantifiers' Fisher regularizer reads it; it is
    decomposed first: on the chain-spectra benchmark workload (kicked
    Ising L=5, 1200 x 1023 designs, 2-vCPU x86-64) that order peaked at
    138 MB RSS, against 147 MB with the full record decomposed last.
    """
    if eval_steps is None:
        eval_steps = range(1, cov.n_rows + 1)
    eval_steps = [int(n) for n in eval_steps]
    if cov.n_rows in eval_steps:
        cov.svd()
    fids = np.full((len(records), len(eval_steps)), np.nan)
    results = [[] for _ in records]
    warm = [None] * len(records)
    spectra = []
    for k, n in enumerate(eval_steps):
        cov_n = cov.truncated(n)
        for i, record in enumerate(records):
            r_ml = ml_estimate(MeasurementRecord(record.values[:n], record.sigma), cov_n)
            warm[i], rho_bar, diag = psd_project(r_ml, cov_n, basis, warm_start=warm[i])
            if states is not None:
                fids[i, k] = fidelity(states[i], rho_bar)
            results[i].append(diag)
        spectra.append(cov_n.drop_vectors())
    return TomographyRun(fidelities=fids, results=results, spectra=spectra)


def model_timeline(model: ModelSpec, observable: np.ndarray, n_rows: int) -> OperatorTimeline:
    """Timeline with n_rows entries O_0..O_{n_rows-1} for a model spec."""
    if isinstance(model, HaarSteps):
        return haar_timeline(observable, n_rows - 1, np.random.default_rng(model.seed))
    return heisenberg_timeline(observable, build_propagator(model), n_rows - 1)
