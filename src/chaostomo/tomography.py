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
)
from .operator_space import (
    HermitianBasis,
    bloch_decode,
    bloch_encode,
    bloch_encode_batch,
    gell_mann_basis,
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
    "run_tomography",
]

DEFAULT_RANK_TOL = 1e-10
DEFAULT_SIGMA = 0.1


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
    is computed once and shared by the estimator, the projection solver and
    the information quantifiers.  ``row_offsets`` carries Tr(O_n)/d so that
    records of non-traceless observables invert exactly.
    """

    design: np.ndarray
    rank_tol: float = DEFAULT_RANK_TOL
    row_offsets: Optional[np.ndarray] = None
    _svd: Optional[tuple] = field(default=None, repr=False)
    _prefixes: dict = field(default_factory=dict, repr=False)

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

    def svd(self):
        if self._svd is None:
            u, s, vt = np.linalg.svd(self.design, full_matrices=False)
            self._svd = (u, s, vt)
        return self._svd

    def eigenvalues(self) -> np.ndarray:
        """All d^2 - 1 eigenvalues of C^-1 in descending order (zeros padded)."""
        _, s, _ = self.svd()
        out = np.zeros(self.n_directions)
        out[: len(s)] = s**2
        return out

    def rank(self) -> int:
        """Singular values of the design above rank_tol times the largest."""
        _, s, _ = self.svd()
        if len(s) == 0 or s[0] == 0.0:
            return 0
        return int(np.count_nonzero(s > self.rank_tol * s[0]))

    def truncated(self, n: int) -> "CovarianceData":
        """Covariance restricted to the first n record rows.

        Prefixes are memoized so that repeated reconstructions against the
        same timeline (for example over a batch of states) share the prefix
        decompositions.  Not safe for concurrent mutation; batches that run
        in parallel should hold one instance per worker.
        """
        if not 1 <= n <= self.n_rows:
            raise ValueError(f"prefix length {n} outside 1..{self.n_rows}")
        if n == self.n_rows:
            return self
        if n not in self._prefixes:
            self._prefixes[n] = CovarianceData(
                self.design[:n], self.rank_tol, self.row_offsets[:n]
            )
        return self._prefixes[n]


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


def build_covariance(
    timeline: OperatorTimeline,
    basis: HermitianBasis,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> CovarianceData:
    """Design matrix Tr(O_n E_a) and covariance spectrum for a timeline."""
    if timeline.dim != basis.dim:
        raise ValueError(f"timeline dim {timeline.dim} != basis dim {basis.dim}")
    design = bloch_encode_batch(timeline.steps, basis)
    offsets = np.einsum("nii->n", timeline.steps).real / basis.dim
    return CovarianceData(design=design, rank_tol=rank_tol, row_offsets=offsets)


def ml_estimate(record: MeasurementRecord, cov: CovarianceData) -> np.ndarray:
    """Maximum-likelihood Bloch vector, pseudoinverted over the measured subspace.

    Singular values below rank_tol times the largest are treated as zero, so
    unmeasured directions come back exactly 0.
    """
    m = np.asarray(record.values, dtype=float)
    if m.ndim != 1 or len(m) != cov.n_rows:
        raise ValueError(f"record length {m.shape} does not match {cov.n_rows} design rows")
    if len(m) == 0:
        raise ValueError("empty measurement record")
    u, s, vt = cov.svd()
    keep = s > (cov.rank_tol * s[0] if s[0] > 0 else np.inf)
    y = u[:, keep].T @ (m - cov.row_offsets)
    return vt[keep].T @ (y / s[keep])


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
    tol: float = 1e-7,
    max_iters: int = 5000,
    warm_start: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, SolverDiagnostics]:
    """Closest physical state to r_ml in the covariance-weighted norm.

    Minimizes (r - r_ml)^T C^-1 (r - r_ml) subject to
    I/d + sum_a r_a E_a >= 0, by Douglas-Rachford splitting: the proximal
    step of the quadratic (a weighted least-squares shrink through the
    cached design SVD) alternates with the exact eigenvalue projection onto
    the state set.  Convergence is declared when the projected-gradient
    fixed-point residual, measured in the C^-1 norm scaled by its largest
    eigenvalue, drops below ``tol`` relative to the data scale.

    Returns (r_bar, rho_bar, diagnostics); on hitting ``max_iters`` the best
    feasible iterate is returned with ``converged=False``.
    """
    r_ml = np.asarray(r_ml, dtype=float)
    decoded = bloch_decode(r_ml, basis)
    if np.linalg.eigvalsh(decoded)[0] >= -1e-12:
        return r_ml, decoded, SolverDiagnostics(iters=0, residual=0.0, converged=True)

    _, s, vt = cov.svd()
    keep = s > (cov.rank_tol * s[0] if s[0] > 0 else np.inf)
    s = s[keep]
    v = vt[keep].T  # (k, r) eigenvectors of C^-1 with positive eigenvalue

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
    while iters < max_iters:
        for _ in range(check_every):
            y = prox_quadratic(z)
            r_bar = _project_feasible(2.0 * y - z, basis)
            z += relax * (r_bar - y)
            iters += 1
        residual = weighted_norm(r_bar - _project_feasible(r_bar - grad(r_bar), basis))
        if residual <= tol * scale:
            break
    converged = residual <= tol * scale
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
    """Per-step fidelities and positivity-solver diagnostics for one record."""

    eval_steps: np.ndarray
    fidelities: np.ndarray
    results: list


def reconstruct_series(
    record: MeasurementRecord,
    cov: CovarianceData,
    basis: HermitianBasis,
    psi0: Optional[np.ndarray] = None,
    eval_steps: Optional[Sequence[int]] = None,
) -> TomographyRun:
    """Reconstruct from growing record prefixes, warm-starting the solver.

    ``eval_steps`` lists prefix lengths n (1-based row counts); default is
    every step.  Fidelities are NaN when no reference state is given.
    ``results`` holds the solver diagnostics of each step.
    """
    if eval_steps is None:
        eval_steps = range(1, cov.n_rows + 1)
    eval_steps = np.asarray(list(eval_steps), dtype=int)
    results = []
    fids = np.full(len(eval_steps), np.nan)
    warm = None
    for i, n in enumerate(eval_steps):
        cov_n = cov.truncated(int(n))
        r_ml = ml_estimate(MeasurementRecord(record.values[:n], record.sigma), cov_n)
        warm, rho_bar, diag = psd_project(r_ml, cov_n, basis, warm_start=warm)
        if psi0 is not None:
            fids[i] = fidelity(psi0, rho_bar)
        results.append(diag)
    return TomographyRun(eval_steps=eval_steps, fidelities=fids, results=results)


def model_timeline(model: ModelSpec, observable: np.ndarray, n_rows: int) -> OperatorTimeline:
    """Timeline with n_rows entries O_0..O_{n_rows-1} for a model spec."""
    if isinstance(model, HaarSteps):
        return haar_timeline(observable, n_rows - 1, np.random.default_rng(model.seed))
    return heisenberg_timeline(observable, build_propagator(model), n_rows - 1)


def run_tomography(
    model: ModelSpec,
    psi0: np.ndarray,
    observable: np.ndarray,
    n_steps: int,
    sigma: float,
    seed,
    *,
    basis: Optional[HermitianBasis] = None,
    eval_steps: Optional[Sequence[int]] = None,
) -> TomographyRun:
    """Full pipeline: timeline, record, and per-step reconstruction fidelity.

    The record has ``n_steps`` samples; sample n is taken after n - 1
    applications of the propagator (the first sample measures the initial
    observable).  Deterministic for a fixed seed.
    """
    psi0 = np.asarray(psi0)
    timeline = model_timeline(model, observable, n_steps)
    if basis is None:
        basis = gell_mann_basis(timeline.dim)
    cov = build_covariance(timeline, basis)
    record = generate_record(psi0, timeline, sigma, seed)
    return reconstruct_series(record, cov, basis, psi0=psi0, eval_steps=eval_steps)
