"""Information-theoretic measures read off the covariance spectrum.

The eigenvalues of C^-1 = design^T design are per-direction signal-to-noise
ratios of the measurement record.  Shannon entropy of the normalized
spectrum measures how evenly the dynamics spreads information over operator
directions, the rank counts directions measured at all, the
pseudo-log-determinant is the mutual information between record and Bloch
vector, and the regularized trace inverse is the total Fisher information.

Also here: the ordered-measurement analysis (how fast fidelity can rise
when basis elements are measured in decreasing order of their Bloch
weight).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .operator_space import HermitianBasis, bloch_encode
from .tomography import CovarianceData

__all__ = [
    "QuantifierSeries",
    "shannon_entropy",
    "fisher_information",
    "default_fisher_reg",
    "mutual_information",
    "quantifier_series",
    "ordered_bloch_values",
]


def _positive_spectrum(cov: CovarianceData) -> np.ndarray:
    """Eigenvalues of C^-1 above the rank tolerance, descending."""
    _, s, _ = cov.svd()
    if len(s) == 0 or s[0] == 0.0:
        return np.empty(0)
    return s[s > cov.rank_tol * s[0]] ** 2


def shannon_entropy(cov: CovarianceData) -> float:
    """Entropy -sum p ln p of the normalized positive spectrum of C^-1."""
    lam = _positive_spectrum(cov)
    if len(lam) == 0:
        raise ValueError("covariance has no support; entropy undefined")
    p = lam / lam.sum()
    return float(-np.sum(p * np.log(p)))


def default_fisher_reg(cov: CovarianceData) -> float:
    """Regularizer: a small fraction of the largest eigenvalue (1 if all zero)."""
    lam = _positive_spectrum(cov)
    top = lam[0] if len(lam) else 1.0
    return 1e-6 * top


def fisher_information(cov: CovarianceData, reg: Optional[float] = None) -> float:
    """Total Fisher information 1 / Tr[(C^-1 + reg I)^-1].

    C^-1 is never full rank for single-map timelines, so the zero
    eigenvalues are lifted by ``reg`` before inverting.
    """
    if reg is None:
        reg = default_fisher_reg(cov)
    if reg <= 0:
        raise ValueError("regularizer must be positive")
    lam = cov.eigenvalues()
    return float(1.0 / np.sum(1.0 / (lam + reg)))


def mutual_information(cov: CovarianceData) -> float:
    """(1/2) sum ln lambda over the positive spectrum of C^-1.

    The pseudo-log-determinant on the measured subspace: ln(1/V) with V the
    volume of the error ellipsoid restricted to measured directions.
    """
    lam = _positive_spectrum(cov)
    if len(lam) == 0:
        return 0.0
    return float(0.5 * np.sum(np.log(lam)))


@dataclass(frozen=True)
class QuantifierSeries:
    """Covariance quantifiers evaluated on growing record prefixes."""

    shannon: np.ndarray
    fisher: np.ndarray
    rank: np.ndarray
    mutual_info: np.ndarray


def quantifier_series(
    cov: CovarianceData,
    eval_steps: Optional[Sequence[int]] = None,
    reg: Optional[float] = None,
) -> QuantifierSeries:
    """Shannon entropy, Fisher information, rank and mutual information per prefix.

    The Fisher regularizer is fixed once from the full record so the series
    is monotone in the record length.
    """
    if eval_steps is None:
        eval_steps = range(1, cov.n_rows + 1)
    steps = np.asarray(list(eval_steps), dtype=int)
    if reg is None:
        reg = default_fisher_reg(cov)
    shannon = np.empty(len(steps))
    fisher = np.empty(len(steps))
    rank = np.empty(len(steps), dtype=int)
    mi = np.empty(len(steps))
    for i, n in enumerate(steps):
        cn = cov.truncated(int(n))
        shannon[i] = shannon_entropy(cn)
        fisher[i] = fisher_information(cn, reg)
        rank[i] = cn.rank()
        mi[i] = mutual_information(cn)
    return QuantifierSeries(shannon=shannon, fisher=fisher, rank=rank, mutual_info=mi)


def ordered_bloch_values(
    rho0: np.ndarray, basis: HermitianBasis, direction: str = "descending"
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative Bloch weight under magnitude-ordered ideal measurements.

    Sorts |r_a| in the requested direction (ties broken by basis index,
    ascending) and returns (partial_sums, fidelity_bounds) where
    partial_sums[k-1] = sum of the k largest (or smallest) r_a^2 and the
    bound 1/d + partial_sum is the zero-noise fidelity floor after k ideal
    basis measurements.
    """
    if direction not in ("descending", "ascending"):
        raise ValueError("direction must be 'descending' or 'ascending'")
    r = bloch_encode(np.asarray(rho0, dtype=complex), basis)
    mag = np.abs(r)
    # stable sort keeps basis order among ties
    order = np.argsort(mag, kind="stable")
    if direction == "descending":
        order = order[::-1]
    partial = np.cumsum(r[order] ** 2)
    return partial, 1.0 / basis.dim + partial
