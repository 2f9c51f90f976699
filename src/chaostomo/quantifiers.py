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

from typing import Sequence

import numpy as np

from .operator_space import HermitianBasis, bloch_encode
from .tomography import CovarianceData

__all__ = [
    "shannon_entropy",
    "fisher_information",
    "mutual_information",
    "quantifier_series",
    "ordered_bloch_values",
]


def _positive_spectrum(cov: CovarianceData) -> np.ndarray:
    """Eigenvalues of C^-1 on the measured subspace, descending."""
    return cov.singular_values()[: cov.rank()] ** 2


def shannon_entropy(cov: CovarianceData) -> float:
    """Entropy -sum p ln p of the normalized positive spectrum of C^-1."""
    lam = _positive_spectrum(cov)
    if len(lam) == 0:
        raise ValueError("covariance has no support; entropy undefined")
    p = lam / lam.sum()
    return float(-np.sum(p * np.log(p)))


def _fisher_reg(cov: CovarianceData) -> float:
    """Regularizer: a small fraction of the largest eigenvalue (1 if all zero)."""
    lam = _positive_spectrum(cov)
    top = lam[0] if len(lam) else 1.0
    return 1e-6 * top


def fisher_information(cov: CovarianceData, reg: float) -> float:
    """Total Fisher information 1 / Tr[(C^-1 + reg I)^-1].

    C^-1 is never full rank for single-map timelines, so the zero
    eigenvalues are lifted by ``reg`` before inverting.
    """
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


def quantifier_series(cov: CovarianceData, prefixes: Sequence[CovarianceData]) -> dict:
    """Shannon entropy, Fisher information, rank and mutual information per prefix.

    ``prefixes`` are the covariances of growing prefixes of the record that
    ``cov`` covers: ``cov.truncated(n)``, or the ``spectra`` of a
    reconstruction (:func:`~chaostomo.tomography.reconstruct_series`).
    Returns {"shannon", "fisher", "rank", "mutual_info"}, each with one
    value per prefix.  The Fisher regularizer is fixed once from the full
    record ``cov`` so the series is monotone in the record length.
    """
    reg = _fisher_reg(cov)
    return {
        "shannon": np.array([shannon_entropy(c) for c in prefixes]),
        "fisher": np.array([fisher_information(c, reg) for c in prefixes]),
        "rank": np.array([c.rank() for c in prefixes]),
        "mutual_info": np.array([mutual_information(c) for c in prefixes]),
    }


def _magnitude_order(r: np.ndarray, direction: str) -> np.ndarray:
    """Indices of ``r`` by |r_a|, 'descending' or 'ascending'.

    The stable ascending sort keeps basis order among ties, and descending
    is its reverse.
    """
    if direction not in ("descending", "ascending"):
        raise ValueError("direction must be 'descending' or 'ascending'")
    order = np.argsort(np.abs(r), kind="stable")
    return order[::-1] if direction == "descending" else order


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
    r = bloch_encode(np.asarray(rho0, dtype=complex), basis)
    partial = np.cumsum(r[_magnitude_order(r, direction)] ** 2)
    return partial, 1.0 / basis.dim + partial
