"""Information-theoretic measures read off the covariance spectrum.

The eigenvalues of C^-1 = design^T design are per-direction signal-to-noise
ratios of the measurement record.  Shannon entropy of the normalized
spectrum measures how evenly the dynamics spreads information over operator
directions, the rank counts directions measured at all, the
pseudo-log-determinant is the mutual information between record and Bloch
vector, and the regularized trace inverse is the total Fisher information.
Each measure takes the design's singular values s, descending (the
eigenvalues of C^-1 are s^2), and cuts the measured subspace as
:func:`~chaostomo.tomography.measured_rank` does.

Also here: the ordered-measurement analysis, how fast fidelity can rise
when basis elements are measured in decreasing order of their Bloch
weight, with ideal measurements (:func:`ordered_bloch_values`) or with a
rotated measured basis (:func:`ordered_perturbed_fidelity`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .operator_space import HermitianBasis, bloch_encode
from .tomography import measured_rank

__all__ = [
    "shannon_entropy",
    "fisher_information",
    "mutual_information",
    "quantifier_series",
    "ordered_bloch_values",
    "ordered_perturbed_fidelity",
]


def _positive_spectrum(s: np.ndarray) -> np.ndarray:
    """Eigenvalues of C^-1 on the measured subspace, descending."""
    return s[: measured_rank(s)] ** 2


def shannon_entropy(s: np.ndarray) -> float:
    """Entropy -sum p ln p of the normalized positive spectrum of C^-1."""
    lam = _positive_spectrum(s)
    if len(lam) == 0:
        raise ValueError("covariance has no support; entropy undefined")
    p = lam / lam.sum()
    # 0 - sum, not -sum: +0 where all the weight sits in one direction
    return float(0.0 - np.sum(p * np.log(p)))


def _fisher_reg(s: np.ndarray) -> float:
    """Regularizer: a small fraction of the largest eigenvalue (1 if all zero)."""
    lam = _positive_spectrum(s)
    top = lam[0] if len(lam) else 1.0
    return 1e-6 * top


def fisher_information(s: np.ndarray, n_directions: int, reg: float) -> float:
    """Total Fisher information 1 / Tr[(C^-1 + reg I)^-1] over ``n_directions`` = d^2 - 1.

    C^-1 is never full rank for single-map timelines, so the zero
    eigenvalues, the directions past ``len(s)`` included, are lifted by
    ``reg`` before inverting.
    """
    if reg <= 0:
        raise ValueError("regularizer must be positive")
    lam = np.zeros(n_directions)
    lam[: len(s)] = s**2
    return float(1.0 / np.sum(1.0 / (lam + reg)))


def mutual_information(s: np.ndarray) -> float:
    """(1/2) sum ln lambda over the positive spectrum of C^-1.

    The pseudo-log-determinant on the measured subspace: ln(1/V) with V the
    volume of the error ellipsoid restricted to measured directions.
    """
    lam = _positive_spectrum(s)
    if len(lam) == 0:
        return 0.0
    return float(0.5 * np.sum(np.log(lam)))


def quantifier_series(spectra: Sequence[np.ndarray], n_directions: int) -> dict:
    """Shannon entropy, Fisher information, rank and mutual information per prefix.

    ``spectra`` holds the singular values of growing prefixes of one
    record's design, the full record last: the ``spectra`` of a
    reconstruction (:func:`~chaostomo.tomography.reconstruct_series`), or
    ``cov.truncated(n).singular_values()``.  Returns {"shannon", "fisher",
    "rank", "mutual_info"}, each with one value per prefix.  The Fisher
    regularizer is fixed once from the last prefix, so the series is
    monotone in the record length.
    """
    reg = _fisher_reg(spectra[-1])
    return {
        "shannon": np.array([shannon_entropy(s) for s in spectra]),
        "fisher": np.array([fisher_information(s, n_directions, reg) for s in spectra]),
        "rank": np.array([measured_rank(s) for s in spectra]),
        "mutual_info": np.array([mutual_information(s) for s in spectra]),
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


def ordered_perturbed_fidelity(
    psi0: np.ndarray,
    basis: HermitianBasis,
    w: np.ndarray,
    direction: str = "descending",
) -> np.ndarray:
    """Zero-noise fidelity after k ordered single-direction measurements.

    The estimator believes it measures the ideal elements E_a in order of
    the state's |r_a| (:func:`ordered_bloch_values`), but the record
    reports the rotated elements W E_a W^dag, for instance W = U_r^eta from
    :func:`~chaostomo.perturbation.fractional_unitary_power`.  Their
    expectations Tr(rho W E_a W^dag) are the Bloch components of the
    rotated state W^dag psi0.  The k-th fidelity is 1/d + sum_{i<=k} r'_i r_i with r' the
    measured values and the unmeasured components estimated as zero.
    """
    rho0 = np.outer(psi0, psi0.conj())
    r_true = bloch_encode(rho0, basis)
    phi = w.conj().T @ psi0
    r_meas = bloch_encode(np.outer(phi, phi.conj()), basis)
    order = _magnitude_order(r_true, direction)
    return 1.0 / basis.dim + np.cumsum(r_true[order] * r_meas[order])
