"""Information-theoretic measures read off the covariance spectrum.

The eigenvalues of C^-1 = design^T design are per-direction signal-to-noise
ratios of the measurement record.  :func:`quantifier_series` reads four
measures off each prefix of a record (Sahu et al., Phys. Rev. E 106, 024209
(2022)): the Shannon entropy of the normalized spectrum, how evenly the
dynamics spreads information over operator directions; the rank, how many
directions are measured at all; the pseudo-log-determinant, the mutual
information between record and Bloch vector; and the regularized trace
inverse, the total Fisher information.  It takes each prefix's design
singular values s, descending (the eigenvalues of C^-1 are s^2), and cuts
them once at the measured subspace of
:func:`~chaostomo.tomography.measured_rank`.

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
    "quantifier_series",
    "ordered_bloch_values",
    "ordered_perturbed_fidelity",
]


def quantifier_series(spectra: Sequence[np.ndarray], n_directions: int) -> dict:
    """Shannon entropy, Fisher information, rank and mutual information per prefix.

    ``spectra`` holds the singular values of growing prefixes of one
    record's design, the full record last: the ``spectra`` of a
    reconstruction (:func:`~chaostomo.tomography.reconstruct_series`), or
    ``cov.truncated(n).singular_values()``.  Returns {"shannon", "fisher",
    "rank", "mutual_info"}, each with one value per prefix.  With lam the
    spectrum of C^-1 on a prefix's measured subspace:

    * shannon = -sum p ln p over p = lam / sum lam;
    * rank = len(lam);
    * mutual_info = (1/2) sum ln lam, ln(1/V) with V the volume of the error
      ellipsoid restricted to the measured directions;
    * fisher = 1 / Tr[(C^-1 + reg I)^-1] over all ``n_directions`` = d^2 - 1.
      C^-1 is never full rank for single-map timelines, so its zero
      eigenvalues, the directions past ``len(s)`` included, are lifted by
      reg = 1e-6 lam_0 of the last prefix.  reg is fixed once, so the series
      is monotone in the record length.

    A prefix that measures no direction has no entropy: ValueError.
    """
    lams = [s[: measured_rank(s)] ** 2 for s in spectra]
    if any(len(lam) == 0 for lam in lams):
        raise ValueError("covariance has no support; entropy undefined")
    reg = 1e-6 * lams[-1][0]
    columns = {"shannon": [], "fisher": [], "rank": [], "mutual_info": []}
    for s, lam in zip(spectra, lams):
        p = lam / lam.sum()
        # 0 - sum, not -sum: +0 where all the weight sits in one direction
        columns["shannon"].append(0.0 - np.sum(p * np.log(p)))
        lifted = np.zeros(n_directions)
        lifted[: len(s)] = s**2
        columns["fisher"].append(1.0 / np.sum(1.0 / (lifted + reg)))
        columns["rank"].append(len(lam))
        columns["mutual_info"].append(0.5 * np.sum(np.log(lam)))
    return {metric: np.array(column) for metric, column in columns.items()}


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
