"""Tomography under a mismatch between true and modeled dynamics.

The record is generated by the true (perturbed) propagator while the
estimator builds its design matrix from the ideal (model) propagator, so
reconstruction quality decays once accumulated operator error dominates
the information gain.  Three operator-level quantities track that decay:

* the operator Loschmidt echo, the normalized Hilbert-Schmidt overlap of
  the two evolved observables;
* the operator relative entropy between their regularized (density-like)
  forms;
* the operator incompatibility, a squared-commutator norm that is
  algebraically an out-of-time-ordered correlator of the observable with
  its conjugation by the error unitary U_model^n U_true^dag^n.

Convention throughout: the unprimed/true propagator generates the
measurement record; the primed/model propagator is what the estimator
believes and enters the covariance.
"""

from __future__ import annotations

import numpy as np

from .dynamics import KickedTop, kicked_top_floquet, unitary_eigh
from .operator_space import HermitianBasis, bloch_encode, regularize_operator
from .quantifiers import _magnitude_order
# unused here; the benchmark tracer (bench/layers.py) wraps this alias
from .tomography import reconstruct_series  # noqa: F401

__all__ = [
    "perturbed_kicked_top",
    "operator_loschmidt_echo",
    "operator_relative_entropy",
    "operator_incompatibility",
    "fractional_unitary_power",
    "ordered_perturbed_fidelity",
]

EIG_CLAMP = 1e-12


def perturbed_kicked_top(
    j: float, lam: float, alpha: float, delta_lambda: float
) -> tuple[np.ndarray, np.ndarray]:
    """Kicked-top steps (u_true, u_model): the true top kicks with lam + delta_lambda."""
    return (kicked_top_floquet(KickedTop(j=j, lam=lam + delta_lambda, alpha=alpha)),
            kicked_top_floquet(KickedTop(j=j, lam=lam, alpha=alpha)))


def operator_loschmidt_echo(op_true: np.ndarray, op_model: np.ndarray, op0: np.ndarray) -> float:
    """Normalized overlap Tr(O_n^dag O'_n) / Tr(O^2) of the two evolutions."""
    norm = np.vdot(op0, op0).real
    if norm == 0.0:
        raise ValueError("initial observable has zero Hilbert-Schmidt norm")
    return float(np.vdot(op_true, op_model).real / norm)


def operator_relative_entropy(op_true: np.ndarray, op_model: np.ndarray) -> float:
    """Quantum relative entropy between the regularized evolved operators.

    Both observables are mapped to density-like operators (eigenvalue
    moduli, unit trace); eigenvalues are clamped at 1e-12 before the
    logarithms since regularized spectra can contain exact zeros.
    """
    rho = regularize_operator(op_true)
    sig = regularize_operator(op_model)
    wr, vr = np.linalg.eigh(rho)
    ws, vs = np.linalg.eigh(sig)
    wr = np.clip(wr, EIG_CLAMP, None)
    ws = np.clip(ws, EIG_CLAMP, None)
    log_rho = (vr * np.log(wr)) @ vr.conj().T
    log_sig = (vs * np.log(ws)) @ vs.conj().T
    return float(np.vdot(rho, log_rho - log_sig).real)


def operator_incompatibility(op_true: np.ndarray, op_model: np.ndarray, j: float) -> float:
    """Squared commutator norm Tr(|[O(t), O'(t)]|^2) / (2 j^4), the spin-j convention."""
    comm = op_true @ op_model - op_model @ op_true
    return float(np.vdot(comm, comm).real / (2.0 * j**4))


def fractional_unitary_power(u: np.ndarray, eta: float) -> np.ndarray:
    """U^eta through the principal branch of the eigenphases.

    Eigenphases are taken in (-pi, pi]; an eigenvalue at exactly -1 sits on
    the branch cut and is nudged by 1e-12 so the power is well defined.
    The eigenbasis comes from :func:`~chaostomo.dynamics.unitary_eigh`,
    which stays orthonormal when eigenphases are (near-)degenerate.
    """
    phases, z = unitary_eigh(u)
    phases = np.where(np.abs(phases - np.pi) < 1e-15, np.pi - 1e-12, phases)
    return (z * np.exp(1j * eta * phases)) @ z.conj().T


def ordered_perturbed_fidelity(
    psi0: np.ndarray,
    basis: HermitianBasis,
    w: np.ndarray,
    direction: str = "descending",
) -> np.ndarray:
    """Zero-noise fidelity after k ordered single-direction measurements.

    The estimator believes it measures the ideal elements E_a in order of
    the state's |r_a| (:func:`~chaostomo.quantifiers.ordered_bloch_values`),
    but the record reports the rotated elements W E_a W^dag, for instance
    W = U_r^eta from :func:`fractional_unitary_power`.  Their expectations
    Tr(rho W E_a W^dag) are the Bloch components of the rotated state
    W^dag psi0.  The k-th fidelity is 1/d + sum_{i<=k} r'_i r_i with r' the
    measured values and the unmeasured components estimated as zero.
    """
    rho0 = np.outer(psi0, psi0.conj())
    r_true = bloch_encode(rho0, basis)
    phi = w.conj().T @ psi0
    r_meas = bloch_encode(np.outer(phi, phi.conj()), basis)
    order = _magnitude_order(r_true, direction)
    return 1.0 / basis.dim + np.cumsum(r_true[order] * r_meas[order])
