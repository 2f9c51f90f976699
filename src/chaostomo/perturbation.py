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
believes and enters the covariance.  Both come from
:func:`~chaostomo.dynamics.build_propagator`; the true kicked top kicks
with lam + delta_lambda.

Also here: :func:`fractional_unitary_power`, the rotation U^eta of the
measured basis in the perturbed-basis analysis
(:func:`~chaostomo.quantifiers.ordered_perturbed_fidelity`).
"""

from __future__ import annotations

import numpy as np

from .dynamics import unitary_eigh
from .operator_space import regularize_operator
# unused here; the benchmark tracer (bench/layers.py) wraps this alias
from .tomography import reconstruct_series  # noqa: F401

__all__ = [
    "operator_loschmidt_echo",
    "operator_relative_entropy",
    "operator_incompatibility",
    "fractional_unitary_power",
]

EIG_CLAMP = 1e-12


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

