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

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .dynamics import KickedTop, UnitaryPropagator, kicked_top_floquet
from .operator_space import HermitianBasis, bloch_encode, regularize_operator
# unused here; the benchmark tracer (bench/layers.py) wraps this alias
from .tomography import reconstruct_series  # noqa: F401

__all__ = [
    "PerturbedPair",
    "perturbed_kicked_top",
    "operator_loschmidt_echo",
    "operator_relative_entropy",
    "operator_incompatibility",
    "error_unitary",
    "fractional_unitary_power",
    "fractional_unitary_perturb",
    "ordered_perturbed_fidelity",
]

EIG_CLAMP = 1e-12


@dataclass(frozen=True)
class PerturbedPair:
    """True (record-generating) and model (estimator-side) propagators."""

    u_true: UnitaryPropagator
    u_model: UnitaryPropagator

    def __post_init__(self):
        if self.u_true.matrix.shape != self.u_model.matrix.shape:
            raise ValueError("true and model propagators must share a dimension")


def perturbed_kicked_top(
    j: float, lam: float, alpha: float, delta_lambda: float
) -> PerturbedPair:
    """Kicked-top pair: the true top kicks with lam + delta_lambda."""
    return PerturbedPair(
        u_true=kicked_top_floquet(KickedTop(j=j, lam=lam + delta_lambda, alpha=alpha)),
        u_model=kicked_top_floquet(KickedTop(j=j, lam=lam, alpha=alpha)),
    )


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


def operator_incompatibility(
    op_true: np.ndarray,
    op_model: np.ndarray,
    j: Optional[float] = None,
    normalization: Optional[float] = None,
) -> float:
    """Squared commutator norm Tr(|[O(t), O'(t)]|^2), normalized.

    For spin-j observables the conventional prefactor is 1/(2 j^4); pass
    ``j`` to use it.  Otherwise ``normalization`` is applied directly,
    defaulting to 1/(2 Tr(O^2)^2), which reduces to the spin convention up
    to the observable-dependent factor.
    """
    comm = op_true @ op_model - op_model @ op_true
    value = np.vdot(comm, comm).real
    if j is not None:
        return float(value / (2.0 * j**4))
    if normalization is None:
        norm2 = np.vdot(op_true, op_true).real
        normalization = 1.0 / (2.0 * norm2**2)
    return float(value * normalization)


def error_unitary(u_true: UnitaryPropagator, u_model: UnitaryPropagator, n: int) -> np.ndarray:
    """Error unitary after n steps: model forward, true backward."""
    if u_true.matrix.shape != u_model.matrix.shape:
        raise ValueError("propagator dimensions differ")
    forward = np.linalg.matrix_power(u_model.matrix, n)
    backward = np.linalg.matrix_power(u_true.matrix.conj().T, n)
    return forward @ backward


def fractional_unitary_power(u: np.ndarray, eta: float) -> np.ndarray:
    """U^eta through the principal branch of the eigenphases.

    Eigenphases are taken in (-pi, pi]; an eigenvalue at exactly -1 sits on
    the branch cut and is nudged by 1e-12 so the power is well defined.
    """
    t, z = scipy.linalg.schur(np.asarray(u, dtype=complex), output="complex")
    phases = np.angle(np.diagonal(t))
    phases = np.where(np.abs(phases - np.pi) < 1e-15, np.pi - 1e-12, phases)
    return (z * np.exp(1j * eta * phases)) @ z.conj().T


def fractional_unitary_perturb(
    basis: HermitianBasis, u_r: np.ndarray, eta: float
) -> HermitianBasis:
    """Conjugate every basis element by U_r^eta.

    eta in [0, 1] interpolates between the unperturbed basis and full
    conjugation by U_r; orthonormality and tracelessness are preserved
    exactly by the conjugation.
    """
    w = fractional_unitary_power(u_r, eta)
    rotated = np.einsum("ij,ajk,lk->ail", w, basis.elements, w.conj())
    return HermitianBasis(dim=basis.dim, elements=rotated)


def ordered_perturbed_fidelity(
    psi0: np.ndarray,
    basis: HermitianBasis,
    measured_basis: HermitianBasis,
    direction: str = "descending",
) -> np.ndarray:
    """Zero-noise fidelity after k ordered single-direction measurements.

    The estimator believes it measures the ideal elements E_a in order of
    the state's |r_a| (ties by index), but the record actually reports the
    expectations of ``measured_basis`` elements; the k-th fidelity is
    1/d + sum_{i<=k} r'_i r_i with r' the actually-measured values and the
    unmeasured components estimated as zero.
    """
    if direction not in ("descending", "ascending"):
        raise ValueError("direction must be 'descending' or 'ascending'")
    rho0 = np.outer(psi0, psi0.conj())
    r_true = bloch_encode(rho0, basis)
    r_meas = bloch_encode(rho0, measured_basis)
    order = np.argsort(np.abs(r_true), kind="stable")
    if direction == "descending":
        order = order[::-1]
    return 1.0 / basis.dim + np.cumsum(r_true[order] * r_meas[order])
