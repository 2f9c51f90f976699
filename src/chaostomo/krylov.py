"""Krylov-subspace construction and operator-spreading measures.

Two routes into the operator Krylov space span{O, L O, L^2 O, ...}:

* Lanczos with full (doubled Gram-Schmidt) re-orthogonalization against
  the Hermitian Liouvillian L = [H, .], applied matrix-free through two
  d x d products per step.  Plain Lanczos loses orthogonality
  to rounding within a few dozen steps; brute-force re-orthogonalization
  keeps the basis orthonormal to machine precision, which is what makes
  the late, tiny recursion coefficients b_k trustworthy.
* Arnoldi-style orthogonalization of the conjugation orbit
  O_n = U^dag^n O U^n of a fixed unitary, which only reports the span
  dimension.

Either way the span dimension is capped at d^2 - d + 1: the commutant of a
nondegenerate generator contributes at least d - 2 directions that the
orbit can never reach.

Krylov complexity is the mean position of the evolved operator's weight
over the ordered basis; Krylov entropy measures how evenly that weight is
spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import UnitaryPropagator, expm_hermitian

__all__ = [
    "Liouvillian",
    "liouvillian",
    "KrylovBasis",
    "KrylovAmplitudes",
    "lanczos_full_orth",
    "evolve_operator",
    "krylov_amplitudes",
    "krylov_complexity",
    "krylov_entropy",
    "arnoldi_unitary_dim",
]


@dataclass(frozen=True)
class Liouvillian:
    """Commutator superoperator [H, .] of a Hermitian generator.

    ``apply`` acts on flattened operators through two d x d matrix
    products, so the d^2 x d^2 matrix never needs to exist.
    """

    hamiltonian: np.ndarray

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def apply(self, vec: np.ndarray) -> np.ndarray:
        d = self.dim
        x = vec.reshape(d, d)
        return (self.hamiltonian @ x - x @ self.hamiltonian).reshape(-1)


def liouvillian(h: np.ndarray) -> Liouvillian:
    """Liouvillian [H, .] of a Hermitian H; Hermitian in the HS inner product."""
    h = np.asarray(h, dtype=complex)
    if np.max(np.abs(h - h.conj().T)) > 1e-10:
        raise ValueError("generator must be Hermitian")
    return Liouvillian(hamiltonian=h)


@dataclass(frozen=True)
class KrylovBasis:
    """Orthonormal operator vectors Q_0..Q_{K-1} and recursion coefficients b_1..b_{K-1}."""

    vectors: np.ndarray  # (K, d^2) flattened operators
    lanczos_b: np.ndarray  # (K - 1,)
    dim_k: int
    initial_norm: float

    def __len__(self):
        return self.dim_k


def lanczos_full_orth(
    liou: Liouvillian,
    initial: np.ndarray,
    term_tol: Optional[float] = None,
) -> KrylovBasis:
    """Krylov basis of [H, .] acting on an observable, fully re-orthogonalized.

    Each new vector L Q_{k-1} is Gram-Schmidt-orthogonalized against all
    previous basis vectors, twice; the coefficient b_k is the remaining
    norm and iteration stops once it falls below ``term_tol`` (default
    1e-8 times the observable norm, the floating-point stand-in for the
    exact-arithmetic b_k = 0).  ``liou`` only needs an ``apply`` method on
    flattened operators.
    """
    vec0 = np.asarray(initial, dtype=complex).reshape(-1)
    norm0 = np.linalg.norm(vec0)
    if norm0 == 0.0:
        raise ValueError("initial observable is zero")
    if term_tol is None:
        term_tol = 1e-8 * norm0
    dim2 = vec0.size
    q = np.empty((dim2, dim2), dtype=complex)  # rows are basis vectors
    q[0] = vec0 / norm0
    bs = []
    k = 1
    while k < dim2:
        w = liou.apply(q[k - 1])
        for _ in range(2):
            w -= q[:k].T @ (q[:k].conj() @ w)
        b = np.linalg.norm(w)
        if b <= term_tol:
            break
        bs.append(b)
        # cleanup pass on the normalized vector: division by a small b
        # amplifies the orthogonalization error, and that error lies in the
        # accepted span, so one more sweep restores machine orthogonality
        w /= b
        w -= q[:k].T @ (q[:k].conj() @ w)
        q[k] = w / np.linalg.norm(w)
        k += 1
    return KrylovBasis(
        vectors=q[:k].copy(), lanczos_b=np.array(bs), dim_k=k, initial_norm=norm0
    )


def evolve_operator(h: np.ndarray, op: np.ndarray, t: float) -> np.ndarray:
    """Heisenberg evolution e^{iHt} O e^{-iHt} of an observable."""
    u = expm_hermitian(np.asarray(h, dtype=complex), scale=-1j * t)
    return u.conj().T @ op @ u


@dataclass(frozen=True)
class KrylovAmplitudes:
    """Real amplitudes phi_k of an evolved operator over the Krylov basis."""

    phi: np.ndarray
    t: Optional[float] = None

    def __len__(self):
        return len(self.phi)


def krylov_amplitudes(
    op_t: np.ndarray, basis: KrylovBasis, t: Optional[float] = None
) -> KrylovAmplitudes:
    """Expansion amplitudes phi_k = i^{-k} (Q_k | O(t)) / |O|.

    The i^{-k} phase makes the amplitudes real for Heisenberg evolution
    under the Hamiltonian that generated the basis, and the evolved
    operator stays inside the Krylov span, so sum phi_k^2 = 1.  An
    imaginary residue above 1e-6, or weight escaping the span, signals a
    mismatched basis/evolution pairing.
    """
    vec = np.asarray(op_t, dtype=complex).reshape(-1)
    overlaps = basis.vectors.conj() @ vec / basis.initial_norm
    phases = (-1j) ** np.arange(basis.dim_k)
    phi = phases * overlaps
    worst = np.max(np.abs(phi.imag))
    if worst > 1e-6:
        raise ValueError(
            f"amplitudes have imaginary residue {worst:.2e}; "
            "operator was not evolved by the basis Hamiltonian"
        )
    deficit = abs(np.sum(np.abs(overlaps) ** 2) - 1.0)
    if deficit > 1e-6:
        raise ValueError(
            f"operator weight escapes the Krylov span by {deficit:.2e}; "
            "operator was not evolved by the basis Hamiltonian"
        )
    return KrylovAmplitudes(phi=phi.real, t=t)


def krylov_complexity(amp: KrylovAmplitudes) -> float:
    """Mean basis position sum_k k phi_k^2 of the operator weight."""
    return float(np.sum(np.arange(len(amp)) * amp.phi**2))


def krylov_entropy(amp: KrylovAmplitudes) -> float:
    """Spread entropy -sum phi^2 ln phi^2 with 0 ln 0 = 0."""
    p = amp.phi**2
    mask = p > 0.0
    return float(-np.sum(p[mask] * np.log(p[mask])))


def arnoldi_unitary_dim(
    u: UnitaryPropagator,
    initial: np.ndarray,
    term_tol: float = 1e-10,
    max_steps: Optional[int] = None,
) -> int:
    """Dimension of span{O, U^dag O U, U^dag^2 O U^2, ...}.

    The orbit matrix is grown and its numerical rank (singular values above
    ``term_tol`` times the largest) recomputed until the rank stalls with a
    margin of unexplored orbit left over.  A rank-revealing factorization
    is used instead of one-vector-at-a-time Gram-Schmidt because the
    orbit's weakest independent directions sit at per-element amplitudes
    of 1e-6 and below, where sequential orthogonalization amplifies
    rounding noise by the reciprocal residual and miscounts; the batch
    spectrum separates the true span from the noise floor by eight orders
    of magnitude.  Near-degenerate eigenphase pairs of the propagator make
    their antisymmetric operator direction emerge only slowly along the
    orbit, hence the growth margin.
    """
    op = np.asarray(initial, dtype=complex)
    norm0 = np.linalg.norm(op)
    if norm0 == 0.0:
        raise ValueError("initial observable is zero")
    d = op.shape[0]
    if max_steps is None:
        max_steps = 4 * d * d
    umat = u.matrix
    udag = umat.conj().T

    orbit = [op.reshape(-1)]
    current = op
    n = d * d + d  # enough rows to reach the d^2 - d + 1 bound with margin
    rank_prev = -1
    while True:
        while len(orbit) < min(n, max_steps + 1):
            current = udag @ current @ umat
            orbit.append(current.reshape(-1))
        s = np.linalg.svd(np.asarray(orbit), compute_uv=False)
        rank = int(np.count_nonzero(s > term_tol * s[0]))
        if rank == rank_prev or len(orbit) >= max_steps:
            return rank
        rank_prev = rank
        n = round(1.5 * n)
