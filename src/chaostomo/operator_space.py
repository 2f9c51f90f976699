"""Coordinates on the space of Hermitian operators.

A density matrix on a d-dimensional Hilbert space is written as
rho = I/d + sum_a r_a E_a, where {E_a} is an orthonormal basis of the
d^2 - 1 traceless Hermitian operators and r is the generalized Bloch
vector.  This module builds that basis (generalized Gell-Mann matrices),
converts between matrices and Bloch vectors, and provides the
eigenvalue-modulus regularization that turns an arbitrary Hermitian
observable into a density-like operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "HermitianBasis",
    "gell_mann_basis",
    "bloch_encode",
    "bloch_encode_batch",
    "bloch_decode",
    "regularize_operator",
]


@dataclass(frozen=True)
class HermitianBasis:
    """Ordered orthonormal basis of traceless Hermitian d x d matrices.

    ``elements`` has shape (d^2 - 1, d, d).  ``flat`` caches the row-major
    flattening of each element, shape (d^2 - 1, d^2), so that Bloch
    components of an operator O are one matrix-vector product:
    r_a = Tr(E_a O) = conj(vec(E_a)) . vec(O).

    For the generalized Gell-Mann construction the elements are sparse
    (diagonal ladders plus two-entry pairs); ``gm_structure`` then carries
    the index arrays that let encode/decode run in O(d^2) instead of
    O(d^4), which dominates the positivity-projection inner loop.  Bases
    without that structure (e.g. conjugated ones) fall back to the dense
    path with identical results.
    """

    dim: int
    elements: np.ndarray
    flat: np.ndarray = field(init=False, repr=False)
    gm_structure: Optional[tuple] = None

    def __post_init__(self):
        if self.elements.shape != (self.dim**2 - 1, self.dim, self.dim):
            raise ValueError(
                f"expected {self.dim**2 - 1} matrices of shape "
                f"({self.dim}, {self.dim}), got {self.elements.shape}"
            )
        object.__setattr__(self, "flat", self.elements.reshape(len(self.elements), -1))

    def __len__(self):
        return len(self.elements)


def gell_mann_basis(d: int) -> HermitianBasis:
    """Generalized Gell-Mann basis of su(d), orthonormalized to Tr(E_a E_b) = delta_ab.

    Ordering: the d-1 diagonal matrices diag(1, ..., 1, -k, 0, ...)/sqrt(k + k^2)
    for k = 1..d-1, then the d(d-1)/2 symmetric pairs (entries 1/sqrt(2)),
    then the d(d-1)/2 antisymmetric pairs (entries +-i/sqrt(2)), each pair
    block iterating rows i > j in (i, j) lexicographic order.
    """
    if d < 2:
        raise ValueError(f"basis dimension must be >= 2, got d={d}")
    k = d * d - 1
    out = np.zeros((k, d, d), dtype=complex)
    diag_mat = np.zeros((d - 1, d))
    for kk in range(1, d):
        diag = np.zeros(d)
        diag[:kk] = 1.0
        diag[kk] = -kk
        diag /= np.sqrt(kk + kk**2)
        out[kk - 1] = np.diag(diag)
        diag_mat[kk - 1] = diag
    s = d * (d - 1) // 2
    rows = np.empty(s, dtype=int)
    cols = np.empty(s, dtype=int)
    n = d - 1
    for i in range(1, d):
        for j in range(i):
            out[n, i, j] = out[n, j, i] = 1.0 / np.sqrt(2.0)
            out[n + s, i, j] = 1j / np.sqrt(2.0)
            out[n + s, j, i] = -1j / np.sqrt(2.0)
            rows[n - (d - 1)], cols[n - (d - 1)] = i, j
            n += 1
    return HermitianBasis(dim=d, elements=out, gm_structure=(diag_mat, rows, cols))


def _check_dim(op: np.ndarray, basis: HermitianBasis, what: str):
    if op.shape != (basis.dim, basis.dim):
        raise ValueError(
            f"{what} has shape {op.shape}, basis expects ({basis.dim}, {basis.dim})"
        )


def bloch_encode(rho: np.ndarray, basis: HermitianBasis) -> np.ndarray:
    """Bloch components r_a = Tr(rho E_a) of a Hermitian operator.

    Only the traceless part of ``rho`` survives; the identity component is
    implicit in the parametrization and restored by :func:`bloch_decode`.
    """
    _check_dim(rho, basis, "operator")
    rho = np.asarray(rho)
    if basis.gm_structure is not None:
        diag_mat, rows, cols = basis.gm_structure
        lower = rho[rows, cols]
        return np.concatenate([
            diag_mat @ np.diagonal(rho).real,
            np.sqrt(2.0) * lower.real,
            np.sqrt(2.0) * lower.imag,
        ])
    return (basis.flat.conj() @ rho.reshape(-1)).real


def bloch_encode_batch(ops: np.ndarray, basis: HermitianBasis) -> np.ndarray:
    """Bloch components for a stack of Hermitian operators, shape (n, d^2 - 1)."""
    ops = np.asarray(ops)
    if ops.ndim != 3 or ops.shape[1:] != (basis.dim, basis.dim):
        raise ValueError(f"expected a stack of ({basis.dim}, {basis.dim}) operators")
    if basis.gm_structure is not None:
        diag_mat, rows, cols = basis.gm_structure
        lower = ops[:, rows, cols]
        return np.concatenate([
            np.diagonal(ops, axis1=1, axis2=2).real @ diag_mat.T,
            np.sqrt(2.0) * lower.real,
            np.sqrt(2.0) * lower.imag,
        ], axis=1)
    return (ops.reshape(len(ops), -1) @ basis.flat.conj().T).real


def bloch_decode(r: np.ndarray, basis: HermitianBasis) -> np.ndarray:
    """Reconstruct I/d + sum_a r_a E_a from Bloch components."""
    r = np.asarray(r, dtype=float)
    if r.shape != (len(basis),):
        raise ValueError(f"expected {len(basis)} components, got shape {r.shape}")
    d = basis.dim
    if basis.gm_structure is not None:
        diag_mat, rows, cols = basis.gm_structure
        s = len(rows)
        mat = np.zeros((d, d), dtype=complex)
        lower = (r[d - 1 : d - 1 + s] + 1j * r[d - 1 + s :]) / np.sqrt(2.0)
        mat[rows, cols] = lower
        mat[cols, rows] = lower.conj()
        mat[np.diag_indices(d)] = r[: d - 1] @ diag_mat + 1.0 / d
        return mat
    mat = (r @ basis.flat).reshape(d, d)
    mat += np.eye(d) / d
    return mat


def regularize_operator(op: np.ndarray) -> np.ndarray:
    """Density-like operator sharing the eigenvectors of a Hermitian ``op``.

    Eigendecomposes op = V D V^dag and returns V (|D| / Tr|D|) V^dag, which is
    positive semidefinite with unit trace.  Raises on the zero operator.
    """
    op = np.asarray(op)
    w, v = np.linalg.eigh(op)
    w = np.abs(w)
    total = w.sum()
    if total == 0.0:
        raise ValueError("cannot regularize the zero operator")
    return (v * (w / total)) @ v.conj().T

