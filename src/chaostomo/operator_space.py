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

from dataclasses import dataclass

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
    """Generalized Gell-Mann basis of traceless Hermitian d x d matrices.

    The d^2 - 1 elements are held as index structure, not as matrices:
    row k - 1 of ``diag_mat`` (shape (d - 1, d)) is the diagonal of the
    k-th diagonal element, and pair p is the entry (``rows[p]``,
    ``cols[p]``) below the diagonal with its mirror, once symmetric and
    once antisymmetric.  Encode and decode read that structure in O(d^2);
    :meth:`matrices` builds dense elements for the few callers that need
    them.
    """

    dim: int
    diag_mat: np.ndarray
    rows: np.ndarray
    cols: np.ndarray

    def __len__(self):
        return self.dim**2 - 1

    def matrices(self, sel=None) -> np.ndarray:
        """Dense elements E_a for the indices ``sel`` (all when None), shape (len(sel), d, d)."""
        d, s = self.dim, len(self.rows)
        sel = np.arange(len(self)) if sel is None else np.asarray(sel, dtype=int)
        out = np.zeros((len(sel), d, d), dtype=complex)
        at = np.arange(len(sel))
        diag = sel < d - 1
        out[at[diag, None], np.arange(d), np.arange(d)] = self.diag_mat[sel[diag]]
        # symmetric pairs, then antisymmetric ones: +i below the diagonal, -i above
        for first, below, above in ((d - 1, 1.0, 1.0), (d - 1 + s, 1j, -1j)):
            on = (sel >= first) & (sel < first + s)
            r, c = self.rows[sel[on] - first], self.cols[sel[on] - first]
            out[at[on], r, c] = below / np.sqrt(2.0)
            out[at[on], c, r] = above / np.sqrt(2.0)
        return out


def gell_mann_basis(d: int) -> HermitianBasis:
    """Generalized Gell-Mann basis of su(d), orthonormalized to Tr(E_a E_b) = delta_ab.

    Ordering: the d-1 diagonal matrices diag(1, ..., 1, -k, 0, ...)/sqrt(k + k^2)
    for k = 1..d-1, then the d(d-1)/2 symmetric pairs (entries 1/sqrt(2)),
    then the d(d-1)/2 antisymmetric pairs (entries +-i/sqrt(2)), each pair
    block iterating rows i > j in (i, j) lexicographic order.
    """
    if d < 2:
        raise ValueError(f"basis dimension must be >= 2, got d={d}")
    k = np.arange(1, d)
    diag_mat = np.tri(d - 1, d)
    diag_mat[k - 1, k] = -k
    diag_mat /= np.sqrt(k + k**2)[:, None]
    rows, cols = np.tril_indices(d, -1)
    return HermitianBasis(dim=d, diag_mat=diag_mat, rows=rows, cols=cols)


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
    lower = rho[basis.rows, basis.cols]
    return np.concatenate([
        basis.diag_mat @ np.diagonal(rho).real,
        np.sqrt(2.0) * lower.real,
        np.sqrt(2.0) * lower.imag,
    ])


def bloch_encode_batch(ops: np.ndarray, basis: HermitianBasis) -> np.ndarray:
    """Bloch components for a stack of Hermitian operators, shape (n, d^2 - 1).

    A row depends on how many rows are encoded together, at the ulp.  numpy
    hands the diagonal part to BLAS, and the kernel depends on the row
    count: a one-row product goes to gemv/dot, and at d >= 32 OpenBLAS's
    small-matrix dgemm (AVX-512) takes products of 38 rows or fewer; each
    rounds otherwise than a larger product.  So streaming callers encode
    blocks of at least ``dynamics.TIMELINE_BLOCK`` rows, which round as the
    rows of the whole stack do.

    Each part goes straight into one preallocated output, so the
    temporaries are the diagonal product and one real gather at a time.
    """
    ops = np.asarray(ops)
    d, s = basis.dim, len(basis.rows)
    if ops.ndim != 3 or ops.shape[1:] != (d, d):
        raise ValueError(f"expected a stack of ({d}, {d}) operators")
    out = np.empty((len(ops), len(basis)))
    out[:, : d - 1] = np.diagonal(ops, axis1=1, axis2=2).real @ basis.diag_mat.T
    np.multiply(ops.real[:, basis.rows, basis.cols], np.sqrt(2.0), out=out[:, d - 1 : d - 1 + s])
    np.multiply(ops.imag[:, basis.rows, basis.cols], np.sqrt(2.0), out=out[:, d - 1 + s :])
    return out


def bloch_decode(r: np.ndarray, basis: HermitianBasis) -> np.ndarray:
    """Reconstruct I/d + sum_a r_a E_a from Bloch components."""
    r = np.asarray(r, dtype=float)
    if r.shape != (len(basis),):
        raise ValueError(f"expected {len(basis)} components, got shape {r.shape}")
    d, s = basis.dim, len(basis.rows)
    mat = np.zeros((d, d), dtype=complex)
    lower = (r[d - 1 : d - 1 + s] + 1j * r[d - 1 + s :]) / np.sqrt(2.0)
    mat[basis.rows, basis.cols] = lower
    mat[basis.cols, basis.rows] = lower.conj()
    mat[np.diag_indices(d)] = r[: d - 1] @ basis.diag_mat + 1.0 / d
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

