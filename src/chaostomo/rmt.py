"""Random-matrix baselines: GOE and COE blocks in the reflection eigenbasis.

Includes the eigenbasis of the spin-chain reflection (bit-reversal) operator
and sampling of matrices that are block diagonal in it, used to compare
chaotic spin-chain dynamics against the appropriate random-matrix ensemble.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "haar_unitary",
    "reflection_eigenbasis",
    "block_diagonal_sample",
]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The naive QR factor is not Haar; multiplying by the phases of the
    diagonal of R makes the factorization unique and the result exactly
    Haar distributed.
    """
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _bit_reversal(n_spins: int) -> np.ndarray:
    """perm[b] = the n-bit reversal of basis label b."""
    labels = np.arange(2**n_spins)
    perm = np.zeros_like(labels)
    for bit in range(n_spins):
        perm |= ((labels >> bit) & 1) << (n_spins - 1 - bit)
    return perm


def reflection_eigenbasis(n_spins: int) -> tuple[np.ndarray, tuple[int, int]]:
    """Orthonormal eigenbasis of the reflection operator, grouped by eigenvalue.

    Returns (V, (n_plus, n_minus)) where the first n_plus columns of V span
    the +1 eigenspace and the remaining n_minus columns the -1 eigenspace.
    With r the bit reversal, the +1 columns are e_b + e_r(b), normalized, for
    each label b <= r(b), and the -1 columns (e_b - e_r(b)) / sqrt(2) for
    each b < r(b), both in increasing b.
    """
    eye, perm = np.eye(2**n_spins), _bit_reversal(n_spins)
    labels = np.arange(2**n_spins)
    keep, pairs = labels[perm >= labels], labels[perm > labels]
    basis = np.hstack([eye[:, keep] + eye[:, perm[keep]], eye[:, pairs] - eye[:, perm[pairs]]])
    return basis / np.linalg.norm(basis, axis=0), (len(keep), len(pairs))


def block_diagonal_sample(
    kind: str, block_dims: Sequence[int], basis_change: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Sample block-diagonally in a given orthonormal basis, rotate back.

    ``block_dims`` fixes the block sizes (e.g. the reflection eigenvalue
    multiplicities from :func:`reflection_eigenbasis`); each block is an
    independent draw, in order: a GOE matrix (A + A^T)/2 of a real
    standard-normal A, or a COE unitary V^T V of a Haar-random V.  The
    result commutes with any operator diagonal across those blocks in
    ``basis_change``.
    """
    if kind not in ("GOE", "COE"):
        raise ValueError(f"unknown ensemble kind {kind!r}; known: GOE, COE")
    dim = sum(block_dims)
    if basis_change.shape != (dim, dim):
        raise ValueError(f"basis_change must be square of size sum(block_dims) = {dim}")
    block = np.zeros((dim, dim), dtype=complex)
    start = 0
    for nb in block_dims:
        if kind == "GOE":
            a = rng.standard_normal((nb, nb))
            draw = (a + a.T) / 2.0
        else:
            u = haar_unitary(nb, rng)
            draw = u.T @ u
        block[start : start + nb, start : start + nb] = draw
        start += nb
    return basis_change @ block @ basis_change.conj().T
