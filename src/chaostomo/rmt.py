"""Random-matrix baselines: Gaussian and circular ensembles.

Includes the spin-chain reflection (bit-reversal) operator and sampling of
matrices that are block diagonal in its eigenbasis, used to compare chaotic
spin-chain dynamics against the appropriate random-matrix ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "EnsembleSpec",
    "haar_unitary",
    "reflection_operator",
    "reflection_eigenbasis",
    "block_diagonal_sample",
]

GAUSSIAN_KINDS = ("GOE", "GUE")
CIRCULAR_KINDS = ("CUE", "COE")


@dataclass(frozen=True)
class EnsembleSpec:
    """Which ensemble to draw from, at which dimension.

    ``block_dims``, when given, requests independent blocks of those sizes
    (summing to ``dim``) embedded block-diagonally; see
    :func:`block_diagonal_sample`.
    """

    kind: str
    dim: int
    block_dims: Optional[Sequence[int]] = None

    def __post_init__(self):
        if self.kind not in GAUSSIAN_KINDS + CIRCULAR_KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.block_dims is not None and sum(self.block_dims) != self.dim:
            raise ValueError(
                f"block_dims {tuple(self.block_dims)} do not sum to dim={self.dim}"
            )


def _gaussian(kind: str, d: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "GOE":
        a = rng.standard_normal((d, d))
        return (a + a.T) / 2.0
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2.0


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


def _circular(kind: str, d: int, rng: np.random.Generator) -> np.ndarray:
    u = haar_unitary(d, rng)
    if kind == "CUE":
        return u
    # COE: symmetric unitaries, the transpose-invariant coset V^T V
    return u.T @ u


def _draw(kind: str, d: int, rng: np.random.Generator) -> np.ndarray:
    if kind in GAUSSIAN_KINDS:
        return _gaussian(kind, d, rng)
    return _circular(kind, d, rng)


def reflection_operator(n_spins: int) -> np.ndarray:
    """Permutation reversing the site order of an n-spin computational basis.

    Acts on dimension 2^n by sending basis label b to its bit reversal;
    an involution.
    """
    if n_spins < 2:
        raise ValueError("need at least 2 spins")
    d = 2**n_spins
    perm = np.empty(d, dtype=int)
    for b in range(d):
        rev = 0
        for bit in range(n_spins):
            rev = (rev << 1) | ((b >> bit) & 1)
        perm[b] = rev
    p = np.zeros((d, d))
    p[perm, np.arange(d)] = 1.0
    return p


def reflection_eigenbasis(n_spins: int) -> tuple[np.ndarray, tuple[int, int]]:
    """Orthonormal eigenbasis of the reflection operator, grouped by eigenvalue.

    Returns (V, (n_plus, n_minus)) where the first n_plus columns of V span
    the +1 eigenspace (palindromic labels, then symmetrized pairs) and the
    remaining n_minus columns span the -1 eigenspace.
    """
    d = 2**n_spins
    perm = reflection_operator(n_spins).argmax(axis=0)
    plus, minus = [], []
    for b in range(d):
        pb = perm[b]
        if pb == b:
            v = np.zeros(d)
            v[b] = 1.0
            plus.append(v)
        elif pb > b:
            v = np.zeros(d)
            v[b] = v[pb] = 1.0 / np.sqrt(2.0)
            plus.append(v)
            w = np.zeros(d)
            w[b], w[pb] = 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)
            minus.append(w)
    basis = np.column_stack(plus + minus)
    return basis, (len(plus), len(minus))


def block_diagonal_sample(
    spec: EnsembleSpec, basis_change: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Sample block-diagonally in a given orthonormal basis, rotate back.

    ``spec.block_dims`` fixes the block sizes (e.g. the reflection eigenvalue
    multiplicities from :func:`reflection_eigenbasis`); each block is an
    independent draw from the ensemble.  The result commutes with any
    operator diagonal across those blocks in ``basis_change``.
    """
    if spec.block_dims is None:
        raise ValueError("block_diagonal_sample requires spec.block_dims")
    if basis_change.shape != (spec.dim, spec.dim):
        raise ValueError("basis_change must be a square matrix of size spec.dim")
    block = np.zeros((spec.dim, spec.dim), dtype=complex)
    start = 0
    for nb in spec.block_dims:
        block[start : start + nb, start : start + nb] = _draw(spec.kind, nb, rng)
        start += nb
    return basis_change @ block @ basis_change.conj().T
