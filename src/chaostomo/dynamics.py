"""Unitary propagators for the model families and Heisenberg operator timelines.

Three quantum model families are covered, each tunable from integrable to
fully chaotic:

* the kicked top (linear precession by ``alpha`` about x followed by a
  torsional kick of strength ``lambda`` about z), plus its classical map;
* Ising spin chains in a tilted magnetic field, both the periodically
  kicked (Floquet) and the time-independent variant;
* the Heisenberg XXZ chain with a single-site magnetic impurity as the
  integrability-breaking knob.

All chains use free boundary conditions.  A timeline is the Heisenberg
sequence O_n = U^dag^n O U^n built by iterated single-step conjugation,
which costs O(N d^3) and avoids the phase error of accumulated powers.
:func:`timeline_blocks` is that recurrence: it hands the sequence out in
blocks of ``TIMELINE_BLOCK`` operators, so a consumer that reads each
block and drops it never holds the (N + 1, d, d) stack.
:func:`heisenberg_timeline` collects the blocks of a fixed-step timeline
into that (N + 1, d, d) array, for callers that index the whole sequence.
Matrix exponentials of Hermitian generators go through eigendecomposition,
exact at these sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from .rmt import haar_unitary

__all__ = [
    "KickedTop",
    "KickedIsing",
    "TiltedIsing",
    "XXZChain",
    "HaarSteps",
    "ModelSpec",
    "expm_hermitian",
    "unitary_eigh",
    "angular_momentum_ops",
    "kicked_top_floquet",
    "classical_kicked_top_step",
    "pauli_site",
    "collective_spin",
    "tki_floquet",
    "hamiltonian",
    "build_propagator",
    "TIMELINE_BLOCK",
    "timeline_blocks",
    "heisenberg_timeline",
]

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = {"x": _SX, "y": _SY, "z": _SZ}

# Operators per block of timeline_blocks.  A product over fewer rows than
# this can go to another BLAS kernel than the rows of the whole stack (a
# one-row product, or OpenBLAS's small-matrix kernels), which rounds
# differently; no block but a lone one is shorter.
TIMELINE_BLOCK = 64


def _spin_dim(j: float) -> int:
    """The dimension 2j + 1 of spin j; raises unless j is a positive half-integer."""
    twoj = 2 * j
    if j <= 0 or abs(twoj - round(twoj)) > 1e-12:
        raise ValueError(f"j must be a positive half-integer, got {j}")
    return round(twoj) + 1


@dataclass(frozen=True)
class KickedTop:
    """Spin-j kicked top: one period is exp(-i lam Jz^2 / 2j) exp(-i alpha Jx)."""

    j: float = 10
    lam: float = 3.0
    alpha: float = np.pi / 2

    def __post_init__(self):
        _spin_dim(self.j)

    @property
    def dim(self) -> int:
        return _spin_dim(self.j)


def _check_chain(L, site=None):
    if L < 2:
        raise ValueError(f"need at least 2 spins, got L={L}")
    if site is not None and not 1 <= site <= L:
        raise ValueError(f"impurity site {site} outside 1..{L}")


@dataclass(frozen=True)
class _Chain:
    """A chain of L spins 1/2, the base of the three chain specs."""

    L: int = 5

    def __post_init__(self):
        _check_chain(self.L)

    @property
    def dim(self) -> int:
        return 2**self.L


@dataclass(frozen=True)
class KickedIsing(_Chain):
    """Periodically kicked Ising chain in a tilted field (Floquet step)."""

    J: float = 1.0
    hx: float = 1.4
    hz: float = 1.4


@dataclass(frozen=True)
class TiltedIsing(_Chain):
    """Time-independent tilted-field Ising chain, evolved for duration dt per step."""

    J: float = 1.0
    hx: float = 1.4
    hz: float = 0.1
    dt: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.dt <= 0:
            raise ValueError("dt must be positive")


@dataclass(frozen=True)
class XXZChain(_Chain):
    """Heisenberg XXZ chain with a single-site impurity of strength g.

    The impurity term is (g/2) sigma^z at the 1-based ``site``, by default
    the middle of the chain, (L + 1) // 2; along z it preserves total S_z.
    """

    Jxy: float = 1.0
    Jzz: float = 1.1
    g: float = 0.0
    site: Optional[int] = None
    dt: float = 1.0

    def __post_init__(self):
        if self.site is None:
            object.__setattr__(self, "site", (self.L + 1) // 2)
        _check_chain(self.L, self.site)
        if self.dt <= 0:
            raise ValueError("dt must be positive")


@dataclass(frozen=True)
class HaarSteps:
    """Random-control dynamics: every step applies a fresh Haar unitary.

    Unlike a fixed Floquet map, whose timeline spans at most d^2 - d + 1
    operator directions, this timeline is informationally complete once its
    length reaches d^2 - 1.
    """

    dim: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")


ModelSpec = Union[KickedTop, KickedIsing, TiltedIsing, XXZChain, HaarSteps]


def expm_hermitian(h: np.ndarray, scale: complex = -1j) -> np.ndarray:
    """exp(scale * H) for Hermitian H via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(scale * w)) @ v.conj().T


def unitary_eigh(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases theta in (-pi, pi] and an orthonormal eigenbasis V of a unitary U.

    U = V diag(e^{i theta}) V^dag.  ``np.linalg.eig`` loses orthonormality
    inside clusters of (near-)degenerate eigenphases, as for the kicked top
    at lambda = 0.5 (degenerate to 1e-14).  So U is rotated, W = e^{i c} U,
    until -1 sits in the middle of the widest empty arc of its spectrum, and
    the Hermitian Cayley transform i(I - W)(I + W)^{-1} goes to ``eigh``.
    Its eigenvalues tan(phi/2) are one-to-one in the phase phi of W, and
    I + W is well conditioned because no phase of W is within pi/d of pi.
    """
    u = np.asarray(u, dtype=complex)
    eye = np.eye(len(u))
    phases = np.sort(np.angle(np.linalg.eigvals(u)))
    arcs = np.diff(np.append(phases, phases[0] + 2 * np.pi))
    widest = np.argmax(arcs)
    c = np.pi - phases[widest] - arcs[widest] / 2
    w = np.exp(1j * c) * u
    cayley = 1j * np.linalg.solve(eye + w, eye - w)
    t, vecs = np.linalg.eigh((cayley + cayley.conj().T) / 2)
    return np.pi - np.mod(np.pi + c - 2 * np.arctan(t), 2 * np.pi), vecs


def angular_momentum_ops(j: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin-j operators (J_x, J_y, J_z) with J_z = diag(j, j-1, ..., -j).

    Built from the ladder operators with <m+1|J_+|m> = sqrt((j-m)(j+m+1)).
    """
    d = _spin_dim(j)
    m = j - np.arange(d)  # descending: j, j-1, ..., -j
    jp = np.zeros((d, d))
    # J+ raises m; with descending ordering it maps index i+1 -> i
    src = m[1:]
    jp[np.arange(d - 1), np.arange(1, d)] = np.sqrt((j - src) * (j + src + 1))
    jm = jp.T
    jx = (jp + jm) / 2.0 + 0j
    jy = (jp - jm) / 2j
    jz = np.diag(m) + 0j
    return jx, jy, jz


def kicked_top_floquet(spec: KickedTop) -> np.ndarray:
    """One kicked-top period: torsion about z after linear precession about x."""
    jx, _, jz = angular_momentum_ops(spec.j)
    kick = expm_hermitian(jz @ jz, scale=-1j * spec.lam / (2 * spec.j))
    rot = expm_hermitian(jx, scale=-1j * spec.alpha)
    return kick @ rot


def classical_kicked_top_step(x, y, z, lam: float, alpha: float):
    """One step of the classical kicked-top map on the unit sphere.

    Rotation about x by ``alpha`` followed by a z-twist whose angle is
    ``lam`` times the (post-rotation) z component.  Accepts scalars or
    broadcasting arrays; preserves the unit norm.
    """
    norm2 = np.asarray(x) ** 2 + np.asarray(y) ** 2 + np.asarray(z) ** 2
    if np.any(np.abs(norm2 - 1.0) > 1e-9):
        raise ValueError("input must lie on the unit sphere (|r| = 1 to 1e-9)")
    ca, sa = np.cos(alpha), np.sin(alpha)
    xt = np.asarray(x)
    yt = y * ca - z * sa
    zt = y * sa + z * ca
    c, s = np.cos(lam * zt), np.sin(lam * zt)
    return xt * c - yt * s, xt * s + yt * c, zt


def pauli_site(axis: str, site: int, L: int) -> np.ndarray:
    """Pauli sigma^axis acting on a 1-based site of an L-spin chain.

    kron(I_{2^(site-1)}, sigma, I_{2^(L-site)}).  The right factor is left
    out at the last site: a product with the 1 x 1 identity is not a no-op
    on signed zeros, it turns the -0 imaginary parts of sigma^y's products
    into +0.
    """
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    _check_chain(L, site)
    op = np.kron(np.eye(2 ** (site - 1)), _PAULI[axis])
    return op if site == L else np.kron(op, np.eye(2 ** (L - site)))


def collective_spin(axis: str, L: int) -> np.ndarray:
    """Collective spin component S_axis = (1/2) sum_j sigma_j^axis."""
    return 0.5 * sum(pauli_site(axis, s, L) for s in range(1, L + 1))


def _ising_coupling(L: int) -> np.ndarray:
    return sum(
        pauli_site("z", s, L) @ pauli_site("z", s + 1, L) for s in range(1, L)
    )


def _field(hx: float, hz: float, L: int) -> np.ndarray:
    out = np.zeros((2**L, 2**L), dtype=complex)
    for s in range(1, L + 1):
        out += hz * pauli_site("z", s, L) + hx * pauli_site("x", s, L)
    return out


def tki_floquet(spec: KickedIsing) -> np.ndarray:
    """Kicked-Ising Floquet step: coupling exponential, then the field kick."""
    return expm_hermitian(spec.J * _ising_coupling(spec.L)) @ expm_hermitian(
        _field(spec.hx, spec.hz, spec.L)
    )


def _ti_hamiltonian(spec: TiltedIsing) -> np.ndarray:
    h = spec.J * _ising_coupling(spec.L) + _field(spec.hx, spec.hz, spec.L)
    if np.max(np.abs(h - h.conj().T)) > 1e-12:
        raise ValueError("tilted-Ising Hamiltonian failed the Hermiticity check")
    return h


def _xxz_hamiltonian(spec: XXZChain) -> np.ndarray:
    L = spec.L
    h = np.zeros((2**L, 2**L), dtype=complex)
    for s in range(1, L):
        h += (spec.Jxy / 4.0) * (
            pauli_site("x", s, L) @ pauli_site("x", s + 1, L)
            + pauli_site("y", s, L) @ pauli_site("y", s + 1, L)
        )
        h += (spec.Jzz / 4.0) * pauli_site("z", s, L) @ pauli_site("z", s + 1, L)
    h += (spec.g / 2.0) * pauli_site("z", spec.site, L)
    return h


def hamiltonian(spec: ModelSpec) -> np.ndarray:
    """Hamiltonian of a continuous-time chain (tilted Ising or XXZ with impurity)."""
    if isinstance(spec, TiltedIsing):
        return _ti_hamiltonian(spec)
    if isinstance(spec, XXZChain):
        return _xxz_hamiltonian(spec)
    raise TypeError(f"model {type(spec).__name__} has no time-independent Hamiltonian")


def build_propagator(spec: ModelSpec) -> np.ndarray:
    """The (d, d) unitary of one step: a Floquet period, or exp(-i H dt) for a chain."""
    if isinstance(spec, KickedTop):
        return kicked_top_floquet(spec)
    if isinstance(spec, KickedIsing):
        return tki_floquet(spec)
    if isinstance(spec, (TiltedIsing, XXZChain)):
        return expm_hermitian(hamiltonian(spec), scale=-1j * spec.dt)
    raise TypeError(f"no single propagator for model {type(spec).__name__}")


def timeline_blocks(op: np.ndarray, n_steps: int, step) -> Iterator[np.ndarray]:
    """The timeline [O_0, ..., O_N], N = n_steps, in consecutive (k, d, d) blocks.

    ``step`` is the fixed (d, d) unitary U, O_{k+1} = U^dag O_k U, or the
    ``np.random.Generator`` that draws a fresh Haar unitary for every step.
    Each block holds ``TIMELINE_BLOCK`` operators and the last one also the
    rest, so a timeline shorter than two blocks comes as one.  A row
    encoded or contracted block by block then equals the row of the whole
    stack bit for bit (``TIMELINE_BLOCK``).
    """
    op = np.asarray(op, dtype=complex)
    haar = isinstance(step, np.random.Generator)
    if not haar and op.shape != np.shape(step):
        raise ValueError(f"observable shape {op.shape} != propagator {np.shape(step)}")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    udag = None if haar else step.conj().T
    prev = op
    n_blocks = max(1, (n_steps + 1) // TIMELINE_BLOCK)
    for b in range(n_blocks):
        start = b * TIMELINE_BLOCK
        stop = n_steps + 1 if b == n_blocks - 1 else start + TIMELINE_BLOCK
        block = np.empty((stop - start,) + op.shape, dtype=complex)
        for i in range(len(block)):
            if start + i > 0:
                if haar:
                    w = haar_unitary(len(op), step)
                    prev = w.conj().T @ prev @ w
                else:
                    prev = udag @ prev @ step
            block[i] = prev
        yield block


def heisenberg_timeline(op: np.ndarray, u: np.ndarray, n_steps: int) -> np.ndarray:
    """The (N + 1, d, d) array [O_0, ..., O_N] with O_k = U^dag^k O U^k, N = n_steps.

    The collected form of :func:`timeline_blocks` for a fixed (d, d) unitary U.
    """
    return np.concatenate(list(timeline_blocks(op, n_steps, u)))
