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
Matrix exponentials of Hermitian generators go through eigendecomposition,
exact at these sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .rmt import haar_unitary

__all__ = [
    "KickedTop",
    "KickedIsing",
    "TiltedIsing",
    "XXZChain",
    "HaarSteps",
    "ModelSpec",
    "UnitaryPropagator",
    "OperatorTimeline",
    "expm_hermitian",
    "angular_momentum_ops",
    "kicked_top_floquet",
    "classical_kicked_top_step",
    "pauli_site",
    "collective_spin",
    "tki_floquet",
    "ti_hamiltonian",
    "ti_unitary",
    "xxz_hamiltonian",
    "xxz_unitary",
    "build_propagator",
    "heisenberg_timeline",
    "haar_timeline",
]

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = {"x": _SX, "y": _SY, "z": _SZ}


@dataclass(frozen=True)
class KickedTop:
    """Spin-j kicked top: one period is exp(-i lam Jz^2 / 2j) exp(-i alpha Jx)."""

    j: float
    lam: float
    alpha: float

    def __post_init__(self):
        twoj = 2 * self.j
        if self.j <= 0 or abs(twoj - round(twoj)) > 1e-12:
            raise ValueError(f"j must be a positive half-integer, got {self.j}")

    @property
    def dim(self) -> int:
        return round(2 * self.j) + 1


def _check_chain(L, site=None):
    if L < 2:
        raise ValueError(f"need at least 2 spins, got L={L}")
    if site is not None and not 1 <= site <= L:
        raise ValueError(f"impurity site {site} outside 1..{L}")


@dataclass(frozen=True)
class KickedIsing:
    """Periodically kicked Ising chain in a tilted field (Floquet step)."""

    L: int
    J: float = 1.0
    hx: float = 1.4
    hz: float = 1.4

    def __post_init__(self):
        _check_chain(self.L)

    @property
    def dim(self) -> int:
        return 2**self.L


@dataclass(frozen=True)
class TiltedIsing:
    """Time-independent tilted-field Ising chain, evolved for duration dt per step."""

    L: int
    J: float = 1.0
    hx: float = 1.4
    hz: float = 0.1
    dt: float = 1.0

    def __post_init__(self):
        _check_chain(self.L)
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    @property
    def dim(self) -> int:
        return 2**self.L


@dataclass(frozen=True)
class XXZChain:
    """Heisenberg XXZ chain with a single-site impurity of strength g.

    The impurity term is (g/2) sigma^axis at the 1-based ``site``; the
    conventional axis is z, which preserves total S_z.  The y axis is kept
    available as an option since both appear in the literature for this model.
    """

    L: int
    Jxy: float = 1.0
    Jzz: float = 1.1
    g: float = 0.0
    site: int = 1
    dt: float = 1.0
    impurity_axis: str = "z"

    def __post_init__(self):
        _check_chain(self.L, self.site)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.impurity_axis not in ("y", "z"):
            raise ValueError("impurity_axis must be 'y' or 'z'")

    @property
    def dim(self) -> int:
        return 2**self.L


@dataclass(frozen=True)
class HaarSteps:
    """Random-control dynamics: every step applies a fresh Haar unitary.

    Unlike a fixed Floquet map, whose timeline spans at most d^2 - d + 1
    operator directions, this timeline is informationally complete once its
    length reaches d^2 - 1.
    """

    dim: int
    seed: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")


ModelSpec = Union[KickedTop, KickedIsing, TiltedIsing, XXZChain, HaarSteps]


@dataclass(frozen=True)
class UnitaryPropagator:
    """A single evolution step: one Floquet period or one time step dt."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class OperatorTimeline:
    """Heisenberg sequence [O_0, O_1, ..., O_N] of a Hermitian observable."""

    initial: np.ndarray
    steps: np.ndarray  # shape (N + 1, d, d)

    def __len__(self):
        return len(self.steps)

    @property
    def dim(self) -> int:
        return self.initial.shape[0]


def expm_hermitian(h: np.ndarray, scale: complex = -1j) -> np.ndarray:
    """exp(scale * H) for Hermitian H via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(scale * w)) @ v.conj().T


def angular_momentum_ops(j: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin-j operators (J_x, J_y, J_z) with J_z = diag(j, j-1, ..., -j).

    Built from the ladder operators with <m+1|J_+|m> = sqrt((j-m)(j+m+1)).
    """
    twoj = 2 * j
    if j <= 0 or abs(twoj - round(twoj)) > 1e-12:
        raise ValueError(f"j must be a positive half-integer, got {j}")
    d = round(twoj) + 1
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


def kicked_top_floquet(spec: KickedTop) -> UnitaryPropagator:
    """One kicked-top period: torsion about z after linear precession about x."""
    jx, _, jz = angular_momentum_ops(spec.j)
    kick = expm_hermitian(jz @ jz, scale=-1j * spec.lam / (2 * spec.j))
    rot = expm_hermitian(jx, scale=-1j * spec.alpha)
    return UnitaryPropagator(kick @ rot)


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
    """Pauli sigma^axis acting on a 1-based site of an L-spin chain."""
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    _check_chain(L, site)
    op = np.array([[1.0 + 0j]])
    for s in range(1, L + 1):
        op = np.kron(op, _PAULI[axis] if s == site else np.eye(2))
    return op


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


def tki_floquet(spec: KickedIsing) -> UnitaryPropagator:
    """Kicked-Ising Floquet step: coupling exponential, then the field kick."""
    u = expm_hermitian(spec.J * _ising_coupling(spec.L)) @ expm_hermitian(
        _field(spec.hx, spec.hz, spec.L)
    )
    return UnitaryPropagator(u)


def ti_hamiltonian(spec: TiltedIsing) -> np.ndarray:
    h = spec.J * _ising_coupling(spec.L) + _field(spec.hx, spec.hz, spec.L)
    if np.max(np.abs(h - h.conj().T)) > 1e-12:
        raise ValueError("tilted-Ising Hamiltonian failed the Hermiticity check")
    return h


def ti_unitary(spec: TiltedIsing) -> UnitaryPropagator:
    """Continuous-time tilted-field Ising evolution over one dt."""
    return UnitaryPropagator(expm_hermitian(ti_hamiltonian(spec), scale=-1j * spec.dt))


def xxz_hamiltonian(spec: XXZChain) -> np.ndarray:
    L = spec.L
    h = np.zeros((2**L, 2**L), dtype=complex)
    for s in range(1, L):
        h += (spec.Jxy / 4.0) * (
            pauli_site("x", s, L) @ pauli_site("x", s + 1, L)
            + pauli_site("y", s, L) @ pauli_site("y", s + 1, L)
        )
        h += (spec.Jzz / 4.0) * pauli_site("z", s, L) @ pauli_site("z", s + 1, L)
    h += (spec.g / 2.0) * pauli_site(spec.impurity_axis, spec.site, L)
    return h


def xxz_unitary(spec: XXZChain) -> UnitaryPropagator:
    """XXZ-with-impurity evolution over one dt."""
    return UnitaryPropagator(expm_hermitian(xxz_hamiltonian(spec), scale=-1j * spec.dt))


def build_propagator(spec: ModelSpec) -> UnitaryPropagator:
    """Dispatch a model spec to its propagator constructor."""
    if isinstance(spec, KickedTop):
        return kicked_top_floquet(spec)
    if isinstance(spec, KickedIsing):
        return tki_floquet(spec)
    if isinstance(spec, TiltedIsing):
        return ti_unitary(spec)
    if isinstance(spec, XXZChain):
        return xxz_unitary(spec)
    raise TypeError(f"no single propagator for model {type(spec).__name__}")


def heisenberg_timeline(op: np.ndarray, u: UnitaryPropagator, n_steps: int) -> OperatorTimeline:
    """Timeline [O_0, ..., O_N] with O_k = U^dag^k O U^k, N = n_steps.

    Built by conjugating the previous entry once per step.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != u.matrix.shape:
        raise ValueError(f"observable shape {op.shape} != propagator {u.matrix.shape}")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    udag = u.matrix.conj().T
    steps = np.empty((n_steps + 1,) + op.shape, dtype=complex)
    steps[0] = op
    for k in range(1, n_steps + 1):
        steps[k] = udag @ steps[k - 1] @ u.matrix
    return OperatorTimeline(initial=op, steps=steps)


def haar_timeline(op: np.ndarray, n_steps: int, rng) -> OperatorTimeline:
    """Timeline under random control: a fresh Haar unitary every step."""
    op = np.asarray(op, dtype=complex)
    d = op.shape[0]
    steps = np.empty((n_steps + 1, d, d), dtype=complex)
    steps[0] = op
    for k in range(1, n_steps + 1):
        u = haar_unitary(d, rng)
        steps[k] = u.conj().T @ steps[k - 1] @ u
    return OperatorTimeline(initial=op, steps=steps)
