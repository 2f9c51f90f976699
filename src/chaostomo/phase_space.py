"""Spin coherent states and phase-space localization diagnostics.

Spin coherent states |theta, phi> are the minimum-uncertainty states
pointing along a sphere direction; the Husimi function Q(theta, phi) is an
operator's expectation in them, and its entropy over the sphere measures
how delocalized a state or (regularized) observable is in phase space.
States are built in rotation form, which is regular at both poles.

Quadrature is a product grid: Gauss-Legendre in cos(theta) times a uniform
trapezoid in phi.  Q for spin j is band-limited (a degree-2j polynomial in
cos(theta) and harmonics up to e^{2ij phi}), so the default 64 x 128 grid
integrates it to machine precision for j <= 40.  The product structure
also evaluates Q: weighted diagonal sums of rho give its harmonics in phi
at each polar node, and one inverse FFT per polar node gives Q at the
uniform phi nodes, in O(n_theta d^2 + n_theta n_phi log n_phi) rather than
the O(n_theta n_phi d^2) of contracting rho with every coherent state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import angular_momentum_ops, expm_hermitian
from .operator_space import regularize_operator

__all__ = [
    "SphereGrid",
    "sphere_grid",
    "spin_coherent",
    "coherent_state_frame",
    "husimi_q",
    "husimi_entropy",
]


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature nodes (theta, phi) and weights summing to 4 pi.

    The nodes are a product grid, polar-major: with ``shape`` =
    (n_theta, n_phi), node t * n_phi + p sits at polar node theta_t and
    phi = 2 pi p / n_phi.
    """

    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray
    shape: tuple
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self):
        return len(self.weights)


def sphere_grid(n_theta: int = 64, n_phi: int = 128) -> SphereGrid:
    """Product quadrature: Gauss-Legendre in cos(theta), trapezoid in phi."""
    for name, size in (("n_theta", n_theta), ("n_phi", n_phi)):
        if size < 1:
            raise ValueError(f"{name} must be at least 1, got {size}")
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    wphi = 2.0 * np.pi / n_phi
    th_grid, phi_grid = np.meshgrid(theta, phi, indexing="ij")
    w_grid = np.broadcast_to((wx * wphi)[:, None], th_grid.shape)
    return SphereGrid(
        theta=th_grid.reshape(-1), phi=phi_grid.reshape(-1), weights=w_grid.reshape(-1).copy(),
        shape=(n_theta, n_phi),
    )


def spin_coherent(j: float, theta: float, phi: float) -> np.ndarray:
    """Spin coherent state |theta, phi> for spin j, as a state vector.

    Constructed by rotating the top state |j, j> with
    exp(i theta (J_x sin phi - J_y cos phi)), which is regular at both
    poles.
    """
    jx, jy, _ = angular_momentum_ops(j)
    gen = np.sin(phi) * jx - np.cos(phi) * jy
    top = np.zeros(round(2 * j) + 1, dtype=complex)
    top[0] = 1.0
    return expm_hermitian(gen, scale=1j * theta) @ top


def _polar_amplitudes(d: int, grid: SphereGrid) -> np.ndarray:
    """Moduli a_k(theta) = sqrt(C(d-1, k)) cos^{d-1-k}(theta/2) sin^k(theta/2), (n_theta, d).

    <j, m| theta, phi> = a_k(theta) e^{i k phi} at each polar node, with
    k = j - m the number of lowerings from |j, j>.
    """
    k = np.arange(d)
    # exact integer binomials; math.log takes ints beyond the float range
    ln_binom = np.array([math.log(math.comb(d - 1, i)) for i in range(d)])
    half = grid.theta[:: grid.shape[1], None] / 2.0
    with np.errstate(divide="ignore"):
        ln_mag = (
            0.5 * ln_binom[None, :]
            + (d - 1 - k)[None, :] * np.log(np.maximum(np.cos(half), 1e-300))
            + k[None, :] * np.log(np.maximum(np.sin(half), 1e-300))
        )
    return np.exp(ln_mag)


def coherent_state_frame(j: float, grid: SphereGrid) -> np.ndarray:
    """All grid coherent states stacked as rows, shape (len(grid), 2j+1).

    Row-batched analogue of :func:`spin_coherent`: amplitudes
    <j, m| theta, phi> = sqrt(C(2j, j-m)) cos^{j+m}(theta/2)
    sin^{j-m}(theta/2) e^{i (j-m) phi} in the descending-m ordering.
    :func:`husimi_q` builds no frame; this is its reference contraction.
    """
    d = round(2 * j) + 1
    amp = np.repeat(_polar_amplitudes(d, grid), grid.shape[1], axis=0)
    return amp * np.exp(1j * np.arange(d)[None, :] * grid.phi[:, None])


def _diagonal_terms(d: int, grid: SphereGrid) -> tuple:
    """What :func:`husimi_q` needs of a d x d matrix on ``grid``, built once per dimension.

    Returns the flat indices of the entries (k, l) ordered by offset
    m = l - k, their polar weights a_k(theta) a_l(theta) in that order, where
    each of the offsets m = -(d-1)..d-1 starts, and each offset's
    azimuthal frequency bin m mod n_phi.
    """
    if d not in grid._cache:
        amp = _polar_amplitudes(d, grid)
        k, l = np.divmod(np.arange(d * d), d)
        order = np.argsort(l - k, kind="stable")
        k, l = k[order], l[order]
        offsets = np.arange(1 - d, d)
        starts = np.searchsorted(l - k, offsets)
        grid._cache[d] = (order, amp[:, k] * amp[:, l], starts, offsets % grid.shape[1])
    return grid._cache[d]


def husimi_q(rho: np.ndarray, grid: SphereGrid) -> np.ndarray:
    """Husimi function Q(theta, phi) = <theta, phi| rho |theta, phi> per node.

    Q(theta, phi) = sum_m c_m(theta) e^{i m phi}, where
    c_m = sum_{l - k = m} a_k a_l rho_kl sums the m-th diagonal of rho
    weighted by the polar amplitudes.  At the nodes phi = 2 pi p / n_phi
    the harmonic m equals harmonic m mod n_phi, so the offsets are folded
    into n_phi bins and one inverse FFT per polar node gives the row of Q.
    """
    rho = np.asarray(rho)
    order, weights, starts, bins = _diagonal_terms(rho.shape[0], grid)
    diagonals = np.add.reduceat(weights * rho.reshape(-1)[order], starts, axis=1)
    harmonics = np.zeros(grid.shape, dtype=complex)
    np.add.at(harmonics, (slice(None), bins), diagonals)
    q = np.fft.ifft(harmonics, axis=1, norm="forward").real.reshape(-1)
    if q.min() < -1e-12:
        raise ValueError(f"Husimi function negative ({q.min()}); input not PSD")
    return q


def husimi_entropy(op: np.ndarray, grid: SphereGrid) -> float:
    """Phase-space (Wehrl) entropy of an operator after regularization.

    The operator is first mapped to a density-like matrix (eigenvalue
    moduli, unit trace), then
    S = -((2j+1)/4pi) * sum_i w_i Q_i ln Q_i with 0 ln 0 = 0.
    """
    op = np.asarray(op)
    rho = regularize_operator(op)
    q = np.clip(husimi_q(rho, grid), 0.0, None)
    d = op.shape[0]
    integrand = np.where(q > 0.0, q * np.log(q, out=np.zeros_like(q), where=q > 0.0), 0.0)
    return float(-(d / (4.0 * np.pi)) * np.sum(grid.weights * integrand))
