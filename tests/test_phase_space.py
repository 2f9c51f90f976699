import numpy as np
import pytest
import scipy.linalg
import scipy.special

from chaostomo.dynamics import KickedTop, angular_momentum_ops, heisenberg_timeline, kicked_top_floquet
from chaostomo.operator_space import regularize_operator
from chaostomo.phase_space import (
    coherent_state_frame,
    husimi_entropy,
    husimi_q,
    sphere_grid,
    spin_coherent,
)
from chaostomo.tomography import haar_random_pure


def spin_coherent_lowering(j: float, theta: float, phi: float) -> np.ndarray:
    """Coherent state via the lowering-operator form, as a cross-check.

    (1 + |mu|^2)^{-j} exp(mu J_-) |j, j> with mu = e^{i phi} tan(theta/2);
    diverges at theta = pi, where the rotation form must be used.
    """
    if not theta < np.pi - 1e-9:
        raise ValueError("lowering form is singular at theta = pi; use spin_coherent")
    jx, jy, _ = angular_momentum_ops(j)
    jminus = jx - 1j * jy
    mu = np.exp(1j * phi) * np.tan(theta / 2.0)
    top = np.zeros(round(2 * j) + 1, dtype=complex)
    top[0] = 1.0
    return (1 + abs(mu) ** 2) ** (-j) * (scipy.linalg.expm(mu * jminus) @ top)


def gammaln_frame(j: float, grid) -> np.ndarray:
    """Coherent-state frame with log-binomials from scipy.special.gammaln."""
    k = np.arange(round(2 * j) + 1)
    ln_binom = (
        scipy.special.gammaln(2 * j + 1)
        - scipy.special.gammaln(k + 1)
        - scipy.special.gammaln(2 * j - k + 1)
    )
    half = grid.theta[:, None] / 2.0
    mag = np.exp(0.5 * ln_binom) * np.cos(half) ** (2 * j - k) * np.sin(half) ** k
    return mag * np.exp(1j * k * grid.phi[:, None])


class TestSphereGrid:
    def test_weights_sum_to_sphere_area(self):
        for nt, nph in [(16, 32), (64, 128)]:
            grid = sphere_grid(nt, nph)
            assert abs(grid.weights.sum() - 4 * np.pi) < 1e-9
            assert len(grid) == nt * nph
            assert grid.shape == (nt, nph)

    @pytest.mark.parametrize("n_theta,n_phi,name", [(8, 0, "n_phi"), (4, -2, "n_phi"),
                                                    (0, 8, "n_theta"), (-1, 0, "n_theta")])
    def test_rejects_non_positive_size(self, n_theta, n_phi, name):
        with pytest.raises(ValueError, match=name):
            sphere_grid(n_theta, n_phi)


class TestSpinCoherent:
    def test_north_pole_is_top_state(self):
        psi = spin_coherent(7, 0.0, 0.0)
        assert abs(abs(psi[0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("j", [1, 4.5, 20])
    def test_minimum_uncertainty(self, j):
        jx, jy, jz = angular_momentum_ops(j)
        psi = spin_coherent(j, 2.04, 2.42)
        ev = lambda op: np.vdot(psi, op @ psi).real
        j2 = ev(jx @ jx + jy @ jy + jz @ jz)
        jvec2 = ev(jx) ** 2 + ev(jy) ** 2 + ev(jz) ** 2
        assert abs((j2 - jvec2) / j**2 - 1.0 / j) < 1e-12

    @pytest.mark.parametrize("theta,phi", [(0.3, 1.0), (2.04, 2.42), (3.1, 5.5), (1e-8, 0.0)])
    def test_lowering_form_agrees_with_rotation_form(self, theta, phi):
        a = spin_coherent(6, theta, phi)
        b = spin_coherent_lowering(6, theta, phi)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_lowering_form_rejects_south_pole(self):
        with pytest.raises(ValueError):
            spin_coherent_lowering(3, np.pi, 0.0)

    def test_south_pole_via_rotation_form(self):
        psi = spin_coherent(3, np.pi, 0.7)
        assert abs(abs(psi[-1]) - 1.0) < 1e-10  # points to |j, -j>

    def test_frame_rows_match_single_states(self):
        grid = sphere_grid(6, 10)
        frame = coherent_state_frame(4, grid)
        for k in (0, 17, 59):
            direct = spin_coherent(4, grid.theta[k], grid.phi[k])
            assert np.max(np.abs(frame[k] - direct)) < 1e-12

    @pytest.mark.parametrize("j", [0.5, 1, 2.5, 10, 20])
    def test_frame_matches_gammaln_reference(self, j):
        grid = sphere_grid(16, 32)
        assert np.max(np.abs(coherent_state_frame(j, grid) - gammaln_frame(j, grid))) < 1e-13


class TestHusimi:
    def test_maximally_mixed_is_flat(self):
        grid = sphere_grid(16, 32)
        q = husimi_q(np.eye(9) / 9, grid)
        assert np.max(np.abs(q - 1 / 9)) < 1e-12

    def test_top_state_peaks_at_pole(self):
        j = 10
        grid = sphere_grid()
        psi = spin_coherent(j, 0.0, 0.0)
        q = husimi_q(np.outer(psi, psi.conj()), grid)
        node = np.argmin(grid.theta)
        assert q[node] > 0.99 * np.cos(grid.theta[node] / 2) ** (4 * j)
        assert q.min() > -1e-12

    @pytest.mark.parametrize("j", [5, 20])
    def test_normalization_at_default_grid(self, j, rng):
        grid = sphere_grid()
        psi = haar_random_pure(2 * round(j) + 1, rng)
        q = husimi_q(np.outer(psi, psi.conj()), grid)
        norm = (2 * j + 1) / (4 * np.pi) * np.sum(grid.weights * q)
        assert abs(norm - 1.0) < 1e-3

    def test_normalization_converges_under_refinement(self, rng):
        # deliberately under-resolved grid so the discretization error is
        # visible; doubling the resolution must cut it by at least 70%
        j = 30
        psi = haar_random_pure(61, rng)
        rho = np.outer(psi, psi.conj())
        errs = []
        for nt, nph in [(16, 32), (32, 64)]:
            grid = sphere_grid(nt, nph)
            q = husimi_q(rho, grid)
            errs.append(abs((2 * j + 1) / (4 * np.pi) * np.sum(grid.weights * q) - 1.0))
        assert errs[1] <= 0.3 * errs[0] or errs[1] < 1e-12


class TestHusimiKernel:
    """The diagonal-sum FFT kernel of husimi_q against the frame contraction."""

    @pytest.mark.parametrize("j", [0.5, 1, 2.5, 10, 20, 30])
    @pytest.mark.parametrize("shape", [(64, 128), (16, 32), (6, 10)])
    def test_matches_frame_contraction(self, j, shape, rng):
        # 6 x 10 has n_phi < 2d - 1 for j >= 2.5, so offsets fold onto one bin
        d = round(2 * j) + 1
        grid = sphere_grid(*shape)
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = a @ a.conj().T / np.sum(np.abs(a) ** 2)
        frame = coherent_state_frame(j, grid)
        want = np.einsum("nc,cd,nd->n", frame.conj(), rho, frame).real
        assert np.max(np.abs(husimi_q(rho, grid) - want)) <= 1e-13 * np.max(want)

    def test_non_psd_input_raises(self):
        rho = np.diag([1.0, 0.0, -0.5])
        with pytest.raises(ValueError, match="not PSD"):
            husimi_q(rho, sphere_grid(6, 10))


class TestHusimiEntropy:
    def test_maximally_mixed_closed_form(self):
        # flat Q = 1/d integrates to S = ln d
        d = 17
        grid = sphere_grid()
        assert husimi_entropy(np.eye(d), grid) == pytest.approx(np.log(d), abs=1e-10)

    def test_coherent_projector_minimizes(self, rng):
        j = 6
        d = 13
        grid = sphere_grid()
        psi_c = spin_coherent(j, 1.2, 0.3)
        s_coherent = husimi_entropy(np.outer(psi_c, psi_c.conj()), grid)
        for _ in range(4):
            psi = haar_random_pure(d, rng)
            assert husimi_entropy(np.outer(psi, psi.conj()), grid) > s_coherent
        assert husimi_entropy(np.eye(d), grid) > s_coherent

    def test_entropy_grows_with_chaos(self):
        # evolved J_y delocalizes faster at stronger kicking
        j = 10
        grid = sphere_grid()
        jy = angular_momentum_ops(j)[1]
        vals = {}
        for lam in (0.5, 7.0):
            u = kicked_top_floquet(KickedTop(j=j, lam=lam, alpha=np.pi / 2))
            tl = heisenberg_timeline(jy, u, 15)
            vals[lam] = husimi_entropy(tl[-1], grid)
        assert vals[7.0] > vals[0.5]

    @pytest.mark.parametrize("lam", [0.5, 7.0])
    def test_unchanged_against_gammaln_frame(self, lam):
        # the spread-diag Husimi cell: j=20, evolved J_y, steps 0..8
        j = 20
        grid = sphere_grid()
        frame = gammaln_frame(j, grid)
        u = kicked_top_floquet(KickedTop(j=j, lam=lam, alpha=np.pi / 2))
        for op in heisenberg_timeline(angular_momentum_ops(j)[1], u, 8):
            q = np.clip(np.einsum("nc,cd,nd->n", frame.conj(), regularize_operator(op), frame).real, 0, None)
            want = -(2 * j + 1) / (4 * np.pi) * np.sum(grid.weights * q * np.log(q))
            assert husimi_entropy(op, grid) == pytest.approx(want, rel=1e-13)

    def test_zero_operator_rejected(self):
        with pytest.raises(ValueError):
            husimi_entropy(np.zeros((5, 5)), sphere_grid(8, 8))
