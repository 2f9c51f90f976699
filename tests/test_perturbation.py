import numpy as np
import pytest

from chaostomo.checks import _error_unitary as error_unitary
from chaostomo.dynamics import angular_momentum_ops, heisenberg_timeline
from chaostomo.operator_space import bloch_encode, gell_mann_basis
from chaostomo.perturbation import (
    fractional_unitary_power,
    operator_incompatibility,
    operator_loschmidt_echo,
    operator_relative_entropy,
)
from chaostomo.quantifiers import ordered_perturbed_fidelity
from chaostomo.rmt import haar_unitary
from chaostomo.tomography import (
    haar_random_pure,
    reconstruct_series,
)
from chaostomo.dynamics import KickedTop
from helpers import perturbed_kicked_top, run_tomography, timeline_covariance, timeline_record


@pytest.fixture(scope="module")
def bench():
    """Small kicked-top pair with a rotated observable."""
    j = 4
    pair = perturbed_kicked_top(j, 3.0, 1.4, 0.01)
    rng = np.random.default_rng(5)
    w = haar_unitary(9, rng)
    obs = w.conj().T @ angular_momentum_ops(j)[0] @ w
    tl_true = heisenberg_timeline(obs, pair[0], 40)
    tl_model = heisenberg_timeline(obs, pair[1], 40)
    return j, pair, obs, tl_true, tl_model


class TestPair:
    def test_zero_perturbation_identical(self):
        u_true, u_model = perturbed_kicked_top(4, 3.0, 1.4, 0.0)
        assert np.array_equal(u_true, u_model)

    def test_linear_in_delta_lambda(self):
        norms = []
        for dl in (1e-3, 2e-3, 4e-3):
            u_true, u_model = perturbed_kicked_top(10, 7.0, 1.4, dl)
            norms.append(np.linalg.norm(u_true - u_model))
        assert norms[1] / norms[0] == pytest.approx(2.0, rel=1e-3)
        assert norms[2] / norms[1] == pytest.approx(2.0, rel=1e-3)


class TestEcho:
    def test_initial_value_one(self, bench):
        j, pair, obs, tl_t, tl_m = bench
        assert operator_loschmidt_echo(tl_t[0], tl_m[0], obs) == pytest.approx(1.0)

    def test_bounded_by_one(self, bench):
        j, pair, obs, tl_t, tl_m = bench
        for n in range(0, 41, 5):
            assert abs(operator_loschmidt_echo(tl_t[n], tl_m[n], obs)) <= 1 + 1e-10

    def test_zero_observable_rejected(self):
        with pytest.raises(ValueError):
            operator_loschmidt_echo(np.eye(2), np.eye(2), np.zeros((2, 2)))

class TestRelativeEntropy:
    def test_identical_operators_zero(self, bench):
        j, pair, obs, tl_t, tl_m = bench
        assert operator_relative_entropy(tl_t[0], tl_m[0]) == pytest.approx(0.0, abs=1e-10)

    def test_nonnegative(self, bench):
        j, pair, obs, tl_t, tl_m = bench
        for n in range(0, 41, 5):
            assert operator_relative_entropy(tl_t[n], tl_m[n]) >= -1e-10


class TestIncompatibility:
    def test_zero_at_start(self, bench):
        j, pair, obs, tl_t, tl_m = bench
        assert operator_incompatibility(tl_t[0], tl_m[0], j=j) == pytest.approx(0.0, abs=1e-14)

    def test_error_unitary_identity_per_step(self, bench):
        # the module's central algebraic identity: the squared commutator of
        # the two evolved observables equals that of the initial observable
        # with its conjugation by the error unitary
        j, pair, obs, tl_t, tl_m = bench
        for n in range(41):
            lhs = operator_incompatibility(tl_t[n], tl_m[n], j=j)
            uu = error_unitary(*pair, n)
            rhs = operator_incompatibility(obs, uu.conj().T @ obs @ uu, j=j)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestErrorUnitary:
    def test_trivial_cases(self, bench):
        j, pair, obs, tl_t, tl_m = bench
        assert np.max(np.abs(error_unitary(*pair, 0) - np.eye(9))) == 0.0
        pair0 = perturbed_kicked_top(j, 3.0, 1.4, 0.0)
        assert np.max(np.abs(error_unitary(*pair0, 5) - np.eye(9))) < 1e-12

    def test_distance_grows(self, bench):
        j, pair, obs, tl_t, tl_m = bench
        dist = [np.linalg.norm(error_unitary(*pair, n) - np.eye(9)) for n in range(10)]
        assert all(b > a for a, b in zip(dist, dist[1:]))


class TestMismatched:
    def test_reduces_to_ideal_when_unperturbed(self, rng):
        d = 5
        psi = haar_random_pure(d, rng)
        jy = angular_momentum_ops(2)[1]
        ideal = run_tomography(KickedTop(j=2, lam=3.0, alpha=1.4), psi, jy, 20, 0.1, 7)
        u_true, u_model = perturbed_kicked_top(2, 3.0, 1.4, 0.0)
        basis = gell_mann_basis(d)
        tl_true = heisenberg_timeline(jy, u_true, 19)
        cov_model = timeline_covariance(heisenberg_timeline(jy, u_model, 19), basis, u_model)
        rec = timeline_record(psi, tl_true, 0.1, 7)
        mism = reconstruct_series([rec], cov_model, basis, [psi], range(1, 21))
        assert np.max(np.abs(mism.fidelities[0] - ideal)) < 1e-9

    def test_small_perturbation_limit(self, rng):
        # fidelity series converges to the ideal one as delta_lambda -> 0
        d = 5
        psi = haar_random_pure(d, rng)
        jy = angular_momentum_ops(2)[1]
        basis = gell_mann_basis(d)
        ideal = run_tomography(KickedTop(j=2, lam=3.0, alpha=1.4), psi, jy, 15, 0.05, 3)
        sup = {}
        for dl in (1e-3, 1e-4):
            u_true, u_model = perturbed_kicked_top(2, 3.0, 1.4, dl)
            tl_true = heisenberg_timeline(jy, u_true, 14)
            cov_model = timeline_covariance(heisenberg_timeline(jy, u_model, 14), basis, u_model)
            rec = timeline_record(psi, tl_true, 0.05, 3)
            mism = reconstruct_series([rec], cov_model, basis, [psi], range(1, 16))
            sup[dl] = np.max(np.abs(mism.fidelities[0] - ideal))
        assert sup[1e-4] < sup[1e-3]
        assert sup[1e-4] < 0.01


def rotated_basis_fidelity(psi0, basis, w):
    """Ordered fidelity read off the rotated elements W E_a W^dag, one dense product each."""
    rotated = np.einsum("ij,ajk,lk->ail", w, basis.matrices(), w.conj())
    rho0 = np.outer(psi0, psi0.conj())
    r_true = bloch_encode(rho0, basis)
    r_meas = (rotated.reshape(len(basis), -1).conj() @ rho0.reshape(-1)).real
    order = np.argsort(np.abs(r_true), kind="stable")[::-1]
    return 1.0 / basis.dim + np.cumsum(r_true[order] * r_meas[order])


class TestFractionalPerturbation:
    def test_eta_zero_is_identity(self, rng):
        basis = gell_mann_basis(5)
        u_r = haar_unitary(5, rng)
        w = fractional_unitary_power(u_r, 0.0)
        assert np.max(np.abs(w - np.eye(5))) < 1e-12
        psi = haar_random_pure(5, rng)
        f = ordered_perturbed_fidelity(psi, basis, w)
        assert np.max(np.abs(f - ordered_perturbed_fidelity(psi, basis, np.eye(5)))) < 1e-12

    def test_power_norm_increases_with_eta(self, rng):
        u_r = haar_unitary(6, rng)
        norms = [np.linalg.norm(fractional_unitary_power(u_r, eta) - np.eye(6)) for eta in (0.1, 0.3, 0.6, 1.0)]
        assert all(b > a for a, b in zip(norms, norms[1:]))
        assert np.max(np.abs(fractional_unitary_power(u_r, 1.0) - u_r)) < 1e-10

    @pytest.mark.parametrize("eta", [0.0, 0.05, 0.1, 0.2])
    def test_state_rotation_matches_rotated_basis(self, eta, rng):
        d = 21
        basis = gell_mann_basis(d)
        w = fractional_unitary_power(haar_unitary(d, rng), eta)
        psi = haar_random_pure(d, rng)
        want = rotated_basis_fidelity(psi, basis, w)
        assert np.max(np.abs(ordered_perturbed_fidelity(psi, basis, w) - want)) < 1e-13

    def test_ordered_fidelity_degrades_with_eta(self, rng):
        d = 9
        basis = gell_mann_basis(d)
        u_r = haar_unitary(d, rng)
        psi = haar_random_pure(d, rng)
        finals = []
        for eta in (0.0, 0.1, 0.3):
            f = ordered_perturbed_fidelity(psi, basis, fractional_unitary_power(u_r, eta))
            finals.append(f[-1])
        assert finals[0] == pytest.approx(1.0, abs=1e-10)
        assert all(b < a for a, b in zip(finals, finals[1:]))

    def test_ordered_fidelity_matches_bound_when_unperturbed(self, rng):
        from chaostomo.quantifiers import ordered_bloch_values

        d = 6
        basis = gell_mann_basis(d)
        psi = haar_random_pure(d, rng)
        f = ordered_perturbed_fidelity(psi, basis, np.eye(d))
        _, bound = ordered_bloch_values(np.outer(psi, psi.conj()), basis)
        assert np.max(np.abs(f - bound)) < 1e-12

    def test_direction_policy_shared_with_bound(self, rng):
        from chaostomo.quantifiers import ordered_bloch_values

        d = 5
        basis = gell_mann_basis(d)
        psi = haar_random_pure(d, rng)
        f = ordered_perturbed_fidelity(psi, basis, np.eye(d), direction="ascending")
        _, bound = ordered_bloch_values(np.outer(psi, psi.conj()), basis, direction="ascending")
        assert np.max(np.abs(f - bound)) < 1e-12
        with pytest.raises(ValueError, match="direction"):
            ordered_perturbed_fidelity(psi, basis, np.eye(d), direction="sideways")
