import numpy as np
import pytest

from chaostomo.operator_space import (
    bloch_decode,
    bloch_encode,
    gell_mann_basis,
    regularize_operator,
)
from chaostomo.dynamics import angular_momentum_ops
from chaostomo.tomography import haar_random_pure


@pytest.mark.parametrize("d", list(range(2, 9)) + [16, 32])
def test_gram_matrix_is_identity(d):
    basis = gell_mann_basis(d)
    gram = (basis.flat.conj() @ basis.flat.T).real
    assert np.max(np.abs(gram - np.eye(d * d - 1))) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_elements_traceless_and_hermitian(d):
    basis = gell_mann_basis(d)
    for e in basis.elements:
        assert abs(np.trace(e)) < 1e-12
        assert np.max(np.abs(e - e.conj().T)) < 1e-12


def test_basis_counts_and_ordering():
    d = 5
    basis = gell_mann_basis(d)
    assert len(basis) == 24
    # d - 1 diagonal elements first
    for k in range(d - 1):
        off = basis.elements[k] - np.diag(np.diag(basis.elements[k]))
        assert np.max(np.abs(off)) == 0.0
    # then symmetric pairs (real), then antisymmetric pairs (imaginary)
    n_pairs = d * (d - 1) // 2
    sym = basis.elements[d - 1 : d - 1 + n_pairs]
    anti = basis.elements[d - 1 + n_pairs :]
    assert np.max(np.abs(sym.imag)) == 0.0
    assert np.max(np.abs(anti.real)) == 0.0


def test_invalid_dimension_rejected():
    with pytest.raises(ValueError):
        gell_mann_basis(1)


def test_bloch_encode_identity_is_zero():
    basis = gell_mann_basis(4)
    r = bloch_encode(np.eye(4) / 4.0, basis)
    assert np.max(np.abs(r)) < 1e-14


@pytest.mark.parametrize("d", [2, 3, 6])
def test_pure_state_bloch_norm(d, rng):
    basis = gell_mann_basis(d)
    psi = haar_random_pure(d, rng)
    r = bloch_encode(np.outer(psi, psi.conj()), basis)
    assert abs(np.sum(r**2) - (1.0 - 1.0 / d)) < 1e-10


def test_encode_decode_round_trip(hermitian_factory):
    d = 5
    basis = gell_mann_basis(d)
    op = hermitian_factory(d)
    rho = op / np.trace(op).real  # unit trace, possibly non-positive
    back = bloch_decode(bloch_encode(rho, basis), basis)
    assert np.max(np.abs(back - rho)) < 1e-12


def test_decode_trivials():
    basis = gell_mann_basis(3)
    assert np.max(np.abs(bloch_decode(np.zeros(8), basis) - np.eye(3) / 3)) < 1e-15
    big = bloch_decode(np.full(8, 2.0), basis)
    assert np.max(np.abs(big - big.conj().T)) < 1e-12
    assert abs(np.trace(big) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(big)[0] < 0  # decode imposes no positivity


def test_decode_dimension_mismatch():
    with pytest.raises(ValueError):
        bloch_decode(np.zeros(7), gell_mann_basis(3))


def test_parseval_for_traceless_operators(hermitian_factory):
    d = 6
    basis = gell_mann_basis(d)
    op = hermitian_factory(d)
    op -= np.trace(op) * np.eye(d) / d
    r = bloch_encode(op, basis)
    assert abs(np.sum(r**2) - np.vdot(op, op).real) < 1e-10


class TestRegularize:
    def test_psd_unit_trace_unchanged(self, rng):
        psi = haar_random_pure(4, rng)
        rho = np.outer(psi, psi.conj())
        assert np.max(np.abs(regularize_operator(rho) - rho)) < 1e-12

    def test_balanced_signs(self):
        assert np.max(np.abs(regularize_operator(np.diag([1.0, -1.0])) - np.eye(2) / 2)) < 1e-14

    def test_spin_one_jz(self):
        jz = angular_momentum_ops(1)[2]
        out = regularize_operator(jz)
        assert np.max(np.abs(out - np.diag([0.5, 0.0, 0.5]))) < 1e-14

    def test_zero_operator_rejected(self):
        with pytest.raises(ValueError):
            regularize_operator(np.zeros((3, 3)))

    def test_output_contract(self, hermitian_factory):
        op = hermitian_factory(6)
        out = regularize_operator(op)
        w = np.linalg.eigvalsh(out)
        assert w[0] >= -1e-12
        assert abs(np.trace(out).real - 1.0) < 1e-12
        # shares eigenvectors with the input: commutes with it
        comm = out @ op - op @ out
        assert np.max(np.abs(comm)) < 1e-10
