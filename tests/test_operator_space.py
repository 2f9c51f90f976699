import tracemalloc

import numpy as np
import pytest

from chaostomo.operator_space import (
    bloch_decode,
    bloch_encode,
    bloch_encode_batch,
    gell_mann_basis,
    regularize_operator,
)
from chaostomo.dynamics import angular_momentum_ops
from chaostomo.tomography import haar_random_pure


@pytest.mark.parametrize("d", list(range(2, 9)) + [16, 32])
def test_gram_matrix_is_identity(d):
    basis = gell_mann_basis(d)
    flat = basis.matrices().reshape(len(basis), -1)
    gram = (flat.conj() @ flat.T).real
    assert np.max(np.abs(gram - np.eye(d * d - 1))) < 1e-12


def test_basis_holds_no_element_tensor():
    d = 32
    basis = gell_mann_basis(d)
    sizes = [np.asarray(v).size for v in vars(basis).values()]
    assert max(sizes) < (d * d - 1) * d * d


@pytest.mark.parametrize("d", [3, 5, 8])
def test_selected_matrices_match_full_stack(d, rng):
    basis = gell_mann_basis(d)
    sel = rng.choice(len(basis), size=6, replace=False)
    assert np.array_equal(basis.matrices(sel), basis.matrices()[sel])


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_matrices_encode_to_unit_vectors(d):
    basis = gell_mann_basis(d)
    coords = np.array([bloch_encode(e, basis) for e in basis.matrices()])
    assert np.max(np.abs(coords - np.eye(len(basis)))) < 1e-15


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_elements_traceless_and_hermitian(d):
    basis = gell_mann_basis(d)
    for e in basis.matrices():
        assert abs(np.trace(e)) < 1e-12
        assert np.max(np.abs(e - e.conj().T)) < 1e-12


def test_basis_counts_and_ordering():
    d = 5
    basis = gell_mann_basis(d)
    assert len(basis) == 24
    elements = basis.matrices()
    # d - 1 diagonal elements first
    for k in range(d - 1):
        off = elements[k] - np.diag(np.diag(elements[k]))
        assert np.max(np.abs(off)) == 0.0
    # then symmetric pairs (real), then antisymmetric pairs (imaginary)
    n_pairs = d * (d - 1) // 2
    sym = elements[d - 1 : d - 1 + n_pairs]
    anti = elements[d - 1 + n_pairs :]
    assert np.max(np.abs(sym.imag)) == 0.0
    assert np.max(np.abs(anti.real)) == 0.0


def test_batch_encode_peak_below_the_input(rng):
    # the parts go straight into the output, so encoding takes less than
    # the input stack; a complex gather with scaled copies took 1.5 times it
    d = 32
    basis = gell_mann_basis(d)
    ops = rng.standard_normal((191, d, d)) + 1j * rng.standard_normal((191, d, d))
    tracemalloc.start()
    try:
        coords = bloch_encode_batch(ops, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ops.nbytes
    assert np.max(np.abs(coords[::40] - [bloch_encode(o, basis) for o in ops[::40]])) < 1e-13


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
    for d in (2, 3, 5, 8):
        basis = gell_mann_basis(d)
        rho = hermitian_factory(d)
        rho += (1.0 - np.trace(rho).real) * np.eye(d) / d  # unit trace, possibly non-positive
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
