"""Unit tests for the dense density-matrix engine and the state oracles."""

import numpy as np
import pytest

import dcqd.states as st
import oracles
from dcqd.pauli import parse_pauli, single_site


def pure(vector):
    v = np.asarray(vector, dtype=complex)
    v = v / np.linalg.norm(v)
    return st.DensityMatrix(int(np.log2(v.size)), np.outer(v, v.conj()))


def bell_pair():
    vec = np.zeros(4, dtype=complex)
    vec[0b00] = vec[0b11] = 1.0
    return pure(vec)


def test_basis_state_from_int_and_bitstring():
    a = oracles.basis_state(3, 0b101)
    b = oracles.basis_state(3, "101")
    assert np.array_equal(a.data, b.data)
    assert a.data[0b101, 0b101] == 1.0


def test_density_matrix_validation():
    with pytest.raises(st.InvalidStateError):
        st.DensityMatrix(1, np.array([[0.6, 0.2], [0.3, 0.4]]))  # not Hermitian
    with pytest.raises(st.InvalidStateError):
        st.DensityMatrix(1, np.array([[0.6, 0.0], [0.0, 0.6]]))  # trace 1.2
    with pytest.raises(st.InvalidStateError):
        st.DensityMatrix(1, np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue
    with pytest.raises(st.InvalidStateError):
        st.DensityMatrix(1, np.diag([1.0 + 1e-6, -1e-6]))  # just past the -1e-9 bound
    st.DensityMatrix(1, np.diag([1.0 + 1e-10, -1e-10]))  # within it


def test_apply_unitary_requires_unitary():
    rho = oracles.basis_state(1, 0)
    with pytest.raises(st.ContractViolationError):
        oracles.apply_unitary(rho, np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_apply_unitary_hadamard():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    rho = oracles.apply_unitary(oracles.basis_state(1, 0), h)
    assert np.allclose(rho.data, np.full((2, 2), 0.5))


def test_apply_channel_checks_completeness():
    rho = oracles.basis_state(1, 0)
    with pytest.raises(st.ContractViolationError):
        st.apply_channel(rho, [np.eye(2) * 0.9])


def test_measure_generator_born_statistics():
    # |+> measured in Z: p(+1) = 1/2, both branches pure
    plus = pure([1.0, 1.0])
    z = single_site(1, 1, "Z")
    rec, post = oracles.measure_generator(plus, z, rand=0.49)
    assert rec.outcome == 1
    assert rec.probability == pytest.approx(0.5)
    assert np.allclose(post.data, [[1, 0], [0, 0]])
    rec, post = oracles.measure_generator(plus, z, rand=0.51)
    assert rec.outcome == -1
    assert np.allclose(post.data, [[0, 0], [0, 1]])


def test_measure_generator_deterministic_outcome():
    rho = oracles.basis_state(1, 0)
    z = single_site(1, 1, "Z")
    for r in (0.0, 0.3, 0.9999):
        rec, post = oracles.measure_generator(rho, z, rand=r)
        assert rec.outcome == 1
        assert np.array_equal(post.data, rho.data)


def test_measure_generator_impossible_branch():
    # the +1 branch carries 5e-15 probability; selecting it means the
    # variate source is broken, so the engine refuses to collapse
    eps = 1e-14
    rho = st.DensityMatrix(1, np.diag([eps / 2, 1.0 - eps / 2]))
    z = single_site(1, 1, "Z")
    with pytest.raises(oracles.ImpossibleOutcomeError):
        oracles.measure_generator(rho, z, rand=0.0)


def test_measure_generator_rejects_non_hermitian_phase():
    rho = oracles.basis_state(1, 0)
    op = parse_pauli("iZ")
    with pytest.raises(st.ContractViolationError):
        oracles.measure_generator(rho, op, rand=0.1)


def test_expectation_pauli_and_matrix():
    rho = oracles.basis_state(1, 1)
    assert oracles.expectation(rho, single_site(1, 1, "Z")) == pytest.approx(-1.0)
    assert oracles.expectation(rho, np.diag([3.0, 5.0])) == pytest.approx(5.0)


def test_partial_trace_of_bell_pair_is_maximally_mixed():
    rho = bell_pair()
    for keep in ((1,), (2,)):
        red = oracles.partial_trace(rho, keep)
        assert np.allclose(red.data, np.eye(2) / 2)


def test_partial_trace_keeps_product_factor():
    rho01 = oracles.basis_state(2, "01")
    left = oracles.partial_trace(rho01, (1,))
    right = oracles.partial_trace(rho01, (2,))
    assert np.allclose(left.data, [[1, 0], [0, 0]])
    assert np.allclose(right.data, [[0, 0], [0, 1]])


def test_partial_trace_matches_kron_oracle(rng):
    # build a random product state, trace out one side, compare factors
    for _ in range(20):
        va = rng.normal(size=2) + 1j * rng.normal(size=2)
        vb = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho_a = pure(va)
        rho_b = pure(vb)
        joint = st.DensityMatrix(3, np.kron(rho_a.data, rho_b.data))
        assert np.allclose(oracles.partial_trace(joint, (1,)).data, rho_a.data, atol=1e-12)
        assert np.allclose(oracles.partial_trace(joint, (2, 3)).data, rho_b.data, atol=1e-12)
