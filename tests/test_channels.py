"""Unit tests for the noise channels and the closed-form damping chi."""

from functools import reduce

import numpy as np
import pytest

from dcqd.channels import (
    QuantumChannel,
    amplitude_damping,
    apply,
    channel_from_spec,
    compose,
    depolarizing,
    identity_channel,
    pauli_unitary_channel,
    theoretical_chi_ad,
)
from dcqd.pauli import PAULI_MATRICES, parse_pauli, single_site
from dcqd.process_matrix import BASIS_INDEX
from dcqd.states import ContractViolationError, DensityMatrix
from oracles import apply_process, basis_state, dense_kraus, partial_trace


def completeness_defect(channel):
    kraus = dense_kraus(channel)
    acc = sum(k.conj().T @ k for k in kraus)
    return np.max(np.abs(acc - np.eye(kraus.shape[1])))


def test_amplitude_damping_completeness():
    for gamma in (0.0, 0.1, 0.4, 0.9, 1.0):
        for n, site in ((1, 1), (2, 1), (3, 2)):
            assert completeness_defect(amplitude_damping(gamma, site, n)) < 1e-12


def test_depolarizing_completeness():
    for p in (0.0, 0.05, 0.3, 1.0):
        assert completeness_defect(depolarizing(p, 1, 2)) < 1e-12


def test_amplitude_damping_action_on_excited_state():
    gamma = 0.37
    chan = amplitude_damping(gamma, 1, 1)
    rho = apply(chan, basis_state(1, 1))
    expected = np.diag([gamma, 1.0 - gamma])
    assert np.allclose(rho.data, expected, atol=1e-12)
    # ground state is a fixed point
    rho0 = apply(chan, basis_state(1, 0))
    assert np.allclose(rho0.data, np.diag([1.0, 0.0]), atol=1e-12)


def test_amplitude_damping_coherence_decay():
    gamma = 0.5
    chan = amplitude_damping(gamma, 1, 1)
    plus = DensityMatrix(1, np.full((2, 2), 0.5, dtype=complex))
    out = apply(chan, plus).data
    assert abs(out[0, 1] - 0.5 * np.sqrt(1 - gamma)) < 1e-12


def test_depolarizing_fixed_point_and_contraction():
    chan = depolarizing(0.3, 1, 1)
    mixed = DensityMatrix(1, np.eye(2) / 2)
    assert np.allclose(apply(chan, mixed).data, np.eye(2) / 2, atol=1e-12)
    pure = basis_state(1, 0)
    out = apply(chan, pure).data
    # error-model convention: Bloch vector shrinks by 1 - 4p/3
    assert abs((out[0, 0] - out[1, 1]) - (1 - 4 * 0.3 / 3)) < 1e-12


def test_depolarizing_three_quarters_outputs_maximally_mixed():
    # 1 - 4p/3 vanishes at p = 3/4 in the uniform-error convention
    chan = depolarizing(0.75, 2, 2)
    rho = apply(chan, basis_state(2, 3))
    assert np.allclose(partial_trace(rho, keep=[2]).data, np.eye(2) / 2, atol=1e-12)
    assert np.allclose(partial_trace(rho, keep=[1]).data, np.diag([0.0, 1.0]), atol=1e-12)


def test_embedding_acts_only_on_named_site():
    chan = amplitude_damping(0.8, 2, 2)
    rho = apply(chan, basis_state(2, 0b10))  # site 1 excited, site 2 ground
    assert np.allclose(rho.data, np.diag([0.0, 0.0, 1.0, 0.0]), atol=1e-12)


def kron_embed(k, site, n):
    factors = [np.eye(2, dtype=np.complex128)] * n
    factors[site - 1] = k
    return reduce(np.kron, factors)


def test_site_lift_matches_kron_embedding():
    # index arithmetic puts each 2x2 factor where kron(I, .., k, .., I) does
    for n, site in ((1, 1), (3, 1), (3, 2), (4, 4)):
        for build, strength in ((amplitude_damping, 0.3), (depolarizing, 0.2)):
            local = dense_kraus(build(strength, 1, 1))
            lifted = dense_kraus(build(strength, site, n))
            assert len(local) == len(lifted)
            for k, big in zip(local, lifted):
                assert np.array_equal(kron_embed(k, site, n), big)


def test_single_site_factors_are_the_textbook_kraus_operators():
    for s in (0.0, 1 / 3, 0.4, 1.0):
        k0 = np.diag([1.0, np.sqrt(1 - s)])
        k1 = np.array([[0.0, np.sqrt(s)], [0.0, 0.0]])
        assert np.array_equal(dense_kraus(amplitude_damping(s, 1, 1)), [k0, k1])
        paulis = [np.sqrt(1 - s) * PAULI_MATRICES["I"]]
        paulis += [np.sqrt(s / 3) * PAULI_MATRICES[letter] for letter in "XYZ"]
        assert np.array_equal(dense_kraus(depolarizing(s, 1, 1)), paulis)


def test_compose_matches_dense_products_exactly():
    outer = amplitude_damping(0.4, 2, 3)
    inner = compose(depolarizing(0.3, 1, 3), pauli_unitary_channel(parse_pauli("YZX")))
    dense = [a @ b for a in dense_kraus(outer) for b in dense_kraus(inner)]
    assert np.array_equal(dense_kraus(compose(outer, inner)), np.array(dense))


def test_constructor_rejects_non_trace_preserving_sets():
    with pytest.raises(ContractViolationError):
        QuantumChannel(n=1, perm=[[0, 1]], coef=[[0.9, 0.9]], label="lossy")
    with pytest.raises(ContractViolationError):
        # both rows read column 0: column 1 carries no weight
        QuantumChannel(n=1, perm=[[0, 0]], coef=[[1.0, 1.0]], label="collapse")
    with pytest.raises(ContractViolationError):
        QuantumChannel(n=1, perm=[[0, 2]], coef=[[1.0, 1.0]], label="range")
    with pytest.raises(ContractViolationError):
        QuantumChannel(n=2, perm=[[0, 1]], coef=[[1.0, 1.0]], label="shape")


def test_constructor_rejects_two_rows_of_one_operator_reading_one_column():
    # K1 = (|0><0| + |1><0|)/sqrt(2) and K2 = |1><1| preserve the trace,
    # but both rows of K1 read column 0, which apply's reader table cannot hold
    r = 1 / np.sqrt(2)
    with pytest.raises(ContractViolationError, match="reading one column"):
        QuantumChannel(n=1, perm=[[0, 0], [0, 1]], coef=[[r, r], [0, 1]], label="split")


def test_parameter_validation():
    with pytest.raises(ValueError):
        amplitude_damping(1.5, 1, 1)
    with pytest.raises(ValueError):
        depolarizing(-0.1, 1, 1)
    with pytest.raises(ValueError):
        amplitude_damping(0.4, 3, 2)


def test_compose_applies_inner_first():
    n = 1
    # reset-to-zero then excite: X after damping(1) gives |1><1|
    damp = amplitude_damping(1.0, 1, n)
    flip = pauli_unitary_channel(single_site(n, 1, "X"))
    both = compose(flip, damp)
    out = apply(both, basis_state(1, 1))
    assert np.allclose(out.data, np.diag([0.0, 1.0]), atol=1e-12)
    # opposite order leaves the excited population damped away
    other = compose(damp, flip)
    out2 = apply(other, basis_state(1, 1))
    assert np.allclose(out2.data, np.diag([1.0, 0.0]), atol=1e-12)


def test_channel_from_spec_order():
    entries = [
        {"type": "amplitude_damping", "site": 1, "parameter": 0.4},
        {"type": "depolarizing", "site": 3, "parameter": 0.1},
        {"type": "depolarizing", "site": 4, "parameter": 0.1},
    ]
    chan = channel_from_spec(entries, n=4)
    assert len(chan.kraus) == 2 * 4 * 4
    # listed order matters for non-commuting steps
    seq = channel_from_spec(
        [
            {"type": "amplitude_damping", "site": 1, "parameter": 1.0},
        ],
        n=1,
    )
    ref = amplitude_damping(1.0, 1, 1)
    rho = DensityMatrix(1, np.array([[0.25, 0.1], [0.1, 0.75]], dtype=complex))
    assert np.allclose(apply(seq, rho).data, apply(ref, rho).data, atol=1e-12)
    with pytest.raises(ValueError):
        channel_from_spec([{"type": "bit_flip", "site": 1, "parameter": 0.1}], n=1)


def test_pauli_unitary_channel_is_exact():
    op = parse_pauli("XZ")
    chan = pauli_unitary_channel(op)
    rho = basis_state(2, 0)
    out = apply(chan, rho)
    assert np.allclose(out.data, np.zeros((4, 4)) + np.diag([0, 0, 1, 0]), atol=1e-12)


def test_theoretical_chi_frozen_entries():
    chi = theoretical_chi_ad(0.4)
    ii, xi, yi, zi = (BASIS_INDEX[s] for s in ("II", "XI", "YI", "ZI"))
    assert abs(chi.data[ii, ii] - 0.787298334620742) < 1e-14
    assert abs(chi.data[zi, zi] - 0.012701665379258) < 1e-14
    assert abs(chi.data[ii, zi] - 0.1) < 1e-14
    assert abs(chi.data[zi, ii] - 0.1) < 1e-14
    assert abs(chi.data[xi, xi] - 0.1) < 1e-14
    assert abs(chi.data[yi, yi] - 0.1) < 1e-14
    assert abs(chi.data[xi, yi] - (-0.1j)) < 1e-14
    assert abs(chi.data[yi, xi] - 0.1j) < 1e-14
    # nothing outside the single-qubit block
    mask = np.ones((16, 16), dtype=bool)
    for a in (ii, xi, yi, zi):
        for b in (ii, xi, yi, zi):
            mask[a, b] = False
    assert np.max(np.abs(chi.data[mask])) == 0.0


def test_theoretical_chi_trace_one_over_gamma_grid():
    for gamma in np.linspace(0.0, 1.0, 11):
        chi = theoretical_chi_ad(float(gamma))
        assert abs(np.trace(chi.data).real - 1.0) < 1e-12
        eig = np.linalg.eigvalsh(chi.data)
        assert eig.min() > -1e-12


def test_chi_reproduces_kraus_action(rng):
    # dual route: the closed-form process matrix applied through the
    # operator basis must agree with direct Kraus application
    for gamma in (0.1, 0.4, 0.9):
        chi = theoretical_chi_ad(gamma)
        chan = amplitude_damping(gamma, 1, 2)
        for _ in range(5):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            direct = sum(k @ rho @ k.conj().T for k in dense_kraus(chan))
            assert np.allclose(apply_process(chi, rho), direct, atol=1e-12)


def test_identity_channel_no_op():
    chan = identity_channel(2)
    rho = basis_state(2, 2)
    assert np.allclose(apply(chan, rho).data, rho.data)
    assert isinstance(chan, QuantumChannel)


def test_mismatched_register_sizes_rejected():
    with pytest.raises(ValueError):
        compose(identity_channel(1), identity_channel(2))
    with pytest.raises(ValueError):
        apply(identity_channel(2), basis_state(1, 0))
