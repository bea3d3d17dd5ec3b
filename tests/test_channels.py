"""Unit tests for the noise channels and the closed-form damping chi."""

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
from dcqd.pauli import parse_pauli, single_site
from dcqd.process_matrix import BASIS_INDEX
from dcqd.states import DensityMatrix
from oracles import apply_process, basis_state, partial_trace


def completeness_defect(channel):
    dim = channel.kraus[0].shape[0]
    acc = sum(k.conj().T @ k for k in channel.kraus)
    return np.max(np.abs(acc - np.eye(dim)))


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
    assert chan.support == frozenset({2})


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


def test_channel_from_spec_order_and_support():
    entries = [
        {"type": "amplitude_damping", "site": 1, "parameter": 0.4},
        {"type": "depolarizing", "site": 3, "parameter": 0.1},
        {"type": "depolarizing", "site": 4, "parameter": 0.1},
    ]
    chan = channel_from_spec(entries, n=4)
    assert chan.support == frozenset({1, 3, 4})
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
    assert chan.support == frozenset({1, 2})
    rho = basis_state(2, 0)
    out = apply(chan, rho)
    assert np.allclose(out.data, np.zeros((4, 4)) + np.diag([0, 0, 1, 0]), atol=1e-12)


def test_theoretical_chi_frozen_entries():
    chi = theoretical_chi_ad(0.4)
    ii, xi, yi, zi = (BASIS_INDEX[s] for s in ("II", "XI", "YI", "ZI"))
    assert abs(chi.entry(ii, ii) - 0.787298334620742) < 1e-14
    assert abs(chi.entry(zi, zi) - 0.012701665379258) < 1e-14
    assert abs(chi.entry(ii, zi) - 0.1) < 1e-14
    assert abs(chi.entry(zi, ii) - 0.1) < 1e-14
    assert abs(chi.entry(xi, xi) - 0.1) < 1e-14
    assert abs(chi.entry(yi, yi) - 0.1) < 1e-14
    assert abs(chi.entry(xi, yi) - (-0.1j)) < 1e-14
    assert abs(chi.entry(yi, xi) - 0.1j) < 1e-14
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
            direct = sum(k @ rho @ k.conj().T for k in chan.kraus)
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
