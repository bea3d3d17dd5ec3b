"""Unit tests for fidelity, failure-rate accounting, and report helpers."""

import math
from fractions import Fraction

import numpy as np
import pytest

from dcqd.analysis import (
    FailureOracle,
    binomial_weight_probability,
    channel_fidelity_vs_theory,
    chi_distance_report,
    failure_oracle,
    failure_rate_experiment,
    loglog_slope,
    apply_single_qubit_block,
)
from dcqd.channels import apply, channel_from_spec, theoretical_chi_ad
from dcqd.codes import build_s0, build_s1, codeword_state
from dcqd.config import ExperimentConfig
from dcqd.process_matrix import BASIS_INDEX, ProcessMatrix
from dcqd.protocol import characterize, estimate_offdiagonal, prepare_probe, run_setting, standard_settings
from dcqd.states import DensityMatrix, InvalidStateError
from oracles import basis_state, fidelity, to_matrix, xor_failure_tallies


def test_fidelity_identical_states():
    rho = basis_state(1, 0)
    assert abs(fidelity(rho, rho) - 1.0) < 1e-12


def test_fidelity_orthogonal_states():
    assert fidelity(basis_state(1, 0), basis_state(1, 1)) < 1e-8


def test_fidelity_zero_vs_plus():
    plus = DensityMatrix(1, np.full((2, 2), 0.5, dtype=complex))
    f = fidelity(basis_state(1, 0), plus)
    assert abs(f - 1 / np.sqrt(2)) < 1e-10


def test_fidelity_symmetric(rng):
    for _ in range(5):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = a @ a.conj().T
        a /= np.trace(a).real
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = b @ b.conj().T
        b /= np.trace(b).real
        ra, rb = DensityMatrix(1, a), DensityMatrix(1, b)
        assert abs(fidelity(ra, rb) - fidelity(rb, ra)) < 1e-10


def test_fidelity_rejects_severely_negative_input():
    # no DensityMatrix holds this, so hand the raw array in
    bad = np.diag([1.5, -0.5]).astype(complex)
    good = basis_state(1, 0)
    with pytest.raises(InvalidStateError):
        fidelity(bad, good)


def test_binomial_weight_probability():
    assert abs(binomial_weight_probability(0.1, 0, 4) - 0.6561) < 1e-12
    assert abs(binomial_weight_probability(0.1, 3, 4) - 4 * 0.001 * 0.9) < 1e-12
    assert abs(binomial_weight_probability(0.1, 3, 4) - 0.0036) < 1e-12
    total = sum(binomial_weight_probability(0.3, j, 4) for j in range(5))
    assert abs(total - 1.0) < 1e-12
    # weight-1 of the standard grid point
    assert abs(binomial_weight_probability(0.1, 1, 4) - 0.2916) < 1e-12


def test_failure_oracle_frozen_counts():
    oracle = failure_oracle()
    assert oracle.ancilla_size == 4
    assert oracle.tallies == ((12, 0, 0), (36, 0, 18), (84, 0, 24), (60, 3, 18))
    assert oracle.failure_coefficients == (
        Fraction(0), Fraction(1, 3), Fraction(2, 9), Fraction(7, 27)
    )


def test_failure_oracle_partition_complete():
    # the three classes partition each weight class of the 4^a - 1
    # non-identity ancilla patterns
    for code in (build_s0(), build_s1()):
        oracle = failure_oracle(code)
        a = len(code.ancilla_sites)
        assert oracle.ancilla_size == a
        for w, row in enumerate(oracle.tallies, 1):
            assert sum(row) == 3**w * math.comb(a, w)
        assert sum(map(sum, oracle.tallies)) == 4**a - 1


def test_weight4_stabilizers_act_trivially():
    # the three undetected weight-4 errors with zero syndrome must fix the
    # codeword up to global phase; check them densely
    code = build_s1()
    from dcqd.analysis import _ancilla_operator
    from dcqd.codes import syndrome_of_error
    from itertools import product as iproduct

    psi = codeword_state(code)
    sites = tuple(sorted(code.ancilla_sites))
    found = 0
    for letters in iproduct("XYZ", repeat=4):
        op = _ancilla_operator(code, sites, letters)
        syn = syndrome_of_error(code, op)
        if syn == 0:
            found += 1
            image = to_matrix(op) @ psi
            overlap = np.vdot(psi, image)
            assert abs(abs(overlap) - 1.0) < 1e-10
    assert found == 3


@pytest.mark.parametrize("build", [build_s0, build_s1], ids=["s0", "s1"])
def test_oracle_tallies_match_syndrome_xor_classification(build):
    # the sweep draws its classes from these tallies, so they are checked
    # against an independent classification of all 4^a ancilla patterns
    code = build()
    oracle = failure_oracle(code)
    assert dict(enumerate(oracle.tallies, 1)) == xor_failure_tallies(code)


def test_analytic_failure_rate_frozen_value():
    oracle = failure_oracle()
    assert abs(oracle.analytic_failure_rate(0.1) - 0.017025925925925927) < 1e-15
    assert oracle.analytic_failure_rate(0.0) == 0.0


def test_s0_has_no_filter():
    oracle = failure_oracle(build_s0())
    # without a detection prefix every non-identity error is undetected
    assert all(detected == 0 for detected, _, _ in oracle.tallies)
    assert oracle.analytic_failure_rate(0.1) > 0.17


def test_failure_rate_experiment_zero_noise():
    (report,) = failure_rate_experiment([0.0], shots=10_000, seed=7)
    assert report.p_identity_syndrome == 1.0
    assert report.delta_p1 == 0.0
    assert report.p_00 == 0.0
    assert report.p_F == 0.0
    assert report.analytic_p_F == 0.0


def test_failure_rate_experiment_full_noise():
    # at p=1 every ancilla site errs, so no shot is error-free: every
    # zero syndrome comes from a stabilizer pattern
    for code in (build_s0(), build_s1()):
        (report,) = failure_rate_experiment([1.0], shots=10_000, seed=7, code=code)
        assert report.p_identity_operator == 0.0
        assert report.p_identity_syndrome == report.delta_p1


def test_failure_rate_experiment_matches_oracle():
    shots = 200_000
    (report,) = failure_rate_experiment([0.1], shots=shots, seed=20240817)
    expected = report.analytic_p_F
    sigma = np.sqrt(expected * (1 - expected) / shots)
    assert abs(report.p_F - expected) < 4 * sigma
    # identity-operator probability is analytic, not sampled
    assert report.p_identity_operator == (1 - 0.1) ** 4
    # accounting identity is exact by construction
    assert report.p_F == report.p_00 + report.delta_p1


def test_failure_rate_experiment_deterministic():
    a = failure_rate_experiment([0.05, 0.2], shots=50_000, seed=11)
    b = failure_rate_experiment([0.05, 0.2], shots=50_000, seed=11)
    for ra, rb in zip(a, b):
        assert ra == rb
    c = failure_rate_experiment([0.05, 0.2], shots=50_000, seed=12)
    assert any(ra != rc for ra, rc in zip(a, c))


def test_failure_rate_experiment_validation():
    with pytest.raises(ValueError):
        failure_rate_experiment([0.5], shots=0, seed=1)
    with pytest.raises(ValueError):
        failure_rate_experiment([1.5], shots=10, seed=1)


@pytest.mark.parametrize(
    "scenario, build, weight",
    [("s0_noisy", build_s0, 1), ("s1_noisy", build_s1, 2)],
    ids=["s0_noisy", "s1_noisy"],
)
def test_chi_error_slope_matches_leading_failure_weight(scenario, build, weight):
    # the rate of filtering follows the code: the leading power of P_F(p)
    # is the smallest weight with a nonzero failure coefficient, which the
    # paper puts at 1 for s0 and 2 for s1, and the exact chi error and
    # infidelity scale with that same power (measured 0.985 and 1.002 for
    # s0, 2.072 and 2.075 for s1); 0.15 leaves room for the higher-order
    # terms up to p = 0.1.  The weight is pinned, not read off the oracle,
    # so an s1 that lost its detectors (weight 1, slopes near 1) fails.
    coefficients = failure_oracle(build()).failure_coefficients
    assert next(w + 1 for w, c in enumerate(coefficients) if c) == weight
    grid = (0.005, 0.01, 0.02, 0.05, 0.1)
    theory = theoretical_chi_ad(0.4)
    errors, infidelities = [], []
    for p in grid:
        config = ExperimentConfig(scenario=scenario, gamma=0.4, p=p, shots=1, backend="exact")
        chi = characterize(config).chi
        errors.append(chi_distance_report(chi, theory).max_abs)
        infidelities.append(1.0 - channel_fidelity_vs_theory(chi, 0.4).value)
    assert abs(loglog_slope(grid, errors) - weight) < 0.15
    assert abs(loglog_slope(grid, infidelities) - weight) < 0.15


@pytest.mark.parametrize("build, weight", [(build_s0, 1), (build_s1, 2)], ids=["s0", "s1"])
def test_chi_error_slope_under_ancilla_damping(build, weight):
    # the filter is not tuned to depolarizing noise: amplitude damping of
    # strength q on every ancilla moves chi away from chi_AD as q for s0
    # and q^2 for s1 (measured 0.999 and 2.030); the failure oracle counts
    # Pauli errors only, so the slopes are asserted directly, with the
    # same 0.15 as the depolarizing check
    code = build()
    grid = (0.005, 0.01, 0.02, 0.05, 0.1)
    theory = theoretical_chi_ad(0.4)
    errors, infidelities = [], []
    for q in grid:
        entries = [{"type": "amplitude_damping", "site": 1, "parameter": 0.4}]
        entries += [{"type": "amplitude_damping", "site": s, "parameter": q} for s in code.ancilla_sites]
        channel = channel_from_spec(entries, code.n)
        rho = apply(channel, prepare_probe(code))
        hists = tuple(run_setting(code, channel, op, 1, 1, "exact", rho) for op in standard_settings())
        chi = estimate_offdiagonal(hists, code)
        errors.append(chi_distance_report(chi, theory).max_abs)
        infidelities.append(1.0 - channel_fidelity_vs_theory(chi, 0.4).value)
    assert abs(loglog_slope(grid, errors) - weight) < 0.15
    assert abs(loglog_slope(grid, infidelities) - weight) < 0.15


def test_loglog_slope_recovers_exponent():
    xs = np.array([0.01, 0.02, 0.04, 0.08])
    for k, scale in ((1.0, 0.3), (2.0, 5.0)):
        ys = scale * xs ** k
        assert abs(loglog_slope(xs, ys) - k) < 1e-12


def test_loglog_slope_requires_positive_data():
    with pytest.raises(ValueError):
        loglog_slope([0.1, 0.2], [0.0, 0.1])
    with pytest.raises(ValueError):
        loglog_slope([0.1], [0.5])


def test_chi_distance_trivial():
    chi = theoretical_chi_ad(0.4)
    report = chi_distance_report(chi, chi)
    assert report.max_abs == 0.0
    assert np.all(report.difference == 0.0)


def test_chi_distance_reports_difference():
    a = theoretical_chi_ad(0.4)
    b = theoretical_chi_ad(0.5)
    report = chi_distance_report(a, b)
    assert report.max_abs > 0.0
    assert np.allclose(report.difference, a.data - b.data)
    assert report.max_abs == np.max(np.abs(report.difference))


def test_single_qubit_block_holds_all_theory_mass():
    chi = theoretical_chi_ad(0.7)
    block = chi.data[:4, :4]
    assert block.shape == (4, 4)
    assert abs(np.trace(block).real - 1.0) < 1e-12
    assert abs(np.abs(chi.data).sum() - np.abs(block).sum()) < 1e-12


def test_apply_single_qubit_block_is_the_damping_map():
    gamma = 0.4
    chi = theoretical_chi_ad(gamma)
    out = apply_single_qubit_block(chi, np.diag([0.0, 1.0]).astype(complex))
    assert np.allclose(out, np.diag([gamma, 1 - gamma]), atol=1e-12)
    ground = apply_single_qubit_block(chi, np.diag([1.0, 0.0]).astype(complex))
    assert np.allclose(ground, np.diag([1.0, 0.0]), atol=1e-12)


def test_channel_fidelity_of_theory_is_one():
    for gamma in (0.1, 0.4, 0.9):
        result = channel_fidelity_vs_theory(theoretical_chi_ad(gamma), gamma)
        assert abs(result.value - 1.0) < 1e-10
        assert result.input_state == "|0><0|"
        assert result.compared[0] == "estimated"


def test_channel_fidelity_penalizes_leaked_mass():
    # push some weight out of the single-qubit block; the unnormalized
    # comparison must report reduced fidelity
    chi = theoretical_chi_ad(0.4).data.copy()
    leak = 0.05
    chi = (1 - leak) * chi
    chi[BASIS_INDEX["XX"], BASIS_INDEX["XX"]] = leak
    result = channel_fidelity_vs_theory(ProcessMatrix(chi), 0.4)
    assert result.value < 1.0 - leak / 4


@pytest.mark.filterwarnings("ignore:clamping severely negative")
def test_channel_fidelity_excess_trace_does_not_lift_score_above_one():
    # a finite-shot chi need not preserve trace; excess output trace must
    # not push the score past one (clean at 1e4 shots, seed 7, has an
    # output trace of about 1.007)
    inflated = ProcessMatrix(1.02 * theoretical_chi_ad(0.4).data)
    assert abs(channel_fidelity_vs_theory(inflated, 0.4).value - 1.0) < 1e-12
    chi = characterize(ExperimentConfig(scenario="clean", shots=10_000, seed=7)).chi
    assert channel_fidelity_vs_theory(chi, 0.4).value <= 1.0 + 1e-12


def test_failure_oracle_is_frozen_dataclass():
    oracle = failure_oracle()
    assert isinstance(oracle, FailureOracle)
    with pytest.raises(AttributeError):
        oracle.ancilla_size = 5
