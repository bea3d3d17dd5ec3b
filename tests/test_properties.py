"""Property tests over random configurations, seeds and noise."""

import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcqd.analysis import (
    _SWEEP_STREAM_TAG,
    SEVERE_NEGATIVE_EIG,
    channel_fidelity_vs_theory,
    failure_oracle,
)
from dcqd.channels import (
    QuantumChannel,
    amplitude_damping,
    apply,
    channel_from_spec,
    compose,
    depolarizing,
    pauli_unitary_channel,
)
from dcqd.codes import build_s0, build_s1, syndrome_of_error
from dcqd.config import SCENARIOS, ExperimentConfig
from dcqd.pauli import commutes, multiply, parse_pauli
from dcqd.process_matrix import BASIS_INDEX, ProcessMatrix
from dcqd.protocol import (
    _syndrome_probs,
    characterize,
    estimate_offdiagonal,
    prepare_probe,
    resolve_scenario,
    run_setting,
    setting_distribution,
    standard_settings,
)
from dcqd.rng import sample_counts
from dcqd.states import DensityMatrix
from oracles import (
    apply_channel,
    dense_kraus,
    dense_setting_distribution,
    dense_syndrome_probs,
    eigh_channel_fidelity,
    kraus_chi,
)

# few, fixed examples: each one runs real characterizations
FEW = settings(max_examples=6, deadline=None, derandomize=True, database=None)

strengths = st.floats(0.0, 1.0, allow_nan=False)
# full-register Pauli letters, cut to the code's length
paulis = st.text("IXYZ", min_size=6, max_size=6)
# the codes whose codeword probe lives on n qubits
PROBE_CODES = {4: build_s0, 6: build_s1}


@lru_cache(maxsize=None)
def oracle_of(build):
    return failure_oracle(build())


@pytest.mark.filterwarnings("ignore:clamping severely negative")
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(
    scenario=st.sampled_from(tuple(SCENARIOS)),
    shots=st.sampled_from((200, 1000, 5000, 20_000)),
    seed=st.integers(0, 2**31),
)
def test_channel_fidelity_lies_in_unit_interval(scenario, shots, seed):
    config = ExperimentConfig(scenario=scenario, shots=shots, seed=seed)
    value = channel_fidelity_vs_theory(characterize(config).chi, config.gamma)
    assert -1e-12 <= value <= 1.0 + 1e-12


# eigenvalue ranges (lam_-, lam_+) of each branch of the closed-form score,
# kept 1e-9 off the branch edges so rounding cannot move a draw across
SCORE_BRANCHES = {
    "no clamp": ((1e-9, 0.5), (1e-9, 0.5)),
    "trace above one": ((1e-9, 0.75), (0.5 + 1e-9, 1.5)),
    "clamp, mild": ((-SEVERE_NEGATIVE_EIG + 1e-9, -1e-9), (1e-9, 1.5)),
    "clamp, severe": ((-1.0, -SEVERE_NEGATIVE_EIG - 1e-9), (1e-9, 1.5)),
    "both at most zero": ((-1.5, -1e-9), (-1.5, -1e-9)),
}


@pytest.mark.parametrize("branch", SCORE_BRANCHES)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    theta=st.floats(0.0, np.pi),
    phi=st.floats(0.0, 2.0 * np.pi),
    gamma=st.floats(0.0, 1.0),
)
def test_closed_form_fidelity_matches_the_lapack_score(branch, data, theta, phi, gamma):
    (lo_min, lo_max), (hi_min, hi_max) = SCORE_BRANCHES[branch]
    lo = data.draw(st.floats(lo_min, lo_max), label="lam_-")
    hi = data.draw(st.floats(max(hi_min, lo), hi_max), label="lam_+")
    if branch == "trace above one":
        hi = max(hi, 1.0 + 1e-9 - lo)
    # the output lam_+ |v><v| + lam_- |w><w|, placed in chi so that the
    # single-qubit block maps |0><0| to it: I|0> = |0> and X|0> = |1>
    v = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    w = np.array([-np.exp(-1j * phi) * np.sin(theta / 2), np.cos(theta / 2)])
    out = hi * np.outer(v, v.conj()) + lo * np.outer(w, w.conj())
    ii, xi = BASIS_INDEX["II"], BASIS_INDEX["XI"]
    chi = np.zeros((16, 16), dtype=np.complex128)
    chi[ii, ii], chi[xi, xi] = out[0, 0].real, out[1, 1].real
    chi[ii, xi], chi[xi, ii] = out[0, 1], np.conj(out[0, 1])
    chi = ProcessMatrix(chi)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = channel_fidelity_vs_theory(chi, gamma)
    reference = eigh_channel_fidelity(chi, gamma)
    # the score squared is c_00 / max(1, tr c) of an output whose entries
    # are at most 1.5: a few rounded steps in the closed form, a backward
    # stable eigh, two 2x2 products and an SVD in the reference, each off
    # by a few eps; 20,000 random draws differed by at most 1.2e-15, and
    # a wrong branch formula moves it by far more than 1e-14 (the score
    # itself can differ by 1e-13 where it is near zero, through the root)
    assert 0.0 <= value <= 1.0
    assert abs(value**2 - reference**2) <= 1e-14
    if branch == "both at most zero":
        assert value == reference == 0.0
    assert bool(caught) == (lo < -SEVERE_NEGATIVE_EIG)
    assert all("severely negative" in str(c.message) for c in caught)


@st.composite
def monomial_channels(draw):
    """A random damping/depolarizing list on 1-6 qubits, sometimes
    composed with a Pauli unitary on either side."""
    n = draw(st.integers(1, 6))
    entry = st.fixed_dictionaries(
        {
            "type": st.sampled_from(("amplitude_damping", "depolarizing")),
            "site": st.integers(1, n),
            "parameter": strengths,
        }
    )
    channel = channel_from_spec(draw(st.lists(entry, max_size=3)), n)
    side = draw(st.sampled_from(("none", "before", "after")))
    if side != "none":
        unitary = pauli_unitary_channel(parse_pauli(draw(st.text("IXYZ", min_size=n, max_size=n))))
        channel = compose(channel, unitary) if side == "before" else compose(unitary, channel)
    return channel


def sparse_mixture(rng, n):
    """A random mixture of up to three pure states with 1-4 nonzero amplitudes each."""
    dim = 2 ** n
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for w in rng.dirichlet(np.ones(rng.integers(1, 4))):
        psi = np.zeros(dim, dtype=np.complex128)
        live = rng.choice(dim, size=rng.integers(1, min(dim, 4) + 1), replace=False)
        psi[live] = rng.normal(size=len(live)) + 1j * rng.normal(size=len(live))
        psi /= np.linalg.norm(psi)
        rho += w * np.outer(psi, psi.conj())
    return DensityMatrix(n, rho / np.trace(rho).real)


def full_rank_state(rng, n):
    dim = 2 ** n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(n, rho / np.trace(rho).real)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(channel=monomial_channels(), seed=st.integers(0, 2**32 - 1))
def test_channel_apply_matches_dense_kraus_oracle(channel, seed):
    rng = np.random.default_rng(seed)
    states = [sparse_mixture(rng, channel.n), full_rank_state(rng, channel.n)]
    if channel.n in PROBE_CODES:
        states.append(prepare_probe(PROBE_CODES[channel.n]()))
    kraus = dense_kraus(channel)
    for rho in states:
        # apply leaves out only exact-zero terms and adds the rest in
        # operator order, as the dense sum does
        assert np.array_equal(apply(channel, rho).data, apply_channel(rho, kraus).data)


@FEW
@given(scenario=st.sampled_from(("s0_noisy", "s1_noisy")), gamma=strengths, p=strengths)
def test_scenario_channel_on_the_probe_matches_dense_kraus_oracle(scenario, gamma, p):
    code, channel = resolve_scenario(ExperimentConfig(scenario=scenario, gamma=gamma, p=p))
    probe = prepare_probe(code)
    assert np.array_equal(apply(channel, probe).data, apply_channel(probe, dense_kraus(channel)).data)


def noisy_probe(code, gamma, p):
    """The probe after damping gamma on the principal qubit and
    depolarizing p on every ancilla."""
    entries = [{"type": "amplitude_damping", "site": 1, "parameter": gamma}]
    entries += [{"type": "depolarizing", "site": s, "parameter": p} for s in sorted(code.ancilla_sites)]
    return apply(channel_from_spec(entries, code.n), prepare_probe(code))


@FEW
@given(code=st.sampled_from((build_s0, build_s1)), gamma=strengths, p=strengths)
def test_setting_distributions_are_probability_vectors(code, gamma, p):
    code = code()
    rho = noisy_probe(code, gamma, p)
    for op in standard_settings():
        _, probs = setting_distribution(rho, op, code)
        assert probs.min() >= 0.0
        assert abs(probs.sum() - 1.0) < 1e-10


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(code=st.sampled_from((build_s0, build_s1)), gamma=strengths, p=strengths)
def test_setting_distribution_matches_dense_einsum_bit_for_bit(code, gamma, p):
    code = code()
    rho = noisy_probe(code, gamma, p)
    for op in standard_settings():
        outcomes, probs = setting_distribution(rho, op, code)
        want_outcomes, want = dense_setting_distribution(rho, op, code)
        assert outcomes == want_outcomes
        assert probs.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(build=st.sampled_from((build_s0, build_s1)), seed=st.integers(0, 2**32 - 1))
def test_syndrome_probs_match_dense_einsum_on_random_states(build, seed):
    # dense states that share no structure with the codeword
    code = build()
    dim = 2 ** code.n
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    assert _syndrome_probs(rho, code).tobytes() == dense_syndrome_probs(rho, code).tobytes()


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(build=st.sampled_from((build_s0, build_s1)), seed=st.integers(0, 2**32 - 1))
def test_projective_settings_match_dense_products_on_random_states(build, seed):
    # the index arithmetic of the P settings against the dense sandwich
    # (1 +- F) rho (1 +- F)/4, on states with no codeword structure
    code = build()
    rho = full_rank_state(np.random.default_rng(seed), code.n)
    for op in standard_settings()[16:]:
        outcomes, probs = setting_distribution(rho, op, code)
        want_outcomes, want = dense_setting_distribution(rho, op, code)
        assert outcomes == want_outcomes == (1, -1)
        assert probs.tobytes() == want.tobytes(), op.label


def clean_two_qubit_channel(n, gammas, phases, p):
    """Damping on both principal qubits, a diagonal two-qubit phase gate,
    CNOT 1 -> 2, then depolarizing on qubit 2: every chi entry can be
    nonzero, and no ancilla is touched."""
    rows = np.arange(2 ** n)
    top = rows >> (n - 2)
    phase = QuantumChannel(n, rows[None, :], np.exp(1j * np.asarray(phases))[top][None, :], "phase")
    cnot = QuantumChannel(n, (rows ^ ((top >> 1) << (n - 2)))[None, :], np.ones((1, 2 ** n)), "cnot")
    channel = compose(amplitude_damping(gammas[1], 2, n), amplitude_damping(gammas[0], 1, n))
    for step in (phase, cnot, depolarizing(p, 2, n)):
        channel = compose(step, channel)
    return channel


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(
    build=st.sampled_from((build_s0, build_s1)),
    gammas=st.tuples(strengths, strengths),
    phases=st.lists(st.floats(-np.pi, np.pi), min_size=4, max_size=4),
    p=strengths,
)
def test_exact_chi_of_a_clean_two_qubit_channel_is_its_kraus_projection(build, gammas, phases, p):
    # every chi entry against truth from outside the estimator, not just
    # the {II, XI, YI, ZI} corner a channel on qubit 1 fills; the exact
    # backend only rounds, so 1e-12 leaves room for about 1e4 ulps
    code = build()
    channel = clean_two_qubit_channel(code.n, gammas, phases, p)
    rho = apply(channel, prepare_probe(code))
    hists = tuple(run_setting(code, channel, op, 1, 0, "exact", rho) for op in standard_settings())
    chi = estimate_offdiagonal(hists, code).data
    # each Kraus operator is k_a (x) identity: read k_a off the ancilla-zero block
    stride = 2 ** (code.n - 2)
    kraus = dense_kraus(channel)[:, ::stride, ::stride]
    assert np.max(np.abs(chi - kraus_chi(kraus))) < 1e-12


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(build=st.sampled_from((build_s0, build_s1)), a=paulis, b=paulis)
def test_syndrome_is_linear_and_detector_bits_read_the_prefix(build, a, b):
    code = build()
    ea, eb = parse_pauli(a[: code.n]), parse_pauli(b[: code.n])
    syn = syndrome_of_error(code, ea)
    assert syndrome_of_error(code, multiply(ea, eb)) == syn ^ syndrome_of_error(code, eb)
    assert 0 <= syn < 2**code.r
    prefix = code.generators[: code.detection_prefix]
    assert (code.detector_bits(syn) == 0) == all(commutes(ea, g) for g in prefix)
    assert code.detector_bits(np.array([syn]))[0] == code.detector_bits(syn)


@FEW
@given(scenario=st.sampled_from(tuple(SCENARIOS)), gamma=strengths, p=strengths)
def test_exact_chi_is_hermitian_with_unit_trace(scenario, gamma, p):
    config = ExperimentConfig(scenario=scenario, gamma=gamma, p=p, shots=1, backend="exact")
    chi = characterize(config).chi.data
    assert np.array_equal(chi, chi.conj().T)
    assert abs(np.trace(chi) - 1.0) < 1e-10


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    build=st.sampled_from((build_s0, build_s1)),
    p=strengths,
    shots=st.integers(1, 10**15),
    seed=st.integers(0, 2**31),
)
def test_failure_sweep_classes_partition_the_shots(build, p, shots, seed):
    oracle = oracle_of(build)
    probs = oracle.class_probabilities(p)
    assert probs.min() >= 0.0
    assert abs(probs.sum() - 1.0) < 1e-12
    # stabilizer plus impostor mass is the enumerated failure polynomial
    assert abs(probs[2] + probs[3] - oracle.analytic_failure_rate(p)) < 1e-15
    counts = sample_counts(probs, shots, seed, _SWEEP_STREAM_TAG, 0)
    assert counts.sum() == shots
    assert np.all(counts[probs == 0.0] == 0)
