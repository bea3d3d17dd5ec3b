"""Property tests over random configurations, elements, seeds and noise."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcqd.analysis import channel_fidelity_vs_theory
from dcqd.channels import apply, channel_from_spec
from dcqd.codes import build_s0, build_s1
from dcqd.config import CODE_SCENARIOS, ExperimentConfig
from dcqd.protocol import (
    characterize,
    partial_characterize,
    prepare_probe,
    setting_distribution,
    standard_settings,
)

# few, fixed examples: each one runs real characterizations
FEW = settings(max_examples=6, deadline=None, derandomize=True, database=None)

elements = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=4
)
strengths = st.floats(0.0, 1.0, allow_nan=False)


@lru_cache(maxsize=None)
def full_chi(config: ExperimentConfig) -> np.ndarray:
    return characterize(config).chi.data


@pytest.mark.filterwarnings("ignore:clamping severely negative")
@pytest.mark.parametrize(
    "backend, shots", [("exact", 1), ("sampling", 2000)], ids=["exact", "sampling"]
)
@FEW
@given(scenario=st.sampled_from(("s0_noisy", "s1_noisy")), pairs=elements)
def test_partial_equals_full_bit_for_bit(backend, shots, scenario, pairs):
    config = ExperimentConfig(scenario=scenario, shots=shots, seed=3, backend=backend)
    partial = partial_characterize(config, pairs)
    chi = full_chi(config)
    for m, n in pairs:
        assert partial[(m, n)] == chi[m, n]


@pytest.mark.filterwarnings("ignore:clamping severely negative")
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(
    scenario=st.sampled_from(CODE_SCENARIOS),
    shots=st.sampled_from((200, 1000, 5000, 20_000)),
    seed=st.integers(0, 2**31),
)
def test_channel_fidelity_lies_in_unit_interval(scenario, shots, seed):
    config = ExperimentConfig(scenario=scenario, shots=shots, seed=seed)
    value = channel_fidelity_vs_theory(characterize(config).chi, config.gamma).value
    assert -1e-12 <= value <= 1.0 + 1e-12


@FEW
@given(code=st.sampled_from((build_s0, build_s1)), gamma=strengths, p=strengths)
def test_setting_distributions_are_probability_vectors(code, gamma, p):
    code = code()
    entries = [{"type": "amplitude_damping", "site": 1, "parameter": gamma}]
    entries += [{"type": "depolarizing", "site": s, "parameter": p} for s in sorted(code.ancilla_sites)]
    rho = apply(channel_from_spec(entries, code.n), prepare_probe(code))
    for op in standard_settings():
        _, probs = setting_distribution(rho, op, code)
        assert probs.min() >= 0.0
        assert abs(probs.sum() - 1.0) < 1e-10


@FEW
@given(scenario=st.sampled_from(CODE_SCENARIOS), gamma=strengths, p=strengths)
def test_exact_chi_is_hermitian_with_unit_trace(scenario, gamma, p):
    config = ExperimentConfig(scenario=scenario, gamma=gamma, p=p, shots=1, backend="exact")
    chi = characterize(config).chi.data
    assert np.array_equal(chi, chi.conj().T)
    assert abs(np.trace(chi) - 1.0) < 1e-10
