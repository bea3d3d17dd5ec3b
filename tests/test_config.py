"""Unit tests for configuration validation, merging, and hashing."""

import json

import pytest

from dcqd.config import (
    BACKENDS,
    DEFAULTS,
    ConfigError,
    ExperimentConfig,
    SCENARIOS,
    load_config_file,
    merge_settings,
)


def test_defaults_are_valid():
    config = ExperimentConfig()
    assert config.scenario == DEFAULTS["scenario"]
    assert config.shots == DEFAULTS["shots"]
    assert config.to_dict() == DEFAULTS


def test_scenario_vocabulary():
    assert set(SCENARIOS) == {"clean", "s0_noisy", "s1_noisy", "s1_clean"}
    assert BACKENDS == ("sampling", "exact")


@pytest.mark.parametrize("scenario", ["table", "failure_sweep"])
def test_subcommand_tags_are_not_scenarios(scenario):
    # no subcommand records these tags any more, so no config may carry them
    with pytest.raises(ConfigError, match="scenario"):
        ExperimentConfig(scenario=scenario)


def test_validation_messages_name_the_field():
    cases = [
        (dict(gamma=1.5), "gamma"),
        (dict(p=-0.2), "p"),
        (dict(shots=0), "shots"),
        (dict(seed=-1), "seed"),
        (dict(backend="guess"), "backend"),
        (dict(scenario="mystery"), "scenario"),
    ]
    for overrides, field in cases:
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(**overrides)
        assert field in str(info.value)


def test_numeric_coercion():
    config = ExperimentConfig(shots=5000.0, gamma=0, seed=2.0)
    assert config.shots == 5000 and isinstance(config.shots, int)
    assert config.gamma == 0.0 and isinstance(config.gamma, float)
    assert config.seed == 2 and isinstance(config.seed, int)


def test_config_hash_stable_and_sensitive():
    a = ExperimentConfig()
    b = ExperimentConfig()
    assert a.config_hash() == b.config_hash()
    assert len(a.config_hash()) == 12
    c = ExperimentConfig(seed=4321)
    assert c.config_hash() != a.config_hash()


def test_merge_precedence():
    config = merge_settings({"shots": 5000, "seed": 9}, {"shots": 2000, "gamma": None})
    assert config.shots == 2000  # CLI beats file
    assert config.seed == 9  # file beats defaults
    assert config.gamma == DEFAULTS["gamma"]  # None means flag absent


def test_merge_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        merge_settings({"shotz": 10}, None)
    with pytest.raises(ConfigError):
        merge_settings(None, {"verbosity": 3})
    # sampling runs single-threaded; there is no worker count to set
    with pytest.raises(ConfigError):
        merge_settings({"workers": 4}, None)


def test_load_config_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"scenario": "clean", "shots": 777}))
    assert load_config_file(path) == {"scenario": "clean", "shots": 777}
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(ConfigError):
        load_config_file(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config_file(arr)
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"volume": 11}))
    with pytest.raises(ConfigError):
        load_config_file(extra)


def test_config_is_immutable():
    config = ExperimentConfig()
    with pytest.raises(Exception):
        config.shots = 5
