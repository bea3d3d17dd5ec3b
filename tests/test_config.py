"""Unit tests for configuration validation, merging, file loading, and hashing."""

import json

import pytest

from dcqd.config import (
    BACKENDS,
    DEFAULTS,
    ConfigError,
    ExperimentConfig,
    SCENARIOS,
    load_config_file,
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


def test_largest_shots_and_seed_are_accepted():
    config = ExperimentConfig(shots=2**63 - 1, seed=2**64 - 1)
    assert (config.shots, config.seed) == (2**63 - 1, 2**64 - 1)


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


def test_merge_precedence(tmp_path):
    # the CLI owns merging: flags over the --config file over the defaults
    from dcqd import cli

    path = tmp_path / "c.json"
    path.write_text(json.dumps({"shots": 5000, "seed": 9}))
    args = cli._parser().parse_args(["characterize", "--config", str(path), "--shots", "2000"])
    config = cli._build_config(args)
    assert config.shots == 2000  # CLI beats file
    assert config.seed == 9  # file beats defaults
    assert config.gamma == DEFAULTS["gamma"]  # an absent flag leaves the default


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
    # json.loads alone keeps the last of a repeated key
    twice = tmp_path / "twice.json"
    twice.write_text('{"shots": 2000, "shots": 3000}')
    with pytest.raises(ConfigError, match="repeats the keys"):
        load_config_file(twice)


def test_config_is_immutable():
    config = ExperimentConfig()
    with pytest.raises(Exception):
        config.shots = 5
