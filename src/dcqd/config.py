"""Experiment configuration: validation, merging, canonical hashing."""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import asdict, dataclass

__all__ = [
    "SCENARIOS",
    "BACKENDS",
    "DEFAULTS",
    "ConfigError",
    "ExperimentConfig",
    "load_config_file",
    "merge_settings",
    "settings_hash",
]

# the noise scenarios a characterization run can resolve
SCENARIOS = ("clean", "s0_noisy", "s1_noisy", "s1_clean")
BACKENDS = ("sampling", "exact")

DEFAULTS = {
    "scenario": "s1_noisy",
    "gamma": 0.4,
    "p": 0.1,
    "shots": 100_000,
    "seed": 1234,
    "backend": "sampling",
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = DEFAULTS["scenario"]
    gamma: float = DEFAULTS["gamma"]
    p: float = DEFAULTS["p"]
    shots: int = DEFAULTS["shots"]
    seed: int = DEFAULTS["seed"]
    backend: str = DEFAULTS["backend"]

    def __post_init__(self):
        for name, integral in (("gamma", False), ("p", False), ("shots", True), ("seed", True)):
            value = getattr(self, name)
            # bool is an int subclass, and int(2.7) would silently truncate
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
            if integral and not (isinstance(value, numbers.Integral) or float(value).is_integer()):
                raise ConfigError(f"{name} must be a whole number, got {value!r}")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"p must lie in [0, 1], got {self.p}")
        if int(self.shots) < 1:
            raise ConfigError(f"shots must be positive, got {self.shots}")
        if int(self.seed) < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.backend not in BACKENDS:
            raise ConfigError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "shots", int(self.shots))
        object.__setattr__(self, "seed", int(self.seed))

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        """Short digest of the canonical JSON form, stamped on outputs."""
        return settings_hash(self.to_dict())


def settings_hash(values: dict) -> str:
    """Short digest of the canonical JSON form of ``values``."""
    canonical = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(doc) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return doc


def merge_settings(file_values: dict | None, cli_values: dict | None) -> ExperimentConfig:
    """Defaults, overridden by the config file, overridden by CLI flags.

    CLI values equal to None mean "flag not given" and are skipped.
    """
    merged = dict(DEFAULTS)
    if file_values:
        unknown = set(file_values) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_values)
    if cli_values:
        for key, value in cli_values.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            if value is not None:
                merged[key] = value
    return ExperimentConfig(**merged)
