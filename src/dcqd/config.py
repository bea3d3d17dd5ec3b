"""Experiment configuration: validation and canonical hashing."""

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
    "settings_hash",
]

# scenario -> (code, whether each ancilla qubit is depolarized with strength p)
SCENARIOS = {
    "clean": ("s0", False),
    "s0_noisy": ("s0", True),
    "s1_noisy": ("s1", True),
    "s1_clean": ("s1", False),
}
BACKENDS = ("sampling", "exact")

# the multinomial sampler takes shots as a C long, and the random streams
# keep 64 bits of each scope part, so a larger seed would alias a smaller one
_MAX_SHOTS = 2**63 - 1
_MAX_SEED = 2**64 - 1


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = "s1_noisy"
    gamma: float = 0.4
    p: float = 0.1
    shots: int = 100_000
    seed: int = 1234
    backend: str = "sampling"

    def __post_init__(self):
        for name, integral in (("gamma", False), ("p", False), ("shots", True), ("seed", True)):
            value = getattr(self, name)
            # bool is an int subclass, and int(2.7) would silently truncate
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
            if integral and not (isinstance(value, numbers.Integral) or float(value).is_integer()):
                raise ConfigError(f"{name} must be a whole number, got {value!r}")
        # a JSON list or object is unhashable, so test membership by equality
        if self.scenario not in tuple(SCENARIOS):
            raise ConfigError(f"scenario must be one of {tuple(SCENARIOS)}, got {self.scenario!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"p must lie in [0, 1], got {self.p}")
        if not 1 <= int(self.shots) <= _MAX_SHOTS:
            raise ConfigError(f"shots must lie in [1, 2^63 - 1], got {self.shots}")
        if not 0 <= int(self.seed) <= _MAX_SEED:
            raise ConfigError(f"seed must lie in [0, 2^64 - 1], got {self.seed}")
        if self.backend not in BACKENDS:
            raise ConfigError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        # + 0.0 turns -0.0 into 0.0, which would otherwise hash as another run
        object.__setattr__(self, "gamma", float(self.gamma) + 0.0)
        object.__setattr__(self, "p", float(self.p) + 0.0)
        object.__setattr__(self, "shots", int(self.shots))
        object.__setattr__(self, "seed", int(self.seed))

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        """Short digest of the canonical JSON form, stamped on outputs."""
        return settings_hash(self.to_dict())


DEFAULTS = ExperimentConfig().to_dict()


def settings_hash(values: dict) -> str:
    """Short digest of the canonical JSON form of ``values``."""
    canonical = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _object_without_repeats(pairs) -> dict:
    # json.loads keeps the last of a repeated key, so {"shots": 2000,
    # "shots": 3000} would run 3000 shots without a word
    keys = [key for key, _ in pairs]
    repeated = sorted({key for key in keys if keys.count(key) > 1})
    if repeated:
        raise ConfigError(f"repeats the keys {repeated}")
    return dict(pairs)


def load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_object_without_repeats)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"config file {path} {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc
