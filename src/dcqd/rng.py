"""Deterministic uniform variates from key-derived counter-mode streams.

Every variate is a pure function of an integer scope tuple, never of
execution order.  Shots are grouped into fixed blocks of 2**16; block b
of a measurement setting draws its uniforms from a Philox generator
keyed by (seed, setting, b), so a histogram is a pure function of the
config.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BLOCK_SHOTS",
    "derive_key",
    "scoped_generator",
    "block_uniforms",
]

BLOCK_SHOTS = 1 << 16

_MASK = (1 << 64) - 1


def _splitmix64(state: int) -> int:
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_key(*scope: int) -> np.ndarray:
    """Two 64-bit key words mixed from an integer scope tuple."""
    acc = 0x243F6A8885A308D3  # arbitrary nonzero start
    for part in scope:
        acc = _splitmix64(acc ^ (int(part) & _MASK))
    hi = _splitmix64(acc)
    lo = _splitmix64(hi)
    return np.array([acc ^ hi, lo], dtype=np.uint64)


def scoped_generator(*scope: int) -> np.random.Generator:
    """Fresh counter-mode generator for a scope; same scope, same stream."""
    return np.random.Generator(np.random.Philox(key=derive_key(*scope)))


def block_uniforms(seed: int, setting_key: int, block_index: int, count: int) -> np.ndarray:
    """The first ``count`` uniforms of the (seed, setting, block) stream."""
    if count < 0 or count > BLOCK_SHOTS:
        raise ValueError(f"count must lie in 0..{BLOCK_SHOTS}, got {count}")
    return scoped_generator(seed, setting_key, block_index).random(count)
