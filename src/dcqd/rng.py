"""Deterministic random streams from key-derived counter-mode generators.

Every draw is a pure function of an integer scope tuple, never of
execution order.  A measurement setting draws all of its shots as one
multinomial from a Philox generator keyed by (seed, setting), so a
histogram is a pure function of the config.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BLOCK_SHOTS",
    "derive_key",
    "scoped_generator",
]

# no draw uses it; perfbench/run.py imports it for its computed rng.blocks count
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

