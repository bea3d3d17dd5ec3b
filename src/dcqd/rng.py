"""Deterministic random streams from key-derived counter-mode generators.

Every draw is a pure function of an integer scope tuple, never of
execution order.  Both sampled jobs draw through :func:`sample_counts`:
a measurement setting draws all of its shots as one multinomial from a
Philox generator keyed by (seed, setting), and a failure-sweep point
draws its shot classes from one keyed by (seed, sweep tag, point), so a
histogram or a sweep row is a pure function of the config.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BLOCK_SHOTS",
    "sample_counts",
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


def sample_counts(probs: np.ndarray, shots: int, *scope: int) -> np.ndarray:
    """Counts of ``shots`` categorical draws over ``probs``, one multinomial.

    The draw comes from the scope's stream, and only the bins with
    positive mass enter it.  The last bin of a multinomial takes whatever
    the others leave, so a trailing zero bin could otherwise pick up a
    shot through rounding in the conditional ratios; this way a
    zero-probability outcome is never counted.
    """
    support = np.flatnonzero(probs)
    mass = probs[support]
    counts = np.zeros(probs.size, dtype=np.int64)
    counts[support] = scoped_generator(*scope).multinomial(shots, mass / mass.sum())
    return counts
