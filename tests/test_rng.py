import numpy as np
import pytest

from mwrelay.rng import seed, stream, uniforms

MASK, GAMMA = 2**64 - 1, 0x9E3779B97F4A7C15


def splitmix(z):
    """SplitMix64's output function in Python integers."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK
    return z ^ (z >> 31)


def ref_seed(key, *labels):
    for c in labels:
        key = splitmix((key + GAMMA * (c + 1)) & MASK)
    return key


def ref_uniforms(s, count):
    return [(splitmix((s + GAMMA * (j + 1)) & MASK) >> 11) * 2.0**-53 for j in range(count)]


def philox(seed, *key):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))


def test_paths_in_32_bits_keep_their_streams():
    for path in ((0,), (5,), (2**32 - 1,), (7, 3), (np.int64(9), 1)):
        assert np.array_equal(stream(1, *path).random(8), philox(1, *map(int, path)).random(8))


def test_wide_or_negative_path_integers_are_rejected():
    # masking to 32 bits made these alias stream(1, 5) and stream(1, 2**32 - 1)
    for bad in (5 + 2**32, 2**64, -1, np.int64(-3)):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            stream(1, bad)
    with pytest.raises(TypeError):
        stream(1, 1.5)


def test_distinct_paths_give_distinct_streams():
    draws = {stream(1, *p).random(4).tobytes() for p in ((5,), (5, 0), (0, 5), ("a",), ("a", 5))}
    assert len(draws) == 5


def test_seed_and_uniforms_match_splitmix64_in_python_integers():
    # Under numpy < 2 a uint64 scalar mixed with a Python int turns into
    # float64; these values would then be off in their low bits.
    key, trials = 2**64 - 59, [0, 1, 9, 2**40, 2**63 + 5]
    seeds = seed(np.uint64(key), np.array(trials, dtype=np.uint64))
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [ref_seed(key, t) for t in trials]
    assert seed(seeds, 3, 2**64 - 1).tolist() == [ref_seed(key, t, 3, 2**64 - 1) for t in trials]
    assert seed(key, 7, 3).tolist() == [ref_seed(key, 7, 3)]
    got = uniforms(seeds, 6)
    assert got.shape == (5, 6) and got.dtype == np.float64
    assert got.tolist() == [ref_uniforms(ref_seed(key, t), 6) for t in trials]
    assert uniforms(seeds[:2], 0).shape == (2, 0)
    assert np.all((0 <= got) & (got < 1))
