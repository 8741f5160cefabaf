import numpy as np
import pytest

from mwrelay.rng import stream


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
