"""The package's randomness: named Philox streams and one counter-based hash.

``stream`` gives an independent Philox generator for a master seed and a
path of labels.  A Monte Carlo call takes one 64-bit run key from it, and
each of its draws is a pure function of (key, trial, position): ``seed``
hashes labels into the key with SplitMix64 (Steele, Lea and Flood,
OOPSLA'14) and ``uniforms`` reads a seed's counter sequence (Salmon et al.,
SC'11).  uint64 arithmetic stays on arrays, which wrap silently: under
numpy < 2 a uint64 scalar mixed with a Python int turns into float64.
"""

from __future__ import annotations

import zlib

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = tuple(np.uint64(c) for c in (30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31))


def _splitmix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function, a bijection of uint64 arrays."""
    s1, m1, s2, m2, s3 = _MIX
    z = z ^ (z >> s1)
    z *= m1
    z ^= z >> s2
    z *= m2
    z ^= z >> s3
    return z


def seed(key, *labels) -> np.ndarray:
    """z <- SplitMix64(z + gamma (c + 1)) from z = key, for each integer label c in turn.

    Labels are ints or integer arrays; given one, the seeds are a uint64 array of
    their broadcast shape, at least 1-D.  seed(seed(key, t), b) is seed(key, t, b).
    """
    z = np.asarray(key, dtype=np.uint64)
    for c in labels:
        z = _splitmix(z + _GAMMA * (np.array(c, dtype=np.uint64, ndmin=1) + np.uint64(1)))
    return z


def uniforms(seeds: np.ndarray, count: int) -> np.ndarray:
    """Outputs 1..count of each seed's SplitMix64 sequence as m 2^-53, m their top 53 bits.

    (...) uint64 seeds -> (..., count) floats in [0, 1), each exact.
    """
    counters = _GAMMA * np.arange(1, count + 1, dtype=np.uint64)
    z = _splitmix(np.asarray(seeds, dtype=np.uint64)[..., None] + counters)
    return (z >> np.uint64(11)) * 2.0**-53


def _path_key(component: int | str) -> int:
    if isinstance(component, str):
        return zlib.crc32(component.encode("utf-8"))
    if isinstance(component, (int, np.integer)):
        # SeedSequence splits wider ints into 32-bit words, which would
        # alias multi-component paths, so only one word is accepted.
        if not 0 <= component < 2**32:
            raise ValueError(f"stream path integers must lie in [0, 2**32), got {component}")
        return int(component)
    raise TypeError(f"stream path components must be int or str, got {type(component)!r}")


def stream(master_seed: int, *path: int | str) -> np.random.Generator:
    """Return the generator for the substream named by ``path``.

    The same (master_seed, path) always yields an identical generator,
    and distinct paths yield statistically independent streams.
    """
    key = tuple(_path_key(c) for c in path)
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))
