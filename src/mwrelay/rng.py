"""Deterministic counter-based random streams.

Every random draw in this package comes from a named substream derived
from a master seed plus a path of labels (strings or integers).  Streams
are independent Philox generators, so results do not depend on the order
in which streams are consumed or on how work is split into batches.
"""

from __future__ import annotations

import zlib

import numpy as np


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
