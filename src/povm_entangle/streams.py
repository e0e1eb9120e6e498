"""Counter-based random streams keyed by a pair of integers.

Every random draw in the package comes from a Philox generator whose key is
(seed, index), so a stream depends on its key alone: runs are reproducible
and independent of the order, chunking or process that draws them.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

_MASK64 = (1 << 64) - 1


def keyed_rng(seed: int, index: int) -> Generator:
    """Philox generator keyed by (seed, index), each reduced to 64 bits."""
    return Generator(Philox(key=np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)))


def keyed_normals(seed: int, indices, size: int) -> np.ndarray:
    """Standard normals, one row of `size` per index.

    Row r equals keyed_rng(seed, indices[r]).standard_normal(size) bit for
    bit.  One Philox serves every row: its state is reset to the key with a
    zero counter and an empty buffer, which is where a new keyed generator
    starts, at a fraction of the cost of building one.
    """
    bitgen = Philox(key=np.zeros(2, dtype=np.uint64))
    gen = Generator(bitgen)
    key = np.array([seed & _MASK64, 0], dtype=np.uint64)
    zero = np.zeros(4, dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": zero, "key": key},
        "buffer": zero,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    out = np.empty((len(indices), size))
    for row, index in zip(out, indices):
        key[1] = int(index) & _MASK64
        bitgen.state = state
        gen.standard_normal(out=row)
    return out
