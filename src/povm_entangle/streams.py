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
