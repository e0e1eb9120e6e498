"""Keyed Philox streams: one reused generator reproduces fresh keyed ones."""

import numpy as np
import pytest

from povm_entangle.streams import keyed_normals, keyed_rng

_MASK32 = (1 << 32) - 1


@pytest.mark.parametrize("seed", [0, -7, 2**63 + 11])
@pytest.mark.parametrize("size", [4, 5, 9])
def test_keyed_normals_match_keyed_rng(seed, size):
    indices = [((pair & _MASK32) << 32) | sample for pair in (0, 5, 35) for sample in (0, 1, _MASK32)]
    indices.append(-3)
    out = keyed_normals(seed, indices, size)
    assert out.shape == (len(indices), size)
    for row, index in zip(out, indices):
        np.testing.assert_array_equal(row, keyed_rng(seed, index).standard_normal(size))


def test_keyed_normals_accept_uint64_keys():
    keys = (np.arange(3, dtype=np.uint64) << np.uint64(32)) | np.uint64(7)
    out = keyed_normals(2, keys, 4)
    for row, key in zip(out, keys):
        np.testing.assert_array_equal(row, keyed_rng(2, int(key)).standard_normal(4))
