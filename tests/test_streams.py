"""Keyed Philox streams: one reused generator reproduces fresh keyed ones,
and the stacked Philox pass with its ziggurat decode reproduces both."""

import tracemalloc
from functools import cache

import numpy as np
import pytest
from numpy.random import Generator, Philox

from povm_entangle import streams
from povm_entangle.streams import keyed_normals, keyed_rng

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_RABS = (1 << 52) - 1


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


@pytest.mark.parametrize("indices", ["list", "int64", "uint64", "range"])
def test_a_stack_past_the_crossover_matches_keyed_rng(indices):
    rows = streams._STACK_ROWS
    values = {
        "list": [(-1) ** i * (i << 40) + 2**64 * (i % 3) for i in range(rows)],
        "int64": -np.arange(rows, dtype=np.int64) * 977,
        "uint64": np.arange(rows, dtype=np.uint64) + np.uint64(2**63),
        "range": range(5, 5 + rows),
    }[indices]
    out = keyed_normals(-11, values, 6)
    assert out.shape == (rows, 6)
    for row, index in zip(out, values):
        np.testing.assert_array_equal(row, keyed_rng(-11, int(index)).standard_normal(6))


def test_stacked_words_are_philox_raw_words():
    keys = np.array([0, 1, 2**63, _MASK64, 12345], dtype=np.uint64)
    words = streams._philox_words(2**64 - 3, keys, 1, 3)
    for row, key in zip(words, keys):
        raw = Philox(key=np.array([2**64 - 3, key], dtype=np.uint64)).random_raw(12)
        np.testing.assert_array_equal(row, raw)
    np.testing.assert_array_equal(streams._philox_words(2**64 - 3, keys, 3, 1), words[:, 8:])


# sizes and row counts: about 10^6 rows in all, against the per-row reset
_RANDOM_ROWS = [(2, 250_000), (4, 300_000), (5, 200_000), (9, 200_000), (40, 50_000)]


@pytest.mark.parametrize("size, rows", _RANDOM_ROWS, ids=[f"size{s}" for s, _ in _RANDOM_ROWS])
def test_stacked_path_matches_the_reset_loop_bit_for_bit(size, rows):
    rng = np.random.default_rng(size)
    chunk = 50_000
    for start in range(0, rows, chunk):
        n = min(chunk, rows - start)
        seed = [-(1 << 40) - start, 2**63 + start, start][start // chunk % 3]
        if start // chunk % 2:
            indices = rng.integers(-(2**63), 2**63, n, dtype=np.int64)
        else:
            indices = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
        stacked = keyed_normals(seed, indices, size)
        looped = streams._reset_loop(seed, indices, size)
        np.testing.assert_array_equal(stacked.view(np.uint64), looped.view(np.uint64))


def test_a_large_stack_is_drawn_in_bounded_chunks():
    # 2^18 rows of 4 normals span four chunks of _CHUNK_WORDS words; drawn at
    # once, their Philox and ziggurat temporaries held over five times the
    # 8 MiB result
    rows = 1 << 18
    assert rows * 4 > 2 * streams._CHUNK_WORDS
    keys = np.arange(rows, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    tracemalloc.start()
    try:
        out = keyed_normals(5, keys, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * out.nbytes
    step = streams._CHUNK_WORDS // 4
    for r in (0, step - 1, step, 2 * step + 17, rows - 1):
        np.testing.assert_array_equal(out[r], keyed_rng(5, int(keys[r])).standard_normal(4))


# --- crafted words: numpy positioned to emit them against the same decode ---

_KEY = (0x243F6A8885A308D3, 0x13198A2E03707344)


@cache
def _counter_for(block, key=_KEY):
    """The counter whose Philox4x64-10 block under `key` is `block`.

    A round maps (v0, v1, v2, v3) to (hi(M1 v2) ^ v1 ^ k0, lo(M1 v2),
    hi(M0 v0) ^ v3 ^ k1, lo(M0 v0)); the multipliers are odd, so lo()
    inverts modulo 2^64 and every round can be undone.
    """
    m0, m1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
    keys = [((key[0] + r * 0x9E3779B97F4A7C15) & _MASK64, (key[1] + r * 0xBB67AE8584CAA73B) & _MASK64)
            for r in range(10)]
    o0, o1, o2, o3 = block
    for k0, k1 in reversed(keys):
        v0 = o3 * pow(m0, -1, 1 << 64) & _MASK64
        v2 = o1 * pow(m1, -1, 1 << 64) & _MASK64
        o0, o1, o2, o3 = v0, o0 ^ (m1 * v2 >> 64) ^ k0, v2, o2 ^ (m0 * v0 >> 64) ^ k1
    return [o0, o1, o2, o3]


def _positioned(first, second):
    """A Philox whose next raw words are `first`, then `second` (4 each),
    then the blocks that follow `second`'s counter: `first` sits in the
    buffer, and `second` is the block of the counter that inversion finds."""
    ctr = _count(_counter_for(tuple(second))) - 1
    bitgen = Philox(key=np.array(_KEY, dtype=np.uint64),
                    counter=np.array([(ctr >> (64 * i)) & _MASK64 for i in range(4)], dtype=np.uint64))
    state = bitgen.state
    state["buffer"] = np.array(first, dtype=np.uint64)
    state["buffer_pos"] = 0
    bitgen.state = state
    return bitgen


def _count(counter):
    """A Philox counter's four words as one integer."""
    return sum(int(v) << (64 * i) for i, v in enumerate(counter))


def _stream(first, second, words=40):
    raw = _positioned(first, second).random_raw(words)
    assert raw[:8].tolist() == first + second
    return raw


def _word(idx, rabs, sign=0):
    return (rabs << 9) | (sign << 8) | idx


def _u(u):
    """The word whose next_double is u / 2^53."""
    return u << 11


# a fast draw that no crafted draw equals: idx 5, rabs 3
_FAST = _word(5, 3)


def _numpy_normals(first, second, size):
    return Generator(_positioned(first, second)).standard_normal(size)


def _decode(rows, size):
    """The stacked decode of crafted rows, each [first, second]."""
    streams_ = np.stack([_stream(first, second) for first, second in rows])
    blocks = -(-size // 4)
    return streams._ziggurat(
        streams_[:, : 4 * blocks].copy(), size, lambda r, b: streams_[r, 4 * (b - 1) : 4 * b]
    )


def _check(rows, size):
    got = _decode(rows, size)
    want = np.stack([_numpy_normals(first, second, size) for first, second in rows])
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _consumed(first, second=(_FAST,) * 4):
    """Raw words numpy takes for one normal drawn from these words."""
    bitgen = _positioned(list(first), list(second))
    start = _count(bitgen.state["state"]["counter"])
    Generator(bitgen).standard_normal()
    state = bitgen.state
    # a draw can spill past the planted block, so the counter counts too
    return 4 * (_count(state["state"]["counter"]) - start) + state["buffer_pos"]


def test_numpy_tables_match_the_embedded_ones():
    """ki and wi again from the installed numpy: a numpy with other tables
    fails here instead of drawing other numbers."""
    ki, wi = [], []
    for idx in range(256):
        # rabs 2^51 is fast, or an accepted wedge with u = 0: x = 2^51 wi
        wi.append(_numpy_normals([_word(idx, 1 << 51), 0, _FAST, _FAST], [_FAST] * 4, 1)[0] / 2.0**51)
        lo, hi = -1, 1 << 52  # the first rabs that leaves the fast region is in (lo, hi]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _consumed([_word(idx, mid), _FAST, _FAST, _FAST]) == 1:
                lo = mid
            else:
                hi = mid
        ki.append(hi)
    np.testing.assert_array_equal(np.array(ki, dtype=np.uint64), streams._KI)
    np.testing.assert_array_equal(np.array(wi), streams._WI)


def _flip(idx, rabs):
    """numpy's smallest u that rejects the wedge draw (idx, rabs)."""
    lo, hi = 0, 1 << 53  # accepted at lo, rejected at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _consumed([_word(idx, rabs), _u(mid), _FAST, _FAST]) == 2:
            lo = mid
        else:
            hi = mid
    assert 0 < hi < 1 << 53
    return hi


def test_wedge_decisions_at_every_flip_point():
    rows = []
    for idx in range(1, 256):
        ki = int(streams._KI[idx])
        # a quarter and three quarters into the wedge, where the flip lies inside (0, 1)
        for rabs in ((3 * ki + (1 << 52)) // 4, (ki + 3 * (1 << 52)) // 4):
            u = _flip(idx, rabs)
            for sign in (0, 1):
                rows.append(([_word(idx, rabs, sign), _u(u - 1), _FAST, _FAST], [_FAST] * 4))
                rows.append(([_word(idx, rabs, sign), _u(u), _FAST, _FAST], [_FAST] * 4))
    _check(rows, 2)


def test_fast_region_bounds_of_every_layer():
    rows = []
    for idx in range(256):
        ki = int(streams._KI[idx])
        for rabs in {max(ki - 1, 0), ki, min(ki + 1, _RABS), 0, _RABS}:
            for sign in (0, 1):
                rows.append(([_word(idx, rabs, sign), _word(7, rabs >> 1), _u(1 << 52), _FAST], [_FAST] * 4))
    _check(rows, 4)


def test_layer_one_never_takes_the_fast_path():
    assert streams._KI[1] == 0
    rows = [([_word(1, rabs), _u(u), _FAST, _FAST], [_FAST] * 4) for rabs in (0, 1, 1 << 40, _RABS) for u in (0, 1 << 52, (1 << 53) - 1)]
    _check(rows, 3)


def test_the_base_layer_tail():
    half, tiny = _u(1 << 52), _u(1)
    rows = []
    # the tail's sign is bit 8 of rabs, not the sign bit of the word
    for rabs, sign in ((_RABS, 0), (_RABS ^ 0x100, 1)):
        assert rabs >= streams._KI[0]
        w = _word(0, rabs, sign)
        rows.append(([w, half, half, _FAST], [_FAST] * 4))  # accepted on the first try
        rows.append(([w, half, tiny, half], [half, _FAST, _FAST, _FAST]))  # on the second
        rows.append(([w, half, tiny, half], [tiny, half, half, _FAST]))  # on the third, across blocks
        rows.append(([_FAST, _FAST, _FAST, w], [half, half, _FAST, _FAST]))  # in the last column
    _check(rows, 4)
    _check(rows, 5)


def test_slow_draw_in_the_last_column():
    wedge = _word(9, _RABS)
    rows = [
        ([_FAST, _FAST, _FAST, wedge], [_u(0), _FAST, _FAST, _FAST]),  # accepted
        ([_FAST, _FAST, _FAST, wedge], [_u((1 << 53) - 1), _FAST, _FAST, _FAST]),  # rejected
    ]
    _check(rows, 4)


def test_a_row_that_needs_words_beyond_its_extra_block():
    reject = [_word(9, _RABS), _u((1 << 53) - 1)]
    rows = [(reject + reject, reject + reject), (reject + [_FAST, _FAST], reject + reject)]
    assert _consumed(reject + reject, reject + reject) > 8
    _check(rows, 4)
    _check(rows, 1)
