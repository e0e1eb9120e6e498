"""Pauli algebra, Bell projectors, probe elements, and the flip operator."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povm_entangle import (
    HermitianOperator,
    PovmSet,
    ValidationError,
    bell_povm,
    bloch_vector,
    ghz_state,
    lambda_operator,
    me_state,
    min_eigenvalue,
    noisy_ghz_element,
    noisy_me_element,
    ghz_probe,
    me_probe,
    partial_transpose,
    pauli_eigenstate,
    pauli_expand,
)
from povm_entangle.operators import _BELL_VECTORS, _entry_deviation, _hermiticity_deviation
from povm_entangle.pauli import _PAULI_KRONS, PAULIS, pauli_matrices

from conftest import (
    dense_ghz_probe,
    dense_lambda_operator,
    dense_me_probe,
    dense_noisy_ghz_element,
    dense_noisy_me_element,
    random_pd_element,
)


def test_pauli_orthogonality():
    # tr(sigma_i sigma_j) = 2 delta_ij
    for i, a in enumerate(PAULIS):
        for j, b in enumerate(PAULIS):
            expect = 2.0 if i == j else 0.0
            assert abs(np.trace(a @ b).real - expect) < 1e-15
            assert np.max(np.abs(a - a.conj().T)) == 0


def test_pauli_product_table_matches_kron():
    kron_table = np.array([[np.kron(a, b) for b in PAULIS] for a in PAULIS])
    assert _PAULI_KRONS.shape == kron_table.shape
    assert _PAULI_KRONS.dtype == kron_table.dtype
    assert _PAULI_KRONS.tobytes() == kron_table.tobytes()


def test_pauli_eigenstates():
    for axis, row in (("x", 1), ("y", 2), ("z", 3)):
        for sign in (1, -1):
            v = pauli_eigenstate(axis, sign)
            assert abs(np.linalg.norm(v) - 1) < 1e-15
            assert np.allclose(PAULIS[row] @ v, sign * v, atol=1e-15)
            b = bloch_vector(v)
            expect = np.zeros(3)
            expect[row - 1] = sign
            assert np.allclose(b, expect, atol=1e-15)
    with pytest.raises(ValidationError):
        pauli_eigenstate("w", 1)


def test_bell_states_orthonormal():
    assert tuple(_BELL_VECTORS) == ("0", "x", "y", "z")
    vs = list(_BELL_VECTORS.values())
    gram = np.array([[np.vdot(a, b) for b in vs] for a in vs])
    assert np.max(np.abs(gram - np.eye(4))) < 1e-15


def test_bell_povm_complete(ideal_bell):
    total = sum(el.matrix for el in ideal_bell.elements)
    assert np.max(np.abs(total - np.eye(4))) < 1e-15
    assert ideal_bell.labels == ("0", "x", "y", "z")


def test_bell_diagonal_coefficients(ideal_bell):
    # diagonal Pauli coefficients (xx, yy, zz) of each Bell projector
    expected = {
        "0": (-0.25, -0.25, -0.25),
        "x": (-0.25, 0.25, 0.25),
        "y": (0.25, -0.25, 0.25),
        "z": (0.25, 0.25, -0.25),
    }
    for label, el in ideal_bell.items():
        c = pauli_expand(el)
        assert abs(c[0, 0] - 0.25) < 1e-15
        diag = tuple(c[w, w] for w in (1, 2, 3))
        assert np.allclose(diag, expected[label], atol=1e-15)
        off = c - np.diag(np.diag(c))
        assert np.max(np.abs(off)) < 1e-15


def test_expand_identity_quarter():
    c = pauli_expand(HermitianOperator(np.eye(4) / 4, (2, 2)))
    assert c.dtype == np.float64 and c.shape == (4, 4) and c.flags.c_contiguous
    assert c[0, 0] == pytest.approx(0.25, abs=1e-15)
    assert np.max(np.abs(c - np.diag([0.25, 0.0, 0.0, 0.0]))) < 1e-15


def test_expand_rejects_non_hermitian():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValidationError):
        pauli_expand(m)
    with pytest.raises(ValidationError, match="4x4"):
        pauli_expand(np.zeros((3, 4)))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_expand_compose_round_trip(seed):
    rng = np.random.default_rng(seed)
    el = random_pd_element(rng, trace=float(rng.uniform(0.1, 4.0)))
    back = pauli_matrices(pauli_expand(el))
    assert np.max(np.abs(back - el.matrix)) < 1e-12


def test_hermitian_operator_validation():
    with pytest.raises(ValidationError):
        HermitianOperator(np.array([[0, 1], [0, 0]]), (2,))
    with pytest.raises(ValidationError):
        HermitianOperator(np.eye(4), (2, 3))
    with pytest.raises(ValidationError):
        HermitianOperator(np.eye(2), (1, 2))
    op = HermitianOperator(np.eye(4) / 2, (2, 2))
    assert op.dim == 4
    assert op.trace() == pytest.approx(2.0)


@pytest.mark.parametrize(
    "entries",
    [
        {(0, 0): np.nan},
        {(1, 2): 1j * np.nan, (2, 1): 1j * np.nan},
        {(3, 3): np.inf},
        {(0, 0): 1j * np.inf},
        {(0, 1): np.inf, (1, 0): np.inf},
        {(0, 1): -np.inf, (1, 0): -np.inf},
        {(2, 3): complex(0, np.inf), (3, 2): complex(0, -np.inf)},
    ],
)
def test_hermitian_operator_rejects_non_finite(entries):
    m = np.eye(4, dtype=complex) / 4
    for ij, value in entries.items():
        m[ij] = value
    with pytest.raises(ValidationError, match="non-finite"):
        HermitianOperator(m, (2, 2))


@pytest.mark.parametrize("ij", [(200, 3), (200, 200)])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_hermitian_operator_rejects_late_non_finite_quietly(ij, value):
    # a diagonal entry at row 200 reaches only the last block of the check
    m = np.eye(256, dtype=complex) / 256
    m[ij] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="non-finite"):
            HermitianOperator(m, (4, 4, 4, 4))


@pytest.mark.parametrize("dim", [4, 100, 1024])
def test_blocked_hermiticity_deviation_is_exact(dim):
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    near = (a + a.conj().T) / 2
    near[dim - 1, 0] += 1e-13
    for m in (a, (a + a.conj().T) / 2, near):
        assert _hermiticity_deviation(m) == float(np.max(np.abs(m - m.conj().T)))


def full_square_deviation(m):
    with np.errstate(invalid="ignore"):
        return float(np.abs(m - m.conj().T).max())


def same_float(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


@pytest.mark.parametrize("dim", [4, 63, 64, 65, 129])
@pytest.mark.parametrize("dtype", [float, complex])
def test_staircase_hermiticity_deviation_matches_full_square(dim, dtype):
    # the staircase sees each (r, c), (c, r) pair from one side only
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((dim, dim)).astype(dtype)
    if dtype is complex:
        a += 1j * rng.standard_normal((dim, dim))
    h = (a + a.conj().T) / 2
    cases = [a, h]
    for r, c in [(dim - 1, 0), (dim - 1, dim - 2), (dim // 2 + 1, dim // 2 - 1)]:
        for ij in [(r, c), (c, r)]:  # only in the lower triangle, only in the upper
            m = h.copy()
            m[ij] += 1e-9
            cases.append(m)
    for ij in [(dim - 1, 0), (0, dim - 1), (dim - 1, dim - 1)]:
        for value in [np.nan, np.inf, -np.inf]:
            m = h.copy()
            m[ij] = value
            cases.append(m)
    both = h.copy()
    both[dim - 1, 0] = both[0, dim - 1] = np.inf  # inf - inf
    cases.append(both)
    for m in cases:
        dev = _hermiticity_deviation(m)
        assert same_float(dev, full_square_deviation(m)), (dev, full_square_deviation(m))
    assert _hermiticity_deviation(h) == 0.0


@pytest.mark.parametrize(
    "dtype, stored",
    [
        (bool, np.float64),
        (np.int64, np.float64),
        (np.uint8, np.float64),
        (np.float32, np.float64),
        (np.float64, np.float64),
        (np.complex64, np.complex128),
        (np.complex128, np.complex128),
        (object, np.complex128),
    ],
)
def test_operator_storage_dtype_rule(dtype, stored):
    op = HermitianOperator(np.eye(4).astype(dtype), (2, 2))
    assert op.matrix.dtype == stored
    assert np.array_equal(op.matrix, np.eye(4))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_operator_stores_matching_input_uncopied(dtype):
    m = lambda_operator(2, 3).matrix.astype(dtype)
    op = HermitianOperator(m, (3, 3))
    assert op.matrix is m
    assert not op.matrix.flags.writeable


def test_producers_store_real_operators_as_real():
    assert lambda_operator(3, 3).matrix.dtype == np.float64
    assert ghz_probe(3).operator.matrix.dtype == np.float64
    assert me_probe(3).operator.matrix.dtype == np.float64
    # their state vectors are complex, so the noisy elements stay complex
    assert noisy_ghz_element(3, 0.1).matrix.dtype == np.complex128
    assert noisy_me_element(3, 0.1).matrix.dtype == np.complex128
    back = HermitianOperator.from_dict(lambda_operator(2, 2).to_dict())
    assert back.matrix.dtype == np.complex128


@pytest.mark.parametrize("n,d", [(2, 2), (3, 3), (5, 2)])
def test_real_stored_dict_matches_complex_stored(n, d):
    lam = lambda_operator(n, d).matrix
    a = np.random.default_rng(n * d).standard_normal(lam.shape)
    # -lam carries negative zeros
    for m in (lam, -lam, (a + a.T) / 2):
        real = HermitianOperator(m, (d,) * n)
        as_complex = HermitianOperator(m.astype(complex), (d,) * n)
        assert json.dumps(real.to_dict()) == json.dumps(as_complex.to_dict())


def test_operator_dict_round_trip(rng):
    el = random_pd_element(rng)
    back = HermitianOperator.from_dict(el.to_dict())
    assert back.parties == el.parties
    assert np.max(np.abs(back.matrix - el.matrix)) < 1e-15
    with pytest.raises(ValidationError):
        HermitianOperator.from_dict({"re": [[1]]})


def test_povm_set_validation(ideal_bell):
    with pytest.raises(ValidationError):
        PovmSet(("a", "a"), ideal_bell.elements[:2])
    with pytest.raises(ValidationError):
        PovmSet(("a", "b"), ideal_bell.elements[:2])  # incomplete sum
    rt = PovmSet.from_dict(ideal_bell.to_dict())
    assert rt.labels == ideal_bell.labels
    for a, b in zip(rt.elements, ideal_bell.elements):
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-15
    with pytest.raises(ValidationError):
        ideal_bell.element("nope")


def test_ghz_me_states():
    g = ghz_state(3)
    assert abs(np.linalg.norm(g) - 1) < 1e-15
    assert g[0] == pytest.approx(2**-0.5)
    assert g[-1] == pytest.approx(2**-0.5)
    assert np.count_nonzero(g) == 2
    m = me_state(3)
    assert abs(np.linalg.norm(m) - 1) < 1e-15
    assert np.count_nonzero(m) == 3
    for k in range(3):
        assert m[k * 3 + k] == pytest.approx(3**-0.5)


def test_noisy_element_traces():
    # unnormalized mixing: trace = eps 2^n + (1 - eps)
    el = noisy_ghz_element(2, 0.5)
    assert el.trace() == pytest.approx(2.5, abs=1e-12)
    assert el.parties == (2, 2)
    assert noisy_ghz_element(3, 0.0).trace() == pytest.approx(1.0, abs=1e-12)
    assert noisy_me_element(3, 0.2).trace() == pytest.approx(0.2 * 9 + 0.8, abs=1e-12)
    with pytest.raises(ValidationError):
        noisy_ghz_element(2, 1.5)


def test_lambda_operator_structure():
    lam = lambda_operator(3, 2)
    v0 = np.zeros(8)
    v0[0] = 1.0
    v1 = np.zeros(8)
    v1[-1] = 1.0
    expect = np.outer(v0, v1) + np.outer(v1, v0)
    assert np.max(np.abs(lam.matrix - expect)) < 1e-15
    assert abs(np.trace(lam.matrix)) < 1e-15


@pytest.mark.parametrize("n,d", [(2, 2), (2, 5), (3, 3), (5, 4), (10, 2), (6, 3)])
def test_lambda_operator_matches_outer_product(n, d):
    # the outer product of the |k...k> indicator, minus its diagonal
    idx = np.arange(d) * ((d**n - 1) // (d - 1))
    s = np.zeros(d**n)
    s[idx] = 1.0
    expect = np.outer(s, s)
    expect[idx, idx] -= 1.0
    got = lambda_operator(n, d).matrix
    assert got.dtype == expect.dtype
    assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
def test_lambda_spectrum_endpoints(n, d):
    w = np.linalg.eigvalsh(lambda_operator(n, d).matrix)
    assert w[-1] == pytest.approx(d - 1, abs=1e-9)
    assert w[0] == pytest.approx(-1.0, abs=1e-9)


def test_lambda_dimension_guard():
    with pytest.raises(ValidationError):
        lambda_operator(13, 2)  # 8192 > 4096


@pytest.mark.parametrize("build, size", [(ghz_state, 40), (me_state, 1000)], ids=["ghz", "me"])
def test_states_reject_dimension_beyond_guard(build, size):
    with pytest.raises(ValidationError, match="exceeds the 4096 guard"):
        build(size)


@pytest.mark.parametrize(
    "build, size", [(noisy_me_element, 70), (noisy_ghz_element, 13)], ids=["me", "ghz"]
)
def test_noisy_elements_check_the_guard_before_allocating(build, size):
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="guard"):
            build(size, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def same_operator(got, expect):
    assert got.parties == expect.parties
    assert got.matrix.dtype == expect.matrix.dtype
    assert got.matrix.tobytes() == expect.matrix.tobytes()


# criterion 5's grid and the benchmark's points near dimension 1024
WITNESS_GRID = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4), (6, 3), (5, 4), (10, 2)]


@pytest.mark.parametrize("n,d", WITNESS_GRID + [(2, 7)])
def test_lambda_operator_matches_the_dense_build(n, d):
    lam = lambda_operator(n, d)
    same_operator(lam, dense_lambda_operator(n, d))
    assert lam.support[0].size == d * (d - 1)
    assert np.array_equal(lam.support[0], np.flatnonzero(lam.matrix))


@pytest.mark.parametrize("eps", [0.0, 0.1, 1 / 3, 0.5, 0.9, 1.0])
@pytest.mark.parametrize(
    "build, dense, size",
    [(noisy_ghz_element, dense_noisy_ghz_element, n) for n in (2, 3, 5, 8)]
    + [(noisy_me_element, dense_noisy_me_element, d) for d in (2, 3, 5, 8)],
)
def test_noisy_elements_match_the_dense_build(build, dense, size, eps):
    el = build(size, eps)
    expect = dense(size, eps)
    same_operator(el, expect)
    flat = np.flatnonzero(expect.matrix)
    assert np.array_equal(el.support[0], flat)
    assert el.support[1].tobytes() == expect.matrix.ravel()[flat].tobytes()


def probe_operator(probe):
    return lambda size: probe(size).operator


# each producer that builds from entries, its dense oracle, and sizes
ENTRY_PRODUCERS = {
    "lambda": (lambda nd: lambda_operator(*nd), lambda nd: dense_lambda_operator(*nd), [(2, 3), (3, 3), (5, 4), (10, 2)]),
    "ghz_probe": (probe_operator(ghz_probe), dense_ghz_probe, [3, 5, 10]),
    "me_probe": (probe_operator(me_probe), dense_me_probe, [3, 5, 32]),
    "noisy_ghz": (lambda n: noisy_ghz_element(n, 0.1), lambda n: dense_noisy_ghz_element(n, 0.1), [3, 5, 10]),
    "noisy_me": (lambda d: noisy_me_element(d, 0.2), lambda d: dense_noisy_me_element(d, 0.2), [3, 5, 32]),
}


@pytest.mark.parametrize(
    "build, dense, size",
    [
        pytest.param(build, dense, size, id=f"{name}-{size}")
        for name, (build, dense, sizes) in ENTRY_PRODUCERS.items()
        for size in sizes
    ],
)
def test_entry_built_matrix_is_written_on_first_read(build, dense, size):
    op, expect = build(size), dense(size)
    # dim and trace come from the parties and the support, the trace as the
    # float matrix.trace() gives
    assert op.dim == expect.dim
    assert op.trace() == float(expect.matrix.trace().real)
    assert "matrix" not in vars(op)
    m = op.matrix
    assert m.dtype == expect.matrix.dtype
    assert m.tobytes() == expect.matrix.tobytes()
    assert not m.flags.writeable
    assert op.matrix is m


def test_repr_never_writes_the_dense_matrix():
    probe = ghz_probe(12)
    text = repr(probe) + repr(probe.operator)
    assert "matrix" not in vars(probe.operator)
    assert "parties=(2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2)" in text
    # the identity's 4096 diagonal entries and the flip's two corners
    assert "nonzero=4098" in text
    dense = HermitianOperator(np.diag([1.0, 0.0, 0.0, 2.0]), (2, 2))
    assert repr(dense) == "HermitianOperator(parties=(2, 2), dtype=float64, nonzero=2)"


def entry_matrix(flat, values, dim):
    m = np.zeros((dim, dim), dtype=values.dtype)
    m.reshape(-1)[flat] = values
    return m


def random_entries(rng, dim, count, dtype):
    flat = np.sort(rng.choice(dim * dim, size=count, replace=False))
    values = rng.standard_normal(count).astype(dtype)
    if dtype is complex:
        values += 1j * rng.standard_normal(count)
    return flat, values


@pytest.mark.parametrize("dim", [4, 16, 65])
@pytest.mark.parametrize("dtype", [float, complex])
def test_entry_deviation_matches_the_dense_scan(dim, dtype):
    rng = np.random.default_rng(dim)
    flat, values = random_entries(rng, dim, 2 * dim, dtype)
    m = entry_matrix(flat, values, dim)
    h = (m + m.conj().T) / 2
    hflat = np.flatnonzero(h)
    cases = [(flat, values), (hflat, h.ravel()[hflat])]
    # one side of a pair nudged, a pair's mirror missing, and non-finite values
    for k in (0, hflat.size // 2, hflat.size - 1):
        nudged = h.ravel()[hflat].copy()
        nudged[k] += 1e-9
        cases.append((hflat, nudged))
        cases.append((np.delete(hflat, k), np.delete(h.ravel()[hflat], k)))
        for value in (np.nan, np.inf, -np.inf):
            bad = h.ravel()[hflat].copy()
            bad[k] = value
            cases.append((hflat, bad))
    cases.append((hflat[:0], h.ravel()[:0]))
    for f, v in cases:
        got = _entry_deviation(f, v, dim)
        expect = _hermiticity_deviation(entry_matrix(f, v, dim))
        assert same_float(got, expect), (got, expect)


def test_from_entries_keeps_the_support_and_the_dtype_rule():
    flat = np.array([5, 0, 15, 10])
    op = HermitianOperator.from_entries(flat, np.array([1, 2, 0, 3]), (2, 2))
    assert op.matrix.dtype == np.float64
    assert op.matrix.tobytes() == np.diag([2.0, 1.0, 3.0, 0.0]).tobytes()
    assert not op.matrix.flags.writeable
    # sorted by index, the explicit zero left out
    assert op.support[0].tolist() == [0, 5, 10]
    assert op.support[1].tolist() == [2.0, 1.0, 3.0]
    c = HermitianOperator.from_entries([1, 2], np.array([1j, -1j], dtype=np.complex64), (2,))
    assert c.matrix.dtype == np.complex128
    assert c.support[1].dtype == np.complex128
    empty = HermitianOperator.from_entries([], [], (2, 3))
    assert empty.matrix.tobytes() == np.zeros((6, 6)).tobytes()
    assert empty.support[0].size == 0
    assert HermitianOperator(np.eye(4), (2, 2)).support is None


@pytest.mark.parametrize(
    "flat, values, parties, match",
    [
        ([0, 3], [np.nan, 1.0], (2,), "non-finite"),
        ([0, 3], [1.0, np.inf], (2,), "non-finite"),
        ([1, 2], [complex(0, np.inf), complex(0, -np.inf)], (2,), "non-finite"),
        ([1, 2], [np.inf, np.inf], (2,), "non-finite"),
        ([1], [0.5], (2,), "not Hermitian"),
        ([1, 2], [1j, 1j], (2,), "not Hermitian"),
        ([0], [1j], (2,), "not Hermitian"),
        ([0, 0], [1.0, 1.0], (2,), "twice"),
        ([3, 1, 3], [1.0, 0.0, 2.0], (2,), "twice"),
        ([4], [1.0], (2,), "outside"),
        ([-1], [1.0], (2,), "outside"),
        (np.array([2**64 - 1], dtype=np.uint64), [1.0], (2,), "outside"),
        ([0.0], [1.0], (2,), "integer"),
        ([0, 3], [1.0], (2,), "equal-length"),
        ([[0, 3]], [[1.0, 1.0]], (2,), "1-d"),
        ([0], [1.0], (1, 2), "party dimensions"),
        ([0], [1.0], (2,) * 13, "guard"),
    ],
)
def test_from_entries_validation(flat, values, parties, match):
    with pytest.raises(ValidationError, match=match):
        HermitianOperator.from_entries(flat, values, parties)


def half_diagonal(rng, dim, dtype):
    # half the rows, at random, hold nothing off the diagonal
    a = rng.standard_normal((dim, dim)).astype(dtype)
    if dtype is complex:
        a += 1j * rng.standard_normal((dim, dim))
    h = (a + a.conj().T) / 2
    lone = rng.permutation(dim)[: dim // 2]
    keep = np.diag(h).copy()
    h[lone, :] = 0
    h[:, lone] = 0
    h[lone, lone] = keep[lone]
    return h


@pytest.mark.parametrize("parties", [(2, 2), (4, 4), (4, 4, 4)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_min_eigenvalue_matches_the_dense_eigensolve(parties, dtype):
    rng = np.random.default_rng(len(parties) * 10 + int(dtype is complex))
    dim = int(np.prod(parties))
    a = rng.standard_normal((dim, dim)).astype(dtype)
    if dtype is complex:
        a += 1j * rng.standard_normal((dim, dim))
    half = half_diagonal(rng, dim, dtype)
    flat = np.flatnonzero(half)
    diagonal = np.diag(rng.standard_normal(dim))
    ops = [
        HermitianOperator((a + a.conj().T) / 2, parties),
        HermitianOperator(half, parties),
        HermitianOperator.from_entries(flat, half.ravel()[flat], parties),
        HermitianOperator(diagonal, parties),
        HermitianOperator.from_entries(np.arange(dim) * (dim + 1), np.diag(diagonal), parties),
        lambda_operator(len(parties), parties[0]),
    ]
    for op in ops:
        assert abs(min_eigenvalue(op) - np.linalg.eigvalsh(op.matrix)[0]) <= 1e-12


def test_min_eigenvalue_couples_both_rows_of_a_one_sided_entry():
    # within the tolerance an entry may lack its mirror; the eigensolve reads
    # the lower triangle, so rows 0 and 1 stay coupled and give -1e-13
    one_sided = np.zeros((4, 4))
    one_sided[1, 0] = 1e-13
    for op in (HermitianOperator(one_sided, (2, 2)), HermitianOperator.from_entries([4], [1e-13], (2, 2))):
        assert min_eigenvalue(op) == pytest.approx(-1e-13, rel=1e-6, abs=0)


def test_min_eigenvalue(rng):
    el = random_pd_element(rng)
    assert min_eigenvalue(el) == pytest.approx(np.linalg.eigvalsh(el.matrix)[0])
    assert min_eigenvalue(el) > 0


def test_partial_transpose_singlet(ideal_bell):
    pt = partial_transpose(ideal_bell.element("0"))
    assert min_eigenvalue(pt) == pytest.approx(-0.5, abs=1e-12)


def test_partial_transpose_involution(rng):
    el = random_pd_element(rng, parties=(2, 3))
    back = partial_transpose(partial_transpose(el))
    assert np.max(np.abs(back.matrix - el.matrix)) < 1e-15


def test_partial_transpose_product(rng):
    a = random_pd_element(rng, parties=(2,)).matrix
    b = random_pd_element(rng, parties=(2,)).matrix
    el = HermitianOperator(np.kron(a, b), (2, 2))
    pt = partial_transpose(el)
    assert np.max(np.abs(pt.matrix - np.kron(a, b.T))) < 1e-12
