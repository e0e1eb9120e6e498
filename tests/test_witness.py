"""Probe-state witnesses, noise thresholds, and the separability solver."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povm_entangle import (
    HermitianOperator,
    ProbeState,
    ValidationError,
    ghz_probe,
    lambda_gmax_analytic,
    lambda_operator,
    me_probe,
    min_eigenvalue,
    noise_threshold,
    noisy_ghz_element,
    noisy_me_element,
    separability_eigenvalue_numeric,
    witness_evaluate,
)
import povm_entangle
from povm_entangle import operators, witness
from povm_entangle.cli import main
from povm_entangle.streams import keyed_rng

from conftest import dense_ghz_probe, dense_me_probe, random_separable_element, random_start


def closed_form_lhs(n, eps):
    # rate of the noisy GHZ element on the GHZ probe
    return (eps * 2**n + 2 * (1 - eps)) / (2**n * (eps * 2**n + (1 - eps)))


def random_hermitian(rng, dims):
    dim = int(np.prod(dims))
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((a + a.conj().T) / 2, dims)


def random_real_symmetric(rng, dims):
    dim = int(np.prod(dims))
    a = rng.standard_normal((dim, dim))
    return HermitianOperator((a + a.T) / 2, dims)


def random_sparse_hermitian(rng, dims):
    # about one complex nonzero per row, mirrored, so at most 2 D in all
    dim = int(np.prod(dims))
    a = np.zeros((dim, dim), dtype=complex)
    r, c = rng.integers(dim, size=(2, dim))
    a[r, c] = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return HermitianOperator((a + a.conj().T) / 2, dims)


def random_rows(rng, dims, rows):
    states = []
    for d in dims:
        s = rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d))
        states.append(s / np.linalg.norm(s, axis=1, keepdims=True))
    return states


def product_vector(states):
    v = states[0]
    for s in states[1:]:
        v = np.kron(v, s)
    return v


def kron_rows(factors, rows):
    # per row, the Kronecker product of the factors' rows (1 for no factors)
    out = np.ones((rows, 1), dtype=complex)
    for f in factors:
        out = np.array([np.kron(o, v) for o, v in zip(out, f)])
    return out


def frames_conditioned(matrix, states, j):
    """F_r^dag op F_r through the frames F_r = a_1 (x) ... (x) 1_{d_j} (x) ... (x) a_n.

    The frames of all rows form one D x (A d_j) matrix, multiplied by the
    operator in full: d_j times the work of the solver's contraction, kept as
    its oracle.
    """
    a, dj = states[j].shape
    left = kron_rows(states[:j], a).T
    right = kron_rows(states[j + 1 :], a).T
    eye = np.eye(dj)
    frames = (
        left[:, None, None, :, None] * eye[None, :, None, None, :] * right[None, None, :, :, None]
    ).reshape(-1, a, dj)
    x = (matrix @ frames.reshape(-1, a * dj)).reshape(-1, a, dj)
    return frames.conj().transpose(1, 2, 0) @ x.transpose(1, 0, 2)


def assert_same_paths(histories, reference):
    # same sweep count per restart, values equal up to rounding
    for a, b in zip(histories, reference):
        assert len(a) == len(b)
        assert np.max(np.abs(np.subtract(a, b))) < 1e-12


def test_probe_construction():
    p2 = ghz_probe(2)
    assert p2.gmax == pytest.approx(0.375, abs=1e-15)
    assert p2.operator.trace() == pytest.approx(1.0, abs=1e-12)
    expect = (np.eye(4) + lambda_operator(2, 2).matrix) / 4
    assert np.max(np.abs(p2.operator.matrix - expect)) < 1e-15
    m2 = me_probe(2)
    assert m2.gmax == pytest.approx(0.375, abs=1e-15)
    assert np.max(np.abs(m2.operator.matrix - p2.operator.matrix)) < 1e-15
    assert me_probe(3).gmax == pytest.approx((2 - 1 / 3) / 9, abs=1e-15)


def test_probe_positivity():
    # the n = 3 probe touches zero from above
    assert min_eigenvalue(ghz_probe(3).operator) == pytest.approx(0.0, abs=1e-12)
    assert min_eigenvalue(ghz_probe(2).operator) >= -1e-12


def test_probe_bound_matches_flip_bound():
    for n in (2, 3, 4):
        expect = (1 + lambda_gmax_analytic(n, 2)) / 2**n
        assert ghz_probe(n).gmax == pytest.approx(expect, abs=1e-15)
    for d in (2, 3, 4):
        expect = (1 + lambda_gmax_analytic(2, d)) / d**2
        assert me_probe(d).gmax == pytest.approx(expect, abs=1e-15)


def test_probe_state_validation():
    with pytest.raises(ValidationError, match="trace"):
        ProbeState(HermitianOperator(np.eye(4) / 2, (2, 2)))
    m = np.diag([1.1, -0.1, 0.0, 0.0])
    with pytest.raises(ValidationError, match="positive"):
        ProbeState(HermitianOperator(m, (2, 2)))


def test_probe_state_rejects_indefinite_entry_built_probes():
    # (1 + 2 flip) / 4 has eigenvalue -1/4 in its coupled block; the other
    # probe has -0.1 on a lone diagonal entry
    flip = lambda_operator(2, 2).support[0]
    coupled = HermitianOperator.from_entries(
        np.concatenate([[0, 5, 10, 15], flip]), np.array([1, 1, 1, 1, 2, 2]) / 4, (2, 2)
    )
    lone = HermitianOperator.from_entries([0, 5, 10, 15], [1.1, -0.1, 0.0, 0.0], (2, 2))
    for op in (coupled, lone):
        for probe in (op, HermitianOperator(op.matrix, op.parties)):
            with pytest.raises(ValidationError, match="positive"):
                ProbeState(probe)


@pytest.mark.parametrize(
    "build, dense, size",
    [(ghz_probe, dense_ghz_probe, n) for n in (2, 3, 5, 8, 10)]
    + [(me_probe, dense_me_probe, d) for d in (2, 3, 5, 8, 16)],
)
def test_probes_match_the_dense_build(build, dense, size):
    probe = build(size).operator
    expect = dense(size)
    assert probe.parties == expect.parties
    assert probe.matrix.dtype == expect.matrix.dtype
    assert probe.matrix.tobytes() == expect.matrix.tobytes()


def test_noise_thresholds():
    assert noise_threshold("ghz", 2) == pytest.approx(0.2, abs=1e-15)
    assert noise_threshold("me", 2) == pytest.approx(0.2, abs=1e-15)
    assert noise_threshold("me", 3) == pytest.approx(2 / 11, abs=1e-15)
    assert abs(noise_threshold("ghz", 30) - 1 / 3) < 1e-8
    taus = [noise_threshold("ghz", n) for n in range(2, 12)]
    assert all(b > a for a, b in zip(taus, taus[1:]))
    with pytest.raises(ValidationError):
        noise_threshold("ghz", 1)
    with pytest.raises(ValidationError):
        noise_threshold("w", 2)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("eps", [0.0, 0.1, 0.2, 0.35, 0.7])
def test_closed_form_rate(n, eps):
    res = witness_evaluate(noisy_ghz_element(n, eps), ghz_probe(n))
    assert res.lhs == pytest.approx(closed_form_lhs(n, eps), abs=1e-12)
    assert res.margin == pytest.approx(res.lhs - res.bound, abs=1e-15)


@pytest.mark.parametrize(
    "element,probe",
    [(noisy_ghz_element(n, 0.1), ghz_probe(n)) for n in (2, 3, 5, 7)]
    + [(noisy_me_element(d, 0.2), me_probe(d)) for d in (2, 3, 5)],
)
def test_lhs_matches_the_trace_of_the_product(element, probe):
    expect = float(np.real(np.trace(element.matrix @ probe.operator.matrix))) / element.trace()
    lhs = witness_evaluate(element, probe).lhs
    assert abs(lhs - expect) <= 1e-15 * abs(expect)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_verdict_flips_at_threshold(n):
    tau = noise_threshold("ghz", n)
    below = witness_evaluate(noisy_ghz_element(n, tau - 1e-9), ghz_probe(n))
    above = witness_evaluate(noisy_ghz_element(n, tau + 1e-9), ghz_probe(n))
    assert below.verdict == "entangled"
    assert above.verdict == "inconclusive"


def test_me_family_verdicts():
    assert witness_evaluate(noisy_me_element(2, 0.1), me_probe(2)).verdict == "entangled"
    assert witness_evaluate(noisy_me_element(2, 0.25), me_probe(2)).verdict == "inconclusive"
    tau = noise_threshold("me", 3)
    assert witness_evaluate(noisy_me_element(3, tau - 1e-9), me_probe(3)).verdict == "entangled"
    assert witness_evaluate(noisy_me_element(3, tau + 1e-9), me_probe(3)).verdict == "inconclusive"


def test_identity_element_inconclusive():
    res = witness_evaluate(HermitianOperator(np.eye(4), (2, 2)), ghz_probe(2))
    assert res.lhs == pytest.approx(0.25, abs=1e-12)
    assert res.verdict == "inconclusive"
    d = res.to_dict()
    assert set(d) == {"lhs", "bound", "margin", "verdict", "bound_source"}
    assert d["bound_source"] == "analytic"


def test_witness_validation():
    with pytest.raises(ValidationError, match="parties"):
        witness_evaluate(noisy_ghz_element(3, 0.1), ghz_probe(2))
    with pytest.raises(ValidationError, match="trace"):
        witness_evaluate(HermitianOperator(np.zeros((4, 4)), (2, 2)), ghz_probe(2))
    bare = ProbeState(HermitianOperator(np.eye(4) / 4, (2, 2)))
    with pytest.raises(ValidationError, match="numeric"):
        witness_evaluate(noisy_ghz_element(2, 0.1), bare)


def test_numeric_bound_matches_analytic():
    res = witness_evaluate(noisy_ghz_element(2, 0.1), ghz_probe(2), numeric=True, restarts=8)
    assert res.bound == pytest.approx(0.375, abs=1e-9)
    assert res.bound_source == "numeric-lower-bound"
    assert res.verdict == "entangled"


def test_lambda_gmax_analytic_values():
    assert lambda_gmax_analytic(2, 2) == pytest.approx(0.5)
    assert lambda_gmax_analytic(2, 3) == pytest.approx(2 / 3)
    assert lambda_gmax_analytic(2, 4) == pytest.approx(0.75)
    for d in (2, 3, 4):
        assert lambda_gmax_analytic(3, d) == pytest.approx(0.25)
        assert lambda_gmax_analytic(4, d) == pytest.approx(0.125)
    with pytest.raises(ValidationError):
        lambda_gmax_analytic(1, 2)


@pytest.mark.parametrize(
    "n,d,expect",
    [(2, 2, 0.5), (3, 3, 0.25), (2, 3, 2 / 3)],
)
def test_solver_on_flip_operators(n, d, expect):
    res = separability_eigenvalue_numeric(lambda_operator(n, d), restarts=8, seed=1)
    assert res.gmax == pytest.approx(expect, abs=1e-9)
    assert res.converged
    assert len(res.states) == n
    # reported states achieve the reported value
    v = product_vector(res.states)
    achieved = float(np.real(v.conj() @ lambda_operator(n, d).matrix @ v))
    assert achieved == pytest.approx(res.gmax, abs=1e-9)


def test_solver_on_product_projector():
    proj = np.zeros((4, 4))
    proj[0, 0] = 1.0
    res = separability_eigenvalue_numeric(HermitianOperator(proj, (2, 2)), restarts=4)
    assert res.gmax == pytest.approx(1.0, abs=1e-10)


def test_solver_monotone_history():
    res = separability_eigenvalue_numeric(
        lambda_operator(3, 3), restarts=6, seed=3, track_history=True
    )
    assert len(res.history) == 6
    for trace in res.history:
        diffs = np.diff(np.asarray(trace))
        assert np.all(diffs > -1e-12)


def test_solver_determinism_and_flags(monkeypatch):
    op = lambda_operator(2, 3)
    a = separability_eigenvalue_numeric(op, restarts=6, seed=42)
    b = separability_eigenvalue_numeric(op, restarts=6, seed=42)
    assert a.gmax == b.gmax
    assert all(np.array_equal(x, y) for x, y in zip(a.states, b.states))
    with pytest.raises(ValidationError):
        separability_eigenvalue_numeric(op, restarts=0)
    monkeypatch.setattr(witness, "_MAX_SWEEPS", 1)
    short = separability_eigenvalue_numeric(op, restarts=2)
    assert not short.converged


def test_solver_takes_the_restart_cap():
    res = separability_eigenvalue_numeric(lambda_operator(2, 2), restarts=witness.MAX_RESTARTS)
    assert res.gmax == pytest.approx(lambda_gmax_analytic(2, 2), abs=1e-9)


@pytest.mark.parametrize(
    "op",
    [
        lambda_operator(5, 4),
        lambda_operator(3, 3),
        random_hermitian(np.random.default_rng(5), (2, 3, 4)),
    ],
    ids=["lambda_5_4", "lambda_3_3", "random_2_3_4"],
)
def test_solver_restarts_are_independent(op):
    # restarts share every matrix product, yet each one follows its own path
    full = separability_eigenvalue_numeric(op, restarts=12, seed=9, track_history=True)
    for k in (1, 3, 5):
        part = separability_eigenvalue_numeric(op, restarts=k, seed=9, track_history=True)
        assert len(part.history) == k
        assert_same_paths(part.history, full.history[:k])


def test_solver_chunks_bound_frames(monkeypatch):
    # with no floor, a chunk's frames may hold no more entries than the operator
    op = random_real_symmetric(np.random.default_rng(3), (3, 3, 3))
    whole = separability_eigenvalue_numeric(op, restarts=20, seed=4, track_history=True)
    rows = []
    half_step = witness._half_step

    def spy(matrix, states, j, factors):
        rows.append(states[j].shape[0])
        return half_step(matrix, states, j, factors)

    monkeypatch.setattr(witness, "_FRAME_FLOOR", 1)
    monkeypatch.setattr(witness, "_half_step", spy)
    chunked = separability_eigenvalue_numeric(op, restarts=20, seed=4, track_history=True)
    assert max(rows) < 20
    assert max(rows) * op.dim * 3 <= op.dim**2
    assert chunked.gmax == pytest.approx(whole.gmax, abs=1e-12)
    assert_same_paths(chunked.history, whole.history)


@pytest.mark.parametrize(
    "op",
    [
        lambda_operator(3, 3),
        random_real_symmetric(np.random.default_rng(3), (3, 3, 3)),
        random_real_symmetric(np.random.default_rng(6), (2, 3, 4)),
    ],
    ids=["lambda_3_3", "real_symmetric_3_3_3", "real_symmetric_2_3_4"],
)
def test_half_step_real_product_matches_complex(op):
    # a stored matrix, lambda's too, takes the dense path
    states = random_rows(np.random.default_rng(11), op.parties, 7)
    assert op.matrix.dtype == np.float64
    as_complex = op.matrix.astype(complex)
    for j in range(len(op.parties)):
        val_r, vec_r = witness._half_step(op.matrix, states, j)
        val_c, vec_c = witness._half_step(as_complex, states, j)
        assert np.max(np.abs(val_r - val_c)) < 1e-12
        assert np.max(np.abs(vec_r - vec_c)) < 1e-12


@pytest.mark.parametrize(
    "op",
    [random_real_symmetric(np.random.default_rng(3), (3, 3, 3)), random_hermitian(np.random.default_rng(5), (2, 3))],
    ids=["real", "complex"],
)
def test_solver_passes_the_stored_matrix(monkeypatch, op):
    # the operator's stored dtype picks the product; the solver makes no copy
    seen = []
    half_step = witness._half_step

    def spy(matrix, states, j, factors):
        seen.append(matrix is op.matrix)
        return half_step(matrix, states, j, factors)

    monkeypatch.setattr(witness, "_half_step", spy)
    separability_eigenvalue_numeric(op, restarts=3, seed=1)
    assert seen and all(seen)


def test_solver_mixed_party_dimensions():
    op = random_hermitian(np.random.default_rng(5), (2, 3, 4))
    res = separability_eigenvalue_numeric(op, restarts=12, seed=9, track_history=True)
    assert [s.shape for s in res.states] == [(2,), (3,), (4,)]
    assert all(abs(np.linalg.norm(s) - 1.0) < 1e-12 for s in res.states)
    v = product_vector(res.states)
    achieved = float(np.real(v.conj() @ op.matrix @ v))
    assert achieved == pytest.approx(res.gmax, abs=1e-9)
    assert res.gmax == pytest.approx(max(h[-1] for h in res.history), abs=0)


def test_witness_soundness_on_separable_elements():
    # no false entanglement claims from either bound type
    rng = np.random.default_rng(11)
    cases = [
        (me_probe(2), (2, 2)),
        (ghz_probe(3), (2, 2, 2)),
        (me_probe(3), (3, 3)),
    ]
    numeric_bounds = {
        dims: separability_eigenvalue_numeric(probe.operator, restarts=8, seed=0).gmax
        for probe, dims in cases
    }
    trials = 0
    for probe, dims in cases:
        for _ in range(170):
            el = random_separable_element(rng, dims=dims, terms=10, trace=float(rng.uniform(0.5, 2.0)))
            res = witness_evaluate(el, probe)
            assert res.verdict == "inconclusive"
            assert res.lhs <= probe.gmax + 1e-9
            assert res.lhs <= numeric_bounds[dims] + 1e-6
            trials += 1
    assert trials >= 500


ORACLE_OPERATORS = {
    **{
        f"{kind}_{'_'.join(map(str, dims))}": make(np.random.default_rng(len(dims)), dims)
        for dims in [(2, 3, 4), (4, 3, 2), (3, 2), (2, 5, 2, 3)]
        for kind, make in [("real", random_real_symmetric), ("complex", random_hermitian)]
    },
    **{f"lambda_{n}_{d}": lambda_operator(n, d) for n, d in [(5, 4), (10, 2), (6, 3), (3, 3), (2, 2), (4, 4)]},
}


@pytest.mark.parametrize("rows", [1, 12, 37])
@pytest.mark.parametrize("name", sorted(ORACLE_OPERATORS))
def test_conditioned_matches_frames_product(name, rows):
    op = ORACLE_OPERATORS[name]
    states = random_rows(np.random.default_rng(rows), op.parties, rows)
    for j in range(len(op.parties)):
        got = witness._conditioned(op.matrix, states, j)
        expect = frames_conditioned(op.matrix, states, j)
        assert got.shape == (rows, op.parties[j], op.parties[j])
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


DENSE_5_4 = random_real_symmetric(np.random.default_rng(54), (4,) * 5)


@pytest.mark.parametrize("floor", [1, witness._FRAME_FLOOR])
@pytest.mark.parametrize(
    "op",
    [
        lambda_operator(5, 4),
        lambda_operator(3, 3),
        DENSE_5_4,
        random_real_symmetric(np.random.default_rng(3), (3, 3, 3)),
        random_hermitian(np.random.default_rng(5), (2, 3, 4)),
    ],
    ids=["lambda_5_4", "lambda_3_3", "real_symmetric_4_4_4_4_4", "real_symmetric_3_3_3", "random_2_3_4"],
)
def test_solver_chunks_bound_the_intermediate(monkeypatch, op, floor):
    # conditioning A rows on all parties but j leaves A D^2 / max(L, R)
    # entries; lambda takes the dense path here only because it is forced
    dims = op.parties
    sizes = {j: [] for j in range(len(dims))}
    half_step = witness._half_step

    def spy(matrix, states, j, factors):
        assert matrix is op.matrix
        outer = max(math.prod(dims[:j]), math.prod(dims[j + 1 :]))
        sizes[j].append(states[j].shape[0] * op.dim**2 // outer)
        return half_step(matrix, states, j, factors)

    monkeypatch.setattr(witness, "_FRAME_FLOOR", floor)
    monkeypatch.setattr(witness, "_half_step", spy)
    monkeypatch.setattr(witness, "_sparse_entries", lambda op: None)
    monkeypatch.setattr(witness, "_MAX_SWEEPS", 3)
    separability_eigenvalue_numeric(op, restarts=64, seed=2)
    for j, seen in sizes.items():
        assert seen, j
        assert max(seen) <= max(op.dim**2, floor)


def peak_bytes(op, **kwargs):
    tracemalloc.start()
    try:
        separability_eigenvalue_numeric(op, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_solver_memory_is_bounded_by_the_chunk_rule(monkeypatch):
    # a 64-restart solve at D = 1024: the largest intermediate holds at most
    # D^2 complex entries, and the (A, d_j, R, L, d_j) rest is no larger;
    # every sweep makes the same ones, so two show the peak
    op = DENSE_5_4
    monkeypatch.setattr(witness, "_MAX_SWEEPS", 2)
    assert peak_bytes(op, restarts=64, seed=0) <= 2 * 16 * op.dim**2


def test_entry_solver_memory_is_bounded_by_the_chunk_rule():
    # the same solve of lambda (5, 4) on the entry path, to convergence
    op = lambda_operator(5, 4)
    assert peak_bytes(op, restarts=64, seed=0) <= 2 * 16 * op.dim**2


PROBES = {
    **{f"ghz{n}": ghz_probe(n).operator for n in (3, 4, 5)},
    **{f"me{d}": me_probe(d).operator for d in (3, 4, 5)},
}
ENTRY_OPERATORS = {
    **{name: op for name, op in ORACLE_OPERATORS.items() if name.startswith("lambda")},
    **PROBES,
    **{
        f"sparse_{'_'.join(map(str, dims))}": random_sparse_hermitian(np.random.default_rng(len(dims)), dims)
        for dims in [(2, 3, 4), (2, 5, 2, 3)]
    },
    # one nonzero entry: a party's d_i^2 table, not nnz, sets the chunk
    "projector_2_8": HermitianOperator(np.diag(np.eye(16)[0]), (2, 8)),
}


@pytest.mark.parametrize("rows", [1, 12, 37])
@pytest.mark.parametrize("name", sorted(ENTRY_OPERATORS))
def test_entry_conditioned_matches_frames_product(name, rows):
    op = ENTRY_OPERATORS[name]
    entries = witness._sparse_entries(op)
    states = random_rows(np.random.default_rng(rows), op.parties, rows)
    factors = [witness._gathered(entries, s, i) for i, s in enumerate(states)]
    for j in range(len(op.parties)):
        got = witness._entry_conditioned(entries, factors, j, op.parties[j])
        expect = frames_conditioned(op.matrix, states, j)
        assert got.shape == (rows, op.parties[j], op.parties[j])
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


def test_the_operator_picks_the_path():
    # at most 2 D nonzero entries take the entry path, any more the dense one
    for name, op in ORACLE_OPERATORS.items():
        entries = witness._sparse_entries(op)
        assert (entries is None) == (not name.startswith("lambda")), name
    for name, op in ENTRY_OPERATORS.items():
        entries = witness._sparse_entries(op)
        assert entries is not None, name
        assert entries.values.size == np.count_nonzero(op.matrix), name
    n, d = 4, 3
    assert witness._sparse_entries(lambda_operator(n, d)).values.size == d * (d - 1)
    assert witness._sparse_entries(ghz_probe(5).operator).values.size == 2**5 + 2
    assert witness._sparse_entries(me_probe(5).operator).values.size == 2 * 25 - 5
    # the bound itself: the diagonal and D / 2 mirrored pairs is 2 D, one pair more is not
    at_bound = np.eye(6)
    at_bound[[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]] = 0.5
    assert witness._sparse_entries(HermitianOperator(at_bound.copy(), (2, 3))).values.size == 12
    at_bound[[0, 1], [1, 0]] = 0.25
    assert witness._sparse_entries(HermitianOperator(at_bound.copy(), (2, 3))) is None
    # the same rule on an operator's support
    flat = np.flatnonzero(at_bound)
    assert witness._sparse_entries(HermitianOperator.from_entries(flat, at_bound.ravel()[flat], (2, 3))) is None


ENTRY_BUILT = {
    **{f"lambda_{n}_{d}": lambda_operator(n, d) for n, d in [(2, 2), (3, 3), (4, 4), (6, 3), (5, 4), (10, 2)]},
    **PROBES,
    "ghz_probe_10": ghz_probe(10).operator,
    "me_probe_32": me_probe(32).operator,
}


@pytest.mark.parametrize("name", sorted(ENTRY_BUILT))
def test_entries_read_from_the_support_match_the_scan(name):
    op = ENTRY_BUILT[name]
    assert op.support is not None
    got = witness._sparse_entries(op)
    expect = witness._sparse_entries(HermitianOperator(op.matrix, op.parties))
    assert got.values.dtype == expect.values.dtype
    assert got.values.tobytes() == expect.values.tobytes()
    assert np.array_equal(got.pairs, expect.pairs)


@pytest.mark.parametrize("seed", [0, -1, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3, 4), (4,) * 5, (2,) * 10], ids=str)
def test_stacked_random_starts_match_one_generator_per_restart(seed, dims):
    indices = range(2, 102)
    stacked = witness._random_starts(dims, seed, indices)
    assert [s.shape for s in stacked] == [(100, d) for d in dims]
    for row, index in enumerate(indices):
        for s, expect in zip(stacked, random_start(dims, keyed_rng(seed, index))):
            assert s[row].tobytes() == expect.tobytes()


def test_entry_built_operators_skip_the_dense_scan(monkeypatch, tmp_path):
    # building, checking and solving lambda and the GHZ family never scans D^2 entries
    def refuse(m):
        raise AssertionError(f"dense Hermiticity scan of a {m.shape} matrix")

    monkeypatch.setattr(operators, "_hermiticity_deviation", refuse)
    res = separability_eigenvalue_numeric(lambda_operator(5, 4), restarts=12, seed=0)
    assert abs(res.gmax - lambda_gmax_analytic(5, 4)) < 1e-9
    out = tmp_path / "w.json"
    assert main(["witness", "--family", "ghz", "-n", "10", "--numeric", "-o", str(out)]) == 0
    assert '"verdict": "entangled"' in out.read_text()
    with pytest.raises(AssertionError, match="dense Hermiticity scan"):
        HermitianOperator(np.eye(4), (2, 2))


PARITY_OPERATORS = {
    **{f"lambda_{n}_{d}": lambda_operator(n, d) for n in (2, 3, 4) for d in (2, 3, 4)},
    **{f"lambda_{n}_{d}": lambda_operator(n, d) for n, d in [(6, 3), (5, 4), (10, 2)]},
    **PROBES,
}


@pytest.mark.parametrize("name", list(PARITY_OPERATORS))
def test_entry_path_matches_the_dense_path(monkeypatch, name):
    op = PARITY_OPERATORS[name]
    fast = separability_eigenvalue_numeric(op, restarts=12, seed=0, track_history=True)
    monkeypatch.setattr(witness, "_sparse_entries", lambda op: None)
    dense = separability_eigenvalue_numeric(op, restarts=12, seed=0, track_history=True)
    assert abs(fast.gmax - dense.gmax) <= 1e-12
    assert fast.converged == dense.converged
    assert [len(h) for h in fast.history] == [len(h) for h in dense.history]


@pytest.mark.parametrize("floor", [1, witness._FRAME_FLOOR])
@pytest.mark.parametrize(
    "name", ["lambda_5_4", "lambda_3_3", "ghz3", "me3", "sparse_2_3_4", "projector_2_8"]
)
def test_entry_solver_chunks_bound_the_weights(monkeypatch, name, floor):
    # a chunk of A rows holds A nnz weights and A d_i^2 table entries per
    # party, each at most max(D^2, floor)
    op = ENTRY_OPERATORS[name]
    width = max(np.count_nonzero(op.matrix), max(op.parties) ** 2)
    whole = separability_eigenvalue_numeric(op, restarts=64, seed=2, track_history=True)
    rows = []
    half_step = witness._half_step

    def spy(operand, states, j, factors):
        assert isinstance(operand, witness._Entries)
        rows.append(states[j].shape[0])
        return half_step(operand, states, j, factors)

    monkeypatch.setattr(witness, "_FRAME_FLOOR", floor)
    monkeypatch.setattr(witness, "_half_step", spy)
    chunked = separability_eigenvalue_numeric(op, restarts=64, seed=2, track_history=True)
    assert max(rows) * width <= max(op.dim**2, floor)
    if 64 * width > max(op.dim**2, floor):
        assert max(rows) < 64
    assert chunked.gmax == pytest.approx(whole.gmax, abs=1e-12)
    assert_same_paths(chunked.history, whole.history)


def solve_each_restart_alone(op, restarts, seed):
    """(gmax, states, converged, history) with every restart run as a one-row stack.

    The oracle for the solver's blocks, live stacks and kept factors: each
    restart sweeps on its own, its entry factors gathered afresh from its
    states at every half-step, under the solver's stopping and best-restart
    rules.
    """
    entries = witness._sparse_entries(op)
    operand = op.matrix if entries is None else entries
    dims = op.parties
    first = [s[:restarts] for s in witness._structured_starts(dims)]
    drawn = witness._random_starts(dims, seed, range(len(first[0]), restarts))
    starts = [np.concatenate(pair) for pair in zip(first, drawn)]
    runs = []
    for r in range(restarts):
        states = [s[r : r + 1] for s in starts]
        history, converged, prev = [], False, -np.inf
        for _ in range(witness._MAX_SWEEPS):
            for j in range(len(dims)):
                factors = None
                if entries is not None:
                    factors = [witness._gathered(entries, s, i) for i, s in enumerate(states)]
                value, states[j] = witness._half_step(operand, states, j, factors)
            history.append(float(value[0]))
            converged = abs(history[-1] - prev) < witness._SOLVER_TOL
            prev = history[-1]
            if converged:
                break
        runs.append((history, states, converged))
    best = int(np.argmax([h[-1] for h, _, _ in runs]))
    history, states, converged = runs[best]
    return history[-1], tuple(s[0] for s in states), converged, tuple(tuple(h) for h, _, _ in runs)


def same_bits(res, expect):
    gmax, states, converged, history = expect
    assert res.gmax == gmax
    assert [s.tobytes() for s in res.states] == [s.tobytes() for s in states]
    assert res.converged == converged
    assert res.history == history


@pytest.mark.parametrize("sweeps", [3, witness._MAX_SWEEPS])
@pytest.mark.parametrize("name", ["lambda_3_3", "ghz3", "me3", "sparse_2_3_4", "sparse_2_5_2_3", "projector_2_8"])
def test_live_stacks_keep_every_bit(monkeypatch, name, sweeps):
    # entry path, blocks forced by the floor, restarts leaving as they
    # converge or at the sweep cap: every bit of the result is the
    # unchunked solve's, and each restart's path is the one it takes alone
    op = ENTRY_OPERATORS[name]
    uncapped = separability_eigenvalue_numeric(op, restarts=64, seed=2, track_history=True)
    monkeypatch.setattr(witness, "_MAX_SWEEPS", sweeps)
    whole = separability_eigenvalue_numeric(op, restarts=64, seed=2, track_history=True)
    rows = []
    half_step = witness._half_step

    def spy(operand, states, j, factors):
        rows.append(states[j].shape[0])
        return half_step(operand, states, j, factors)

    monkeypatch.setattr(witness, "_FRAME_FLOOR", 1)
    monkeypatch.setattr(witness, "_half_step", spy)
    chunked = separability_eigenvalue_numeric(op, restarts=64, seed=2, track_history=True)
    assert max(rows) < 64
    expect = (whole.gmax, whole.states, whole.converged, whole.history)
    same_bits(chunked, expect)
    same_bits(whole, solve_each_restart_alone(op, 64, 2))
    assert whole.history == tuple(h[:sweeps] for h in uncapped.history)


def test_solves_and_witness_sums_write_no_dense_matrix():
    op = lambda_operator(5, 4)
    res = separability_eigenvalue_numeric(op, restarts=12, seed=0)
    assert abs(res.gmax - lambda_gmax_analytic(5, 4)) < 1e-9
    assert "matrix" not in vars(op)
    element, probe = noisy_ghz_element(12, 0.1), ghz_probe(12)
    lhs = witness_evaluate(element, probe).lhs
    assert lhs == pytest.approx(closed_form_lhs(12, 0.1), rel=1e-12)
    assert "matrix" not in vars(element)
    assert "matrix" not in vars(probe.operator)


# prints the command's peak RSS in bytes: on Linux VmHWM, the process's own
# high-water mark, since ru_maxrss there also carries the peak of the process
# that started it (here pytest's) across fork and exec
_PEAK_RSS = """
import resource, sys
from povm_entangle.cli import main
assert main(sys.argv[1:]) == 0
try:
    with open("/proc/self/status") as f:
        print(next(int(line.split()[1]) * 1024 for line in f if line.startswith("VmHWM:")))
except OSError:
    # KiB, except on macOS, where it counts bytes
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * (1 if sys.platform == "darwin" else 1024))
"""


def test_ghz_12_family_witness_peak_rss(tmp_path):
    # a dense 4096 x 4096 complex element alone would take 256 MB
    env = {**os.environ, "PYTHONPATH": str(Path(povm_entangle.__file__).parents[1])}
    argv = ["witness", "--family", "ghz", "-n", "12", "-o", str(tmp_path / "w.json")]
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, *argv], capture_output=True, text=True, env=env, check=True, timeout=300
    )
    peak = int(out.stdout.split()[-1])
    assert peak < 200 * 2**20
