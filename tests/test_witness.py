"""Probe-state witnesses, noise thresholds, and the separability solver."""

import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
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
from povm_entangle import witness
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
    operator in full, kept as the oracle of the solver's conditioning.
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
        ProbeState(HermitianOperator(np.eye(4) / 2, (2, 2)), 0.5)
    m = np.diag([1.1, -0.1, 0.0, 0.0])
    with pytest.raises(ValidationError, match="positive"):
        ProbeState(HermitianOperator(m, (2, 2)), 0.5)
    # every probe carries its closed-form bound
    with pytest.raises(TypeError, match="gmax"):
        ProbeState(HermitianOperator(np.eye(4) / 4, (2, 2)))


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
                ProbeState(probe, 0.5)


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


@pytest.mark.parametrize("build, size", [(ghz_probe, 13), (ghz_probe, 2000), (me_probe, 65), (me_probe, 10**200)])
def test_probes_past_the_guard_are_refused(build, size):
    # the closed-form bound of these sizes would overflow a float
    with pytest.raises(ValidationError, match="exceeds the 4096 guard"):
        build(size)


def test_ghz_noise_threshold_past_the_float_range():
    # (h - 1) / (3 h - 1) with h = 2^(n - 1): 3 h overflows from n = 1024
    h = 2.0**1022
    assert noise_threshold("ghz", 1023) == (h - 1) / (3 * h - 1)
    for n in (1023, 1024, 1025, 10**6):
        assert abs(noise_threshold("ghz", n) - 1 / 3) < 1e-15


def test_noise_thresholds_are_the_exact_ratios_rounded_once():
    for n in (2, 3, 53, 54, 64, 65, 1023, 1100):
        h = 1 << (n - 1)
        assert noise_threshold("ghz", n) == float(Fraction(h - 1, 3 * h - 1)), n
    assert noise_threshold("ghz", 10**30) == 1 / 3
    for d in (2, 3, 6, 14, 18, 1000, 10**20):
        assert noise_threshold("me", d) == float(Fraction(d - 1, d * d + d - 1)), d


def test_me_noise_threshold_is_finite_past_the_float_range():
    # d^2 as a float overflows from d of about 1.35e154
    assert 0 < noise_threshold("me", 10**200) < 1e-199


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
    assert set(d) == {"lhs", "bound", "margin", "verdict"}


def test_witness_validation():
    with pytest.raises(ValidationError, match="parties"):
        witness_evaluate(noisy_ghz_element(3, 0.1), ghz_probe(2))
    with pytest.raises(ValidationError, match="trace"):
        witness_evaluate(HermitianOperator(np.zeros((4, 4)), (2, 2)), ghz_probe(2))


def test_numeric_cross_check_leaves_the_verdict_to_the_closed_form():
    element, probe = noisy_ghz_element(2, 0.1), ghz_probe(2)
    plain = witness_evaluate(element, probe)
    res = witness_evaluate(element, probe, numeric=True, restarts=8)
    assert (res.lhs, res.bound, res.margin, res.verdict) == (plain.lhs, plain.bound, plain.margin, plain.verdict)
    assert res.bound == probe.gmax == 0.375
    assert res.numeric_gmax == pytest.approx(0.375, abs=1e-9)
    assert res.numeric_converged is True
    assert res.shortfall == res.bound - res.numeric_gmax
    assert set(res.to_dict()) == {"lhs", "bound", "margin", "verdict", "numeric_gmax", "numeric_converged", "shortfall"}
    assert set(plain.to_dict()) == {"lhs", "bound", "margin", "verdict"}


def test_a_short_numeric_solve_cannot_certify_entanglement(tmp_path):
    # 2 restarts stop at 1/6, short of the ME probe's g_max 5/27, and the
    # lhs at eps 0.2, above the noise threshold 2/11, lies between the two
    out = tmp_path / "w.json"
    assert main(["witness", "--family", "me", "-d", "3", "--eps", "0.2", "--numeric", "--restarts", "2", "-o", str(out)]) == 0
    got = json.loads(out.read_text())
    assert got["noise_threshold"] < got["eps"]
    assert got["numeric_gmax"] < got["lhs"] < got["bound"]
    assert got["verdict"] == "inconclusive"
    assert got["shortfall"] == pytest.approx(5 / 27 - 1 / 6, abs=1e-12)
    plain = witness_evaluate(noisy_me_element(3, 0.2), me_probe(3))
    assert (got["lhs"], got["bound"], got["margin"]) == (plain.lhs, plain.bound, plain.margin)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family, size", [("ghz", 3), ("ghz", 4), ("ghz", 5), ("me", 3), ("me", 4), ("me", 5)])
def test_numeric_cross_check_finds_the_family_bounds(family, size, seed):
    # witness_grid's family units: at half the noise threshold and 12
    # restarts the solver reaches each probe's closed-form g_max
    eps = noise_threshold(family, size) / 2
    if family == "ghz":
        element, probe = noisy_ghz_element(size, eps), ghz_probe(size)
    else:
        element, probe = noisy_me_element(size, eps), me_probe(size)
    res = witness_evaluate(element, probe, numeric=True, restarts=12, seed=seed)
    assert res.verdict == "entangled"
    assert res.bound == probe.gmax
    assert res.numeric_converged
    assert abs(res.shortfall) < 1e-6


def test_lambda_gmax_analytic_is_the_best_uniform_support():
    for n in range(2, 12):
        for d in range(2, 12):
            assert lambda_gmax_analytic(n, d) == max(k * (k - 1) / k**n for k in range(1, d + 1)), (n, d)


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
        random_real_symmetric(np.random.default_rng(64), (4, 4, 4)),
    ],
    ids=["lambda_3_3", "real_symmetric_3_3_3", "real_symmetric_2_3_4", "real_symmetric_4_4_4"],
)
def test_half_step_real_entries_match_complex(op):
    # a real operator keeps real entries; its complex copy steps the same
    states = random_rows(np.random.default_rng(11), op.parties, 7)
    real = witness._sparse_entries(op)
    as_complex = witness._sparse_entries(HermitianOperator(op.matrix.astype(complex), op.parties))
    assert real.values.dtype == np.float64
    assert np.array_equal(real.pairs, as_complex.pairs)
    factors = [witness._gathered(real, s, i) for i, s in enumerate(states)]
    for j in range(len(op.parties)):
        val_r, vec_r = witness._half_step(real, states, j, factors)
        val_c, vec_c = witness._half_step(as_complex, states, j, factors)
        assert np.max(np.abs(val_r - val_c)) < 1e-12
        assert np.max(np.abs(vec_r - vec_c)) < 1e-12


@pytest.mark.parametrize(
    "op",
    [random_real_symmetric(np.random.default_rng(3), (3, 3, 3)), random_hermitian(np.random.default_rng(5), (2, 3))],
    ids=["real", "complex"],
)
def test_solver_scans_the_operator_once(monkeypatch, op):
    # a dense-built operator is scanned once per solve, in its stored dtype,
    # and every half-step takes those same entries
    scanned, seen = [], []
    sparse_entries, half_step = witness._sparse_entries, witness._half_step

    def scan(operator):
        scanned.append(sparse_entries(operator))
        return scanned[-1]

    def spy(entries, states, j, factors):
        seen.append(entries is scanned[0])
        return half_step(entries, states, j, factors)

    monkeypatch.setattr(witness, "_sparse_entries", scan)
    monkeypatch.setattr(witness, "_half_step", spy)
    separability_eigenvalue_numeric(op, restarts=3, seed=1)
    assert len(scanned) == 1
    assert scanned[0].values.dtype == op.matrix.dtype
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


def peak_bytes(op, **kwargs):
    tracemalloc.start()
    try:
        separability_eigenvalue_numeric(op, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_solver_memory_is_bounded_by_the_chunk_rule(monkeypatch):
    # a 64-restart solve of a dense operator at D = 64: a block's kept
    # factors, weights and tables hold at most max(D^2, 2^16) complex
    # entries each; every sweep makes the same ones, so two show the peak
    op = random_real_symmetric(np.random.default_rng(64), (4, 4, 4))
    monkeypatch.setattr(witness, "_MAX_SWEEPS", 2)
    assert peak_bytes(op, restarts=64, seed=0) <= 2 * 16 * max(op.dim**2, witness._FRAME_FLOOR)


def test_entry_solver_memory_is_bounded_by_the_chunk_rule():
    # a 64-restart solve of lambda (5, 4) at D = 1024, to convergence
    op = lambda_operator(5, 4)
    assert peak_bytes(op, restarts=64, seed=0) <= 2 * 16 * op.dim**2


PROBES = {
    **{f"ghz{n}": ghz_probe(n).operator for n in (3, 4, 5)},
    **{f"me{d}": me_probe(d).operator for d in (3, 4, 5)},
}
ENTRY_OPERATORS = {
    **ORACLE_OPERATORS,
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


def test_every_operator_yields_its_nonzero_entries():
    for name, op in ENTRY_OPERATORS.items():
        assert witness._sparse_entries(op).values.size == np.count_nonzero(op.matrix), name
    n, d = 4, 3
    assert witness._sparse_entries(lambda_operator(n, d)).values.size == d * (d - 1)
    assert witness._sparse_entries(ghz_probe(5).operator).values.size == 2**5 + 2
    assert witness._sparse_entries(me_probe(5).operator).values.size == 2 * 25 - 5
    # the diagonal and D / 2 mirrored pairs make 2 D entries, one pair more 2 D + 2
    mirrored = np.eye(6)
    mirrored[[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]] = 0.5
    assert witness._sparse_entries(HermitianOperator(mirrored.copy(), (2, 3))).values.size == 12
    mirrored[[0, 1], [1, 0]] = 0.25
    assert witness._sparse_entries(HermitianOperator(mirrored.copy(), (2, 3))).values.size == 14
    # the same count from an operator's support
    flat = np.flatnonzero(mirrored)
    support_built = HermitianOperator.from_entries(flat, mirrored.ravel()[flat], (2, 3))
    assert witness._sparse_entries(support_built).values.size == 14


ENTRY_BUILT = {
    **{f"lambda_{n}_{d}": lambda_operator(n, d) for n, d in [(2, 2), (3, 3), (4, 4), (6, 3), (5, 4), (10, 2)]},
    **PROBES,
    "ghz_probe_10": ghz_probe(10).operator,
    "me_probe_32": me_probe(32).operator,
}


@pytest.mark.parametrize("name", sorted(ENTRY_BUILT))
def test_entries_read_from_the_support_match_the_scan(name):
    op = ENTRY_BUILT[name]
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


def test_entry_built_operators_never_gain_a_dense_matrix(monkeypatch, tmp_path):
    # building, checking and solving lambda and the GHZ family never writes D^2 entries
    op = lambda_operator(5, 4)
    probe = ghz_probe(10)
    element = noisy_ghz_element(10, 0.1)
    res = separability_eigenvalue_numeric(op, restarts=12, seed=0)
    assert abs(res.gmax - lambda_gmax_analytic(5, 4)) < 1e-9
    assert witness_evaluate(element, probe).verdict == "entangled"
    for built in (op, probe.operator, element):
        assert "matrix" not in vars(built)

    def refuse(self, name):
        raise AssertionError(f"dense {name} written for {self!r}")

    monkeypatch.setattr(HermitianOperator, "__getattr__", refuse)
    out = tmp_path / "w.json"
    assert main(["witness", "--family", "ghz", "-n", "10", "--numeric", "-o", str(out)]) == 0
    assert '"verdict": "entangled"' in out.read_text()
    with pytest.raises(AssertionError, match="dense matrix written"):
        lambda_operator(2, 2).matrix


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


@pytest.mark.parametrize("floor", [1, witness._FRAME_FLOOR])
@pytest.mark.parametrize(
    "op",
    [
        lambda_operator(5, 4),
        lambda_operator(3, 3),
        random_real_symmetric(np.random.default_rng(64), (4, 4, 4)),
        random_real_symmetric(np.random.default_rng(3), (3, 3, 3)),
        random_hermitian(np.random.default_rng(5), (2, 3, 4)),
        ENTRY_OPERATORS["ghz3"],
        ENTRY_OPERATORS["me3"],
        ENTRY_OPERATORS["sparse_2_3_4"],
        ENTRY_OPERATORS["projector_2_8"],
    ],
    ids=[
        "lambda_5_4",
        "lambda_3_3",
        "real_symmetric_4_4_4",
        "real_symmetric_3_3_3",
        "random_2_3_4",
        "ghz3",
        "me3",
        "sparse_2_3_4",
        "projector_2_8",
    ],
)
def test_solver_blocks_bound_the_kept_factors(monkeypatch, op, floor):
    # a block of A rows keeps n nnz factors and nnz weights per row, and
    # A d_i^2 entries per table: (n + 1) A max(nnz, d_i^2) in all, at most
    # max(D^2, floor) unless the block is a single restart
    dims = op.parties
    cap = max(op.dim**2, floor)
    seen = {j: [] for j in range(len(dims))}
    half_step = witness._half_step

    def spy(entries, states, j, factors):
        rows = states[j].shape[0]
        assert [f.shape for f in factors] == [(rows, entries.values.size)] * len(dims)
        kept = sum(f.size for f in factors) + rows * entries.values.size
        seen[j].append(rows == 1 or max(kept, (len(dims) + 1) * rows * max(dims) ** 2) <= cap)
        return half_step(entries, states, j, factors)

    monkeypatch.setattr(witness, "_FRAME_FLOOR", floor)
    monkeypatch.setattr(witness, "_half_step", spy)
    monkeypatch.setattr(witness, "_MAX_SWEEPS", 3)
    separability_eigenvalue_numeric(op, restarts=64, seed=2)
    for j, ok in seen.items():
        assert ok and all(ok), j


PARITY_OPERATORS = {
    **{f"lambda_{n}_{d}": lambda_operator(n, d) for n in (2, 3, 4) for d in (2, 3, 4)},
    **{f"lambda_{n}_{d}": lambda_operator(n, d) for n, d in [(6, 3), (5, 4), (10, 2)]},
    **PROBES,
    "ghz_probe_10": ghz_probe(10).operator,
    "me_probe_32": me_probe(32).operator,
}


@pytest.mark.parametrize("name", list(PARITY_OPERATORS))
def test_dense_built_operators_solve_like_entry_built(name):
    # the same matrix, built dense and scanned for its entries, takes every
    # bit of the entry-built operator's solve
    op = PARITY_OPERATORS[name]
    fast = separability_eigenvalue_numeric(op, restarts=12, seed=0, track_history=True)
    dense = separability_eigenvalue_numeric(
        HermitianOperator(op.matrix, op.parties), restarts=12, seed=0, track_history=True
    )
    assert fast.gmax == dense.gmax
    assert fast.converged == dense.converged
    assert [s.tobytes() for s in fast.states] == [s.tobytes() for s in dense.states]
    assert fast.history == dense.history


def solve_each_restart_alone(op, restarts, seed):
    """(gmax, states, converged, history) with every restart run as a one-row stack.

    The oracle for the solver's blocks, live stacks and kept factors: each
    restart sweeps on its own, its entry factors gathered afresh from its
    states at every half-step, under the solver's stopping and best-restart
    rules.
    """
    entries = witness._sparse_entries(op)
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
                factors = [witness._gathered(entries, s, i) for i, s in enumerate(states)]
                value, states[j] = witness._half_step(entries, states, j, factors)
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
@pytest.mark.parametrize(
    "name",
    [
        "lambda_3_3",
        "ghz3",
        "me3",
        "sparse_2_3_4",
        "sparse_2_5_2_3",
        "projector_2_8",
        "complex_3_2",
        "complex_2_3_4",
        "real_3_2",
        "real_2_3_4",
    ],
)
def test_live_stacks_keep_every_bit(monkeypatch, name, sweeps):
    # blocks forced by the floor, restarts leaving as they converge or at
    # the sweep cap, on sparse and dense operators: every bit of the result
    # is the unchunked solve's, and each restart's path is the one it takes alone
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
