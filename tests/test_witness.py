"""Probe-state witnesses, noise thresholds, and the separability solver."""

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
from povm_entangle import witness

from conftest import random_separable_element


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


def product_vector(states):
    v = states[0]
    for s in states[1:]:
        v = np.kron(v, s)
    return v


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


def test_solver_determinism_and_flags():
    op = lambda_operator(2, 3)
    a = separability_eigenvalue_numeric(op, restarts=6, seed=42)
    b = separability_eigenvalue_numeric(op, restarts=6, seed=42)
    assert a.gmax == b.gmax
    assert all(np.array_equal(x, y) for x, y in zip(a.states, b.states))
    short = separability_eigenvalue_numeric(op, restarts=2, max_sweeps=1)
    assert not short.converged
    with pytest.raises(ValidationError):
        separability_eigenvalue_numeric(op, restarts=0)
    with pytest.raises(ValidationError):
        separability_eigenvalue_numeric(op, tol=0.0)
    with pytest.raises(ValidationError, match="sweep"):
        separability_eigenvalue_numeric(op, max_sweeps=0)


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
    op = lambda_operator(3, 3)
    whole = separability_eigenvalue_numeric(op, restarts=20, seed=4, track_history=True)
    rows = []
    half_step = witness._half_step

    def spy(matrix, states, j):
        rows.append(states[j].shape[0])
        return half_step(matrix, states, j)

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
        random_real_symmetric(np.random.default_rng(6), (2, 3, 4)),
    ],
    ids=["lambda_3_3", "real_symmetric_2_3_4"],
)
def test_half_step_real_product_matches_complex(op):
    rng = np.random.default_rng(11)
    states = []
    for d in op.parties:
        s = rng.standard_normal((7, d)) + 1j * rng.standard_normal((7, d))
        states.append(s / np.linalg.norm(s, axis=1, keepdims=True))
    real = np.ascontiguousarray(op.matrix.real)
    assert not op.matrix.imag.any()
    for j in range(len(op.parties)):
        val_r, vec_r = witness._half_step(real, states, j)
        val_c, vec_c = witness._half_step(op.matrix, states, j)
        assert np.max(np.abs(val_r - val_c)) < 1e-12
        assert np.max(np.abs(vec_r - vec_c)) < 1e-12


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
