"""Counting covariance, simplex projection, and batched error propagation."""

import json
import os
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

import povm_entangle.montecarlo as mc
from povm_entangle import (
    ConvergenceError,
    DetectorModel,
    HermitianOperator,
    McConfig,
    PovmSet,
    ValidationError,
    bell_model,
    combine_outcomes,
    counting_covariance,
    covariance_factor,
    draw_counts,
    expected_frequencies,
    match_grid,
    negativity_report,
    optimal_quasidistribution,
    project_probabilities,
    propagate,
    quasidistribution_from_pi,
    reconstruct_povm,
    relative_frequencies,
    sample_frequencies,
    to_standard_form,
)
from povm_entangle.pauli import PAULIS
from povm_entangle.quasidist import grids_from_pi
from povm_entangle.tomography import invert_frequencies, repair_strength

from conftest import random_pd_element, route_pi


@pytest.fixture(scope="module")
def bell_counts():
    return draw_counts(bell_model(0.0, 10000), 5)


def test_mc_config_validation():
    McConfig(sample_size=2, inflation=1.0)
    with pytest.raises(ValidationError):
        McConfig(sample_size=1)
    with pytest.raises(ValidationError):
        McConfig(inflation=0.99)
    for inflation in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="finite"):
            McConfig(inflation=inflation)
    with pytest.raises(ValidationError):
        McConfig(workers=0)
    # a draw is keyed by its sample's low 32 bits
    McConfig(sample_size=2**32)
    with pytest.raises(ValidationError, match="2\\^32"):
        McConfig(sample_size=2**32 + 1)


def test_counting_covariance_frozen():
    cov = counting_covariance(np.full(4, 0.25), 101)
    assert np.allclose(np.diag(cov), 0.001875, atol=1e-15)
    off = cov[~np.eye(4, dtype=bool)]
    assert np.allclose(off, -0.000625, atol=1e-15)


def test_counting_covariance_degenerate():
    cov = counting_covariance(np.array([1.0, 0.0, 0.0, 0.0]), 500)
    assert np.max(np.abs(cov)) == 0.0
    with pytest.raises(ValidationError):
        counting_covariance(np.full(4, 0.25), 1)


def test_counting_covariance_row_sums(rng):
    for _ in range(10):
        p = rng.random(4)
        p /= p.sum()
        cov = counting_covariance(p, 1000)
        assert np.max(np.abs(cov.sum(axis=1))) < 1e-15
        assert np.max(np.abs(cov - cov.T)) < 1e-15
        assert np.all(np.linalg.eigvalsh(cov) > -1e-15)


def test_covariance_factor_reconstructs(rng):
    p = rng.random(4)
    p /= p.sum()
    cov = counting_covariance(p, 321)
    f = covariance_factor(cov)
    assert np.max(np.abs(f @ f.T - cov)) < 1e-15


def test_project_probabilities():
    out = project_probabilities(np.array([0.5, -0.1, 0.3, 0.1]), np.full(4, 0.25))
    assert np.all(out >= 0)
    assert out.sum() == pytest.approx(1.0, abs=1e-15)
    assert out[1] == 0.0
    fallback = np.full(4, 0.25)
    out = project_probabilities(np.array([-1.0, -2.0, 0.0, 0.0]), fallback)
    assert np.array_equal(out, fallback)
    out[0] = 9.0
    assert fallback[0] == 0.25  # projection returns a copy


def pair_draws(p, total, count, seed, inflation=1.0):
    """Pre-projection draws of one setting pair (index 0), one row per sample."""
    factor = covariance_factor(counting_covariance(p, total))
    return mc._raw_draws(p[None], factor[None], [0], range(count), seed, inflation)[:, 0]


def test_raw_draw_covariance_within_five_percent():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    total = 1000
    count = 100000
    draws = pair_draws(p, total, count, seed=2)
    emp = np.cov(draws.T)
    cov = counting_covariance(p, total)
    scale = np.abs(cov[np.abs(cov) > 1e-12])
    rel = np.abs(emp - cov)[np.abs(cov) > 1e-12] / scale
    assert float(rel.max()) < 0.05
    assert np.max(np.abs(draws.mean(axis=0) - p)) < 4 * np.sqrt(cov.max() / count)


def test_inflation_scales_raw_draws_exactly():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    base = pair_draws(p, 500, 50, seed=3)
    infl = pair_draws(p, 500, 50, seed=3, inflation=2.0)
    assert np.max(np.abs((infl - p) - 2.0 * (base - p))) < 1e-12


def test_huge_total_gives_point_mass():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    draws = pair_draws(p, 10**9, 100, seed=4)
    assert np.max(np.abs(draws - p)) < 1e-3


def test_sample_frequencies_contract(bell_counts):
    freqs = relative_frequencies(bell_counts)
    seen = 0
    for s in sample_frequencies(freqs, McConfig(sample_size=25, seed=6)):
        # constructor enforces the projection contract; spot-check anyway
        assert np.all(s.probs >= 0)
        assert np.max(np.abs(s.probs.sum(axis=0) - 1)) < 1e-12
        seen += 1
    assert seen == 25


def test_sample_mean_recovers_frequencies(bell_counts):
    freqs = relative_frequencies(bell_counts)
    acc = np.zeros_like(freqs.probs)
    n = 400
    for s in sample_frequencies(freqs, McConfig(sample_size=n, seed=8)):
        acc += s.probs
    acc /= n
    se = np.sqrt(0.25 / 10000 / n)
    assert np.max(np.abs(acc - freqs.probs)) < 6 * se + 1e-4


def test_match_grid_identity_and_swap():
    ref = np.zeros((6, 6))
    ref[0, 0] = 1.0
    same, permuted = match_grid(ref, ref)
    assert not permuted
    assert np.array_equal(same, ref)
    moved = np.zeros((6, 6))
    moved[2, 2] = 1.0  # same pattern parked on the y block
    aligned, permuted = match_grid(ref, moved)
    assert permuted
    assert aligned[0, 0] == 1.0


def test_propagate_smoke_two_samples(bell_counts):
    report = propagate(bell_counts, McConfig(sample_size=2, seed=1))
    assert report.retained == 2
    assert report.excluded == 0
    assert len(report.elements) == 4
    for e in report.elements:
        assert np.all(e.grid_std >= 0)
        sig = e.significance
        assert np.all(np.isnan(sig[e.grid_mean >= 0]))


@pytest.fixture()
def small_blocks(monkeypatch):
    """Blocks of 4 samples, so that the 12-sample runs below still split into
    forked shares; runs of fewer than two blocks fork nothing."""
    monkeypatch.setattr(mc, "_BLOCK", 4)


def test_propagate_determinism_across_workers(bell_counts, small_blocks):
    serial = propagate(bell_counts, McConfig(sample_size=12, seed=17, workers=1))
    threads = propagate(bell_counts, McConfig(sample_size=12, seed=17, workers=3))
    a = json.dumps(serial.to_dict(), sort_keys=True)
    b = json.dumps(threads.to_dict(), sort_keys=True)
    # workers only reorder the work, never the stream: identical bytes
    assert a.replace('"workers": 3', '"workers": 1') == b.replace('"workers": 3', '"workers": 1')


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="shares fork only where os.fork exists")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def forks(monkeypatch):
    """Counts os.fork calls; a forked child inherits the wrapper, which is harmless."""
    calls = []
    real = os.fork

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counting)
    return calls


def usable(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


@needs_fork
def test_propagate_caps_the_shares_at_the_usable_cpus(bell_counts, monkeypatch, forks, small_blocks):
    usable(monkeypatch, 3)
    wide = propagate(bell_counts, McConfig(sample_size=12, seed=17, workers=10**6))
    assert len(forks) == 2  # three processes, one per usable CPU
    assert_no_child_left()
    serial = propagate(bell_counts, McConfig(sample_size=12, seed=17, workers=1))
    assert len(forks) == 2
    assert json.dumps(wide.to_dict()) == json.dumps(serial.to_dict())


@needs_fork
def test_propagate_forks_nothing_on_one_usable_cpu(bell_counts, monkeypatch, forks, small_blocks):
    usable(monkeypatch, 1)
    report = propagate(bell_counts, McConfig(sample_size=12, seed=17, workers=4))
    assert forks == []
    serial = propagate(bell_counts, McConfig(sample_size=12, seed=17, workers=1))
    assert json.dumps(report.to_dict()) == json.dumps(serial.to_dict())


@needs_fork
def test_small_runs_fork_nothing_with_cpus_free(bell_counts, monkeypatch, forks):
    # a 20-sample share pays a block's fixed work and a fork; 40 samples fill no block
    usable(monkeypatch, 2)
    shared = propagate(bell_counts, McConfig(sample_size=40, seed=17, workers=2))
    assert forks == []
    serial = propagate(bell_counts, McConfig(sample_size=40, seed=17, workers=1))
    assert json.dumps(shared.to_dict()) == json.dumps(serial.to_dict())


@needs_fork
@pytest.mark.parametrize("cpus", [2, 4])
def test_only_runs_of_two_blocks_fork(bell_counts, monkeypatch, forks, cpus):
    # from two blocks on, one share per worker and usable CPU, however few
    # samples each then holds (3 of the 6-sample block on 4 CPUs)
    usable(monkeypatch, cpus)
    monkeypatch.setattr(mc, "_BLOCK", 6)
    reports = []
    for samples, forked in ((11, 0), (12, cpus - 1)):
        reports.append(propagate(bell_counts, McConfig(sample_size=samples, seed=17, workers=4)))
        assert len(forks) == forked
        assert_no_child_left()
    serial = propagate(bell_counts, McConfig(sample_size=12, seed=17, workers=1))
    assert json.dumps(reports[1].to_dict()) == json.dumps(serial.to_dict())


def test_propagate_runs_the_shares_here_without_fork(bell_counts, monkeypatch, small_blocks):
    usable(monkeypatch, 3)
    monkeypatch.delattr(os, "fork", raising=False)
    shared = propagate(bell_counts, McConfig(sample_size=12, seed=17, workers=3))
    monkeypatch.undo()
    serial = propagate(bell_counts, McConfig(sample_size=12, seed=17, workers=1))
    assert json.dumps(shared.to_dict()) == json.dumps(serial.to_dict())


def failing_shares(monkeypatch, fail):
    """Routes _run_samples through fail(lo) first; forked children inherit it."""
    real = mc._run_samples

    def run(payload):
        fail(payload[2])
        return real(payload)

    monkeypatch.setattr(mc, "_run_samples", run)


def raise_in_children(exc):
    def fail(lo):
        if lo > 0:
            raise exc

    return fail


@needs_fork
@pytest.mark.parametrize(
    "exc", [ValidationError("bad share"), ConvergenceError("stalled share", residual=0.5)]
)
def test_child_share_error_is_raised_with_its_type(bell_counts, monkeypatch, exc, small_blocks):
    usable(monkeypatch, 3)
    failing_shares(monkeypatch, raise_in_children(exc))
    with pytest.raises(type(exc), match=str(exc)) as info:
        propagate(bell_counts, McConfig(sample_size=12, seed=17, workers=3))
    assert info.value.args == exc.args
    assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("exc, code", [(ValidationError("bad share"), 2), (ConvergenceError("stalled share"), 3)])
def test_child_share_error_exits_without_traceback(tmp_path, capsys, monkeypatch, exc, code, small_blocks):
    from povm_entangle.cli import main

    counts = tmp_path / "c.csv"
    assert main(["simulate", "--counts", "400", "--seed", "1", "-o", str(counts)]) == 0
    usable(monkeypatch, 2)
    failing_shares(monkeypatch, raise_in_children(exc))
    assert main(["errors", "--counts", str(counts), "--samples", "12", "--workers", "2"]) == code
    err = capsys.readouterr().err
    assert str(exc) in err and "Traceback" not in err
    assert_no_child_left()


@needs_fork
def test_errors_command_forks_and_writes_the_serial_bytes(tmp_path, monkeypatch, forks):
    # criterion 9's 40 samples fill no 1024-sample block, so they fork only
    # with smaller blocks
    from povm_entangle.cli import main

    counts = tmp_path / "c.csv"
    assert main(["simulate", "--counts", "400", "--seed", "5", "-o", str(counts)]) == 0
    usable(monkeypatch, 2)
    monkeypatch.setattr(mc, "_BLOCK", 8)
    argv = ["errors", "--counts", str(counts), "--samples", "40", "--seed", "3"]
    assert main([*argv, "--workers", "2", "-o", str(tmp_path / "w2")]) == 0
    assert len(forks) == 1
    assert_no_child_left()
    assert main([*argv, "--workers", "1", "-o", str(tmp_path / "w1")]) == 0
    assert len(forks) == 1
    names = sorted(p.name for p in (tmp_path / "w1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "w2").iterdir()) and len(names) == 9
    for name in names:
        assert (tmp_path / "w2" / name).read_bytes() == (tmp_path / "w1" / name).read_bytes()


@needs_fork
def test_parent_share_error_still_reaps_the_children(bell_counts, monkeypatch, small_blocks):
    import time

    def fail(lo):
        if lo == 0:
            raise ConvergenceError("parent share")
        time.sleep(60)  # a child still at work is killed, not waited for

    usable(monkeypatch, 3)
    failing_shares(monkeypatch, fail)
    t0 = time.monotonic()
    with pytest.raises(ConvergenceError, match="parent share"):
        propagate(bell_counts, McConfig(sample_size=12, seed=17, workers=3))
    assert time.monotonic() - t0 < 30
    assert_no_child_left()


@needs_fork
def test_child_that_exits_without_a_reply_raises(bell_counts, monkeypatch, small_blocks):
    def fail(lo):
        if lo > 0:
            os._exit(1)

    usable(monkeypatch, 2)
    failing_shares(monkeypatch, fail)
    with pytest.raises(RuntimeError, match="without returning"):
        propagate(bell_counts, McConfig(sample_size=12, seed=17, workers=2))
    assert_no_child_left()


def test_propagate_repeatability(bell_counts):
    a = propagate(bell_counts, McConfig(sample_size=10, seed=23))
    b = propagate(bell_counts, McConfig(sample_size=10, seed=23))
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
    c = propagate(bell_counts, McConfig(sample_size=10, seed=24))
    assert json.dumps(a.to_dict(), sort_keys=True) != json.dumps(c.to_dict(), sort_keys=True)


def test_inflation_monotonicity(bell_counts):
    base = propagate(bell_counts, McConfig(sample_size=60, inflation=1.0, seed=9))
    wide = propagate(bell_counts, McConfig(sample_size=60, inflation=1.05, seed=9))
    for e1, e2 in zip(base.elements, wide.elements):
        assert np.all(e2.grid_std - e1.grid_std >= -1e-15)
        assert e2.q_std >= e1.q_std - 1e-15


def test_merged_counts_show_no_significant_negativity(bell_counts):
    merged = combine_outcomes(bell_counts, [("AA", "AD"), ("DA", "DD")])
    report = propagate(merged, McConfig(sample_size=80, seed=4))
    for e in report.elements:
        sig = e.significance[np.isfinite(e.significance)]
        assert sig.size == 0 or float(sig.max()) < 3.0
        assert not np.isfinite(e.negativity_significance) or e.negativity_significance < 3.0


def test_report_accessors_and_dict(bell_counts):
    report = propagate(bell_counts, McConfig(sample_size=5, seed=2))
    e = report.element("AA")
    assert e.label == "AA"
    with pytest.raises(ValidationError):
        report.element("nope")
    d = report.to_dict()
    assert d["sample_size"] == 5
    assert d["inflation"] == 1.05
    assert set(d["diagnostics"]) == {"excluded_samples", "permuted_samples"}
    assert set(d["diagnostics"]["permuted_samples"]) == {"AA", "AD", "DA", "DD"}
    cell = d["elements"][0]
    assert set(cell["q"]) == {"reference", "mean", "std", "significance"}
    assert len(cell["grid_std"]) == 6


def test_element_dict_maps_non_finite_cells_to_none():
    grid = np.arange(36, dtype=float).reshape(6, 6) / 36 - 0.5
    grid[3, 3] = -0.0
    holes = grid.copy()
    holes[0, 1], holes[2, 2], holes[5, 0] = np.nan, np.inf, -np.inf
    grids = {"grid_reference": holes, "grid_mean": grid, "grid_std": holes.T, "significance": -holes}
    e = mc.ElementUncertainty(
        "AA", 0.1, 0.1, 0.01, np.nan, -0.1, 0.01, -0.2, 0.02, *grids.values(), np.inf
    )
    d = e.to_dict()
    for key, src in grids.items():
        cells = d[key]
        for i in range(6):
            for j in range(6):
                if np.isfinite(src[i, j]):
                    assert type(cells[i][j]) is float
                    assert repr(cells[i][j]) == repr(float(src[i, j]))
                else:
                    assert cells[i][j] is None
    assert d["q"]["significance"] is None
    assert d["negativity_significance"] is None
    json.dumps(d, allow_nan=False)


def test_propagate_rejects_sub_two_usable():
    counts = draw_counts(bell_model(0.0, 10000), 5)
    with pytest.raises(ValidationError):
        propagate(counts, McConfig(sample_size=1))


def _no_standard_form_after(monkeypatch, calls, where=...):
    """Make the route report no standard form at where, an index into its
    [sample, element] mask, on every call after the first `calls`."""
    route = mc._standard_pi
    seen = {"n": 0}

    def patched(vals, vecs, t):
        pi, none = route(vals, vecs, t)
        seen["n"] += 1
        if seen["n"] > calls:
            none[where] = True
        return pi, none

    monkeypatch.setattr(mc, "_standard_pi", patched)


def test_propagate_aborts_on_mass_failures(bell_counts, monkeypatch):
    _no_standard_form_after(monkeypatch, 1)  # the reference pass stays intact
    with pytest.raises(ConvergenceError, match="samples failed"):
        propagate(bell_counts, McConfig(sample_size=10, seed=0))


def test_failed_element_excludes_its_sample(bell_counts, monkeypatch):
    clean = propagate(bell_counts, McConfig(sample_size=200, seed=3))
    first = _sample_q(bell_counts, 3, 0)
    _no_standard_form_after(monkeypatch, 1, (0, 0))  # element 0 of sample 0 fails
    report = propagate(bell_counts, McConfig(sample_size=200, seed=3))
    assert (report.retained, report.excluded) == (199, 1)
    assert clean.excluded == 0
    # the other samples are untouched: their q sum is the clean sum less sample 0's
    for e, c in zip(report.elements, clean.elements):
        assert e.q_mean * 199 == pytest.approx(c.q_mean * 200 - first[c.label], abs=1e-12)


def _sample_q(counts, seed, sample):
    freqs = relative_frequencies(counts)
    probs = mc._draw_probs(freqs, mc._pair_factors(freqs), [sample], seed, 1.05)
    q, _, _, _ = mc._quasi_batch(probs, freqs.basis_map, 1e-5)
    return dict(zip(freqs.outcomes, q[0]))


def test_reference_failure_raises():
    # an outcome that never fires: its reference element has zero trace, which
    # to_standard_form rejects, and the reference pass raises instead of excluding
    povm = PovmSet(("never", "always"), (HermitianOperator(np.zeros((4, 4))), HermitianOperator(np.eye(4))))
    freqs = expected_frequencies(DetectorModel(povm=povm))
    with pytest.raises(ValidationError, match="trace must be positive"):
        propagate(freqs, McConfig(sample_size=2))


def test_product_projector_reference_raises_convergence_error():
    # the reconstructed 0.5|00><00| element's Wootters values all vanish, so
    # it has no standard form, which must not turn into a NaN pi
    p00 = np.zeros((4, 4))
    p00[0, 0] = 0.5
    povm = PovmSet(("bad", "good"), (HermitianOperator(p00), HermitianOperator(np.eye(4) - p00)))
    freqs = expected_frequencies(DetectorModel(povm=povm))
    with pytest.raises(ConvergenceError, match="no standard form"):
        propagate(freqs, McConfig(sample_size=10))


@pytest.mark.parametrize("margin", [float("nan"), float("inf"), -1e-3])
def test_propagate_rejects_bad_margin(bell_counts, margin):
    with pytest.raises(ValidationError, match="margin"):
        propagate(bell_counts, McConfig(sample_size=2), margin=margin)


def test_blocks_and_workers_give_identical_reports(bell_counts, monkeypatch):
    cfg = McConfig(sample_size=12, seed=17, workers=1)
    whole = json.dumps(propagate(bell_counts, cfg).to_dict(), sort_keys=True)
    monkeypatch.setattr(mc, "_BLOCK", 3)
    for workers in (1, 3):
        report = propagate(bell_counts, McConfig(sample_size=12, seed=17, workers=workers))
        assert json.dumps(report.to_dict(), sort_keys=True) == whole


# the grid indices of the 6 axis orders, the identity first
RELABELINGS = [[2 * a + s for a in sigma for s in (0, 1)] for sigma in permutations(range(3))]


def _match_grid_loop(reference, grid):
    """The per-sample rule: identity first, then the first strict maximum."""
    best, best_score, permuted = grid, float(np.sum(reference * grid)), False
    for idx in RELABELINGS[1:]:
        cand = grid[np.ix_(idx, idx)]
        score = float(np.sum(reference * cand))
        if score > best_score:
            best, best_score, permuted = cand, score, True
    return best, permuted


def _block_grids(blocks):
    """Grids with the given 2x2 same-axis blocks, blocks[..., 3, 2, 2]."""
    grids = np.zeros(blocks.shape[:-3] + (6, 6))
    for a in range(3):
        grids[..., 2 * a : 2 * a + 2, 2 * a : 2 * a + 2] = blocks[..., a, :, :]
    return grids


def test_match_grids_follow_the_per_sample_rule(rng):
    # small integer blocks make exact score ties between relabelings common
    ref = _block_grids(rng.integers(-2, 3, size=(4, 3, 2, 2)).astype(float))
    grids = _block_grids(rng.integers(-2, 3, size=(300, 4, 3, 2, 2)).astype(float))
    grids[:100] += rng.normal(scale=0.3, size=(100, 4, 6, 6))
    permuted = np.zeros((300, 4), dtype=bool)
    for s in range(len(grids)):
        for k in range(4):
            aligned, permuted[s, k] = match_grid(ref[k], grids[s, k])
            want, want_permuted = _match_grid_loop(ref[k], grids[s, k])
            np.testing.assert_array_equal(aligned, want)
            assert permuted[s, k] == want_permuted
    assert 0 < permuted.sum() < permuted.size


def _exact_grid(pi):
    """The optimal grid of pi in exact arithmetic: block w holds q/3 + |pi_w| +- pi_w."""
    q = pi[0] - sum(abs(p) for p in pi[1:])
    grid = [[Fraction(0)] * 6 for _ in range(6)]
    for w, p in enumerate(pi[1:]):
        for a in (0, 1):
            for b in (0, 1):
                grid[2 * w + a][2 * w + b] = q / 3 + abs(p) + (p if a == b else -p)
    return grid


def _overlaps(ref, grid):
    """Exact sum of ref * candidate over the 36 cells, for each of the 6 axis orders."""
    return [sum(ref[i][j] * grid[idx[i]][idx[j]] for i in range(6) for j in range(6)) for idx in RELABELINGS]


@st.composite
def convention_pi(draw):
    """pi under the sign convention: |pi_1| >= |pi_2| >= |pi_3|, and only pi_3
    may be negative; small integers make ties common."""
    small, mid, big = sorted(draw(st.lists(st.integers(0, 6), min_size=3, max_size=3)))
    sign = draw(st.sampled_from((1, -1)))
    return [Fraction(draw(st.integers(1, 12)), 4), Fraction(big), Fraction(mid), Fraction(sign * small)]


@settings(max_examples=300, deadline=None)
@given(convention_pi(), convention_pi())
def test_the_sign_convention_makes_the_identity_a_best_relabeling(ref_pi, pi):
    ref, grid = _exact_grid(ref_pi), _exact_grid(pi)
    np.testing.assert_allclose(grids_from_pi(np.array(pi, dtype=float))[1], np.array(grid, dtype=float), atol=1e-15)
    identity, *others = _overlaps(ref, grid)
    assert all(identity >= score for score in others)
    # without an exact |pi_w| tie the identity wins outright, so the deleted
    # per-sample relabeling could only ever choose differently on such a tie
    if not (mc._axis_ties(np.array(ref_pi, dtype=float)) or mc._axis_ties(np.array(pi, dtype=float))):
        assert all(identity > score for score in others)


def _permuted(report):
    return {e.label: e.permuted for e in report.elements}


@pytest.mark.parametrize("eps, counts, seed", [(0.0, 10000, 0), (0.1, 1000, 3)])
def test_measured_data_leaves_no_axis_order_open(eps, counts, seed):
    # criterion 8's data, and white noise 0.1 at 10^3 counts per setting
    report = propagate(draw_counts(bell_model(eps, counts), seed), McConfig(sample_size=300, seed=2))
    assert report.retained == 300
    assert set(_permuted(report).values()) == {0}


def test_noise_free_reference_leaves_every_axis_order_open():
    # |pi_1| = |pi_2| = |pi_3| = pi_0 exactly in every noise-free Bell element,
    # so every retained sample counts, whatever its own pi
    freqs = expected_frequencies(bell_model())
    _, _, pi, _ = mc._quasi_batch(freqs.probs[None], freqs.basis_map, 1e-5, strict=True)
    assert np.all(np.abs(pi[0, :, 1:]) == pi[0, :, :1])
    report = propagate(freqs, McConfig(sample_size=200, seed=1))
    assert _permuted(report) == {label: report.retained for label in freqs.outcomes}


@pytest.mark.parametrize("eps, counts, seed", [(0.0, 10000, 0), (0.1, 1000, 600658849)])
def test_pair_factors_match_per_pair_factors(eps, counts, seed):
    freqs = relative_frequencies(draw_counts(bell_model(eps, counts), seed))
    factors = mc._pair_factors(freqs)
    for i in range(6):
        for j in range(6):
            p = freqs.probs[:, i, j]
            cov = (np.diag(p) - np.outer(p, p)) / (int(freqs.totals[i, j]) - 1)
            w, v = np.linalg.eigh((cov + cov.T) / 2)
            np.testing.assert_array_equal(factors[i * 6 + j], v @ np.diag(np.sqrt(np.clip(w, 0.0, None))))
            np.testing.assert_array_equal(factors[i * 6 + j], covariance_factor(cov))


def _local_filter(rng, strength):
    """exp(h.sigma) U: an SL(2,C) boost of rapidity at most strength after a random SU(2)."""
    h = rng.normal(size=3)
    h *= strength * rng.uniform() / np.linalg.norm(h)
    a = rng.normal(size=3)
    n = np.linalg.norm(a)
    u = np.cos(n) * np.eye(2) + 1j * np.sin(n) * np.einsum("i,ijk->jk", a / n, PAULIS[1:])
    r = np.linalg.norm(h)
    boost = np.cosh(r) * np.eye(2) + np.sinh(r) * np.einsum("i,ijk->jk", h / r, PAULIS[1:])
    return boost @ u


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5))
def test_route_pi_matches_standard_form(seeds):
    elements = [random_pd_element(np.random.default_rng(s), trace=0.5 + s % 3) for s in seeds]
    pi, none = route_pi(elements)
    assert not none.any()
    for k, el in enumerate(elements):
        np.testing.assert_allclose(pi[k], to_standard_form(el).pi, rtol=0, atol=1e-12)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_route_pi_of_rank_deficient_elements_matches_standard_form(rank):
    # elements the standard form reaches only through its filter sweeps
    elements = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        elements.append(HermitianOperator(g @ g.conj().T, (2, 2)))
    pi, none = route_pi(elements)
    assert not none.any()
    for k, el in enumerate(elements):
        np.testing.assert_allclose(pi[k], to_standard_form(el).pi, rtol=0, atol=1e-11)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(131396)  # smallest Lorentz value 1e-5 of the largest
def test_route_pi_is_invariant_under_local_filters(seed):
    rng = np.random.default_rng(seed)
    el = random_pd_element(rng)
    k = np.kron(_local_filter(rng, 0.5), _local_filter(rng, 0.5))
    moved = HermitianOperator(k @ el.matrix @ k.conj().T, (2, 2))
    pi, none = route_pi([el, moved])
    assert not none.any()
    scale = moved.trace() / el.trace()
    np.testing.assert_allclose(pi[1], scale * pi[0], rtol=0, atol=1e-12 * scale)
    q, _ = grids_from_pi(pi)
    assert q[1] == pytest.approx(scale * q[0], abs=1e-12 * scale)
    verdicts = [negativity_report(quasidistribution_from_pi(p, 4 * p[0])).verdict for p in pi]
    if abs(q[0]) > 1e-6:
        assert verdicts[0] == verdicts[1]


def test_route_pi_of_a_strongly_filtered_element():
    # boosts of rapidity 1.5 on both arms of a noisy Bell element
    def boost(n):
        n = np.asarray(n, dtype=float) / np.linalg.norm(n)
        return np.cosh(1.5) * np.eye(2) + np.sinh(1.5) * np.einsum("i,ijk->jk", n, PAULIS[1:])

    phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    k = np.kron(boost([1, 0, 1]), boost([0, 1, 1]))
    m = k @ (0.99 * np.outer(phi, phi) + 0.0025 * np.eye(4)) @ k.conj().T
    pi, none = route_pi([HermitianOperator(m / np.trace(m).real, (2, 2))])
    assert not none[0]
    np.testing.assert_allclose(pi[0], [0.25, 0.2475, 0.2475, -0.2475], atol=1e-12)


def test_route_reads_diagonal_singlet_elements_in_the_sign_rule():
    # 0.9 singlet + 0.1 * 1/4 and its Bell-diagonal partners: correlation
    # blocks already diagonal, read in the same sign rule as every other block
    freqs = expected_frequencies(bell_model(eps=1 / 37))
    povm = reconstruct_povm(freqs)
    assert not route_pi(povm.elements)[1].any()
    q, grids, _, failed = mc._quasi_batch(freqs.probs[None], freqs.basis_map, 1e-5, strict=True)
    assert not failed.any()
    for k, el in enumerate(povm.elements):
        qdist = optimal_quasidistribution(to_standard_form(el))
        assert q[0, k] == pytest.approx(qdist.q, abs=1e-12)
        np.testing.assert_allclose(grids[0, k], qdist.grid, rtol=0, atol=1e-12)
    singlet = to_standard_form(povm.element("AA")).pi
    np.testing.assert_allclose(singlet, [0.25, 0.225, 0.225, -0.225], atol=1e-12)


def _wootters_values(mats):
    """Singular values of sqrt(E) (sigma_y (x) sigma_y) sqrt(E)^* of stacked mats[..., 4, 4]."""
    vals, vecs = np.linalg.eigh(mats)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
    return np.linalg.svd(root @ np.kron(PAULIS[2], PAULIS[2]) @ root.conj(), compute_uv=False)


@pytest.mark.parametrize("eps, counts, seed", [(0.0, 10000, 0), (0.1, 1000, 3), (0.3, 10000, 0)])
def test_most_negative_cell_is_the_concurrence_line(eps, counts, seed):
    # criterion 8's data and two noisy sets: each resampled, repaired
    # element's most negative cell is -(t/6) max(0, l1 - l2 - l3 - l4) / sum(l)
    freqs = relative_frequencies(draw_counts(bell_model(eps, counts), seed))
    probs = mc._draw_probs(freqs, mc._pair_factors(freqs), range(200), 0, 1.05)
    _, grids, _, failed = mc._quasi_batch(probs, freqs.basis_map, 1e-5)
    assert not failed.any()
    _, mats = invert_frequencies(probs, freqs.basis_map)
    p, _ = repair_strength(np.linalg.eigvalsh(mats)[..., 0], 1e-5)
    mats = (1 - p)[:, None, None, None] * mats + p[:, None, None, None] * np.eye(4) / mats.shape[1]
    t = np.trace(mats, axis1=-2, axis2=-1).real
    lam = _wootters_values(mats)
    line = -(t / 6) * np.maximum(0.0, lam[..., 0] - lam[..., 1:].sum(axis=-1)) / lam.sum(axis=-1)
    np.testing.assert_allclose(np.minimum(grids.min(axis=(-2, -1)), 0.0), line, rtol=0, atol=1e-13)


def test_noise_free_samples_share_the_reference_sign_rule():
    # the noise-free reference and its resamples must read each element in
    # one sign rule, or the grid mean loses the reference's negative cells
    report = propagate(expected_frequencies(bell_model()), McConfig(sample_size=200, seed=1, workers=1))
    for e in report.elements:
        big = np.abs(e.grid_reference) > 0.05
        assert big.any()
        np.testing.assert_array_equal(np.sign(e.grid_mean[big]), np.sign(e.grid_reference[big]))
    permuted = {e.label: e.permuted for e in report.elements}
    assert permuted["AA"] <= max(n for label, n in permuted.items() if label != "AA")


def _per_element_aggregate(qs, grids):
    """Each element's statistics from its own 1-D and (n, 6, 6) arrays."""
    n = len(qs)
    out = []
    for k in range(qs.shape[1]):
        q_k = np.ascontiguousarray(qs[:, k])
        g = np.ascontiguousarray(grids[:, k])
        max_negs = np.minimum(g.reshape(n, -1).min(axis=1), 0.0)
        cums = np.where(g < 0, g, 0.0).reshape(n, -1).sum(axis=1)
        grid_mean = g.mean(axis=0)
        grid_std = g.std(axis=0, ddof=1)
        sig = np.full((6, 6), np.nan)
        neg = grid_mean < 0
        with np.errstate(divide="ignore"):
            sig[neg] = np.where(grid_std[neg] > 0, -grid_mean[neg] / grid_std[neg], np.inf)
        q_mean, q_std = float(q_k.mean()), float(q_k.std(ddof=1))
        if q_mean < 0:
            q_sig = -q_mean / q_std if q_std > 0 else np.inf
        else:
            q_sig = np.nan
        if neg.any():
            neg_sig = sig[np.unravel_index(np.argmin(grid_mean), grid_mean.shape)]
        else:
            neg_sig = np.nan
        out.append(
            dict(
                q_mean=q_mean,
                q_std=q_std,
                q_significance=float(q_sig),
                max_negativity_mean=float(max_negs.mean()),
                max_negativity_std=float(max_negs.std(ddof=1)),
                cumulative_mean=float(cums.mean()),
                cumulative_std=float(cums.std(ddof=1)),
                grid_mean=grid_mean,
                grid_std=grid_std,
                significance=sig,
                negativity_significance=float(neg_sig),
            )
        )
    return out


@pytest.mark.parametrize("n", [2, 3, 1000, 1025])
def test_aggregate_matches_per_element_statistics_bitwise(n):
    rng = np.random.default_rng(n)
    labels = ("a", "b", "c", "d", "e")
    qs = rng.normal(-0.3, 0.05, (n, 5))
    grids = rng.normal(0.0, 0.2, (n, 5, 6, 6))
    qs[:, 1] = 0.25  # no spread, q >= 0
    grids[:, 2] = np.abs(grids[:, 2])  # no negative cell
    grids[:, 3, 1, 4] = -0.125  # a negative cell with no spread
    permuted = rng.random((n, 5)) < 0.2
    report = mc._aggregate(labels, qs[0], grids[0], qs, grids, permuted, McConfig(sample_size=n), 0)
    assert report.retained == n
    for k, (e, want) in enumerate(zip(report.elements, _per_element_aggregate(qs, grids))):
        assert e.label == labels[k]
        assert e.permuted == int(permuted[:, k].sum())
        for name, value in want.items():
            got = getattr(e, name)
            assert np.asarray(got).tobytes() == np.asarray(value).tobytes(), (k, name)
