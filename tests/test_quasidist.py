"""Closed-form optimal grids, negativity summaries, and verdict logic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povm_entangle import (
    HermitianOperator,
    NegativityReport,
    QuasiDistribution,
    ValidationError,
    bell_povm,
    negativity_report,
    optimal_quasidistribution,
    pauli_expand,
    quasidistribution_from_pi,
    to_standard_form,
)
from povm_entangle.quasidist import LABELS, grids_from_pi

from conftest import random_separable_element

SINGLET_BLOCK = np.array([[-1 / 6, 1 / 3], [1 / 3, -1 / 6]])


def same_axis_min(grid):
    """Smallest same-axis cell; the closed form makes this q/3."""
    axis = np.repeat(np.arange(3), 2)
    return float(grid[axis[:, None] == axis[None, :]].min())


def singlet_grid():
    g = np.zeros((6, 6))
    for a in range(3):
        g[2 * a : 2 * a + 2, 2 * a : 2 * a + 2] = SINGLET_BLOCK
    return g


def test_labels_frozen():
    assert LABELS == ("x+", "x-", "y+", "y-", "z+", "z-")


def test_singlet_grid_values():
    qd = quasidistribution_from_pi([0.25, -0.25, -0.25, -0.25])
    assert np.max(np.abs(qd.grid - singlet_grid())) < 1e-15
    assert qd.q == pytest.approx(-0.5, abs=1e-15)
    assert same_axis_min(qd.grid) == pytest.approx(-1 / 6, abs=1e-15)
    assert qd.grid.sum() == pytest.approx(1.0, abs=1e-12)


def test_triplet_grid_values():
    # positive x coefficient moves the negative cells to the equal-sign corners
    qd = quasidistribution_from_pi([0.25, 0.25, 0.25, -0.25])
    assert np.sum(np.abs(qd.grid + 1 / 6) < 1e-12) == 6
    assert np.sum(np.abs(qd.grid - 1 / 3) < 1e-12) == 6
    assert qd.grid[0, 0] == pytest.approx(1 / 3)  # (x+, x+) now positive
    assert qd.grid[0, 1] == pytest.approx(-1 / 6)


def test_identity_grid_uniform_twelfth():
    qd = quasidistribution_from_pi([0.25, 0.0, 0.0, 0.0])
    same_axis = [qd.grid[i, j] for i in range(6) for j in range(6) if i // 2 == j // 2]
    assert np.allclose(same_axis, 1 / 12, atol=1e-15)
    assert qd.grid.sum() == pytest.approx(1.0, abs=1e-15)
    assert qd.q == pytest.approx(0.25)


def test_merged_projector_grid():
    qd = quasidistribution_from_pi([0.5, -0.5, 0.0, 0.0], source_trace=2.0)
    assert qd.q == pytest.approx(0.0, abs=1e-15)
    assert qd.grid[0, 1] == pytest.approx(1.0)
    assert qd.grid[1, 0] == pytest.approx(1.0)
    assert np.sum(np.abs(qd.grid) > 1e-15) == 2
    assert float(qd.grid.min()) >= 0.0


def test_stacked_grids_match_the_cell_formula(rng):
    pi = np.concatenate([rng.uniform(0.1, 1.0, (5, 3, 1)), rng.uniform(-0.3, 0.3, (5, 3, 3))], axis=-1)
    q, grids = grids_from_pi(pi)
    axis = np.repeat(np.arange(3), 2)
    signs = np.array([1.0, -1.0] * 3)
    for idx in np.ndindex(5, 3):
        p = pi[idx]
        want_q = float(p[0] - np.sum(np.abs(p[1:])))
        assert q[idx] == want_q
        for i in range(6):
            for j in range(6):
                w = p[1 + axis[i]]
                want = want_q / 3 + abs(w) + signs[i] * signs[j] * w if axis[i] == axis[j] else 0.0
                assert grids[idx][i, j] == want


def test_grid_total_is_four_pi0(rng):
    for _ in range(20):
        pi = np.concatenate([[rng.uniform(0.5, 1.0)], rng.uniform(-0.3, 0.3, 3)])
        qd = quasidistribution_from_pi(pi)
        assert qd.grid.sum() == pytest.approx(4 * pi[0], abs=1e-12)
        assert same_axis_min(qd.grid) == pytest.approx(qd.q / 3, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_nonnegative_iff_q_nonnegative(seed):
    rng = np.random.default_rng(seed)
    pi = np.concatenate([[rng.uniform(0.1, 1.0)], rng.uniform(-0.5, 0.5, 3)])
    qd = quasidistribution_from_pi(pi)
    if qd.q >= 0:
        assert float(qd.grid.min()) >= -1e-15
    else:
        assert float(qd.grid.min()) < 0


def test_scale_equivariance(rng):
    pi = np.array([0.3, 0.2, -0.1, 0.05])
    a = quasidistribution_from_pi(pi)
    b = quasidistribution_from_pi(2.5 * pi)
    assert np.max(np.abs(b.grid - 2.5 * a.grid)) < 1e-12


def test_separable_noise_cannot_create_negativity(rng):
    # mixing toward identity/4 keeps a nonnegative grid nonnegative
    for _ in range(25):
        sep = random_separable_element(rng, terms=10)
        full_rank = HermitianOperator(0.9 * sep.matrix + 0.1 * np.eye(4) / 4, (2, 2))
        qd = optimal_quasidistribution(to_standard_form(full_rank))
        assert qd.q >= -1e-9
        p = rng.uniform(0.0, 1.0)
        mixed = HermitianOperator((1 - p) * full_rank.matrix + p * np.eye(4) / 4, (2, 2))
        qd2 = optimal_quasidistribution(to_standard_form(mixed))
        assert qd2.q >= -1e-9
        assert float(qd2.grid.min()) >= -1e-9


def test_quasidistribution_validation():
    good = quasidistribution_from_pi([0.25, -0.25, -0.25, -0.25])
    bad = np.array(good.grid)
    bad[0, 2] = 0.1  # cross-axis cell
    with pytest.raises(ValidationError, match="cross-axis"):
        QuasiDistribution(bad, good.q, good.source_trace)
    with pytest.raises(ValidationError, match="total"):
        QuasiDistribution(good.grid, good.q, 2.0)
    with pytest.raises(ValidationError):
        quasidistribution_from_pi([0.25, 0.0, 0.0])


def test_negativity_report_verdict_tolerance():
    entangled = quasidistribution_from_pi([0.3 - 2e-9, 0.1, 0.1, 0.1])
    assert negativity_report(entangled).verdict == "entangled"
    borderline = quasidistribution_from_pi([0.3 - 5e-10, 0.1, 0.1, 0.1])
    assert negativity_report(borderline).verdict == "separable"


def test_negativity_report_values():
    qd = quasidistribution_from_pi([0.25, -0.25, -0.25, -0.25])
    rep = negativity_report(qd)
    assert rep.max_negativity == pytest.approx(-1 / 6, abs=1e-12)
    assert rep.cumulative_negativity == pytest.approx(-1.0, abs=1e-12)
    assert rep.q == pytest.approx(-0.5)
    assert rep.verdict == "entangled"


def test_negativity_report_validation():
    with pytest.raises(ValidationError):
        NegativityReport(0.1, 0.0, 0.0, "separable")
    with pytest.raises(ValidationError):
        NegativityReport(0.0, 0.0, 0.0, "maybe")


def ideal_bell_reference() -> dict:
    """Exact grids of the four ideal Bell projectors, keyed by Bell label.

    The projectors already carry diagonal Pauli coefficients, so their pi
    is read off without a standard form.
    """
    out = {}
    for label, el in bell_povm().items():
        c = pauli_expand(el)
        out[label] = quasidistribution_from_pi(np.diag(c).copy(), el.trace())
    return out


def test_ideal_bell_reference():
    ref = ideal_bell_reference()
    assert set(ref) == {"0", "x", "y", "z"}
    assert np.max(np.abs(ref["0"].grid - singlet_grid())) < 1e-15
    for label, qd in ref.items():
        assert qd.grid.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.sum(np.abs(qd.grid + 1 / 6) < 1e-12) == 6
        assert np.sum(np.abs(qd.grid - 1 / 3) < 1e-12) == 6
        assert qd.q == pytest.approx(-0.5, abs=1e-12)
