"""Counts handling, linear inversion, physicality repair, and outcome merging."""

import json
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povm_entangle import (
    BasisMap,
    CoincidenceCounts,
    HermitianOperator,
    McConfig,
    PovmSet,
    RelativeFrequencies,
    ValidationError,
    bell_model,
    closest_bell_labels,
    combine_outcomes,
    draw_counts,
    expected_frequencies,
    optimal_quasidistribution,
    pauli_expand,
    physicality_correct,
    reconstruct_correlations,
    reconstruct_povm,
    relative_frequencies,
    sample_frequencies,
    sampling_matrices,
    to_standard_form,
)
from povm_entangle.pauli import SIGMA_X
from povm_entangle.tomography import COUNT_MAX, invert_frequencies, repair_strength

from conftest import random_povm


def exact_bell_counts(total=400):
    """Integer counts realizing the exact Born frequencies of the Bell analyzer."""
    freqs = expected_frequencies(bell_model(0.0, total))
    counts = np.rint(freqs.probs * total).astype(np.int64)
    assert np.all(np.abs(counts - freqs.probs * total) < 1e-9)  # probabilities are quarters
    return CoincidenceCounts(freqs.outcomes, counts, freqs.basis_map)


def test_default_basis_map_assignments():
    bm = BasisMap.default()
    assert bm.assignment("alice", "H") == ("z", 1)
    assert bm.assignment("alice", "V") == ("z", -1)
    assert bm.assignment("alice", "D") == ("x", 1)
    assert bm.assignment("alice", "A") == ("x", -1)
    assert bm.assignment("alice", "L") == ("y", 1)
    assert bm.assignment("alice", "R") == ("y", -1)
    assert bm.assignment("bob", "D") == ("z", 1)
    assert bm.assignment("bob", "A") == ("z", -1)
    assert bm.assignment("bob", "H") == ("x", 1)
    assert bm.assignment("bob", "V") == ("x", -1)
    assert bm.assignment("bob", "R") == ("y", 1)
    assert bm.assignment("bob", "L") == ("y", -1)
    with pytest.raises(ValidationError):
        bm.assignment("carol", "H")


def test_basis_map_validation():
    good = BasisMap.default().to_dict()
    bad = dict(good)
    bad["alice"] = {**good["alice"], "H": "z-"}  # z- hit twice
    with pytest.raises(ValidationError):
        BasisMap.from_dict(bad)
    bad = dict(good)
    bad["bob"] = {k: v for k, v in good["bob"].items() if k != "L"}
    with pytest.raises(ValidationError):
        BasisMap.from_dict(bad)
    with pytest.raises(ValidationError):
        BasisMap.from_dict({"alice": {**good["alice"], "H": "q+"}, "bob": good["bob"]})
    rt = BasisMap.from_dict(good)
    assert rt.to_dict() == good


def test_sampling_matrices_frozen():
    sa, sb = sampling_matrices()
    third = 1.0 / 3.0
    expect_a = np.array(
        [
            [third, third, third, third, third, third],
            [0, 0, 1, -1, 0, 0],
            [0, 0, 0, 0, -1, 1],
            [1, -1, 0, 0, 0, 0],
        ]
    )
    expect_b = np.array(
        [
            [third, third, third, third, third, third],
            [1, -1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, -1],
            [0, 0, 1, -1, 0, 0],
        ]
    )
    assert np.max(np.abs(sa - expect_a)) < 1e-15
    assert np.max(np.abs(sb - expect_b)) < 1e-15


def test_trivial_povm_inversion():
    # uniform quarter frequencies invert to four identity/4 elements
    probs = np.full((4, 6, 6), 0.25)
    freqs = RelativeFrequencies(("AA", "AD", "DA", "DD"), probs, np.full((6, 6), 100.0), BasisMap.default())
    for c in reconstruct_correlations(freqs):
        assert np.max(np.abs(c - np.diag([0.25, 0.0, 0.0, 0.0]))) < 1e-12
    povm = reconstruct_povm(freqs)
    for el in povm.elements:
        assert np.max(np.abs(el.matrix - np.eye(4) / 4)) < 1e-12


def test_bell_reconstruction_exact(ideal_bell):
    counts = exact_bell_counts()
    povm = reconstruct_povm(relative_frequencies(counts))
    match = closest_bell_labels(povm)
    assert {k: v["label"] for k, v in match.items()} == {
        "AA": "0",
        "AD": "x",
        "DA": "z",
        "DD": "y",
    }
    for out, info in match.items():
        assert info["overlap"] == pytest.approx(1.0, abs=1e-10)
        ideal = ideal_bell.element(info["label"])
        assert np.max(np.abs(povm.element(out).matrix - ideal.matrix)) < 1e-10


def test_reconstruction_linearity(rng):
    def rand_freqs():
        p = rng.random((4, 6, 6))
        p /= p.sum(axis=0)
        return RelativeFrequencies(("AA", "AD", "DA", "DD"), p, np.full((6, 6), 10.0), BasisMap.default())

    f1, f2 = rand_freqs(), rand_freqs()
    alpha = 0.3
    mixed = RelativeFrequencies(
        f1.outcomes, alpha * f1.probs + (1 - alpha) * f2.probs, f1.totals, f1.basis_map
    )
    c1 = reconstruct_correlations(f1)
    c2 = reconstruct_correlations(f2)
    cm = reconstruct_correlations(mixed)
    for k in range(4):
        expect = alpha * c1[k] + (1 - alpha) * c2[k]
        assert np.max(np.abs(cm[k] - expect)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_end_to_end_identity(seed):
    # exact frequencies from any valid POVM invert back to that POVM
    rng = np.random.default_rng(seed)
    povm = random_povm(rng)
    from povm_entangle.simulate import DetectorModel

    model = DetectorModel(povm=povm, eps=0.0, counts_per_setting=1000)
    back = reconstruct_povm(expected_frequencies(model))
    for a, b in zip(back.elements, povm.elements):
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-10


def indefinite_povm(worst):
    """Diagonal POVM whose single negative eigenvalue is exactly -worst."""
    e1 = np.diag([-worst, 0.25, 0.25, 0.25])
    rest = np.diag([(1 + worst) / 3, 0.25, 0.25, 0.25])
    els = [e1] + [rest] * 3
    return PovmSet(("AA", "AD", "DA", "DD"), tuple(HermitianOperator(m) for m in els))


def test_physicality_correction_fixture():
    povm = indefinite_povm(0.05)
    corrected, p, lam = physicality_correct(povm)
    assert lam == pytest.approx(0.05001, abs=1e-15)
    assert p == pytest.approx(0.05001 / 0.30001, abs=1e-12)
    total = sum(el.matrix for el in corrected.elements)
    assert np.max(np.abs(total - np.eye(4))) < 1e-12
    worst = min(np.linalg.eigvalsh(el.matrix)[0] for el in corrected.elements)
    assert worst >= 0


def test_physicality_lambda_includes_margin():
    _, _, lam = physicality_correct(indefinite_povm(0.1))
    assert lam == pytest.approx(0.10001, abs=1e-15)


def test_physicality_noop_on_positive(ideal_bell):
    corrected, p, lam = physicality_correct(ideal_bell)
    assert corrected is ideal_bell
    assert p == 0.0
    assert lam == 0.0


def test_physicality_detection_threshold():
    povm = indefinite_povm(1e-13)  # below the 1e-12 detection threshold
    corrected, p, lam = physicality_correct(povm)
    assert p == 0.0 and lam == 0.0
    assert corrected is povm
    with pytest.raises(ValidationError):
        physicality_correct(povm, margin=-1e-3)


def indefinite_samples(count=12):
    """An indefinite dataset and resamplings of it: the repair fires on every one."""
    freqs = relative_frequencies(draw_counts(bell_model(0.0, 1000, 0.02), 7))
    return [freqs] + list(sample_frequencies(freqs, McConfig(sample_size=count, seed=1)))


def test_stacked_inversion_matches_per_sample_inversion():
    samples = indefinite_samples()
    coeffs, mats = invert_frequencies(np.stack([f.probs for f in samples]), samples[0].basis_map)
    assert coeffs.shape == mats.shape == (len(samples), 4, 4, 4)
    for s, f in enumerate(samples):
        np.testing.assert_array_equal(coeffs[s], reconstruct_correlations(f))
        for k, el in enumerate(reconstruct_povm(f).elements):
            np.testing.assert_array_equal(mats[s, k], el.matrix)


def criterion_3_povm():
    spoiled = [np.diag([-0.05, 0.25, 0.25, 0.25]).astype(complex)]
    spoiled += [np.diag([1.05 / 3, 0.25, 0.25, 0.25]).astype(complex)] * 3
    return PovmSet(("AA", "AD", "DA", "DD"), tuple(HermitianOperator(m, (2, 2)) for m in spoiled))


def test_stacked_repair_matches_physicality_correct(ideal_bell):
    povms = [criterion_3_povm(), ideal_bell] + [reconstruct_povm(f) for f in indefinite_samples()]
    mats = np.stack([[el.matrix for el in povm.elements] for povm in povms])
    p, lam = repair_strength(np.linalg.eigvalsh(mats)[..., 0], 1e-5)
    fired = 0
    for s, povm in enumerate(povms):
        _, p_s, lam_s = physicality_correct(povm)
        assert (p[s], lam[s]) == (p_s, lam_s)
        fired += p_s > 0
    assert lam[0] == pytest.approx(0.05001, abs=1e-15)
    assert (p[1], lam[1]) == (0.0, 0.0)
    assert fired == len(povms) - 1


@pytest.mark.parametrize("margin", [float("nan"), float("inf"), -1e-3])
@pytest.mark.parametrize("worst", [0.0, 0.05])
def test_physicality_rejects_bad_margin(margin, worst):
    # the margin is checked whether or not the repair fires
    with pytest.raises(ValidationError, match="margin"):
        physicality_correct(indefinite_povm(worst), margin=margin)


def test_combine_pairwise_is_separable_projector():
    counts = exact_bell_counts()
    merged = combine_outcomes(counts, [("AA", "AD"), ("DA", "DD")])
    assert merged.outcomes == ("AA+AD", "DA+DD")
    povm = reconstruct_povm(relative_frequencies(merged))
    expect = (np.eye(4) - np.kron(SIGMA_X, SIGMA_X)) / 2  # singlet plus its x partner
    assert np.max(np.abs(povm.element("AA+AD").matrix - expect)) < 1e-10


def test_combine_identity_grouping():
    counts = exact_bell_counts()
    same = combine_outcomes(counts, [("AA",), ("AD",), ("DA",), ("DD",)])
    assert same.outcomes == counts.outcomes
    assert np.array_equal(same.counts, counts.counts)
    assert same.to_csv() == counts.to_csv()


def test_combine_single_group_gives_identity():
    counts = exact_bell_counts()
    one = combine_outcomes(counts, [("AA", "AD", "DA", "DD")])
    povm = reconstruct_povm(relative_frequencies(one))
    assert len(povm) == 1
    assert np.max(np.abs(povm.elements[0].matrix - np.eye(4))) < 1e-10


def test_combine_rejects_bad_groups():
    counts = exact_bell_counts()
    with pytest.raises(ValidationError):
        combine_outcomes(counts, [("AA", "AD"), ("AD", "DD")])  # overlap
    with pytest.raises(ValidationError):
        combine_outcomes(counts, [("AA", "AD")])  # incomplete
    with pytest.raises(ValidationError):
        combine_outcomes(counts, [("AA", "XX"), ("AD", "DA", "DD")])


def test_combine_preserves_completeness(rng):
    counts = draw_counts(bell_model(0.1, 5000), 3)
    merged = combine_outcomes(counts, [("AA", "DD"), ("AD", "DA")])
    total_before = reconstruct_povm(relative_frequencies(counts))
    total_after = reconstruct_povm(relative_frequencies(merged))
    s1 = sum(el.matrix for el in total_before.elements)
    s2 = sum(el.matrix for el in total_after.elements)
    assert np.max(np.abs(s1 - s2)) < 1e-12


def test_csv_round_trip():
    counts = exact_bell_counts()
    back = CoincidenceCounts.from_csv(counts.to_csv())
    assert back.outcomes == counts.outcomes
    assert np.array_equal(back.counts, counts.counts)


def test_csv_case_insensitive():
    counts = exact_bell_counts()
    lowered = counts.to_csv().lower()
    back = CoincidenceCounts.from_csv(lowered)
    assert back.outcomes == counts.outcomes
    assert np.array_equal(back.counts, counts.counts)


def test_csv_diagnostics():
    with pytest.raises(ValidationError, match="empty"):
        CoincidenceCounts.from_csv("")
    with pytest.raises(ValidationError, match="line 1"):
        CoincidenceCounts.from_csv("a,b,c\n")
    header = "probe_a,probe_b,outcome,count\n"
    with pytest.raises(ValidationError, match="line 2"):
        CoincidenceCounts.from_csv(header + "Q,H,AA,5\n")
    with pytest.raises(ValidationError, match="line 3"):
        CoincidenceCounts.from_csv(header + "H,H,AA,5\nH,V,AA,x\n")
    with pytest.raises(ValidationError, match="duplicate"):
        CoincidenceCounts.from_csv(header + "H,H,AA,5\nH,H,AA,6\n")
    with pytest.raises(ValidationError, match="line 2: count .* 64 bits"):
        CoincidenceCounts.from_csv(header + f"H,H,AA,{10**30}\n")
    with pytest.raises(ValidationError, match="missing"):
        CoincidenceCounts.from_csv(header + "H,H,AA,5\n")


def test_json_round_trip():
    counts = exact_bell_counts()
    back = CoincidenceCounts.from_json_dict(counts.to_json_dict())
    assert back.outcomes == counts.outcomes
    assert np.array_equal(back.counts, counts.counts)
    assert back.basis_map.to_dict() == counts.basis_map.to_dict()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_", min_size=1, max_size=6), min_size=1, max_size=5, unique=True)
    .flatmap(lambda labels: st.tuples(
        st.just(tuple(labels)),
        # up to 5 outcomes of at most COUNT_MAX // 5 keep every total in int64
        st.lists(st.integers(0, COUNT_MAX // 5), min_size=36 * len(labels), max_size=36 * len(labels)),
    ))
)
def test_counts_survive_csv_then_json(case):
    labels, flat = case
    counts = np.array(flat, dtype=np.int64).reshape(len(labels), 6, 6)
    counts[0] += counts.sum(axis=0) == 0  # every probe pair needs a positive total
    data = CoincidenceCounts(labels, counts, BasisMap.default())
    via_csv = CoincidenceCounts.from_csv(data.to_csv())
    back = CoincidenceCounts.from_json_dict(json.loads(json.dumps(via_csv.to_json_dict())))
    assert back.outcomes == labels
    assert np.array_equal(back.counts, counts)


def test_json_diagnostics():
    counts = exact_bell_counts()
    d = counts.to_json_dict()
    with pytest.raises(ValidationError, match="counts"):
        CoincidenceCounts.from_json_dict({"basis_map": d["basis_map"]})
    broken = {"counts": dict(d["counts"])}
    del broken["counts"]["H,H"]
    with pytest.raises(ValidationError, match="missing"):
        CoincidenceCounts.from_json_dict(broken)
    broken = {"counts": {**d["counts"], "H+H": {"AA": 1}}}
    with pytest.raises(ValidationError, match="pair"):
        CoincidenceCounts.from_json_dict(broken)


def test_json_labels_follow_the_csv_rule():
    # surrounding whitespace is ignored and case folded in both formats
    counts = exact_bell_counts()
    body = counts.to_json_dict()
    body["counts"] = {
        f" {key.lower()} ": {f" {out.lower()} ": n for out, n in cell.items()}
        for key, cell in body["counts"].items()
    }
    back = CoincidenceCounts.from_json_dict(body)
    assert back.outcomes == counts.outcomes
    assert np.array_equal(back.counts, counts.counts)


def test_counts_validation():
    good = exact_bell_counts()
    with pytest.raises(ValidationError, match="nonnegative"):
        CoincidenceCounts(good.outcomes, good.counts - 1000, good.basis_map)
    with pytest.raises(ValidationError, match="integer"):
        CoincidenceCounts(good.outcomes, good.counts + 0.5, good.basis_map)
    zeroed = good.counts.copy()
    zeroed[:, 2, 3] = 0
    with pytest.raises(ValidationError, match="zero total"):
        CoincidenceCounts(good.outcomes, zeroed, good.basis_map)
    with pytest.raises(ValidationError, match="non-empty"):
        CoincidenceCounts((" ", *good.outcomes[1:]), good.counts, good.basis_map)


@pytest.mark.parametrize("value", [np.inf, -np.inf, 2.0**63, 1e19])
def test_float_counts_beyond_64_bits_are_refused(value):
    # refused before the int64 cast, which would wrap them
    good = exact_bell_counts()
    wide = good.counts.astype(float)
    wide[0, 1, 2] = value
    with pytest.raises(ValidationError, match="does not fit in 64 bits"):
        CoincidenceCounts(good.outcomes, wide, good.basis_map)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("probs", np.nan, r"lie in \[0, 1\]"),
        ("totals", np.nan, "totals must be positive"),
        ("totals", np.inf, "totals must be positive"),
        ("totals", 2.0**63, "fit in 64 bits"),
    ],
)
def test_frequencies_refuse_non_finite_values(field, value, message):
    args = {"probs": np.full((4, 6, 6), 0.25), "totals": np.full((6, 6), 10.0)}
    args[field].flat[0] = value
    with pytest.raises(ValidationError, match=message):
        RelativeFrequencies(("AA", "AD", "DA", "DD"), args["probs"], args["totals"], BasisMap.default())


def test_frequencies_validation():
    p = np.full((4, 6, 6), 0.25)
    t = np.full((6, 6), 10.0)
    bm = BasisMap.default()
    RelativeFrequencies(("AA", "AD", "DA", "DD"), p, t, bm)
    with pytest.raises(ValidationError, match="sum to 1"):
        RelativeFrequencies(("AA", "AD", "DA", "DD"), p * 0.9, t, bm)
    with pytest.raises(ValidationError, match="positive"):
        RelativeFrequencies(("AA", "AD", "DA", "DD"), p, t * 0.0, bm)


def test_relative_frequencies_values():
    counts = exact_bell_counts(total=400)
    freqs = relative_frequencies(counts)
    assert np.max(np.abs(freqs.probs.sum(axis=0) - 1)) < 1e-15
    # (H,H) setting hits every Bell outcome with probability 1/4
    ih = 0
    assert np.allclose(freqs.probs[:, ih, ih], 0.25, atol=1e-15)


# (eps, counts per setting, indefiniteness, simulate seed): noisy_chain's
# data, where the repair is idle, criterion 8's, where it fires on
# near-rank-deficient elements, and an indefinite set with a strong repair
_RELABEL_DATASETS = {
    "noisy": (0.1, 1000, 0.0, 600658849),
    "criterion8": (0.0, 10000, 0.0, 0),
    "indefinite": (0.0, 1000, 0.02, 7),
}


@cache
def _relabel_reference(name):
    eps, total, indef, seed = _RELABEL_DATASETS[name]
    counts = draw_counts(bell_model(eps, total, indef), seed)
    raw = reconstruct_povm(relative_frequencies(counts))
    povm, p, _ = physicality_correct(raw)
    forms = {}
    for label in povm.labels:
        form = to_standard_form(povm.element(label))
        qdist = optimal_quasidistribution(form)
        forms[label] = (form.pi, qdist.q, qdist.grid)
    return counts, raw, povm, p, forms


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_RELABEL_DATASETS)), st.permutations(range(4)))
def test_relabeling_outcomes_commutes_with_the_pipeline(name, perm):
    counts, raw, povm, p, forms = _relabel_reference(name)
    assert (p > 0) == (name != "noisy")
    moved = CoincidenceCounts(
        tuple(counts.outcomes[k] for k in perm), counts.counts[list(perm)], counts.basis_map
    )
    raw_moved = reconstruct_povm(relative_frequencies(moved))
    povm_moved, p_moved, _ = physicality_correct(raw_moved)
    assert raw_moved.labels == povm_moved.labels == moved.outcomes
    assert p_moved == pytest.approx(p, rel=0, abs=1e-12)
    for label in counts.outcomes:
        np.testing.assert_allclose(
            raw_moved.element(label).matrix, raw.element(label).matrix, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            povm_moved.element(label).matrix, povm.element(label).matrix, rtol=0, atol=1e-12
        )
        form = to_standard_form(povm_moved.element(label))
        qdist = optimal_quasidistribution(form)
        pi, q, grid = forms[label]
        np.testing.assert_allclose(form.pi, pi, rtol=0, atol=1e-12)
        assert qdist.q == pytest.approx(q, rel=0, abs=1e-12)
        np.testing.assert_allclose(qdist.grid, grid, rtol=0, atol=1e-12)
