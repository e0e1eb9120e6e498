"""Synthetic detector model: Born-rule fixtures, sampling, and spec round trips."""

import numpy as np
import pytest

from povm_entangle import (
    DetectorModel,
    HermitianOperator,
    PovmSet,
    ValidationError,
    bell_model,
    bell_povm,
    draw_counts,
    effective_elements,
    expected_frequencies,
    model_from_spec,
    physicality_correct,
    reconstruct_povm,
    relative_frequencies,
)
from povm_entangle.tomography import PROBE_LABELS

from conftest import random_povm

H = PROBE_LABELS.index("H")
V = PROBE_LABELS.index("V")
D = PROBE_LABELS.index("D")
A = PROBE_LABELS.index("A")


def trivial_model(**kw):
    flat = HermitianOperator(np.eye(4) / 4, (2, 2))
    return DetectorModel(PovmSet(("AA", "AD", "DA", "DD"), (flat,) * 4), **kw)


class TestBornFixtures:
    def test_hh_probe_uniform(self):
        # z+ against x+ is unbiased for every Bell projector
        f = expected_frequencies(bell_model())
        assert np.allclose(f.probs[:, H, H], 0.25, atol=1e-15)

    def test_hd_probe_kills_singlet(self):
        # both arms z+: the |00> probe has no singlet overlap and no
        # sigma_z-rotated-singlet overlap either
        f = expected_frequencies(bell_model())
        assert f.probs[0, H, D] == pytest.approx(0.0, abs=1e-15)
        assert f.probs[2, H, D] == pytest.approx(0.0, abs=1e-15)
        assert f.probs[1, H, D] == pytest.approx(0.5, abs=1e-15)
        assert f.probs[3, H, D] == pytest.approx(0.5, abs=1e-15)

    def test_trivial_povm_uniform_everywhere(self):
        f = expected_frequencies(trivial_model())
        assert np.allclose(f.probs, 0.25, atol=1e-15)

    def test_columns_normalized(self):
        f = expected_frequencies(bell_model(eps=0.07))
        assert np.allclose(f.probs.sum(axis=0), 1.0, atol=1e-12)


class TestEffectiveElements:
    def test_eps_zero_is_identity_map(self):
        m = bell_model()
        eff = effective_elements(m)
        for lbl in m.povm.labels:
            assert np.allclose(eff.element(lbl).matrix, m.povm.element(lbl).matrix, atol=1e-15)

    def test_eps_one_flattens_to_white_noise(self):
        eff = effective_elements(bell_model(eps=1.0))
        for el in eff.elements:
            assert np.allclose(el.matrix, np.eye(4) / 4, atol=1e-15)

    def test_completeness_preserved_at_any_eps(self):
        eff = effective_elements(bell_model(eps=0.31))
        total = sum(el.matrix for el in eff.elements)
        assert np.allclose(total, np.eye(4), atol=1e-12)


class TestSampling:
    def test_totals_conserved(self):
        counts = draw_counts(bell_model(counts_per_setting=4321), seed=1)
        assert np.all(counts.counts.sum(axis=0) == 4321)

    def test_seed_repeatability(self):
        m = bell_model(counts_per_setting=2000)
        a = draw_counts(m, seed=5)
        b = draw_counts(m, seed=5)
        c = draw_counts(m, seed=6)
        assert np.array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)

    def test_empirical_frequencies_track_expectation(self):
        total = 100000
        m = bell_model(eps=0.1, counts_per_setting=total)
        f = expected_frequencies(m)
        emp = draw_counts(m, seed=11).counts / total
        var = np.clip(f.probs * (1 - f.probs), 1e-12, None)
        bound = np.maximum(5 * np.sqrt(var / total), 5 / total)
        assert np.all(np.abs(emp - f.probs) < bound)


class TestPipelineClosure:
    def test_exact_frequencies_invert_to_effective_povm(self):
        m = bell_model(eps=0.15)
        rec = reconstruct_povm(expected_frequencies(m))
        eff = effective_elements(m)
        worst = max(
            np.max(np.abs(rec.element(lbl).matrix - eff.element(lbl).matrix))
            for lbl in eff.labels
        )
        assert worst < 1e-10

    def test_sampled_closure_at_large_counts(self):
        m = bell_model(counts_per_setting=1000000)
        counts = draw_counts(m, seed=3)
        rec = reconstruct_povm(relative_frequencies(counts))
        eff = effective_elements(m)
        worst = max(
            np.max(np.abs(rec.element(lbl).matrix - eff.element(lbl).matrix))
            for lbl in eff.labels
        )
        assert worst < 5e-3

    def test_random_povm_round_trip(self, rng):
        povm = random_povm(rng)
        m = DetectorModel(povm=povm)
        rec = reconstruct_povm(expected_frequencies(m))
        worst = max(
            np.max(np.abs(rec.element(lbl).matrix - povm.element(lbl).matrix))
            for lbl in povm.labels
        )
        assert worst < 1e-10

    def test_indefiniteness_forces_correction(self):
        m = bell_model(counts_per_setting=100000, indefiniteness=0.02)
        rec = reconstruct_povm(expected_frequencies(m))
        _, p, lam = physicality_correct(rec)
        assert p > 0
        assert lam > 0

    def test_clean_model_needs_no_correction(self):
        rec = reconstruct_povm(expected_frequencies(bell_model()))
        corrected, p, lam = physicality_correct(rec)
        assert p == 0.0
        assert lam == 0.0
        assert corrected is rec


class TestSpecRoundTrip:
    def test_bell_shortcut(self):
        model, seed = model_from_spec({"povm": "bell", "eps": 0.2, "seed": 7})
        assert seed == 7
        assert model.eps == 0.2
        ref = bell_model(eps=0.2)
        for lbl in ref.povm.labels:
            assert np.allclose(
                model.povm.element(lbl).matrix, ref.povm.element(lbl).matrix, atol=1e-15
            )

    def test_defaults(self):
        model, seed = model_from_spec({})
        assert seed == 0
        assert model.eps == 0.0
        assert model.counts_per_setting == 10000
        assert model.indefiniteness == 0.0

    def test_inline_povm_round_trip(self):
        src = bell_model(eps=0.05, counts_per_setting=500, indefiniteness=0.01)
        spec = {
            "povm": src.povm.to_dict(),
            "eps": src.eps,
            "counts_per_setting": src.counts_per_setting,
            "indefiniteness": src.indefiniteness,
            "basis_map": src.basis_map.to_dict(),
            "seed": 9,
        }
        model, seed = model_from_spec(spec)
        assert seed == 9
        assert model.eps == src.eps
        assert model.counts_per_setting == src.counts_per_setting
        assert model.indefiniteness == src.indefiniteness
        for lbl in src.povm.labels:
            assert np.allclose(
                model.povm.element(lbl).matrix, src.povm.element(lbl).matrix, atol=1e-14
            )

    def test_integer_noise_fields_read_as_floats(self):
        model, seed = model_from_spec({"eps": 0, "indefiniteness": 0, "seed": -3})
        assert type(model.eps) is float and model.eps == 0.0
        assert type(model.indefiniteness) is float
        assert seed == -3

    def test_rejects_bad_povm_field(self):
        with pytest.raises(ValidationError):
            model_from_spec({"povm": "ideal"})

    def test_rejects_non_object(self):
        with pytest.raises(ValidationError):
            model_from_spec(["bell"])


class TestModelValidation:
    def test_eps_range(self):
        with pytest.raises(ValidationError):
            bell_model(eps=-0.1)
        with pytest.raises(ValidationError):
            bell_model(eps=1.5)

    def test_counts_positive(self):
        with pytest.raises(ValidationError):
            bell_model(counts_per_setting=0)

    def test_counts_fit_int64(self):
        assert bell_model(counts_per_setting=2**63 - 1).counts_per_setting == 2**63 - 1
        with pytest.raises(ValidationError, match="counts_per_setting"):
            bell_model(counts_per_setting=2**63)

    def test_indefiniteness_range(self):
        with pytest.raises(ValidationError):
            bell_model(indefiniteness=-0.01)
        with pytest.raises(ValidationError):
            bell_model(indefiniteness=1.0)

    def test_needs_two_qubit_povm(self, rng):
        povm = random_povm(rng, outcomes=2, parties=(2,))
        with pytest.raises(ValidationError):
            DetectorModel(povm=povm)
