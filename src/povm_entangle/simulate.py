"""Synthetic coincidence data from a modeled two-qubit detector.

A model is a POVM observed through white noise: each element is replaced by
[eps*I + (1 - eps)*Pi_k] / (1 + (m - 1)*eps), which keeps the set complete
and, at eps = 0, exact.  Expected outcome probabilities for every probe pair
follow the Born rule in the configured basis map; counts are multinomial
draws keyed per setting pair so runs are reproducible and order independent.

An optional indefiniteness knob adds a small fixed zero-sum distortion to the
expected probabilities, which makes the linearly inverted POVM slightly
indefinite, the way real data does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .operators import HermitianOperator, PovmSet, bell_povm
from .streams import keyed_rng
from .tomography import COUNT_MAX, PROBE_LABELS, BasisMap, CoincidenceCounts, RelativeFrequencies

# fixed stream key for the indefiniteness pattern: the distortion is part of
# the model, not of the sampling, so it must not move with the user seed
_DISTORTION_KEY = 0x9E3779B97F4A7C15

DEFAULT_OUTCOME_ORDER = ("AA", "AD", "DA", "DD")
_BELL_ORDER = ("0", "x", "z", "y")


@dataclass(frozen=True, eq=False)
class DetectorModel:
    """POVM plus noise and acquisition parameters for the simulator."""

    povm: PovmSet
    eps: float = 0.0
    counts_per_setting: int = 10000
    basis_map: BasisMap = field(default_factory=BasisMap.default)
    indefiniteness: float = 0.0

    def __post_init__(self):
        if self.povm.parties != (2, 2):
            raise ValidationError(f"simulator needs a two-qubit POVM, got parties {self.povm.parties}")
        if not 0.0 <= self.eps <= 1.0:
            raise ValidationError(f"eps must be in [0, 1], got {self.eps}")
        if not 1 <= self.counts_per_setting <= COUNT_MAX:
            raise ValidationError(
                f"counts_per_setting must be in [1, {COUNT_MAX}], got {self.counts_per_setting}"
            )
        if not 0.0 <= self.indefiniteness < 1.0:
            raise ValidationError(
                f"indefiniteness must be in [0, 1), got {self.indefiniteness}"
            )


def bell_model(
    eps: float = 0.0,
    counts_per_setting: int = 10000,
    indefiniteness: float = 0.0,
    basis_map: BasisMap | None = None,
) -> DetectorModel:
    """Ideal Bell-state analyzer wired to the default outcome labels."""
    ideal = bell_povm()
    elements = tuple(ideal.element(b) for b in _BELL_ORDER)
    povm = PovmSet(DEFAULT_OUTCOME_ORDER, elements)
    return DetectorModel(
        povm=povm,
        eps=eps,
        counts_per_setting=counts_per_setting,
        basis_map=basis_map or BasisMap.default(),
        indefiniteness=indefiniteness,
    )


def effective_elements(model: DetectorModel) -> PovmSet:
    """White-noise dressed POVM actually sampled by the simulator."""
    m = len(model.povm)
    norm = 1.0 + (m - 1) * model.eps
    eye = np.eye(model.povm.elements[0].dim)
    out = tuple(
        HermitianOperator(
            (model.eps * eye + (1.0 - model.eps) * el.matrix) / norm, el.parties
        )
        for el in model.povm.elements
    )
    return PovmSet(model.povm.labels, out)


def _distortion(m: int, pair: int, scale: float) -> np.ndarray:
    rng = keyed_rng(_DISTORTION_KEY, pair)
    d = rng.standard_normal(m)
    d -= d.mean()
    peak = np.max(np.abs(d))
    return scale * d / peak if peak > 0 else np.zeros(m)


def expected_frequencies(model: DetectorModel) -> RelativeFrequencies:
    """Born-rule outcome probabilities for every probe pair."""
    eff = effective_elements(model)
    m = len(eff)
    states_a = [model.basis_map.state("alice", lbl) for lbl in PROBE_LABELS]
    states_b = [model.basis_map.state("bob", lbl) for lbl in PROBE_LABELS]
    probs = np.empty((m, 6, 6))
    for i, sa in enumerate(states_a):
        for j, sb in enumerate(states_b):
            vec = np.kron(sa, sb)
            for k, el in enumerate(eff.elements):
                probs[k, i, j] = float(np.real(vec.conj() @ el.matrix @ vec))
            col = np.clip(probs[:, i, j], 0.0, None)
            if model.indefiniteness > 0:
                col = np.clip(col + _distortion(m, i * 6 + j, model.indefiniteness), 0.0, None)
            probs[:, i, j] = col / col.sum()
    totals = np.full((6, 6), model.counts_per_setting, dtype=np.int64)
    return RelativeFrequencies(eff.labels, probs, totals, model.basis_map)


def draw_counts(model: DetectorModel, seed: int = 0) -> CoincidenceCounts:
    """Multinomial coincidence counts, one independent stream per setting pair."""
    freqs = expected_frequencies(model)
    m = freqs.probs.shape[0]
    counts = np.empty((m, 6, 6), dtype=np.int64)
    for i in range(6):
        for j in range(6):
            rng = keyed_rng(seed, i * 6 + j)
            p = freqs.probs[:, i, j]
            counts[:, i, j] = rng.multinomial(model.counts_per_setting, p / p.sum())
    return CoincidenceCounts(freqs.outcomes, counts, model.basis_map)


def _spec_number(spec: dict, key: str, default, integer: bool = False):
    """spec[key], or the default: a JSON integer, or unless `integer` any JSON
    number, read as a float; bool, strings, lists and null are refused."""
    value = spec.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise ValidationError(f"model {key} must be {kind}, got {value!r}")
    return value if integer else float(value)


def model_from_spec(spec: dict) -> tuple[DetectorModel, int]:
    """Build a model (and sampling seed) from its JSON description."""
    if not isinstance(spec, dict):
        raise ValidationError("model spec must be a JSON object")
    povm_spec = spec.get("povm", "bell")
    basis_map = (
        BasisMap.from_dict(spec["basis_map"]) if "basis_map" in spec else BasisMap.default()
    )
    eps = _spec_number(spec, "eps", 0.0)
    counts = _spec_number(spec, "counts_per_setting", 10000, integer=True)
    indef = _spec_number(spec, "indefiniteness", 0.0)
    seed = _spec_number(spec, "seed", 0, integer=True)
    if povm_spec == "bell":
        model = bell_model(eps, counts, indef, basis_map)
    elif isinstance(povm_spec, dict):
        model = DetectorModel(PovmSet.from_dict(povm_spec), eps, counts, basis_map, indef)
    else:
        raise ValidationError(f"model povm must be 'bell' or an inline POVM, got {povm_spec!r}")
    return model, seed
