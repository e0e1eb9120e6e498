"""Monte Carlo propagation of counting statistics through the reconstruction.

Coincidence frequencies carry multinomial noise.  Each synthetic sample
perturbs the measured per-setting probability vectors with a Gaussian draw
matching the multinomial covariance (optionally inflated), projects back onto
the probability simplex, and reruns the full pipeline: linear inversion,
physicality correction, standard form, optimal quasidistribution.  Cell-wise
spreads over the samples give the error bars and negativity significances.

Draws are keyed by (seed, setting pair, sample index) on a counter-based
generator, so results are byte-identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import permutations

import numpy as np
from numpy.random import Generator

from .errors import ConvergenceError, ValidationError
from .quasidist import optimal_quasidistribution
from .standard_form import FormConfig, to_standard_form
from .streams import keyed_rng
from .tomography import (
    CoincidenceCounts,
    RelativeFrequencies,
    physicality_correct,
    reconstruct_povm,
    relative_frequencies,
)

_MASK32 = (1 << 32) - 1

# same-axis 2x2 blocks can land in any axis slot when |diagonal| values tie,
# so sample grids are aligned to the reference over all 6 axis relabelings
_AXIS_PERMS = tuple(permutations(range(3)))
_PERM_IDX = tuple(
    np.array([2 * a + s for a in sigma for s in (0, 1)], dtype=np.intp) for sigma in _AXIS_PERMS
)


@dataclass(frozen=True)
class McConfig:
    """Sampling parameters for the error propagation."""

    sample_size: int = 10000
    inflation: float = 1.05
    seed: int = 0
    workers: int | None = None

    def __post_init__(self):
        if self.sample_size < 2:
            raise ValidationError(f"need at least 2 samples, got {self.sample_size}")
        if self.inflation < 1.0:
            raise ValidationError(f"inflation must be >= 1, got {self.inflation}")
        if self.workers is not None and self.workers < 1:
            raise ValidationError(f"workers must be positive, got {self.workers}")


def counting_covariance(p: np.ndarray, total: int) -> np.ndarray:
    """Multinomial covariance of estimated probabilities, (diag(p) - p p^T) / (E - 1)."""
    p = np.asarray(p, dtype=float)
    if total < 2:
        raise ValidationError(f"need at least 2 events per setting, got {total}")
    return (np.diag(p) - np.outer(p, p)) / (total - 1)


def covariance_factor(cov: np.ndarray) -> np.ndarray:
    """Factor F with F F^T = cov; eigenvalue based, tolerates the singular direction."""
    w, v = np.linalg.eigh((cov + cov.T) / 2)
    return v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))


def project_probabilities(draw: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Clip negatives and renormalize; an all-zero draw falls back to the input."""
    v = np.clip(np.asarray(draw, dtype=float), 0.0, None)
    s = v.sum()
    if s <= 0:
        return np.array(fallback, dtype=float, copy=True)
    return v / s


def _pair_rng(seed: int, pair: int, sample: int) -> Generator:
    return keyed_rng(seed, ((pair & _MASK32) << 32) | (sample & _MASK32))


def gaussian_draws(
    p: np.ndarray,
    total: int,
    count: int,
    seed: int = 0,
    pair_index: int = 0,
    inflation: float = 1.0,
) -> np.ndarray:
    """Pre-projection Gaussian draws for one setting pair, one row per sample."""
    p = np.asarray(p, dtype=float)
    factor = covariance_factor(counting_covariance(p, total))
    out = np.empty((count, p.size))
    for sidx in range(count):
        rng = _pair_rng(seed, pair_index, sidx)
        out[sidx] = p + inflation * (factor @ rng.standard_normal(p.size))
    return out


def _pair_factors(freqs: RelativeFrequencies) -> np.ndarray:
    m = freqs.probs.shape[0]
    factors = np.empty((6, 6, m, m))
    for i in range(6):
        for j in range(6):
            cov = counting_covariance(freqs.probs[:, i, j], int(freqs.totals[i, j]))
            factors[i, j] = covariance_factor(cov)
    return factors


def _sample_probs(
    freqs: RelativeFrequencies,
    factors: np.ndarray,
    sample: int,
    seed: int,
    inflation: float,
) -> np.ndarray:
    m = freqs.probs.shape[0]
    probs = np.empty_like(freqs.probs)
    for i in range(6):
        for j in range(6):
            rng = _pair_rng(seed, i * 6 + j, sample)
            raw = freqs.probs[:, i, j] + inflation * (factors[i, j] @ rng.standard_normal(m))
            probs[:, i, j] = project_probabilities(raw, freqs.probs[:, i, j])
    return probs


def sample_frequencies(freqs: RelativeFrequencies, cfg: McConfig):
    """Yield cfg.sample_size perturbed frequency sets for the given measurement."""
    factors = _pair_factors(freqs)
    for sidx in range(cfg.sample_size):
        probs = _sample_probs(freqs, factors, sidx, cfg.seed, cfg.inflation)
        yield RelativeFrequencies(freqs.outcomes, probs, freqs.totals, freqs.basis_map)


def match_grid(reference: np.ndarray, grid: np.ndarray) -> tuple[np.ndarray, bool]:
    """Relabel the grid's axis blocks to maximize overlap with the reference.

    Returns the aligned grid and whether a non-identity relabeling won, which
    marks the sample as permuted in the diagnostics.
    """
    best = grid
    best_score = float(np.sum(reference * grid))
    permuted = False
    for idx in _PERM_IDX[1:]:
        cand = grid[np.ix_(idx, idx)]
        score = float(np.sum(reference * cand))
        if score > best_score:
            best, best_score, permuted = cand, score, True
    return best, permuted


def _pipeline(
    freqs: RelativeFrequencies, margin: float, form_cfg: FormConfig
) -> list[tuple[str, float, np.ndarray]]:
    povm = reconstruct_povm(freqs)
    povm, _, _ = physicality_correct(povm, margin=margin)
    out = []
    for label, element in povm.items():
        form = to_standard_form(element, form_cfg)
        qdist = optimal_quasidistribution(form)
        out.append((label, qdist.q, qdist.grid))
    return out


def _one_sample(
    freqs: RelativeFrequencies,
    factors: np.ndarray,
    sample: int,
    seed: int,
    inflation: float,
    margin: float,
    form_cfg: FormConfig,
    ref_grids: list[np.ndarray],
) -> list[tuple[float, np.ndarray]] | None:
    try:
        probs = _sample_probs(freqs, factors, sample, seed, inflation)
        sampled = RelativeFrequencies(freqs.outcomes, probs, freqs.totals, freqs.basis_map)
        rows = _pipeline(sampled, margin, form_cfg)
    except (ConvergenceError, ValidationError, np.linalg.LinAlgError):
        return None
    return [
        (q,) + match_grid(ref_grids[k], grid) for k, (_, q, grid) in enumerate(rows)
    ]


def _run_chunk(payload):
    freqs, factors, indices, seed, inflation, margin, form_cfg, ref_grids = payload
    return [
        (sidx, _one_sample(freqs, factors, sidx, seed, inflation, margin, form_cfg, ref_grids))
        for sidx in indices
    ]


def _scalar(x: float) -> float | None:
    return float(x) if np.isfinite(x) else None


def _grid_list(grid: np.ndarray) -> list:
    return [[_scalar(v) for v in row] for row in grid]


@dataclass(frozen=True, eq=False)
class ElementUncertainty:
    """Per-element statistics over the retained samples."""

    label: str
    q_reference: float
    q_mean: float
    q_std: float
    q_significance: float
    max_negativity_mean: float
    max_negativity_std: float
    cumulative_mean: float
    cumulative_std: float
    grid_reference: np.ndarray
    grid_mean: np.ndarray
    grid_std: np.ndarray
    significance: np.ndarray
    negativity_significance: float
    permuted: int = 0

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "permuted_samples": self.permuted,
            "q": {
                "reference": float(self.q_reference),
                "mean": float(self.q_mean),
                "std": float(self.q_std),
                "significance": _scalar(self.q_significance),
            },
            "max_negativity": {
                "mean": float(self.max_negativity_mean),
                "std": float(self.max_negativity_std),
            },
            "cumulative_negativity": {
                "mean": float(self.cumulative_mean),
                "std": float(self.cumulative_std),
            },
            "grid_reference": _grid_list(self.grid_reference),
            "grid_mean": _grid_list(self.grid_mean),
            "grid_std": _grid_list(self.grid_std),
            "significance": _grid_list(self.significance),
            "negativity_significance": _scalar(self.negativity_significance),
        }


@dataclass(frozen=True, eq=False)
class UncertaintyReport:
    """Aggregate of one propagation run."""

    elements: tuple
    config: McConfig
    retained: int
    excluded: int

    def element(self, label: str) -> ElementUncertainty:
        for e in self.elements:
            if e.label == label:
                return e
        raise ValidationError(f"no element labeled {label!r}")

    def to_dict(self) -> dict:
        return {
            "sample_size": self.config.sample_size,
            "inflation": self.config.inflation,
            "seed": self.config.seed,
            "retained": self.retained,
            "excluded": self.excluded,
            "diagnostics": {
                "excluded_samples": self.excluded,
                "permuted_samples": {e.label: e.permuted for e in self.elements},
            },
            "elements": [e.to_dict() for e in self.elements],
        }


def _aggregate(
    refs: list[tuple[str, float, np.ndarray]],
    results: list[list[tuple[float, np.ndarray]]],
    cfg: McConfig,
    excluded: int,
) -> UncertaintyReport:
    elements = []
    for k, (label, q_ref, grid_ref) in enumerate(refs):
        qs = np.array([r[k][0] for r in results])
        grids = np.stack([r[k][1] for r in results])
        permuted = sum(1 for r in results if r[k][2])
        max_negs = np.minimum(grids.reshape(len(results), -1).min(axis=1), 0.0)
        cums = np.where(grids < 0, grids, 0.0).reshape(len(results), -1).sum(axis=1)
        grid_mean = grids.mean(axis=0)
        grid_std = grids.std(axis=0, ddof=1)
        sig = np.full((6, 6), np.nan)
        neg = grid_mean < 0
        with np.errstate(divide="ignore"):
            sig[neg] = np.where(grid_std[neg] > 0, -grid_mean[neg] / grid_std[neg], np.inf)
        q_mean = float(qs.mean())
        q_std = float(qs.std(ddof=1))
        if q_mean < 0:
            q_sig = -q_mean / q_std if q_std > 0 else np.inf
        else:
            q_sig = np.nan
        if neg.any():
            i, j = np.unravel_index(np.argmin(grid_mean), grid_mean.shape)
            neg_sig = sig[i, j]
        else:
            neg_sig = np.nan
        elements.append(
            ElementUncertainty(
                label=label,
                q_reference=float(q_ref),
                q_mean=q_mean,
                q_std=q_std,
                q_significance=float(q_sig),
                max_negativity_mean=float(max_negs.mean()),
                max_negativity_std=float(max_negs.std(ddof=1)),
                cumulative_mean=float(cums.mean()),
                cumulative_std=float(cums.std(ddof=1)),
                grid_reference=grid_ref,
                grid_mean=grid_mean,
                grid_std=grid_std,
                significance=sig,
                negativity_significance=float(neg_sig),
                permuted=permuted,
            )
        )
    return UncertaintyReport(
        elements=tuple(elements), config=cfg, retained=len(results), excluded=excluded
    )


def propagate(
    data: CoincidenceCounts | RelativeFrequencies,
    cfg: McConfig = McConfig(),
    form_cfg: FormConfig = FormConfig(),
    margin: float = 1e-5,
) -> UncertaintyReport:
    """Run the full sampling study and return per-element uncertainty statistics.

    The reference pipeline runs on the measured frequencies as-is; sample grids
    are axis-matched against it before averaging.  Samples whose pipeline fails
    are excluded, and more than 1% exclusions abort the run.
    """
    freqs = relative_frequencies(data) if isinstance(data, CoincidenceCounts) else data
    refs = _pipeline(freqs, margin, form_cfg)
    ref_grids = [grid for _, _, grid in refs]
    factors = _pair_factors(freqs)

    workers = cfg.workers or 1
    pairs: list[tuple[int, list | None]] = []
    if workers == 1:
        for sidx in range(cfg.sample_size):
            pairs.append(
                (
                    sidx,
                    _one_sample(
                        freqs, factors, sidx, cfg.seed, cfg.inflation, margin, form_cfg, ref_grids
                    ),
                )
            )
    else:
        chunks = [list(range(w, cfg.sample_size, workers)) for w in range(workers)]
        payloads = [
            (freqs, factors, chunk, cfg.seed, cfg.inflation, margin, form_cfg, ref_grids)
            for chunk in chunks
            if chunk
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_run_chunk, payloads):
                pairs.extend(part)
    pairs.sort(key=lambda t: t[0])

    results = [res for _, res in pairs if res is not None]
    excluded = cfg.sample_size - len(results)
    if excluded > 0.01 * cfg.sample_size:
        raise ConvergenceError(
            f"{excluded} of {cfg.sample_size} samples failed the pipeline; "
            "data too noisy for reliable error bars"
        )
    if len(results) < 2:
        raise ConvergenceError("fewer than 2 usable samples")
    return _aggregate(refs, results, cfg, excluded)
