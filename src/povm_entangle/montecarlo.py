"""Monte Carlo propagation of counting statistics through the reconstruction.

Coincidence frequencies carry multinomial noise.  Each synthetic sample
perturbs the measured per-setting probability vectors with a Gaussian draw
matching the multinomial covariance (optionally inflated), projects back onto
the probability simplex, inverts linearly and repairs physicality.  A sample
needs no filters: q and the optimal grid are closed forms of the Pauli
diagonal pi, and pi follows from each repaired element's Wootters values,
for every element, full rank or not (`_standard_pi`).  So no run loads the
operator or standard-form layers.  Samples run stacked along one axis, in
blocks of at most _BLOCK; the reference pass is a block of one.
`propagate` forks shares only from two blocks of samples on, since a share
pays a block's fixed work whatever its size.  The reference and every
sample follow one sign convention, |pi_1| >= |pi_2| >= |pi_3| with only
pi_3 negative, so their grids share one axis order, and cell-wise spreads
over the samples as they come give the error bars and negativity
significances.

Draws are keyed by (seed, setting pair, sample index) on a counter-based
generator, and no sample's arithmetic depends on the others in its block, so
results are byte-identical for any worker count.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .pauli import _EIG_FLOOR
from .quasidist import grids_from_pi
from .streams import keyed_normals
from .tomography import (
    CoincidenceCounts,
    RelativeFrequencies,
    invert_frequencies,
    relative_frequencies,
    repair_strength,
)

_MASK32 = (1 << 32) - 1

# samples per stacked block; runs of fewer than two blocks fork no share.  A
# block of four elements peaks near 8 MB, in its stacked draw pass
_BLOCK = 1024


@dataclass(frozen=True)
class McConfig:
    """Sampling parameters for the error propagation."""

    sample_size: int = 10000
    inflation: float = 1.05
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.sample_size < 2:
            raise ValidationError(f"need at least 2 samples, got {self.sample_size}")
        # draws are keyed by the sample's low 32 bits, so sample 2^32 would repeat sample 0
        if self.sample_size > 1 << 32:
            raise ValidationError(f"at most 2^32 samples, got {self.sample_size}")
        if not (math.isfinite(self.inflation) and self.inflation >= 1.0):
            raise ValidationError(f"inflation must be finite and >= 1, got {self.inflation}")
        if self.workers < 1:
            raise ValidationError(f"workers must be positive, got {self.workers}")


def counting_covariance(p: np.ndarray, total) -> np.ndarray:
    """Multinomial covariance of estimated probabilities, (diag(p) - p p^T) / (E - 1).

    Stacks: p[..., m] with total a scalar or an array of p's leading shape.
    """
    p = np.asarray(p, dtype=float)
    total = np.asarray(total)
    if np.any(total < 2):
        raise ValidationError(f"need at least 2 events per setting, got {total.min()}")
    outer = p[..., :, None] * p[..., None, :]
    return (np.eye(p.shape[-1]) * p[..., None, :] - outer) / (total - 1)[..., None, None]


def covariance_factor(cov: np.ndarray) -> np.ndarray:
    """Factor F with F F^T = cov; eigenvalue based, tolerates the singular direction.

    Stacks: cov[..., m, m] gives one factor per matrix from one batched eigh.
    """
    w, v = np.linalg.eigh((cov + np.swapaxes(cov, -1, -2)) / 2)
    return v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]


def project_probabilities(draw: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Clip negatives and renormalize; an all-zero draw falls back to the input.

    Stacks: draw[..., m] against a fallback that broadcasts to it.
    """
    v = np.clip(np.asarray(draw, dtype=float), 0.0, None)
    s = v.sum(axis=-1, keepdims=True)
    out = np.array(np.broadcast_to(fallback, v.shape), dtype=float)
    return np.divide(v, s, out=out, where=s > 0)


def _raw_draws(p, factors, pairs, samples, seed: int, inflation: float) -> np.ndarray:
    """p + inflation * F z for every sample and setting pair, shape (samples, pairs, m).

    p[pairs, m] and factors[pairs, m, m]; z is the stream keyed by
    (pair << 32) | sample, each reduced to 32 bits.
    """
    pairs = np.array([pair & _MASK32 for pair in pairs], dtype=np.uint64)
    samples = np.asarray(samples, dtype=np.uint64) & np.uint64(_MASK32)
    keys = (pairs[None, :] << np.uint64(32)) | samples[:, None]
    z = keyed_normals(seed, keys.ravel(), p.shape[-1]).reshape(len(samples), len(pairs), -1)
    return p + inflation * np.einsum("pij,spj->spi", factors, z)


def _pair_factors(freqs: RelativeFrequencies) -> np.ndarray:
    """Covariance factors of the 36 setting pairs, indexed [pair, m, m]."""
    m = freqs.probs.shape[0]
    p = freqs.probs.reshape(m, 36).T
    return covariance_factor(counting_covariance(p, freqs.totals.reshape(36).astype(np.int64)))


def _draw_probs(freqs, factors, samples, seed: int, inflation: float) -> np.ndarray:
    """Projected frequency draws of the given samples, indexed [sample, outcome, a, b]."""
    m = freqs.probs.shape[0]
    p = freqs.probs.reshape(m, 36).T
    raw = _raw_draws(p, factors, range(36), samples, seed, inflation)
    probs = project_probabilities(raw, p)
    return np.ascontiguousarray(probs.transpose(0, 2, 1)).reshape(-1, m, 6, 6)


def sample_frequencies(freqs: RelativeFrequencies, cfg: McConfig):
    """Yield cfg.sample_size perturbed frequency sets for the given measurement."""
    factors = _pair_factors(freqs)
    for sidx in range(cfg.sample_size):
        probs = _draw_probs(freqs, factors, [sidx], cfg.seed, cfg.inflation)[0]
        yield RelativeFrequencies(freqs.outcomes, probs, freqs.totals, freqs.basis_map)


def _standard_pi(vals: np.ndarray, vecs: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """pi[..., 4] of the standard forms of stacked elements V diag(vals) V^H of
    traces t[...], and where an element has none.

    An element's standard form is Bell-diagonal, with weights proportional to
    its Wootters values lambda_1 >= ... >= lambda_4, the singular values of
    sqrt(E) Y sqrt(E)^*, Y = sigma_y (x) sigma_y (Wootters, PRL 80, 2245
    (1998); Verstraete, Dehaene, De Moor, PRA 64, 010101(R) (2001)).  Those
    are the singular values of S V^T Y V S, S = diag(sqrt(vals)), and
    V^T Y V = P + P^T with P = v_1 v_2^T - v_0 v_3^T over the rows v_k of V.
    With Bell weights w = t lambda / sum(lambda),
    pi = (t, w1 + w2 - w3 - w4, w1 - w2 + w3 - w4, -w1 + w2 + w3 - w4) / 4,
    which follows the sign convention: |pi_1| >= |pi_2| >= |pi_3|, and only
    pi_3 may be negative.  A Wootters value at or below _EIG_FLOOR * t counts
    as zero.  An element with none left, or with t <= 0, has no standard
    form: its mask entry is True.
    """
    s = np.sqrt(np.clip(vals, 0.0, None))
    half = vecs[..., 1, :, None] * vecs[..., 2, None, :] - vecs[..., 0, :, None] * vecs[..., 3, None, :]
    sym = half + np.swapaxes(half, -1, -2)
    lam = np.linalg.svd(s[..., :, None] * sym * s[..., None, :], compute_uv=False)
    lam = np.where(lam > _EIG_FLOOR * t[..., None], lam, 0.0)
    total = lam.sum(axis=-1)
    none = ~(t > 0) | (total == 0)
    w = lam * (t / np.where(none, 1.0, total))[..., None]
    w1, w2, w3, w4 = np.moveaxis(w, -1, 0)
    pi = np.stack([t, w1 + w2 - w3 - w4, w1 - w2 + w3 - w4, -w1 + w2 + w3 - w4], axis=-1) / 4
    return pi, none


def _quasi_batch(
    probs: np.ndarray,
    basis_map,
    margin: float,
    strict: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """q[S, m], grids[S, m, 6, 6], pi[S, m, 4] and failure flags[S] of stacked probs[S, m, 6, 6].

    Each sample goes through the inversion and repair of reconstruct_povm
    and physicality_correct, stacked: `invert_frequencies`, then one batched
    eigh, whose smallest eigenvalues give `repair_strength`.  The repair
    mixes each element toward 1/m, which only shifts its spectrum, so the
    same eigenvectors give every repaired element's pi (`_standard_pi`).  A
    sample with an element that has no standard form is flagged failed and
    its rows are zero; with strict it raises instead, ValidationError where
    the element's trace is not positive and ConvergenceError otherwise.
    """
    m = probs.shape[1]
    coeffs, mats = invert_frequencies(probs, basis_map)
    vals, vecs = np.linalg.eigh(mats)
    p, _ = repair_strength(vals[..., 0], margin)
    keep = (1 - p)[:, None]
    t = 4 * (keep * coeffs[..., 0, 0] + p[:, None] / m)
    pi, none = _standard_pi(keep[..., None] * vals + (p / m)[:, None, None], vecs, t)
    failed = none.any(axis=-1)
    if strict and failed.any():
        if not (t > 0).all():
            raise ValidationError(f"element trace must be positive, got {t.min()}")
        raise ConvergenceError("an element has no standard form: its Wootters values vanish")
    pi[failed] = 0.0
    q, grids = grids_from_pi(pi)
    return q, grids, pi, failed


def match_grid(reference: np.ndarray, grid: np.ndarray) -> tuple[np.ndarray, bool]:
    """Relabel the grid's axis blocks to maximize overlap with the reference.

    Each of the 6 axis relabelings is scored by the sum of reference *
    candidate over the 36 cells, and the first strict maximum wins, the
    identity first.  Returns the aligned grid and whether another relabeling
    won.  `propagate` needs no such step: under the sign convention both
    grids are sorted alike, so by the rearrangement inequality the identity
    scores highest, and another relabeling can win only on an exact tie.
    """
    ref, g = np.asarray(reference, dtype=float), np.asarray(grid, dtype=float)
    orders = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    cands = [g[np.ix_(idx, idx)] for idx in ([2 * a + s for a in o for s in (0, 1)] for o in orders)]
    best = int(np.argmax([np.sum(ref * cand) for cand in cands]))
    return cands[best], best > 0


def _axis_ties(pi: np.ndarray) -> np.ndarray:
    """Where two of |pi_1|, |pi_2|, |pi_3| of stacked pi[..., 4] are equal,
    which leaves the sign convention's axis order open."""
    a = np.abs(pi[..., 1:])
    return (a[..., 0] == a[..., 1]) | (a[..., 1] == a[..., 2]) | (a[..., 0] == a[..., 2])


def _run_samples(payload):
    """Samples lo..hi-1 in blocks: q, grids, axis-tie and failed flags."""
    freqs, factors, lo, hi, seed, inflation, margin = payload
    parts = []
    for start in range(lo, hi, _BLOCK):
        probs = _draw_probs(freqs, factors, range(start, min(start + _BLOCK, hi)), seed, inflation)
        q, grids, pi, failed = _quasi_batch(probs, freqs.basis_map, margin)
        parts.append((q, grids, _axis_ties(pi), failed))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _reply(fn, payload, read_end: int, fd: int) -> None:
    """In a forked child: pickle (ok, result or exception) into fd, then _exit.

    The child never returns into the caller's frames, whatever fn raises; it
    exits 1 without a reply when the reply cannot be pickled or written.
    """
    code = 1
    try:
        # without the pipe's read end, a child whose parent is gone gets
        # EPIPE instead of blocking on a full pipe
        os.close(read_end)
        try:
            reply = (True, fn(payload))
        except Exception as exc:
            reply = (False, exc)
        data = pickle.dumps(reply)
        with open(fd, "wb") as out:
            out.write(data)
        code = 0
    finally:
        os._exit(code)


def _fan_out(fn, payloads: list) -> list:
    """[fn(p) for p in payloads], the first here and each other in a forked child.

    Each child writes its reply into its own pipe, which is read back in
    payload order once the first payload is done.  A child's exception is
    raised here with its own type; a child that ends without a reply raises
    RuntimeError.  On any failure the children are killed, and every child
    is reaped before this returns or raises.  Without os.fork the payloads
    run here, one after another.
    """
    if not hasattr(os, "fork"):
        return [fn(p) for p in payloads]
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for payload in payloads[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _reply(fn, payload, r, w)
            except BaseException:
                os.close(r)
                raise
            finally:
                os.close(w)
            children.append((pid, r))
        results = [fn(payloads[0])]
        for pid, r in children:
            with open(r, "rb", closefd=False) as reader:
                data = reader.read()
            if not data:
                raise RuntimeError(f"worker process {pid} ended without returning its samples")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    except BaseException:
        import signal

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, r in children:
            os.close(r)
            os.waitpid(pid, 0)


def _scalar(x: float) -> float | None:
    return float(x) if np.isfinite(x) else None


def _grid_list(grid: np.ndarray) -> list:
    """The grid as nested lists of Python floats, None where not finite."""
    g = np.asarray(grid, dtype=float)
    missing = ~np.isfinite(g)
    if not missing.any():
        return g.tolist()
    out = g.astype(object)
    out[missing] = None
    return out.tolist()


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
    # retained samples whose axis order the sign convention leaves open
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
    labels: tuple[str, ...],
    q_ref: np.ndarray,
    grid_ref: np.ndarray,
    qs: np.ndarray,
    grids: np.ndarray,
    permuted: np.ndarray,
    cfg: McConfig,
    excluded: int,
) -> UncertaintyReport:
    """Per-element statistics of the retained samples' q[n, m] and grids[n, m, 6, 6].

    All elements at once: each element's q, most negative cell and
    cumulative negativity form one contiguous row of n samples, so their
    means and stds are the same pairwise sums as one element's 1-D arrays;
    the grid statistics reduce the sample axis cell by cell.
    """
    n, m = qs.shape
    cells = grids.reshape(n, m, 36)
    # [q / most negative / cumulative, m, n], each row contiguous
    series = np.stack(
        [qs, np.minimum(cells.min(axis=-1), 0.0), np.where(cells < 0, cells, 0.0).sum(axis=-1)]
    )
    series = np.ascontiguousarray(series.transpose(0, 2, 1))
    means = series.mean(axis=-1)
    stds = series.std(axis=-1, ddof=1)
    grid_mean = grids.mean(axis=0)
    grid_std = grids.std(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        sig = np.where(
            grid_mean < 0, np.where(grid_std > 0, -grid_mean / grid_std, np.inf), np.nan
        )
        q_sig = np.where(
            means[0] < 0, np.where(stds[0] > 0, -means[0] / stds[0], np.inf), np.nan
        )
    flat_mean = grid_mean.reshape(m, 36)
    lowest = sig.reshape(m, 36)[np.arange(m), np.argmin(flat_mean, axis=-1)]
    neg_sig = np.where((flat_mean < 0).any(axis=-1), lowest, np.nan)
    counts = permuted.sum(axis=0).tolist()
    (q_mean, neg_mean, cum_mean), (q_std, neg_std, cum_std) = means.tolist(), stds.tolist()
    elements = tuple(
        ElementUncertainty(
            label=label,
            q_reference=float(q_ref[k]),
            q_mean=q_mean[k],
            q_std=q_std[k],
            q_significance=float(q_sig[k]),
            max_negativity_mean=neg_mean[k],
            max_negativity_std=neg_std[k],
            cumulative_mean=cum_mean[k],
            cumulative_std=cum_std[k],
            grid_reference=grid_ref[k],
            grid_mean=grid_mean[k],
            grid_std=grid_std[k],
            significance=sig[k],
            negativity_significance=float(neg_sig[k]),
            permuted=counts[k],
        )
        for k, label in enumerate(labels)
    )
    return UncertaintyReport(elements=elements, config=cfg, retained=n, excluded=excluded)


def propagate(
    data: CoincidenceCounts | RelativeFrequencies,
    cfg: McConfig = McConfig(),
    margin: float = 1e-5,
) -> UncertaintyReport:
    """Run the full sampling study and return per-element uncertainty statistics.

    The reference pass runs on the measured frequencies as-is, and its
    failures raise.  Sample grids are averaged as they come, since the sign
    convention gives them the reference's axis order; an element's permuted
    count is the number of retained samples where that order is open: two
    equal |pi_w| in the sample or in the reference (`_axis_ties`).  Samples
    whose pipeline fails are excluded, and more than 1% exclusions abort
    the run.  The sample axis is split into cfg.workers contiguous shares,
    at most one per CPU this process may use; below 2 * _BLOCK samples
    every sample runs here in one share, since a share pays the fixed work
    of a block (a stacked draw pass, the inversion, one eigh and one SVD)
    whatever its size, and a fork adds its own start-up and copy-on-write
    faults.  This process runs the first share and a forked child each
    other one (`_fan_out`).  Every element's pi is a closed form of one
    eigendecomposition and one SVD (`_standard_pi`), so no element runs
    filter sweeps.
    """
    freqs = relative_frequencies(data) if isinstance(data, CoincidenceCounts) else data
    q_ref, grid_ref, pi_ref, _ = _quasi_batch(freqs.probs[None], freqs.basis_map, margin, strict=True)
    factors = _pair_factors(freqs)

    shares = 1 if cfg.sample_size < 2 * _BLOCK else min(cfg.workers, cfg.sample_size, _usable_cpus())
    bounds = [cfg.sample_size * w // shares for w in range(shares + 1)]
    payloads = [(freqs, factors, lo, hi, cfg.seed, cfg.inflation, margin) for lo, hi in zip(bounds, bounds[1:])]
    parts = _fan_out(_run_samples, payloads)
    qs, grids, ties, failed = (np.concatenate(arrays) for arrays in zip(*parts))

    excluded = int(failed.sum())
    if excluded > 0.01 * cfg.sample_size:
        raise ConvergenceError(
            f"{excluded} of {cfg.sample_size} samples failed the pipeline; "
            "data too noisy for reliable error bars"
        )
    kept = ~failed
    if kept.sum() < 2:
        raise ConvergenceError("fewer than 2 usable samples")
    permuted = ties[kept] | _axis_ties(pi_ref)
    return _aggregate(freqs.outcomes, q_ref[0], grid_ref[0], qs[kept], grids[kept], permuted, cfg, excluded)
