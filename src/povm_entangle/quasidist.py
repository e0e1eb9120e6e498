"""Optimal quasidistributions over Pauli eigenstate pairs.

For a standard-form operator sum_w pi_w sigma_w (x) sigma_w the least-negative
product decomposition over the six Pauli eigenstates per arm is closed form:
cross-axis cells vanish, and the same-axis cell (w s_a, w s_b) holds
q/3 + |pi_w| + s_a s_b pi_w with q = pi_0 - |pi_x| - |pi_y| - |pi_z|.
Negativity anywhere, equivalently q < 0, certifies that the operator is
entangled; q >= 0 gives an explicit separable decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .operators import QUASI_AXES, _frozen, pauli_expand
from .operators import bell_povm as _bell_povm
from .standard_form import StandardForm

LABELS = tuple(f"{axis}{'+' if sign > 0 else '-'}" for axis, sign in QUASI_AXES)

_SIGNS = np.array([sign for _, sign in QUASI_AXES], dtype=float)
_AXIS_OF = [0, 0, 1, 1, 2, 2]


@dataclass(frozen=True, eq=False)
class QuasiDistribution:
    """6x6 grid of quasiprobabilities over Pauli eigenstate pairs."""

    grid: np.ndarray
    q: float
    source_trace: float

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.shape != (6, 6):
            raise ValidationError(f"grid must have shape (6, 6), got {g.shape}")
        cross = max(
            (abs(g[i, j]) for i in range(6) for j in range(6) if _AXIS_OF[i] != _AXIS_OF[j]),
            default=0.0,
        )
        if cross > 1e-12:
            raise ValidationError(f"cross-axis cells must vanish (largest {cross:.3e})")
        total = float(g.sum())
        if abs(total - float(self.source_trace)) > 1e-9:
            raise ValidationError(
                f"grid total {total:.12f} does not match source trace {self.source_trace:.12f}"
            )
        object.__setattr__(self, "grid", _frozen(g))
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "source_trace", float(self.source_trace))

    def structural_min(self) -> float:
        """Smallest same-axis cell; the closed form makes this q/3."""
        vals = [self.grid[i, j] for i in range(6) for j in range(6) if _AXIS_OF[i] == _AXIS_OF[j]]
        return float(min(vals))

    def to_dict(self) -> dict:
        return {
            "labels": list(LABELS),
            "grid": self.grid.tolist(),
            "q": self.q,
            "trace": self.source_trace,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuasiDistribution":
        try:
            if tuple(data["labels"]) != LABELS:
                raise ValidationError(f"labels must equal {LABELS}")
            return cls(np.asarray(data["grid"], dtype=float), float(data["q"]), float(data["trace"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed quasidistribution record: {exc}") from exc


def quasidistribution_from_pi(pi, source_trace: float | None = None) -> QuasiDistribution:
    """Closed-form optimal grid for diagonal Pauli coefficients pi."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (4,):
        raise ValidationError(f"pi must have shape (4,), got {pi.shape}")
    q = float(pi[0] - np.sum(np.abs(pi[1:])))
    grid = np.zeros((6, 6))
    for i in range(6):
        for j in range(6):
            if _AXIS_OF[i] != _AXIS_OF[j]:
                continue
            w = pi[1 + _AXIS_OF[i]]
            grid[i, j] = q / 3 + abs(w) + _SIGNS[i] * _SIGNS[j] * w
    if source_trace is None:
        source_trace = 4 * float(pi[0])
    return QuasiDistribution(grid, q, float(source_trace))


def optimal_quasidistribution(form: StandardForm) -> QuasiDistribution:
    """Optimal grid of a standard form, totalling the source operator's trace."""
    return quasidistribution_from_pi(form.pi, form.source_trace)


@dataclass(frozen=True, eq=False)
class NegativityReport:
    """Entanglement verdict and negativity summary of one quasidistribution."""

    max_negativity: float
    cumulative_negativity: float
    q: float
    verdict: str
    significance: np.ndarray | None = None

    def __post_init__(self):
        if self.max_negativity > 0 or self.cumulative_negativity > 0:
            raise ValidationError("negativity summaries must be nonpositive")
        if self.verdict not in ("entangled", "separable"):
            raise ValidationError(f"verdict must be entangled or separable, got {self.verdict!r}")
        if self.significance is not None:
            s = np.asarray(self.significance, dtype=float)
            if s.shape != (6, 6):
                raise ValidationError("significance grid must have shape (6, 6)")
            object.__setattr__(self, "significance", _frozen(s))

    def to_dict(self) -> dict:
        sig = None
        if self.significance is not None:
            sig = [[None if np.isnan(v) else float(v) for v in row] for row in self.significance]
        return {
            "max_negativity": self.max_negativity,
            "cumulative_negativity": self.cumulative_negativity,
            "q": self.q,
            "verdict": self.verdict,
            "significance": sig,
        }


def negativity_report(
    qdist: QuasiDistribution, sigma: np.ndarray | None = None, tol: float = 1e-9
) -> NegativityReport:
    """Summarize negativities; verdict is entangled exactly when q < -tol.

    `sigma`, when given, holds one standard deviation per cell and must be
    positive wherever the grid is negative; significance is the number of
    standard deviations a negative cell sits below zero.
    """
    if tol < 0:
        raise ValidationError(f"tolerance must be nonnegative, got {tol}")
    g = qdist.grid
    max_neg = float(min(0.0, g.min()))
    cumulative = float(g[g < 0].sum()) if np.any(g < 0) else 0.0
    verdict = "entangled" if qdist.q < -tol else "separable"
    significance = None
    if sigma is not None:
        s = np.asarray(sigma, dtype=float)
        if s.shape != (6, 6):
            raise ValidationError(f"sigma must have shape (6, 6), got {s.shape}")
        neg = g < 0
        if np.any(neg & ~(s > 0)):
            raise ValidationError("sigma must be positive wherever the grid is negative")
        significance = np.full((6, 6), np.nan)
        significance[neg] = -g[neg] / s[neg]
    return NegativityReport(max_neg, cumulative, float(qdist.q), verdict, significance)


def ideal_bell_reference() -> dict:
    """Exact grids of the four ideal Bell projectors, keyed by Bell label.

    Derived from the projectors themselves, which already carry diagonal
    Pauli coefficients; each grid holds six cells at -1/6, six at +1/3.
    """
    out = {}
    for label, el in _bell_povm().items():
        c = pauli_expand(el).coeffs
        pi = np.array([c[0, 0], c[1, 1], c[2, 2], c[3, 3]])
        out[label] = quasidistribution_from_pi(pi, el.trace())
    return out
