"""Optimal quasidistributions over Pauli eigenstate pairs.

For a standard-form operator sum_w pi_w sigma_w (x) sigma_w the least-negative
product decomposition over the six Pauli eigenstates per arm is closed form:
cross-axis cells vanish, and the same-axis cell (w s_a, w s_b) holds
q/3 + |pi_w| + s_a s_b pi_w with q = pi_0 - |pi_x| - |pi_y| - |pi_z|.
Negativity anywhere, equivalently q < 0, certifies that the operator is
entangled; q >= 0 gives an explicit separable decomposition.

The grids here need only pi.  The `quasidist` command takes pi from
`standard_form.to_standard_form`, which also writes the filters; the Monte
Carlo reads it off each element's Wootters values.  This module imports the
standard form only for type checking, so the stacked Monte Carlo path loads
no filter code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError
from .pauli import QUASI_AXES, _frozen

if TYPE_CHECKING:
    from .standard_form import StandardForm

LABELS = tuple(f"{axis}{'+' if sign > 0 else '-'}" for axis, sign in QUASI_AXES)

_SIGNS = np.array([sign for _, sign in QUASI_AXES], dtype=float)
_AXIS_OF = np.array([0, 0, 1, 1, 2, 2])
_SAME_AXIS = _AXIS_OF[:, None] == _AXIS_OF[None, :]
_SIGN_PRODUCTS = np.outer(_SIGNS, _SIGNS)
# the verdict is entangled exactly when q < -_VERDICT_TOL
_VERDICT_TOL = 1e-9


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
        cross = float(np.abs(g[~_SAME_AXIS]).max())
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

    def to_dict(self) -> dict:
        return {
            "labels": list(LABELS),
            "grid": self.grid.tolist(),
            "q": self.q,
            "trace": self.source_trace,
        }


def grids_from_pi(pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q and the optimal grid for stacked diagonal Pauli coefficients pi[..., 4]."""
    q = pi[..., 0] - np.abs(pi[..., 1:]).sum(axis=-1)
    w = pi[..., 1 + _AXIS_OF, None]
    cells = q[..., None, None] / 3 + np.abs(w) + _SIGN_PRODUCTS * w
    return q, np.where(_SAME_AXIS, cells, 0.0)


def quasidistribution_from_pi(pi, source_trace: float | None = None) -> QuasiDistribution:
    """Closed-form optimal grid for diagonal Pauli coefficients pi."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (4,):
        raise ValidationError(f"pi must have shape (4,), got {pi.shape}")
    q, grid = grids_from_pi(pi)
    if source_trace is None:
        source_trace = 4 * float(pi[0])
    return QuasiDistribution(grid, float(q), float(source_trace))


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

    def __post_init__(self):
        if self.max_negativity > 0 or self.cumulative_negativity > 0:
            raise ValidationError("negativity summaries must be nonpositive")
        if self.verdict not in ("entangled", "separable"):
            raise ValidationError(f"verdict must be entangled or separable, got {self.verdict!r}")

    def to_dict(self) -> dict:
        return {
            "max_negativity": self.max_negativity,
            "cumulative_negativity": self.cumulative_negativity,
            "q": self.q,
            "verdict": self.verdict,
        }


def negativity_report(qdist: QuasiDistribution) -> NegativityReport:
    """Summarize negativities; verdict is entangled exactly when q < -1e-9.

    Per-cell significances come from the resampled error bars of
    `montecarlo.propagate`.
    """
    g = qdist.grid
    max_neg = float(min(0.0, g.min()))
    cumulative = float(g[g < 0].sum()) if np.any(g < 0) else 0.0
    verdict = "entangled" if qdist.q < -_VERDICT_TOL else "separable"
    return NegativityReport(max_neg, cumulative, float(qdist.q), verdict)
