"""Optimal quasidistributions over Pauli eigenstate pairs.

For a standard-form operator sum_w pi_w sigma_w (x) sigma_w the least-negative
product decomposition over the six Pauli eigenstates per arm is closed form:
cross-axis cells vanish, and the same-axis cell (w s_a, w s_b) holds
q/3 + |pi_w| + s_a s_b pi_w with q = pi_0 - |pi_x| - |pi_y| - |pi_z|.
Negativity anywhere, equivalently q < 0, certifies that the operator is
entangled; q >= 0 gives an explicit separable decomposition.

For most elements pi itself is closed form too: `_lorentz_pi` reads it off
the Lorentz singular values of stacked Pauli coefficient matrices, and marks
the elements it must leave to `standard_form.to_standard_form`.  This module
imports the standard form only for type checking, so the stacked Monte
Carlo path loads no filter code.
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

# the Minkowski metric of the Lorentz action of local filters on Pauli
# coefficient matrices
_ETA = np.diag([1.0, -1.0, -1.0, -1.0])
# _lorentz_pi leaves elements whose smallest squared Lorentz singular value
# is this small to to_standard_form, whose filter sweeps floor the reduced
# operators' eigenvalues here
_EIG_FLOOR = 1e-12
# closed-form pi is left to to_standard_form where the squared Lorentz
# singular values are not real to this share of the largest, where the top
# two are this close, or where the filters are this strong: |r|^2 over the
# sum of the squared singular values is 1 for a standard form and grows with
# the filters, and the closed form's error with it (below 1e-14 up to 10,
# 1e-8 past 100)
_REAL_TOL = 1e-12
_GAP_TOL = 1e-6
_BOOST_TOL = 10.0


def _none_where(grid: np.ndarray, missing: np.ndarray) -> list:
    """The grid as nested lists of Python floats, None where `missing` holds."""
    g = np.asarray(grid, dtype=float)
    if not missing.any():
        return g.tolist()
    out = g.astype(object)
    out[missing] = None
    return out.tolist()


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


def _lorentz_pi(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form pi of stacked Pauli coefficient matrices r[..., 4, 4], and where it holds.

    Local filters act on r as Lorentz transformations, so the eigenvalues of
    r eta r^T eta, eta = diag(1, -1, -1, -1), are the squared Lorentz singular
    values s0^2 >= s1^2 >= s2^2 >= s3^2, and det r = s0 s1 s2 s3 up to sign
    (Verstraete, Dehaene, De Moor, PRA 64, 010101(R) (2001)).  The standard
    form of an element with trace t is then
    pi = (t/4) (1, s1/s0, s2/s0, sign(det r) s3/s0), with s3 taken from
    det r rather than from its small eigenvalue.  The mask is False, and
    pi zero, where to_standard_form must decide: non-finite entries or a
    nonpositive trace, eigenvalues that are not real, s3^2 at or below
    _EIG_FLOOR at unit trace, s0 ~ s1 (rank-deficient elements), and strong
    filters, which make the eigenproblem ill-conditioned.
    """
    t = 4 * r[..., 0, 0]
    ok = np.isfinite(r).all(axis=(-2, -1)) & (t > 0)
    unit = np.where(ok[..., None, None], r, 0.0) / np.where(ok, t, 1.0)[..., None, None]
    ev = np.linalg.eigvals(unit @ _ETA @ np.swapaxes(unit, -1, -2) @ _ETA)
    sq = -np.sort(-ev.real, axis=-1)
    ok &= np.abs(ev.imag).max(axis=-1) <= _REAL_TOL * sq[..., 0]
    ok &= sq[..., 3] > _EIG_FLOOR
    ok &= sq[..., 0] - sq[..., 1] > _GAP_TOL * sq[..., 0]
    ok &= (unit**2).sum(axis=(-2, -1)) <= _BOOST_TOL * sq.sum(axis=-1)
    s = np.sqrt(np.where(ok[..., None], sq[..., :3], 1.0))
    # sign(det r) s3 = det r / (s0 s1 s2): the square root of the smallest
    # eigenvalue would carry an absolute error of about eps / s3
    s3 = np.linalg.det(unit) / s.prod(axis=-1)
    ratios = np.concatenate([s[..., 1:], s3[..., None]], axis=-1) / s[..., :1]
    pi = np.concatenate([np.ones_like(t)[..., None], ratios], axis=-1) * (t / 4)[..., None]
    return np.where(ok[..., None], pi, 0.0), ok


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
            sig = _none_where(self.significance, np.isnan(self.significance))
        return {
            "max_negativity": self.max_negativity,
            "cumulative_negativity": self.cumulative_negativity,
            "q": self.q,
            "verdict": self.verdict,
            "significance": sig,
        }


def negativity_report(qdist: QuasiDistribution, sigma: np.ndarray | None = None) -> NegativityReport:
    """Summarize negativities; verdict is entangled exactly when q < -1e-9.

    `sigma`, when given, holds one standard deviation per cell and must be
    positive wherever the grid is negative; significance is the number of
    standard deviations a negative cell sits below zero.
    """
    g = qdist.grid
    max_neg = float(min(0.0, g.min()))
    cumulative = float(g[g < 0].sum()) if np.any(g < 0) else 0.0
    verdict = "entangled" if qdist.q < -_VERDICT_TOL else "separable"
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
