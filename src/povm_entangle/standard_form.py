"""Two-qubit standard form by local filtering and rotation.

A positive two-qubit operator is brought to sum_w pi_w sigma_w (x) sigma_w in
two steps.  First local filters strip the single-arm Pauli terms: filters act
on the Pauli correlation matrix as Lorentz transformations, so one 4x4
eigenproblem gives the filter pair in closed form for full-rank operators.
Rank-deficient operators have no such closed form, and alternating filters
X = (reduced operator)^(-1/2) finish the job from there.  Then an SO(3) pair
from a signed singular value decomposition diagonalizes the 3x3 correlation
block.  Both rotations keep determinant +1 so they lift to SU(2)
conjugations.  The filters are rescaled at the end so the transformed operator
keeps the source trace.

The inverse transform maps the six Pauli eigenstate projectors to the skewed
pure states whose quasidistribution reproduces the original operator; signs
of the quasidistribution survive because the reweighting factors are positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .operators import HermitianOperator, pauli_expand
from .pauli import PAULIS, QUASI_AXES, _frozen, _hermitize, pauli_eigenstate
from .quasidist import _EIG_FLOOR, _ETA

_I2 = np.eye(2, dtype=complex)

# accumulated filters this large mean the iteration is running away, not
# converging; bail out before float overflow starts emitting warnings
_FILTER_CAP = 1e60
# local terms count as removed below this Bloch residual; the final Pauli
# coefficients may sit this far from diagonal; the filter sweeps floor the
# reduced operators' eigenvalues at _EIG_FLOOR, the floor below which the
# closed form (`quasidist._lorentz_pi`) leaves an element to the sweeps
_BLOCH_TOL = 1e-12
_RESIDUAL_TOL = 1e-9
# the filter sweeps give up after this many; most elements need at most one
_MAX_SWEEPS = 10000


@dataclass(frozen=True, eq=False)
class LocalTransform:
    """Invertible filters and unitary rotations applied as (U_A L_A) (x) (U_B L_B)."""

    filter_a: np.ndarray
    filter_b: np.ndarray
    rotation_a: np.ndarray
    rotation_b: np.ndarray

    def __post_init__(self):
        for name in ("filter_a", "filter_b"):
            m = np.asarray(getattr(self, name), dtype=complex)
            if m.shape != (2, 2):
                raise ValidationError(f"{name} must be 2x2")
            if abs(np.linalg.det(m)) <= 1e-10:
                raise ValidationError(f"{name} is numerically singular")
            object.__setattr__(self, name, _frozen(m))
        for name in ("rotation_a", "rotation_b"):
            u = np.asarray(getattr(self, name), dtype=complex)
            if u.shape != (2, 2):
                raise ValidationError(f"{name} must be 2x2")
            if float(np.max(np.abs(u @ u.conj().T - _I2))) > 1e-10:
                raise ValidationError(f"{name} is not unitary")
            object.__setattr__(self, name, _frozen(u))

    def to_dict(self) -> dict:
        def enc(m):
            return {"re": m.real.tolist(), "im": m.imag.tolist()}

        return {
            "filter_a": enc(self.filter_a),
            "filter_b": enc(self.filter_b),
            "rotation_a": enc(self.rotation_a),
            "rotation_b": enc(self.rotation_b),
        }


@dataclass(frozen=True, eq=False)
class StandardForm:
    """Diagonal Pauli coefficients plus the transform that produced them."""

    pi: np.ndarray
    transform: LocalTransform
    source_trace: float
    residual: float

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        if pi.shape != (4,):
            raise ValidationError(f"pi must have shape (4,), got {pi.shape}")
        if pi[0] <= 0:
            raise ValidationError(f"pi[0] must be positive, got {pi[0]}")
        object.__setattr__(self, "pi", _frozen(pi))
        object.__setattr__(self, "source_trace", float(self.source_trace))
        object.__setattr__(self, "residual", float(self.residual))

    def to_dict(self) -> dict:
        d = {"pi": self.pi.tolist(), "residual": self.residual, "source_trace": self.source_trace}
        d.update(self.transform.to_dict())
        return d


def _ptrace_b(m: np.ndarray) -> np.ndarray:
    return m.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)


def _ptrace_a(m: np.ndarray) -> np.ndarray:
    return m.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)


def _bloch_residual(rho: np.ndarray) -> float:
    ra, rb = _ptrace_b(rho), _ptrace_a(rho)
    vals = [abs(np.trace(r @ p).real) for r in (ra, rb) for p in PAULIS[1:]]
    return max(vals)


def _inv_sqrt(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    w = np.maximum(w, _EIG_FLOOR)
    return (v * (w**-0.5)) @ v.conj().T


def _lorentz_filter(r: np.ndarray) -> np.ndarray:
    """Filter that undoes the boost of arm A in the correlation matrix r.

    Local filters act on r[mu, nu] = tr(rho sigma_mu (x) sigma_nu) / 4 as
    Lorentz transformations, so r = L_A diag(s) L_B^T and the timelike column
    x = L_A e_0 is the eigenvector of r eta r^T eta with the largest
    x^T eta x / |x|^2.  With x^T eta x = 1 and x_0 > 0 the filter is
    (x_0 + x.sigma)^(-1/2) = ((1 + x_0) - x.sigma) / sqrt(2 (1 + x_0)).
    Returns NaN entries when no timelike eigenvector exists.
    """
    _, v = np.linalg.eig(r @ _ETA @ r.T @ _ETA)
    w = np.abs(v) ** 2
    k = int(np.argmax((w[0] - w[1:].sum(axis=0)) / w.sum(axis=0)))
    x = (v[:, k] * np.conj(v[0, k])).real
    with np.errstate(invalid="ignore", divide="ignore"):
        y = _ETA @ x / np.sqrt(x @ _ETA @ x)
        y[0] += 1.0
        return np.einsum("m,mij->ij", y, PAULIS) / np.sqrt(2 * y[0])


def _filtered(rho: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit-trace k rho k^dagger and the trace it was divided by."""
    out = _hermitize(k @ rho @ k.conj().T)
    t = out.trace().real
    if not (np.isfinite(t) and t > 0):
        raise ConvergenceError(f"local filters collapsed the operator: filtered trace {t:.3e}")
    return out / t, t


def remove_local_terms(op: HermitianOperator) -> tuple[HermitianOperator, np.ndarray, np.ndarray]:
    """Local filters that make both single-arm Bloch vectors vanish.

    Unless the input is already free of local terms, the filters start from
    the closed-form Lorentz pair of `_lorentz_filter`, which removes the local
    terms of a full-rank operator outright.  Alternating sweeps
    X = (reduced operator)^(-1/2), at most _MAX_SWEEPS of them, then run
    until the Bloch residual is below _BLOCH_TOL; rank-deficient inputs
    need them.  Returns (filtered operator, filter_a, filter_b) with
    filtered = (filter_a (x) filter_b) op (...)^dagger and the filters scaled
    so the output trace equals the input trace.  Requires a positive operator;
    rank-deficient inputs whose local terms cannot be filtered away, such as
    product projectors, raise ConvergenceError with the residual reached.
    """
    if op.parties != (2, 2):
        raise ValidationError(f"standard form needs a two-qubit operator, got parties {op.parties}")
    t_in = op.trace()
    if t_in <= 0:
        raise ValidationError(f"operator trace must be positive, got {t_in}")
    rho = np.asarray(op.matrix) / t_in
    ma = _I2.copy()
    mb = _I2.copy()
    res = _bloch_residual(rho)
    if res >= _BLOCH_TOL:
        r = pauli_expand(rho)
        seed_a, seed_b = _lorentz_filter(r), _lorentz_filter(r.T)
        if np.all(np.isfinite(seed_a)) and np.all(np.isfinite(seed_b)):
            rho, t = _filtered(rho, np.kron(seed_a, seed_b))
            ma = seed_a / t**0.25
            mb = seed_b / t**0.25
            res = _bloch_residual(rho)
    converged = res < _BLOCH_TOL
    for _ in range(_MAX_SWEEPS):
        if converged:
            break
        # fold each renormalization into the filter so the accumulated
        # product stays O(1) instead of growing exponentially
        xa = _inv_sqrt(_ptrace_b(rho))
        rho, t = _filtered(rho, np.kron(xa, _I2))
        ma = (xa / t**0.5) @ ma
        xb = _inv_sqrt(_ptrace_a(rho))
        rho, t = _filtered(rho, np.kron(_I2, xb))
        mb = (xb / t**0.5) @ mb
        res = _bloch_residual(rho)
        converged = res < _BLOCH_TOL
        if max(np.max(np.abs(ma)), np.max(np.abs(mb))) > _FILTER_CAP:
            raise ConvergenceError(
                f"local filters diverged at Bloch residual {res:.3e}; "
                "the operator has no full-rank standard form",
                residual=res,
            )
    if not converged:
        raise ConvergenceError(
            f"local-term removal stalled at Bloch residual {res:.3e} "
            f"after {_MAX_SWEEPS} iterations",
            residual=res,
        )
    k = np.kron(ma, mb)
    out = _hermitize(k @ op.matrix @ k.conj().T)
    scale = t_in / out.trace().real
    ma = ma * scale**0.25
    mb = mb * scale**0.25
    return HermitianOperator(out * scale, (2, 2)), ma, mb


def su2_from_so3(r: np.ndarray) -> np.ndarray:
    """SU(2) lift of a rotation: U sigma_j U^dag = sum_i r[i, j] sigma_i."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3) or np.max(np.abs(r @ r.T - np.eye(3))) > 1e-9 or np.linalg.det(r) < 0:
        raise ValidationError("expected a proper 3x3 rotation matrix")
    ang = float(np.arccos(np.clip((np.trace(r) - 1) / 2, -1.0, 1.0)))
    if ang < 1e-12:
        return _I2.copy()
    if np.pi - ang < 1e-6:
        # Axis from the dominant column of (r + 1)/2; stable at angle pi.
        m = (r + np.eye(3)) / 2
        k = int(np.argmax(np.diag(m)))
        axis = m[:, k] / np.sqrt(max(m[k, k], 1e-30))
    else:
        axis = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
        axis = axis / (2 * np.sin(ang))
    axis = axis / np.linalg.norm(axis)
    n_dot_sigma = axis[0] * PAULIS[1] + axis[1] * PAULIS[2] + axis[2] * PAULIS[3]
    return np.cos(ang / 2) * _I2 - 1j * np.sin(ang / 2) * n_dot_sigma


def diagonalize_correlations(op: HermitianOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal Pauli coefficients and the SU(2) pair that realizes them.

    Expects vanishing local terms.  The diagonal is the signed singular value
    decomposition of the 3x3 correlation block: magnitudes decrease and only
    the last entry may be negative, with the sign of the block's determinant.
    Both underlying rotations have det +1, so they lift to SU(2).
    """
    c = pauli_expand(op)
    local = max(float(np.max(np.abs(c[0, 1:]))), float(np.max(np.abs(c[1:, 0]))))
    if local > _RESIDUAL_TOL:
        raise ValidationError(f"local Pauli terms not removed (largest {local:.3e})")
    u, diag, vt = np.linalg.svd(c[1:, 1:])
    if np.linalg.det(u) < 0:
        u[:, 2] *= -1
        diag[2] *= -1
    if np.linalg.det(vt) < 0:
        vt[2, :] *= -1
        diag[2] *= -1
    pi = np.array([c[0, 0], diag[0], diag[1], diag[2]])
    return pi, su2_from_so3(u.T), su2_from_so3(vt)


def to_standard_form(op: HermitianOperator) -> StandardForm:
    """Filter, rotate, and report the diagonal form of a positive two-qubit operator.

    The filters come from `remove_local_terms`, whose sweeps stop at _MAX_SWEEPS.
    """
    filtered, ma, mb = remove_local_terms(op)
    pi, ua, ub = diagonalize_correlations(filtered)
    k = np.kron(ua, ub)
    rotated = _hermitize(k @ filtered.matrix @ k.conj().T)
    target = np.zeros((4, 4))
    target[np.arange(4), np.arange(4)] = pi
    residual = float(np.max(np.abs(pauli_expand(rotated) - target)))
    if residual > _RESIDUAL_TOL:
        raise ConvergenceError(
            f"standard form residual {residual:.3e} exceeds {_RESIDUAL_TOL:.1e}",
            residual=residual,
        )
    transform = LocalTransform(ma, mb, ua, ub)
    return StandardForm(pi=pi, transform=transform, source_trace=op.trace(), residual=residual)


@dataclass(frozen=True, eq=False)
class TildeDecomposition:
    """Skewed pure-state decomposition of the original operator."""

    states_a: np.ndarray
    states_b: np.ndarray
    grid: np.ndarray

    def __post_init__(self):
        for name in ("states_a", "states_b"):
            s = np.asarray(getattr(self, name), dtype=complex)
            if s.shape != (6, 2):
                raise ValidationError(f"{name} must have shape (6, 2)")
            object.__setattr__(self, name, _frozen(s))
        g = np.asarray(self.grid, dtype=float)
        if g.shape != (6, 6):
            raise ValidationError("grid must have shape (6, 6)")
        object.__setattr__(self, "grid", _frozen(g))


def _fix_phase(v: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(v)))
    ph = v[k] / abs(v[k])
    return v / ph


def back_transform(form: StandardForm, qdist) -> TildeDecomposition:
    """Pull a standard-form quasidistribution back to the original operator.

    Each Pauli eigenstate |a> maps to L^(-1) U^dag |a> normalized; the grid
    entry picks up both normalizations, so its sign never changes and the
    recomposition sum reproduces the source operator.  `qdist` needs only a
    (6, 6) `grid` attribute.
    """
    grid = np.asarray(qdist.grid, dtype=float)
    if grid.shape != (6, 6):
        raise ValidationError("quasidistribution grid must have shape (6, 6)")
    t = form.transform
    states = [pauli_eigenstate(axis, sign) for axis, sign in QUASI_AXES]
    out_states = []
    norms = []
    for m_filter, m_rot in ((t.filter_a, t.rotation_a), (t.filter_b, t.rotation_b)):
        back = np.linalg.inv(m_filter) @ m_rot.conj().T
        side_states = np.empty((6, 2), dtype=complex)
        side_norms = np.empty(6)
        for k, s in enumerate(states):
            v = back @ s
            n = float(np.vdot(v, v).real)
            if n <= 1e-30:
                raise ValidationError("filter inversion produced a null state")
            side_states[k] = _fix_phase(v / np.sqrt(n))
            side_norms[k] = n
        out_states.append(side_states)
        norms.append(side_norms)
    tilde_grid = grid * np.outer(norms[0], norms[1])
    return TildeDecomposition(out_states[0], out_states[1], tilde_grid)
