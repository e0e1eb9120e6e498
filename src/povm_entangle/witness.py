"""Probe-state entanglement witnesses for multipartite and qudit POVM elements.

A detector outcome Pi is certified entangled when tr(Pi rho) / tr(Pi) exceeds
g_max(rho), the largest expectation of the probe rho over fully product
states.  Probes built here are the noisy-free GHZ and maximally entangled
projector mixtures whose g_max is known in closed form; a multi-start
alternating maximization provides an independent numeric value, which is a
certified lower bound on g_max and therefore only used for verdicts on
explicit request.

The solver (the separability-eigenvalue equations of Sperling and Vogel,
PRL 111, 110503 (2013)) runs all its restarts together on stacked arrays:
each half-step conditions the operator on the other parties' states of every
active restart with one matrix product and solves the conditioned problems
with one batched eigensolve.  Each restart drops out on its own convergence,
so its sweeps are those it would take alone.  Operators with no imaginary
part, as the lambda and probe operators are, run that product in real
arithmetic on the frames viewed as real arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .errors import ValidationError
from .operators import HermitianOperator, lambda_operator, min_eigenvalue
from .streams import keyed_rng

# A chunk of restarts holds at most max(D^2, _FRAME_FLOOR) frame entries: no
# more than the operator itself, whatever the restart count, while small
# operators still advance thousands of restarts per matrix product.
_FRAME_FLOOR = 1 << 16


@dataclass(frozen=True, eq=False)
class ProbeState:
    """Unit-trace positive probe with an optional analytic g_max."""

    operator: HermitianOperator
    gmax: float | None = None

    def __post_init__(self):
        if abs(self.operator.trace() - 1.0) > 1e-12:
            raise ValidationError(f"probe trace must be 1, got {self.operator.trace():.12f}")
        if min_eigenvalue(self.operator) < -1e-12:
            raise ValidationError("probe must be positive semidefinite")
        if self.gmax is not None:
            object.__setattr__(self, "gmax", float(self.gmax))


@dataclass(frozen=True, eq=False)
class WitnessResult:
    """Outcome of one witness evaluation."""

    lhs: float
    bound: float
    margin: float
    verdict: str
    bound_source: str = "analytic"

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "bound": self.bound,
            "margin": self.margin,
            "verdict": self.verdict,
            "bound_source": self.bound_source,
        }


@dataclass(frozen=True, eq=False)
class SeparabilityResult:
    """Best product-state expectation found by the alternating solver."""

    gmax: float
    states: tuple
    converged: bool
    history: tuple = ()


def ghz_probe(n: int) -> ProbeState:
    """(1 + flip) / 2^n on n qubits, where flip exchanges |0...0> and |1...1>."""
    lam = lambda_operator(n, 2)
    m = (np.eye(2**n) + lam.matrix) / 2**n
    gmax = (1 + 2.0 ** (1 - n)) / 2**n
    return ProbeState(HermitianOperator(m, (2,) * n), gmax)


def me_probe(d: int) -> ProbeState:
    """(1 + sum_{k != l} |k><l| (x) |k><l|) / d^2 on two qudits."""
    lam = lambda_operator(2, d)
    m = (np.eye(d * d) + lam.matrix) / d**2
    gmax = (2 - 1.0 / d) / d**2
    return ProbeState(HermitianOperator(m, (d, d)), gmax)


def noise_threshold(family: str, size: int) -> float:
    """White-noise fraction below which the witness still fires.

    family 'ghz' takes the qubit number n, family 'me' the local dimension d.
    """
    if family == "ghz":
        n = int(size)
        if n < 2:
            raise ValidationError(f"need n >= 2, got {n}")
        h = 2.0 ** (n - 1)
        return (h - 1) / (3 * h - 1)
    if family == "me":
        d = int(size)
        if d < 2:
            raise ValidationError(f"need d >= 2, got {d}")
        return (d - 2 + 1.0 / d) / (d * d - 2 + 1.0 / d)
    raise ValidationError(f"unknown witness family {family!r}")


def lambda_gmax_analytic(n: int, d: int) -> float:
    """Largest product-state expectation of lambda_operator(n, d).

    Uniform support on d' basis states per party scores d'(d' - 1) / d'^n;
    the best d' is d for n = 2 and 2 for n > 2.
    """
    if n < 2 or d < 2:
        raise ValidationError(f"need n >= 2 and d >= 2, got n={n}, d={d}")
    return max(dp * (dp - 1) / dp**n for dp in range(1, d + 1))


def _structured_starts(dims: tuple[int, ...]) -> list[list[np.ndarray]]:
    starts = []
    for dp in range(1, min(dims) + 1):
        states = []
        for d in dims:
            v = np.zeros(d, dtype=complex)
            v[:dp] = 1.0 / np.sqrt(dp)
            states.append(v)
        starts.append(states)
    return starts


def _random_start(dims: tuple[int, ...], rng: Generator) -> list[np.ndarray]:
    states = []
    for d in dims:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        states.append(v / np.linalg.norm(v))
    return states


def _kron_rows(factors: list[np.ndarray], rows: int) -> np.ndarray:
    out = np.ones((rows, 1), dtype=complex)
    for f in factors:
        out = (out[:, :, None] * f[:, None, :]).reshape(rows, -1)
    return out


def _half_step(
    matrix: np.ndarray, states: list[np.ndarray], j: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenpair of the operator conditioned on every party but j, per row.

    `states` holds one (A, d_i) array per party.  The frames
    F_r = a_1 (x) ... (x) 1_{d_j} (x) ... (x) a_n are laid out as one
    D x (A d_j) matrix, so the conditioned operators F_r^dag op F_r of all A
    rows cost a single matrix product with the operator.  A real `matrix`
    takes that product in real arithmetic, half the work of a complex one.
    """
    a, dj = states[j].shape
    left = _kron_rows(states[:j], a).T
    right = _kron_rows(states[j + 1 :], a).T
    eye = np.eye(dj)
    frames = (
        left[:, None, None, :, None] * eye[None, :, None, None, :] * right[None, None, :, :, None]
    ).reshape(-1, a, dj)
    flat = frames.reshape(-1, a * dj)
    if np.isrealobj(matrix):
        # a real operator maps real and imaginary parts alike: one real
        # product on the frames viewed as a real D x (2 A d_j) matrix
        x = (matrix @ flat.view(float)).view(complex).reshape(-1, a, dj)
    else:
        x = (matrix @ flat).reshape(-1, a, dj)
    m = frames.conj().transpose(1, 2, 0) @ x.transpose(1, 0, 2)
    w, vecs = np.linalg.eigh((m + m.conj().transpose(0, 2, 1)) / 2)
    v = vecs[:, :, -1]
    lead = v[np.arange(a), np.argmax(np.abs(v), axis=1)]
    return w[:, -1], v * (np.abs(lead) / lead)[:, None]


def separability_eigenvalue_numeric(
    op: HermitianOperator,
    restarts: int = 64,
    tol: float = 1e-10,
    max_sweeps: int = 10000,
    seed: int = 0,
    track_history: bool = False,
) -> SeparabilityResult:
    """Alternating maximization of <a_1 ... a_n| op |a_1 ... a_n> over products.

    Each half-step replaces one party's state with the top eigenvector of the
    operator conditioned on the others, so the objective never decreases. The
    first starts sweep the uniform-support family, the rest are random from a
    deterministic Philox stream keyed by (seed, restart).  All restarts
    advance together as stacked (restarts, d_i) states: a half-step costs one
    matrix product of the operator with the frames of the active restarts,
    in chunks whose frames hold no more entries than the operator (or 2^16,
    whichever is more), and one batched eigensolve.  An operator whose
    imaginary part is all zero (lambda, GHZ and ME probes) takes that
    product as a real one on the frames' real and imaginary parts, which
    halves its arithmetic; complex operators keep the complex product.  A
    restart leaves the active set after the first sweep that moves its value
    by less than `tol`, or after `max_sweeps`; the best restart is the first
    to reach the largest value.  The result is a certified lower bound on the
    separability eigenvalue.
    """
    if restarts < 1:
        raise ValidationError(f"need at least 1 restart, got {restarts}")
    if tol <= 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    if max_sweeps < 1:
        raise ValidationError(f"need at least 1 sweep, got {max_sweeps}")
    dims = op.parties
    structured = _structured_starts(dims)
    starts = [
        structured[r] if r < len(structured) else _random_start(dims, keyed_rng(seed, r))
        for r in range(restarts)
    ]
    states = [np.array([s[i] for s in starts]) for i in range(len(dims))]
    matrix = op.matrix
    if not matrix.imag.any():
        matrix = np.ascontiguousarray(matrix.real)
    chunk = max(op.dim**2, _FRAME_FLOOR) // (op.dim * max(dims))
    prev = np.full(restarts, -np.inf)
    val = np.full(restarts, -np.inf)
    converged = np.zeros(restarts, dtype=bool)
    history: list[list[float]] = [[] for _ in range(restarts)]
    active = np.arange(restarts)
    for _ in range(max_sweeps):
        for j in range(len(dims)):
            for lo in range(0, active.size, chunk):
                rows = active[lo : lo + chunk]
                val[rows], states[j][rows] = _half_step(matrix, [s[rows] for s in states], j)
        if track_history:
            for r in active:
                history[r].append(float(val[r]))
        done = np.abs(val[active] - prev[active]) < tol
        converged[active[done]] = True
        prev[active] = val[active]
        active = active[~done]
        if not active.size:
            break
    best = int(np.argmax(val))
    return SeparabilityResult(
        gmax=float(val[best]),
        states=tuple(s[best].copy() for s in states),
        converged=bool(converged[best]),
        history=tuple(tuple(h) for h in history) if track_history else (),
    )


def witness_evaluate(
    element: HermitianOperator,
    probe: ProbeState,
    numeric: bool = False,
    tol: float = 0.0,
    restarts: int = 64,
    solver_tol: float = 1e-10,
    seed: int = 0,
) -> WitnessResult:
    """Compare tr(element probe) / tr(element) against the probe's g_max.

    The analytic bound decides the verdict unless `numeric` asks for the
    solver's certified lower bound instead; a probe without an analytic bound
    requires `numeric`.  Verdicts are 'entangled' when the margin exceeds
    `tol`, else 'inconclusive'.
    """
    if element.parties != probe.operator.parties:
        raise ValidationError(
            f"element parties {element.parties} do not match probe parties {probe.operator.parties}"
        )
    t = element.trace()
    if t <= 0:
        raise ValidationError(f"element trace must be positive, got {t}")
    lhs = float(np.real(np.trace(element.matrix @ probe.operator.matrix))) / t
    if numeric:
        res = separability_eigenvalue_numeric(
            probe.operator, restarts=restarts, tol=solver_tol, seed=seed
        )
        # best value found is still a valid lower bound; just flag it
        bound = res.gmax
        source = "numeric-lower-bound" if res.converged else "numeric-lower-bound-unconverged"
    else:
        if probe.gmax is None:
            raise ValidationError("probe has no analytic bound; pass numeric=True to solve for one")
        bound = probe.gmax
        source = "analytic"
    margin = lhs - bound
    verdict = "entangled" if margin > tol else "inconclusive"
    return WitnessResult(lhs, bound, margin, verdict, source)
