"""Probe-state entanglement witnesses for multipartite and qudit POVM elements.

A detector outcome Pi is certified entangled when tr(Pi rho) / tr(Pi) exceeds
g_max(rho), the largest expectation of the probe rho over fully product
states.  Every probe carries its g_max in closed form (the GHZ and maximally
entangled projector mixtures built here), and that value alone decides the
verdict.  A multi-start alternating maximization gives an independent
numeric value: a product state reaches it, so it bounds g_max from below
and a verdict taken from it could read "entangled" where a separable model
reaches the lhs.  It is reported only as a cross-check of the closed form.

The solver (the separability-eigenvalue equations of Sperling and Vogel,
PRL 111, 110503 (2013)) runs its restarts together on stacked arrays: each
half-step conditions the operator on the other parties' states of every
live restart and solves the conditioned problems with one batched
eigensolve.  The live restarts' states sit in contiguous (live, d_i) stacks;
a restart that converges is written back and the stacks are compacted, so
no half-step gathers or scatters the states of finished restarts.
The operator is conditioned through its (row, column, value) triples
(lambda has d(d - 1) of them, the GHZ probe D + 2, the ME probe 2 D - d):
each entry is weighted by the other parties' factors conj(a_i[r_i]) a_i[c_i]
at its row and column digits and added into the d_j x d_j bin of its
party-j digits, (n - 1) nnz multiply-adds per restart.  Each party's
factors are kept as a (live, nnz) stack and gathered again only after that
party is solved.  No restart's arithmetic depends on another's, and each
restart drops out on its own convergence, so its sweeps are those it would
take alone, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .operators import HermitianOperator, _lookup, lambda_operator, min_eigenvalue
from .streams import keyed_normals

# A chunk of restarts conditioned on all parties but j keeps factors,
# weights and tables of at most max(D^2, _FRAME_FLOOR) complex entries: no
# more than the operator itself, whatever the restart count, while small
# operators still advance thousands of restarts per step.
_FRAME_FLOOR = 1 << 16
# a restart has converged once a sweep moves its value by less than this,
# and stops unconverged after this many sweeps
_SOLVER_TOL = 1e-10
_MAX_SWEEPS = 10000
# most restarts one solve takes, since their starts are drawn and held at
# once: at this cap, the 128 MiB of starts of `witness --family me -d 64
# --numeric` peak at 189 MiB resident while drawn, and the solve held
# 0.65 GiB
MAX_RESTARTS = 1 << 16


@dataclass(frozen=True, eq=False)
class ProbeState:
    """Unit-trace positive probe and its closed-form g_max."""

    operator: HermitianOperator
    gmax: float

    def __post_init__(self):
        if abs(self.operator.trace() - 1.0) > 1e-12:
            raise ValidationError(f"probe trace must be 1, got {self.operator.trace():.12f}")
        if min_eigenvalue(self.operator) < -1e-12:
            raise ValidationError("probe must be positive semidefinite")
        object.__setattr__(self, "gmax", float(self.gmax))


@dataclass(frozen=True, eq=False)
class WitnessResult:
    """Outcome of one witness evaluation against the probe's closed-form g_max.

    With the numeric cross-check, `numeric_gmax` and `numeric_converged`
    are the solver's best value and whether that restart converged, and
    `shortfall` is bound - numeric_gmax: 0 to rounding when the solver
    finds g_max, positive when it stops short.
    """

    lhs: float
    bound: float
    margin: float
    verdict: str
    numeric_gmax: float | None = None
    numeric_converged: bool | None = None
    shortfall: float | None = None

    def to_dict(self) -> dict:
        # the cross-check's fields only when it ran
        return {k: v for k, v in vars(self).items() if v is not None}


@dataclass(frozen=True, eq=False)
class SeparabilityResult:
    """Best product-state expectation found by the alternating solver."""

    gmax: float
    states: tuple
    converged: bool
    history: tuple = ()


def _unit_plus(lam: HermitianOperator, scale: int) -> HermitianOperator:
    """(1 + lam) / scale from lam's entries, which all lie off the diagonal.

    Every entry of 1 + lam is then a 1, so each value is 1 / scale, the
    float the dense (eye + lam) / scale gives.
    """
    dim = lam.dim
    flat = np.concatenate([np.arange(dim) * (dim + 1), lam.support[0]])
    values = np.concatenate([np.ones(dim), lam.support[1]]) / scale
    return HermitianOperator.from_entries(flat, values, lam.parties)


def ghz_probe(n: int) -> ProbeState:
    """(1 + flip) / 2^n on n qubits, where flip exchanges |0...0> and |1...1>."""
    # the operator first: it checks n against the dimension guard
    op = _unit_plus(lambda_operator(n, 2), 2**n)
    return ProbeState(op, (1 + 2.0 ** (1 - n)) / 2**n)


def me_probe(d: int) -> ProbeState:
    """(1 + sum_{k != l} |k><l| (x) |k><l|) / d^2 on two qudits."""
    op = _unit_plus(lambda_operator(2, d), d**2)
    return ProbeState(op, (2 - 1.0 / d) / d**2)


def noise_threshold(family: str, size: int) -> float:
    """White-noise fraction below which the witness still fires.

    family 'ghz' takes the qubit number n, family 'me' the local dimension d;
    it holds for any size >= 2, past the dimension guard too.  Both are
    ratios of integers, rounded once: (h - 1) / (3 h - 1), h = 2^(n - 1),
    for GHZ and (d - 1) / (d^2 + d - 1) for ME.  The GHZ value rounds to 1/3
    from n = 54 on, so h stops growing at n = 64.
    """
    if family == "ghz":
        n = int(size)
        if n < 2:
            raise ValidationError(f"need n >= 2, got {n}")
        h = 1 << (min(n, 64) - 1)
        return (h - 1) / (3 * h - 1)
    if family == "me":
        d = int(size)
        if d < 2:
            raise ValidationError(f"need d >= 2, got {d}")
        return (d - 1) / (d * d + d - 1)
    raise ValidationError(f"unknown witness family {family!r}")


def lambda_gmax_analytic(n: int, d: int) -> float:
    """Largest product-state expectation of lambda_operator(n, d).

    Uniform support on d' basis states per party scores d'(d' - 1) / d'^n;
    the best d' is d for n = 2, (d - 1) / d, and 2 for n > 2, 2 / 2^n.
    """
    if n < 2 or d < 2:
        raise ValidationError(f"need n >= 2 and d >= 2, got n={n}, d={d}")
    return (d - 1) / d if n == 2 else 2 / 2**n


def _structured_starts(dims: tuple[int, ...]) -> list[np.ndarray]:
    """Uniform-support starts, one (min(dims), d_i) array per party.

    Row k puts 1 / sqrt(k + 1) on each party's first k + 1 basis states.
    """
    width = np.arange(1, min(dims) + 1)[:, None]
    return [np.where(np.arange(d) < width, 1.0 / np.sqrt(width), 0.0).astype(complex) for d in dims]


def _random_starts(dims: tuple[int, ...], seed: int, indices) -> list[np.ndarray]:
    """Random unit states, one (len(indices), d_i) array per party.

    Row r draws 2 sum(d_i) normals from the stream keyed by (seed,
    indices[r]); party i takes the next d_i as real parts, then d_i as
    imaginary parts.  The norm is sqrt(re . re + im . im) with the dot
    products np.linalg.norm takes on a single complex vector, so each row is
    the start that drawing and normalizing it alone gives, bit for bit.
    """
    z = keyed_normals(seed, indices, 2 * sum(dims))
    states = []
    at = 0
    for d in dims:
        v = z[:, at : at + d] + 1j * z[:, at + d : at + 2 * d]
        at += 2 * d
        states.append(v / np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))[:, None])
    return states


class _Entries(NamedTuple):
    """An operator's nonzero entries, with each party's (row, column) digit pair."""

    values: np.ndarray  # (nnz,)
    pairs: np.ndarray  # (n, nnz): r_i d_i + c_i for an entry at row r, column c


def _sparse_entries(op: HermitianOperator) -> _Entries:
    """The operator's nonzero entries, read from its support."""
    flat, values = op.support
    # flat = r D + c, so its digits over dims + dims are r's digits, then c's
    dims = op.parties
    digits = np.unravel_index(flat, dims + dims)
    n = len(dims)
    pairs = [digits[i] * dims[i] + digits[n + i] for i in range(n)]
    return _Entries(values, np.array(pairs))


def _gathered(entries: _Entries, s: np.ndarray, i: int) -> np.ndarray:
    """Party i's factors conj(a_i[r_i]) a_i[c_i] at every entry, as an (A, nnz) array.

    `s` holds the party's (A, d_i) states; the factors are read from its
    (A, d_i^2) table conj(a_i) (x) a_i at the entries' digit pairs.
    """
    a = s.shape[0]
    return (s.conj()[:, :, None] * s[:, None, :]).reshape(a, -1)[:, entries.pairs[i]]


def _entry_conditioned(entries: _Entries, factors: list[np.ndarray], j: int, dj: int) -> np.ndarray:
    """F_a^dag op F_a for every row a from the operator's nonzero entries.

    Entry (r, c) contributes value * prod_{i != j} conj(a_i[r_i]) a_i[c_i]
    to bin (r_j, c_j).  `factors` holds each party's `_gathered` factors of
    the A rows (party j's are not read), multiplied in party order, so a row
    costs (n - 1) nnz products, then one scatter-add.
    """
    a = factors[0].shape[0]
    w = np.empty((a, entries.values.size), dtype=complex)
    w[:] = entries.values
    for i, f in enumerate(factors):
        if i != j:
            w *= f
    out = np.zeros((a, dj * dj), dtype=complex)
    np.add.at(out, (slice(None), entries.pairs[j]), w)
    return out.reshape(a, dj, dj)


def _half_step(
    entries: _Entries, states: list[np.ndarray], j: int, factors: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenpair of the operator conditioned on every party but j, per row.

    `states` holds one (A, d_i) array per party and `factors` the rows'
    `_gathered` factors of the operator's `entries`.  The conditioned
    operators F_r^dag op F_r of all A rows come from `_entry_conditioned`,
    which never multiplies by the 1_{d_j} factor of the frames F_r; one
    batched eigensolve follows.
    """
    m = _entry_conditioned(entries, factors, j, states[j].shape[1])
    w, vecs = np.linalg.eigh((m + m.conj().transpose(0, 2, 1)) / 2)
    v = vecs[:, :, -1]
    lead = v[np.arange(v.shape[0]), np.abs(v).argmax(axis=1)]
    return w[:, -1], v * (np.abs(lead) / lead)[:, None]


def separability_eigenvalue_numeric(
    op: HermitianOperator,
    restarts: int = 64,
    seed: int = 0,
    track_history: bool = False,
) -> SeparabilityResult:
    """Alternating maximization of <a_1 ... a_n| op |a_1 ... a_n> over products.

    Each half-step replaces one party's state with the top eigenvector of the
    operator conditioned on the others, so the objective never decreases. The
    first starts sweep the uniform-support family, the rest are random, each
    from a deterministic Philox stream keyed by (seed, restart) and all
    drawn in one call.  A half-step on party j conditions the operator on
    the other parties through its nonzero entries, read from the operator's
    support.  Each party's factors conj(a_i[r_i]) a_i[c_i] at the entries are
    kept per restart and only the party just solved has its factors
    gathered again, so a half-step costs (n - 1) nnz multiply-adds per
    restart and one scatter-add, then one batched eigensolve.  Lambda and
    the GHZ and ME probes have at most 2 D entries.  A dense operator has
    D^2 and pays for them: on random real symmetric operators on ququarts
    (one BLAS thread, 2-vCPU VM) a solve takes 0.21 s at D = 64 and 6-7 s
    at D = 256 with 12 restarts, and 28 s and 260 MB of resident memory at
    D = 1024 with 64 restarts capped at 2 sweeps, where contracting the
    operator with the product states as one matrix product took 0.03 s,
    0.09 s, and 0.13 s and 71 MB.  No command, script or benchmark passes
    a dense operator.

    The restarts are solved in blocks whose kept factors and weights hold
    no more entries than the operator (or 2^16, whichever is more), and one
    restart per block when a single restart's hold more.  A block advances
    only its live restarts, as contiguous (live, d_i) stacks: a restart
    leaves after the first sweep that moves its value by less than
    _SOLVER_TOL, when its state and value are written back and the stacks
    are compacted, and the restarts still live after _MAX_SWEEPS are
    written back at the end.  No restart's arithmetic depends on the
    others, so neither the blocks nor the leaving restarts change any bit
    of its path.  The best restart is the first to reach the largest
    value.  The result is a certified lower bound on the separability
    eigenvalue.
    """
    if restarts < 1:
        raise ValidationError(f"need at least 1 restart, got {restarts}")
    if restarts > MAX_RESTARTS:
        raise ValidationError(f"at most {MAX_RESTARTS} restarts, got {restarts}")
    dims = op.parties
    first = [s[:restarts] for s in _structured_starts(dims)]
    drawn = _random_starts(dims, seed, range(len(first[0]), restarts))
    states = [np.concatenate(pair) for pair in zip(first, drawn)]
    entries = _sparse_entries(op)
    # a row's kept factors and weights hold (n + 1) nnz entries, its
    # digit-pair tables and conditioned matrix d_i^2 each
    block = max(op.dim**2, _FRAME_FLOOR) // ((len(dims) + 1) * max(entries.values.size, max(dims) ** 2))
    block = max(block, 1)
    val = np.full(restarts, -np.inf)
    converged = np.zeros(restarts, dtype=bool)
    history: list[list[float]] = [[] for _ in range(restarts)]
    for lo in range(0, restarts, block):
        ids = np.arange(lo, min(lo + block, restarts))
        live = [s[ids] for s in states]
        factors = [_gathered(entries, s, i) for i, s in enumerate(live)]
        prev = np.full(ids.size, -np.inf)
        for _ in range(_MAX_SWEEPS):
            for j in range(len(dims)):
                value, live[j] = _half_step(entries, live, j, factors)
                factors[j] = _gathered(entries, live[j], j)
            if track_history:
                for r, v in zip(ids.tolist(), value.tolist()):
                    history[r].append(v)
            done = np.abs(value - prev) < _SOLVER_TOL
            prev = value
            if done.any():
                # converged restarts leave: write them back, compact the rest
                left = ids[done]
                val[left], converged[left] = prev[done], True
                for s, x in zip(states, live):
                    s[left] = x[done]
                keep = ~done
                ids, prev, live = ids[keep], prev[keep], [x[keep] for x in live]
                factors = [f[keep] for f in factors]
                if not ids.size:
                    break
        # restarts stopped by _MAX_SWEEPS
        val[ids] = prev
        for s, x in zip(states, live):
            s[ids] = x
    best = int(np.argmax(val))
    return SeparabilityResult(
        gmax=float(val[best]),
        states=tuple(s[best].copy() for s in states),
        converged=bool(converged[best]),
        history=tuple(tuple(h) for h in history) if track_history else (),
    )


def _trace_of_product(element: HermitianOperator, probe: HermitianOperator) -> float:
    """tr(element probe) = sum_rc real(conj(p_rc) e_rc), over the probe's nonzero entries.

    The probe's entries and the element's values at them are read from the
    two supports, so no dense matrix is built.  The terms are added by
    math.fsum, which rounds their exact sum once: the value depends on
    neither their order nor the BLAS thread count.
    """
    flat, p = probe.support
    e = _lookup(*element.support, flat)
    return math.fsum((p.conj() * e).real.tolist())


def witness_evaluate(
    element: HermitianOperator,
    probe: ProbeState,
    numeric: bool = False,
    restarts: int = 64,
    seed: int = 0,
) -> WitnessResult:
    """Compare tr(element probe) / tr(element) against the probe's g_max.

    The closed-form g_max decides the verdict: 'entangled' when the margin
    is positive, else 'inconclusive'.  `numeric` adds the solver's value,
    from `restarts` starts under `seed`, as a cross-check that never
    changes the verdict.
    """
    if element.parties != probe.operator.parties:
        raise ValidationError(
            f"element parties {element.parties} do not match probe parties {probe.operator.parties}"
        )
    t = element.trace()
    if t <= 0:
        raise ValidationError(f"element trace must be positive, got {t}")
    lhs = _trace_of_product(element, probe.operator) / t
    margin = lhs - probe.gmax
    verdict = "entangled" if margin > 0 else "inconclusive"
    if not numeric:
        return WitnessResult(lhs, probe.gmax, margin, verdict)
    res = separability_eigenvalue_numeric(probe.operator, restarts=restarts, seed=seed)
    return WitnessResult(lhs, probe.gmax, margin, verdict, res.gmax, res.converged, probe.gmax - res.gmax)
