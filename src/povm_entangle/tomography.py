"""Linear-inversion detector tomography from two-photon coincidence counts.

Probe states are labeled by the six polarizations H, V, D, A, R, L.  A basis
map assigns each label a Pauli axis and sign per arm; the default map is the
asymmetric assignment of the reference experiment (Alice H -> z+, Bob D -> z+,
and so on).  Relative frequencies feed 4x6 sampling matrices that invert the
Born rule exactly, and an optional white-noise admixture repairs indefinite
reconstructions without breaking completeness.  Both steps exist once, stacked
over any leading axes: `invert_frequencies` and `repair_strength` serve the
per-dataset functions here and every Monte Carlo sample block alike.  The
CSV and JSON count readers share one core: both index each entry by
(outcome, probe pair), so one label rule, one count check, one duplicate
check and one gap check serve the two formats.  The functions that take or
return POVM objects (`reconstruct_povm`, `physicality_correct`,
`closest_bell_labels`) import the operator layer when they run, so the
counts readers and the array path load none of it.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError
from .pauli import pauli_eigenstate, pauli_matrices

if TYPE_CHECKING:
    from .operators import PovmSet

PROBE_LABELS = ("H", "V", "D", "A", "R", "L")

_AXES = ("x", "y", "z")
_AXIS_ROW = {"x": 1, "y": 2, "z": 3}

# Detection threshold for "this reconstruction is indefinite"; matches the
# positivity slack allowed on corrected POVM elements.
INDEFINITE_TOL = 1e-12

# largest count the int64 count arrays hold
COUNT_MAX = int(np.iinfo(np.int64).max)
# the smallest float past it: float(COUNT_MAX) itself rounds up to 2^63
_FLOAT_OVER = 2.0**63

_DEFAULT_ALICE = {"H": "z+", "V": "z-", "D": "x+", "A": "x-", "L": "y+", "R": "y-"}
_DEFAULT_BOB = {"D": "z+", "A": "z-", "H": "x+", "V": "x-", "R": "y+", "L": "y-"}


def _parse_assignment(value) -> tuple[str, int]:
    if isinstance(value, str) and len(value) == 2 and value[0] in _AXES and value[1] in "+-":
        return value[0], 1 if value[1] == "+" else -1
    raise ValidationError(f"bad axis assignment {value!r}, expected e.g. 'z+'")


@dataclass(frozen=True)
class BasisMap:
    """Per-arm assignment of probe labels to Pauli eigenstates."""

    alice: dict
    bob: dict

    def __post_init__(self):
        for side, mapping in (("alice", self.alice), ("bob", self.bob)):
            if set(mapping) != set(PROBE_LABELS):
                raise ValidationError(f"{side} map must cover exactly the labels {PROBE_LABELS}")
            parsed = {label: _parse_assignment(mapping[label]) for label in PROBE_LABELS}
            targets = set(parsed.values())
            if len(targets) != 6:
                raise ValidationError(f"{side} map must hit each (axis, sign) pair exactly once")
            object.__setattr__(self, side, parsed)

    @classmethod
    def default(cls) -> "BasisMap":
        return cls(_DEFAULT_ALICE, _DEFAULT_BOB)

    def assignment(self, side: str, label: str) -> tuple[str, int]:
        mapping = {"alice": self.alice, "bob": self.bob}.get(side)
        if mapping is None:
            raise ValidationError(f"side must be 'alice' or 'bob', got {side!r}")
        return mapping[label]

    def state(self, side: str, label: str) -> np.ndarray:
        axis, sign = self.assignment(side, label)
        return pauli_eigenstate(axis, sign)

    def to_dict(self) -> dict:
        return {
            side: {label: f"{axis}{'+' if sign > 0 else '-'}" for label, (axis, sign) in mapping.items()}
            for side, mapping in (("alice", self.alice), ("bob", self.bob))
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BasisMap":
        try:
            alice, bob = dict(data["alice"]), dict(data["bob"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed basis map: {exc}") from exc
        return cls(alice, bob)


_PROBE_INDEX = {label: i for i, label in enumerate(PROBE_LABELS)}
# an ASCII decimal integer with an optional sign and ASCII whitespace around
# it; int() alone would also take "2_479" and non-ASCII digits
_INTEGER = re.compile(r"\s*[+-]?\d+\s*", re.ASCII).fullmatch


def _parse_count(text: str) -> int | None:
    """The integer a CSV count field spells, or None."""
    if _INTEGER(text) is None:
        return None
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        return None


def _count_error(value, where: str) -> ValidationError | None:
    """Why value is not a count, an int from 0 to COUNT_MAX; None if it is one."""
    if isinstance(value, bool) or not isinstance(value, int):
        return ValidationError(f"{where}: count {value!r} is not an integer")
    if abs(value) > COUNT_MAX:
        return ValidationError(f"{where}: count {value} does not fit in 64 bits")
    if value < 0:
        return ValidationError(f"{where}: count {value} is negative; counts must be nonnegative")
    return None


def _outcome_labels(labels) -> tuple[str, ...]:
    outcomes = tuple(str(s) for s in labels)
    if not outcomes or len(set(outcomes)) != len(outcomes) or not all(s.strip() for s in outcomes):
        raise ValidationError(f"outcome labels must be non-empty and unique, got {outcomes}")
    return outcomes


def _duplicate_error(ia: int, ib: int, out: str, where: str, first: str) -> ValidationError:
    dup = (PROBE_LABELS[ia], PROBE_LABELS[ib], out)
    return ValidationError(f"{where}: duplicate entry for {dup}, first seen on {first}")


@dataclass(frozen=True, eq=False)
class CoincidenceCounts:
    """Raw coincidence counts, indexed [outcome, alice probe, bob probe]."""

    outcomes: tuple[str, ...]
    counts: np.ndarray
    basis_map: BasisMap

    def __post_init__(self):
        outcomes = _outcome_labels(self.outcomes)
        c = np.asarray(self.counts)
        if c.shape != (len(outcomes), 6, 6):
            raise ValidationError(f"counts shape must be ({len(outcomes)}, 6, 6), got {c.shape}")
        if not np.issubdtype(c.dtype, np.integer):
            if not np.all(c == np.floor(c)):
                raise ValidationError("counts must be integers")
            # the int64 cast would wrap these, infinities included
            wide = np.abs(c) >= _FLOAT_OVER
            if wide.any():
                raise ValidationError(f"count {c[wide][0]} does not fit in 64 bits")
            c = c.astype(np.int64)
        if np.any(c < 0):
            raise ValidationError("counts must be nonnegative")
        if c.max() > COUNT_MAX // len(outcomes):
            # an int64 sum could wrap: total each setting in Python integers
            exact = c.astype(object).sum(axis=0)
            if np.any(exact > COUNT_MAX):
                ia, ib = np.argwhere(exact > COUNT_MAX)[0]
                pair = (PROBE_LABELS[ia], PROBE_LABELS[ib])
                raise ValidationError(f"total counts for probe pair {pair} exceed 2^63 - 1 = {COUNT_MAX}")
        totals = c.sum(axis=0)
        if np.any(totals <= 0):
            ia, ib = np.argwhere(totals <= 0)[0]
            pair = (PROBE_LABELS[ia], PROBE_LABELS[ib])
            raise ValidationError(f"zero total counts for probe pair {pair}")
        c = np.ascontiguousarray(c.astype(np.int64))
        c.setflags(write=False)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "counts", c)

    @property
    def totals(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["probe_a", "probe_b", "outcome", "count"])
        for ia, a in enumerate(PROBE_LABELS):
            for ib, b in enumerate(PROBE_LABELS):
                for k, out in enumerate(self.outcomes):
                    w.writerow([a, b, out, int(self.counts[k, ia, ib])])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, basis_map: BasisMap | None = None) -> "CoincidenceCounts":
        """Counts from CSV text; the first malformed row is reported by its line.

        A valid row costs dict lookups and one integer parse: messages are
        formatted, and blank rows recognized, only where a check fails.
        """
        rows = list(csv.reader(io.StringIO(text)))
        if not rows:
            raise ValidationError("empty counts file")
        header = [h.strip().lower() for h in rows[0]]
        if header != ["probe_a", "probe_b", "outcome", "count"]:
            raise ValidationError(f"line 1: expected header probe_a,probe_b,outcome,count, got {rows[0]}")
        kidx: dict[str, int] = {}  # outcome label -> index, in order of first appearance
        seen: dict[int, int] = {}  # flat index of (outcome, probe a, probe b) -> line
        values: list[int] = []  # counts, in the order of seen
        for lineno, row in enumerate(rows[1:], start=2):
            ia = ib = None
            if len(row) == 4:
                ia = _PROBE_INDEX.get(row[0].strip().upper())
                ib = _PROBE_INDEX.get(row[1].strip().upper())
            if ia is None or ib is None:
                if all(not f.strip() for f in row):
                    continue
                if len(row) != 4:
                    raise ValidationError(f"line {lineno}: expected 4 fields, got {len(row)}")
                label = row[0] if ia is None else row[1]
                raise ValidationError(f"line {lineno}: unknown probe label {label!r}")
            n = _parse_count(row[3])
            if n is None or not 0 <= n <= COUNT_MAX:
                raise _count_error(row[3] if n is None else n, f"line {lineno}")
            out = row[2].strip().upper()
            k = kidx.setdefault(out, len(kidx))
            key = 36 * k + 6 * ia + ib
            if seen.setdefault(key, lineno) != lineno:
                raise _duplicate_error(ia, ib, out, f"line {lineno}", f"line {seen[key]}")
            values.append(n)
        if not values:
            raise ValidationError("counts file has a header but no data rows")
        return cls._assemble(kidx, seen, values, basis_map)

    @classmethod
    def _assemble(cls, kidx: dict, seen: dict, values: list, basis_map: BasisMap | None) -> "CoincidenceCounts":
        """Counts from values read at the flat indices 36 k + 6 a + b of seen,
        k from kidx; the first (probe pair, outcome) no entry gave is reported."""
        outcomes = _outcome_labels(kidx)
        counts = np.full(36 * len(outcomes), -1, dtype=np.int64)
        counts[np.fromiter(seen, np.intp, len(seen))] = values
        counts = counts.reshape(-1, 6, 6)
        missing = np.argwhere(counts < 0)
        if missing.size:
            k, ia, ib = missing[0]
            raise ValidationError(
                f"missing entry for probe pair ({PROBE_LABELS[ia]},{PROBE_LABELS[ib]}) outcome {outcomes[k]}"
            )
        return cls(outcomes, counts, basis_map or BasisMap.default())

    def to_json_dict(self) -> dict:
        body = {}
        for ia, a in enumerate(PROBE_LABELS):
            for ib, b in enumerate(PROBE_LABELS):
                body[f"{a},{b}"] = {out: int(self.counts[k, ia, ib]) for k, out in enumerate(self.outcomes)}
        return {"basis_map": self.basis_map.to_dict(), "counts": body}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CoincidenceCounts":
        """Counts from the JSON form, checked as CSV rows are: one entry per
        (probe pair, outcome), each a JSON integer from 0 to 2^63 - 1."""
        if "counts" not in data:
            raise ValidationError("counts JSON must contain a 'counts' object")
        basis_map = None if data.get("basis_map") is None else BasisMap.from_dict(data["basis_map"])
        body = data["counts"]
        if not isinstance(body, dict) or not body:
            raise ValidationError("'counts' must be a non-empty object keyed by 'A,B' probe pairs")
        kidx: dict[str, int] = {}
        seen: dict[int, tuple] = {}  # flat index -> (pair key, outcome label) as written
        values: list[int] = []
        for key, cell in body.items():
            parts = [p.strip().upper() for p in str(key).split(",")]
            if len(parts) != 2 or parts[0] not in _PROBE_INDEX or parts[1] not in _PROBE_INDEX:
                raise ValidationError(f"bad probe pair key {key!r}, expected e.g. 'H,V'")
            if not isinstance(cell, dict):
                raise ValidationError(f"key {key!r}: expected an object of outcome counts")
            ia, ib = _PROBE_INDEX[parts[0]], _PROBE_INDEX[parts[1]]
            where = f"key {parts[0]},{parts[1]}"
            for label, n in cell.items():
                if (error := _count_error(n, where)) is not None:
                    raise error
                out = str(label).strip().upper()
                flat = 36 * kidx.setdefault(out, len(kidx)) + 6 * ia + ib
                if seen.setdefault(flat, (key, label)) != (key, label):
                    first = "key {!r} outcome {!r}".format(*seen[flat])
                    raise _duplicate_error(ia, ib, out, f"key {key!r} outcome {label!r}", first)
                values.append(n)
        return cls._assemble(kidx, seen, values, basis_map)


@dataclass(frozen=True, eq=False)
class RelativeFrequencies:
    """Per-setting outcome frequencies p_k(a, b) with the underlying totals."""

    outcomes: tuple[str, ...]
    probs: np.ndarray
    totals: np.ndarray
    basis_map: BasisMap

    def __post_init__(self):
        outcomes = tuple(str(s) for s in self.outcomes)
        p = np.asarray(self.probs, dtype=float)
        t = np.asarray(self.totals, dtype=float)
        if p.shape != (len(outcomes), 6, 6):
            raise ValidationError(f"probs shape must be ({len(outcomes)}, 6, 6), got {p.shape}")
        if t.shape != (6, 6):
            raise ValidationError(f"totals shape must be (6, 6), got {t.shape}")
        # written so that NaN fails: every comparison with it is false
        if not np.all((t > 0) & (t < _FLOAT_OVER)):
            raise ValidationError("totals must be positive and fit in 64 bits for every probe pair")
        if not np.all((p >= 0) & (p <= 1)):
            raise ValidationError("frequencies must lie in [0, 1]")
        colsum = p.sum(axis=0)
        if float(np.max(np.abs(colsum - 1))) > 1e-12:
            raise ValidationError("frequencies must sum to 1 for every probe pair")
        p = np.ascontiguousarray(p)
        p.setflags(write=False)
        t = np.ascontiguousarray(t)
        t.setflags(write=False)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "totals", t)


def relative_frequencies(counts: CoincidenceCounts) -> RelativeFrequencies:
    """Exact count ratios p_k(a, b) = E_k(a, b) / E(a, b)."""
    totals = counts.totals.astype(float)
    probs = counts.counts.astype(float) / totals
    return RelativeFrequencies(counts.outcomes, probs, totals, counts.basis_map)


def sampling_matrices(basis_map: BasisMap | None = None) -> tuple[np.ndarray, np.ndarray]:
    """4x6 inversion matrices (alice, bob); rows 0, x, y, z, columns H..L.

    Row 0 is 1/3 everywhere because the six probe projectors resolve the
    identity three times over; each axis row carries +1 at the plus label and
    -1 at the minus label of that axis.
    """
    bm = basis_map or BasisMap.default()
    out = []
    for mapping in (bm.alice, bm.bob):
        s = np.zeros((4, 6))
        s[0, :] = 1.0 / 3.0
        for j, label in enumerate(PROBE_LABELS):
            axis, sign = mapping[label]
            s[_AXIS_ROW[axis], j] = float(sign)
        out.append(s)
    return out[0], out[1]


def invert_frequencies(probs: np.ndarray, basis_map: BasisMap) -> tuple[np.ndarray, np.ndarray]:
    """Pauli coefficients C = S_A P S_B^T / 4 and their Hermitian matrices.

    Stacks: probs[..., m, 6, 6] gives coefficients [..., m, 4, 4] and
    matrices [..., m, 4, 4] from one product and one composition.
    """
    sa, sb = sampling_matrices(basis_map)
    coeffs = sa @ probs @ sb.T / 4
    return coeffs, pauli_matrices(coeffs)


def repair_strength(low: np.ndarray, margin: float) -> tuple[np.ndarray, np.ndarray]:
    """Mixing probability p and lam of the repair from smallest eigenvalues low[..., m].

    lam is the worst negative eigenvalue magnitude plus the margin, or 0
    where nothing is indefinite beyond INDEFINITE_TOL; p = lam / (lam + 1/m)
    leaves the completeness sum untouched.  The margin must be finite and
    nonnegative.
    """
    if not (math.isfinite(margin) and margin >= 0):
        raise ValidationError(f"margin must be finite and nonnegative, got {margin}")
    worst = -low.min(axis=-1)
    lam = np.where(worst > INDEFINITE_TOL, worst + margin, 0.0)
    return lam / (lam + 1.0 / low.shape[-1]), lam


def reconstruct_correlations(freqs: RelativeFrequencies) -> np.ndarray:
    """Pauli coefficient matrices C_k = S_A P_k S_B^T / 4, stacked [outcome, 4, 4]."""
    return invert_frequencies(freqs.probs, freqs.basis_map)[0]


def reconstruct_povm(freqs: RelativeFrequencies) -> PovmSet:
    """Linear-inversion POVM; completeness is exact by construction."""
    from .operators import HermitianOperator, PovmSet

    _, mats = invert_frequencies(freqs.probs, freqs.basis_map)
    return PovmSet(freqs.outcomes, tuple(HermitianOperator(m, (2, 2)) for m in mats))


def physicality_correct(povm: PovmSet, margin: float = 1e-5) -> tuple[PovmSet, float, float]:
    """Mix every element toward identity/m until the worst eigenvalue clears zero.

    Returns (corrected set, mixing probability p, lam) with p and lam from
    `repair_strength`; the set comes back unchanged when nothing is
    indefinite beyond INDEFINITE_TOL.
    """
    from .operators import HermitianOperator, PovmSet

    mats = np.stack([el.matrix for el in povm.elements])
    p, lam = repair_strength(np.linalg.eigvalsh(mats)[:, 0], margin)
    if lam == 0:
        return povm, 0.0, 0.0
    mats = (1 - p) * mats + p * (np.eye(povm.elements[0].dim) / len(povm))
    corrected = tuple(HermitianOperator(m, povm.parties) for m in mats)
    return PovmSet(povm.labels, corrected), float(p), float(lam)


def combine_outcomes(counts: CoincidenceCounts, groups) -> CoincidenceCounts:
    """Merge outcome labels; groups must partition the existing outcomes."""
    groups = [tuple(str(l) for l in g) for g in groups]
    flat = [l for g in groups for l in g]
    if sorted(flat) != sorted(counts.outcomes) or len(set(flat)) != len(flat):
        raise ValidationError(f"groups {groups} do not partition the outcomes {counts.outcomes}")
    kidx = {out: k for k, out in enumerate(counts.outcomes)}
    merged = np.stack([sum(counts.counts[kidx[l]] for l in g) for g in groups])
    labels = tuple("+".join(g) for g in groups)
    return CoincidenceCounts(labels, merged, counts.basis_map)


def closest_bell_labels(povm: PovmSet) -> dict:
    """Best-overlap ideal Bell label for each element, with the overlap value.

    Overlap is tr(element * bell projector) / tr(element), in [0, 1] for a
    positive element.  Reconstructed outcome ordering is a detector property,
    so the match is reported rather than assumed.
    """
    from .operators import bell_povm

    ideal = bell_povm()
    out = {}
    for label, el in povm.items():
        t = el.trace()
        if t <= 0:
            raise ValidationError(f"element {label!r} has nonpositive trace")
        scores = {
            bl: float(np.real(np.trace(el.matrix @ bel.matrix))) / t for bl, bel in ideal.items()
        }
        best = max(scores, key=lambda k: (scores[k], k))
        out[label] = {"label": best, "overlap": scores[best]}
    return out
