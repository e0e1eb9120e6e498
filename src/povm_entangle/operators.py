"""Operator algebra for small multi-party quantum systems.

Operators are numpy matrices tagged with the dimensions of their tensor
factors: real input is stored as float64, anything else as complex128.
Total dimension is capped at 4096.  An operator built from its nonzero
entries (`HermitianOperator.from_entries`, which `lambda_operator`, both
noisy elements and, in `witness`, both probes use) is checked over those
entries only and keeps them as its `support`; it holds no dense matrix until
`matrix` is first read.  `dim`, `trace`, `min_eigenvalue`, the separability
solver and the witness sum read the support instead, so no witness command
writes the D^2 zeros.  All containers are frozen and functions return new
objects, which keeps concurrent use safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .pauli import _PAULI_KRONS, _SQ2, PAULIS, _frozen

HERMITICITY_TOL = 1e-12
COMPLETENESS_TOL = 1e-9
DIMENSION_GUARD = 4096
# rows per block of the Hermiticity check: 1 MB per complex temporary at D = 1024
_HERMITICITY_BLOCK = 64

# Two-qubit Bell vectors, labeled by the Pauli axis singled out in the
# correlation pattern of the matching projector.
_BELL_VECTORS = {
    "0": np.array([0, 1, -1, 0], dtype=complex) / _SQ2,
    "x": np.array([1, 0, 0, -1], dtype=complex) / _SQ2,
    "y": np.array([1, 0, 0, 1], dtype=complex) / _SQ2,
    "z": np.array([0, 1, 1, 0], dtype=complex) / _SQ2,
}


def _check_dimension(dim: int) -> None:
    """Raise ValidationError when a total dimension exceeds DIMENSION_GUARD."""
    if dim > DIMENSION_GUARD:
        raise ValidationError(f"total dimension {dim} exceeds the {DIMENSION_GUARD} guard")


def _hermiticity_deviation(m: np.ndarray) -> float:
    """max |m - m^dag| over all entries, _HERMITICITY_BLOCK rows at a time.

    |m_rc - conj(m_cr)| and |m_cr - conj(m_rc)| are the same float, so after
    the first block of rows each block is compared with its column block
    only from the diagonal on: the staircase covers every pair once or
    twice, at about half the work of the full square.  The temporaries hold
    one block, not three copies of the matrix, and only complex input is
    conjugated.  np.maximum carries a NaN from any block; inf - inf makes
    NaN without a warning.
    """
    b = _HERMITICITY_BLOCK
    with np.errstate(invalid="ignore"):
        dev = np.abs(m[:b] - m[:, :b].conj().T).max()
        for i in range(b, m.shape[0], b):
            col = m[i:, i : i + b]
            if m.dtype.kind == "c":
                col = col.conj()
            dev = np.maximum(dev, np.abs(m[i : i + b, i:] - col.T).max())
    return float(dev)


def _lookup(flat: np.ndarray, values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The values listed at the sorted, distinct indices `flat`, read at `at`; 0 where not listed."""
    if not flat.size:
        return np.zeros(at.shape, dtype=values.dtype)
    i = np.minimum(np.searchsorted(flat, at), flat.size - 1)
    return np.where(flat[i] == at, values[i], 0)


def _entry_deviation(flat: np.ndarray, values: np.ndarray, dim: int) -> float:
    """_hermiticity_deviation of the matrix whose only nonzero entries are these.

    `flat` holds the sorted, distinct indices r D + c.  A pair of zeros
    deviates by 0, so the largest |m_rc - conj(m_cr)| is found at an entry,
    against its mirror entry c D + r, or 0 where the mirror is not listed.
    """
    r, c = np.divmod(flat, dim)
    other = _lookup(flat, values, c * dim + r)
    with np.errstate(invalid="ignore"):
        return float(np.abs(values - other.conj()).max(initial=0.0))


def _checked_parties(parties) -> tuple[tuple[int, ...], int]:
    """The party dimensions as ints and their product, checked against the guard."""
    parties = tuple(int(d) for d in parties)
    if not parties or any(d < 2 for d in parties):
        raise ValidationError(f"party dimensions must all be >= 2, got {parties}")
    dim = math.prod(parties)
    _check_dimension(dim)
    return parties, dim


def _check_deviation(dev: float) -> None:
    # any NaN or infinite entry makes its own deviation NaN or infinite
    if not math.isfinite(dev):
        raise ValidationError("matrix has non-finite entries")
    if dev > HERMITICITY_TOL:
        raise ValidationError(f"matrix is not Hermitian (deviation {dev:.3e})")


def _stored_dtype(a: np.ndarray) -> type:
    return float if a.dtype.kind in "biuf" else complex


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Hermitian matrix on a tensor product of finite-dimensional parties.

    A boolean, integer or float matrix is stored as float64, anything else
    (complex, object) as complex128, so real operators stay real and half
    the size.  Input that already has the stored dtype and is contiguous is
    stored without a copy (and made read-only).  Construction rejects a
    matrix whose largest |m - m^dag| entry exceeds HERMITICITY_TOL, or that
    has a NaN or infinite entry.  The check runs over blocks of
    _HERMITICITY_BLOCK rows against the matching columns, so it makes no
    full-size temporary.  `from_entries` builds the same operator from its
    nonzero entries and checks those alone; such an operator has a dense
    matrix only once `matrix` has been read, and then keeps it.
    """

    matrix: np.ndarray
    parties: tuple[int, ...] = (2, 2)
    # (flat indices r D + c, values) of the nonzero entries, sorted by index;
    # set by from_entries only, so None means "not known without a scan"
    support = None

    def __post_init__(self):
        parties, dim = _checked_parties(self.parties)
        m = np.asarray(self.matrix)
        m = np.asarray(m, dtype=_stored_dtype(m))
        if m.shape != (dim, dim):
            raise ValidationError(f"matrix shape {m.shape} does not match parties {parties}")
        _check_deviation(_hermiticity_deviation(m))
        object.__setattr__(self, "matrix", _frozen(m))
        object.__setattr__(self, "parties", parties)

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: the matrix of an
        # entry-built operator, written from its support on first read
        if name != "matrix" or self.support is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        flat, values = self.support
        m = np.zeros((self.dim, self.dim), dtype=values.dtype)
        m.reshape(-1)[flat] = values
        object.__setattr__(self, "matrix", _frozen(m))
        return m

    @classmethod
    def from_entries(cls, flat, values, parties) -> "HermitianOperator":
        """The operator whose only nonzero entries are `values` at indices r D + c.

        Values are stored by the constructor's dtype rule; the party,
        dimension, finiteness and Hermiticity checks run over the entries
        alone, which is exact because every other entry is zero.  An index
        outside [0, D^2) or listed twice is rejected.  The operator keeps its
        nonzero entries, sorted by index, as `support`, and writes them into
        a dense matrix only when `matrix` is read.
        """
        parties, dim = _checked_parties(parties)
        flat = np.asarray(flat)
        values = np.asarray(values)
        values = np.asarray(values, dtype=_stored_dtype(values))
        if flat.ndim != 1 or flat.shape != values.shape or (flat.size and flat.dtype.kind not in "iu"):
            raise ValidationError(
                f"entries need equal-length 1-d integer indices and values, got {flat.shape} and {values.shape}"
            )
        if flat.size and (flat.min() < 0 or flat.max() >= dim * dim):
            raise ValidationError(f"entry index outside [0, {dim * dim})")
        order = np.argsort(flat)
        flat, values = flat.astype(np.intp)[order], values[order]
        if np.any(flat[1:] == flat[:-1]):
            raise ValidationError("an entry index is listed twice")
        _check_deviation(_entry_deviation(flat, values, dim))
        keep = values != 0
        op = cls.__new__(cls)
        object.__setattr__(op, "parties", parties)
        object.__setattr__(op, "support", (_frozen(flat[keep]), _frozen(values[keep])))
        return op

    def __repr__(self) -> str:
        # the dataclass repr would print `matrix`, and so write an entry-built
        # operator's dense matrix
        if self.support is None:
            dtype, nonzero = self.matrix.dtype, np.count_nonzero(self.matrix)
        else:
            dtype, nonzero = self.support[1].dtype, self.support[1].size
        return f"HermitianOperator(parties={self.parties}, dtype={dtype}, nonzero={nonzero})"

    @property
    def dim(self) -> int:
        return math.prod(self.parties)

    def trace(self) -> float:
        return float(_diagonal(self).sum().real)

    def to_dict(self) -> dict:
        return {
            "parties": list(self.parties),
            "re": self.matrix.real.tolist(),
            "im": self.matrix.imag.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HermitianOperator":
        try:
            parties = tuple(int(d) for d in data["parties"])
            m = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed operator record: {exc}") from exc
        return cls(m, parties)


def _diagonal(op: HermitianOperator) -> np.ndarray:
    """The diagonal in the stored dtype, zeros included; from the support when there is one.

    Its sum adds in the order matrix.trace() does, so both give the same float.
    """
    if op.support is None:
        return op.matrix.diagonal()
    flat, values = op.support
    r, c = np.divmod(flat, op.dim)
    on = r == c
    d = np.zeros(op.dim, dtype=values.dtype)
    d[r[on]] = values[on]
    return d


@dataclass(frozen=True, eq=False)
class PovmSet:
    """Labeled POVM elements that sum to the identity."""

    labels: tuple[str, ...]
    elements: tuple[HermitianOperator, ...]

    def __post_init__(self):
        labels = tuple(str(s) for s in self.labels)
        elements = tuple(self.elements)
        if not labels or len(labels) != len(elements):
            raise ValidationError("labels and elements must be non-empty and equal length")
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate outcome labels in {labels}")
        parties = elements[0].parties
        for el in elements:
            if el.parties != parties:
                raise ValidationError("all POVM elements must share the same parties")
        total = sum(el.matrix for el in elements)
        dev = float(np.max(np.abs(total - np.eye(elements[0].dim))))
        if dev > COMPLETENESS_TOL:
            raise ValidationError(f"POVM elements do not sum to the identity (deviation {dev:.3e})")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "elements", elements)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def parties(self) -> tuple[int, ...]:
        return self.elements[0].parties

    def items(self) -> tuple[tuple[str, HermitianOperator], ...]:
        return tuple(zip(self.labels, self.elements))

    def element(self, label: str) -> HermitianOperator:
        try:
            return self.elements[self.labels.index(label)]
        except ValueError:
            raise ValidationError(f"no outcome labeled {label!r} in {self.labels}") from None

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "elements": [el.to_dict() for el in self.elements],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PovmSet":
        try:
            labels = tuple(data["labels"])
            elements = tuple(HermitianOperator.from_dict(e) for e in data["elements"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed POVM record: {exc}") from exc
        return cls(labels, elements)


def bloch_vector(state: np.ndarray) -> np.ndarray:
    """Real (x, y, z) expectation values of a single-qubit pure state."""
    v = np.asarray(state, dtype=complex).reshape(2)
    return np.array([(v.conj() @ p @ v).real for p in PAULIS[1:]])


def bell_povm() -> PovmSet:
    """The four Bell projectors as a POVM, labels matching their Pauli pattern."""
    labels = tuple(_BELL_VECTORS)
    elements = tuple(
        HermitianOperator(np.outer(v, v.conj()), (2, 2)) for v in _BELL_VECTORS.values()
    )
    return PovmSet(labels, elements)


def pauli_expand(op) -> np.ndarray:
    """Real coefficients c[w, v] = tr(op sigma_w (x) sigma_v) / 4 of a two-qubit operator.

    Accepts a HermitianOperator or a raw 4x4 array and returns a contiguous
    float64 (4, 4) array, w and v in {0, x, y, z}.  A raw array whose
    coefficients come out with imaginary part above 1e-9 is rejected.
    """
    m = op.matrix if isinstance(op, HermitianOperator) else np.asarray(op, dtype=complex)
    if m.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 matrix, got shape {m.shape}")
    c = np.einsum("ij,wvji->wv", m, _PAULI_KRONS) / 4
    imag = float(np.max(np.abs(c.imag)))
    if imag > 1e-9:
        raise ValidationError(f"operator is not Hermitian (imaginary coefficient {imag:.3e})")
    # a contiguous copy: small matmuls on the strided .real view can round
    # differently
    return c.real.copy()


def ghz_state(n: int) -> np.ndarray:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    if n < 2:
        raise ValidationError(f"need at least 2 qubits, got {n}")
    _check_dimension(2**n)
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1 / _SQ2
    return v


def me_state(d: int) -> np.ndarray:
    """Maximally entangled two-qudit vector sum_k |kk> / sqrt(d)."""
    if d < 2:
        raise ValidationError(f"need local dimension >= 2, got {d}")
    _check_dimension(d * d)
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1 / math.sqrt(d)
    return v


def _noisy_element(v: np.ndarray, eps: float, parties) -> HermitianOperator:
    """eps * identity + (1 - eps) |v><v| from its entries.

    They lie on the diagonal and on the block where both indices hold a
    nonzero amplitude of v; each takes the operations the dense expression
    would, at its row r and column c.
    """
    dim = v.size
    block = np.flatnonzero(v)
    flat = np.union1d(np.arange(dim) * (dim + 1), (block[:, None] * dim + block).ravel())
    r, c = np.divmod(flat, dim)
    values = eps * (r == c).astype(float) + (1 - eps) * (v[r] * v.conj()[c])
    return HermitianOperator.from_entries(flat, values, parties)


def noisy_ghz_element(n: int, eps: float) -> HermitianOperator:
    """eps * identity + (1 - eps) |ghz><ghz| on n qubits."""
    if not 0.0 <= eps <= 1.0:
        raise ValidationError(f"eps must lie in [0, 1], got {eps}")
    v = ghz_state(n)
    return _noisy_element(v, eps, (2,) * n)


def noisy_me_element(d: int, eps: float) -> HermitianOperator:
    """eps * identity + (1 - eps) |me><me| on two qudits."""
    if not 0.0 <= eps <= 1.0:
        raise ValidationError(f"eps must lie in [0, 1], got {eps}")
    v = me_state(d)
    return _noisy_element(v, eps, (d, d))


def lambda_operator(n: int, d: int) -> HermitianOperator:
    """sum_kl (|k><l|)^(x n) - sum_k (|k><k|)^(x n) on n qudits of dimension d.

    Spectrum: d - 1 once, -1 with multiplicity d - 1, zero elsewhere.  Its
    d(d - 1) entries are 1 at rows and columns |k...k> != |l...l>.
    """
    if n < 2 or d < 2:
        raise ValidationError(f"need n >= 2 and d >= 2, got n={n}, d={d}")
    dim = d**n
    _check_dimension(dim)
    # |k...k> sits at index k * (d^n - 1) / (d - 1) in the computational basis.
    idx = np.arange(d) * ((dim - 1) // (d - 1))
    k, l = np.nonzero(~np.eye(d, dtype=bool))
    return HermitianOperator.from_entries(idx[k] * dim + idx[l], np.ones(k.size), (d,) * n)


def min_eigenvalue(op: HermitianOperator) -> float:
    """Smallest eigenvalue; for an entry-built operator, from its support.

    There S is the rows that hold an off-diagonal nonzero.  Every other row
    and its column are zero off the diagonal, so the spectrum is that of
    op[S, S] together with the diagonal outside S: exact, and a dense
    eigensolve where S is every row.  Both are written from the support, so
    no dense matrix is built.  An operator built from a dense matrix gets the
    dense eigensolve.
    """
    if op.support is None:
        return float(np.linalg.eigvalsh(op.matrix)[0])
    flat, values = op.support
    r, c = np.divmod(flat, op.dim)
    coupled = np.zeros(op.dim, dtype=bool)
    coupled[r[r != c]] = coupled[c[r != c]] = True
    low = _diagonal(op)[~coupled].real.min(initial=np.inf)
    s = np.flatnonzero(coupled)
    if s.size:
        inside = coupled[r]  # an entry in a coupled row has a coupled column
        block = np.zeros((s.size, s.size), dtype=values.dtype)
        block[np.searchsorted(s, r[inside]), np.searchsorted(s, c[inside])] = values[inside]
        low = min(low, np.linalg.eigvalsh(block)[0])
    return float(low)


def partial_transpose(op: HermitianOperator) -> HermitianOperator:
    """Transpose on the second tensor factor of a bipartite operator."""
    if len(op.parties) != 2:
        raise ValidationError(f"partial transpose needs exactly 2 parties, got {op.parties}")
    da, db = op.parties
    t = op.matrix.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(da * db, da * db)
    return HermitianOperator(t, op.parties)
