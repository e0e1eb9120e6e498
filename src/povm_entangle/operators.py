"""Dense operator algebra for small multi-party quantum systems.

Operators are plain complex numpy matrices tagged with the dimensions of
their tensor factors.  Total dimension is capped at 4096, so every spectral
question is answered by a dense Hermitian eigensolve; there is no sparse or
iterative machinery.  All containers are frozen and functions return new
objects, which keeps concurrent use safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

HERMITICITY_TOL = 1e-12
COMPLETENESS_TOL = 1e-9
DIMENSION_GUARD = 4096
# rows per block of the Hermiticity check: 1 MB per complex temporary at D = 1024
_HERMITICITY_BLOCK = 64

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = np.stack([SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z])
PAULI_AXES = ("0", "x", "y", "z")

# Column order of the single-qubit outcome grid used throughout: one pair of
# projectors per Pauli axis, plus sign before minus sign.
QUASI_AXES = (("x", 1), ("x", -1), ("y", 1), ("y", -1), ("z", 1), ("z", -1))

_SQ2 = math.sqrt(2.0)
_EIGENSTATES = {
    ("z", 1): np.array([1, 0], dtype=complex),
    ("z", -1): np.array([0, 1], dtype=complex),
    ("x", 1): np.array([1, 1], dtype=complex) / _SQ2,
    ("x", -1): np.array([1, -1], dtype=complex) / _SQ2,
    ("y", 1): np.array([1, 1j], dtype=complex) / _SQ2,
    ("y", -1): np.array([1, -1j], dtype=complex) / _SQ2,
}

# Two-qubit Bell vectors, labeled by the Pauli axis singled out in the
# correlation pattern of the matching projector.
_BELL_VECTORS = {
    "0": np.array([0, 1, -1, 0], dtype=complex) / _SQ2,
    "x": np.array([1, 0, 0, -1], dtype=complex) / _SQ2,
    "y": np.array([1, 0, 0, 1], dtype=complex) / _SQ2,
    "z": np.array([0, 1, 1, 0], dtype=complex) / _SQ2,
}

# kron(sigma_w, sigma_v) for all 16 axis pairs, indexed [w, v].
_PAULI_KRONS = np.array([[np.kron(a, b) for b in PAULIS] for a in PAULIS])


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def _hermiticity_deviation(m: np.ndarray) -> float:
    """max |m - m^dag| over all entries, _HERMITICITY_BLOCK rows at a time.

    Each block of rows is compared with the matching block of columns, so the
    temporaries hold one block, not three copies of the matrix.  np.maximum
    carries a NaN from any block; inf - inf makes NaN without a warning.
    """
    b = _HERMITICITY_BLOCK
    with np.errstate(invalid="ignore"):
        dev = np.abs(m[:b] - m[:, :b].conj().T).max()
        for i in range(b, m.shape[0], b):
            dev = np.maximum(dev, np.abs(m[i : i + b] - m[:, i : i + b].conj().T).max())
    return float(dev)


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Hermitian matrix on a tensor product of finite-dimensional parties.

    The matrix is stored as complex.  Construction rejects a matrix whose
    largest |m - m^dag| entry exceeds HERMITICITY_TOL, or that has a NaN or
    infinite entry.  The check runs over blocks of _HERMITICITY_BLOCK rows
    against the matching columns, so it makes no full-size temporary.
    """

    matrix: np.ndarray
    parties: tuple[int, ...] = (2, 2)

    def __post_init__(self):
        parties = tuple(int(d) for d in self.parties)
        if not parties or any(d < 2 for d in parties):
            raise ValidationError(f"party dimensions must all be >= 2, got {parties}")
        dim = math.prod(parties)
        if dim > DIMENSION_GUARD:
            raise ValidationError(f"total dimension {dim} exceeds the {DIMENSION_GUARD} guard")
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (dim, dim):
            raise ValidationError(f"matrix shape {m.shape} does not match parties {parties}")
        dev = _hermiticity_deviation(m)
        # any NaN or infinite entry makes its own deviation NaN or infinite
        if not math.isfinite(dev):
            raise ValidationError("matrix has non-finite entries")
        if dev > HERMITICITY_TOL:
            raise ValidationError(f"matrix is not Hermitian (deviation {dev:.3e})")
        object.__setattr__(self, "matrix", _frozen(m))
        object.__setattr__(self, "parties", parties)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(self.matrix.trace().real)

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


@dataclass(frozen=True, eq=False)
class PauliCorrelationMatrix:
    """Real 4x4 coefficient matrix over sigma_w (x) sigma_v, w, v in {0,x,y,z}."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs)
        if np.iscomplexobj(c):
            if c.size and float(np.max(np.abs(c.imag))) > 0:
                raise ValidationError("Pauli coefficients must be real")
            c = c.real
        c = c.astype(float)
        if c.shape != (4, 4):
            raise ValidationError(f"coefficient shape must be (4, 4), got {c.shape}")
        object.__setattr__(self, "coeffs", _frozen(c))


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


def pauli_eigenstate(axis: str, sign: int) -> np.ndarray:
    """Unit eigenvector of sigma_axis with eigenvalue sign (+1 or -1)."""
    try:
        return _EIGENSTATES[(axis, int(sign))].copy()
    except KeyError:
        raise ValidationError(f"unknown Pauli eigenstate ({axis!r}, {sign})") from None


def bloch_vector(state: np.ndarray) -> np.ndarray:
    """Real (x, y, z) expectation values of a single-qubit pure state."""
    v = np.asarray(state, dtype=complex).reshape(2)
    return np.array([(v.conj() @ p @ v).real for p in PAULIS[1:]])


def bell_state(label: str) -> np.ndarray:
    try:
        return _BELL_VECTORS[label].copy()
    except KeyError:
        raise ValidationError(f"unknown Bell label {label!r}") from None


def bell_povm() -> PovmSet:
    """The four Bell projectors as a POVM, labels matching their Pauli pattern."""
    labels = tuple(_BELL_VECTORS)
    elements = tuple(
        HermitianOperator(np.outer(v, v.conj()), (2, 2)) for v in _BELL_VECTORS.values()
    )
    return PovmSet(labels, elements)


def pauli_expand(op) -> PauliCorrelationMatrix:
    """Coefficients c[w, v] = tr(op sigma_w (x) sigma_v) / 4 of a two-qubit operator.

    Accepts a HermitianOperator or a raw 4x4 array.  A raw array whose
    coefficients come out with imaginary part above 1e-9 is rejected.
    """
    m = op.matrix if isinstance(op, HermitianOperator) else np.asarray(op, dtype=complex)
    if m.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 matrix, got shape {m.shape}")
    c = np.einsum("ij,wvji->wv", m, _PAULI_KRONS) / 4
    imag = float(np.max(np.abs(c.imag)))
    if imag > 1e-9:
        raise ValidationError(f"operator is not Hermitian (imaginary coefficient {imag:.3e})")
    return PauliCorrelationMatrix(c.real)


def pauli_compose(coeffs) -> HermitianOperator:
    """Two-qubit operator sum_wv c[w, v] sigma_w (x) sigma_v from real coefficients."""
    if isinstance(coeffs, PauliCorrelationMatrix):
        c = coeffs.coeffs
    else:
        c = PauliCorrelationMatrix(np.asarray(coeffs)).coeffs
    m = np.einsum("wv,wvij->ij", c, _PAULI_KRONS)
    return HermitianOperator(_hermitize(m), (2, 2))


def ghz_state(n: int) -> np.ndarray:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    if n < 2:
        raise ValidationError(f"need at least 2 qubits, got {n}")
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1 / _SQ2
    return v


def me_state(d: int) -> np.ndarray:
    """Maximally entangled two-qudit vector sum_k |kk> / sqrt(d)."""
    if d < 2:
        raise ValidationError(f"need local dimension >= 2, got {d}")
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1 / math.sqrt(d)
    return v


def noisy_ghz_element(n: int, eps: float) -> HermitianOperator:
    """eps * identity + (1 - eps) |ghz><ghz| on n qubits."""
    if not 0.0 <= eps <= 1.0:
        raise ValidationError(f"eps must lie in [0, 1], got {eps}")
    v = ghz_state(n)
    m = eps * np.eye(2**n) + (1 - eps) * np.outer(v, v.conj())
    return HermitianOperator(m, (2,) * n)


def noisy_me_element(d: int, eps: float) -> HermitianOperator:
    """eps * identity + (1 - eps) |me><me| on two qudits."""
    if not 0.0 <= eps <= 1.0:
        raise ValidationError(f"eps must lie in [0, 1], got {eps}")
    v = me_state(d)
    m = eps * np.eye(d * d) + (1 - eps) * np.outer(v, v.conj())
    return HermitianOperator(m, (d, d))


def lambda_operator(n: int, d: int) -> HermitianOperator:
    """sum_kl (|k><l|)^(x n) - sum_k (|k><k|)^(x n) on n qudits of dimension d.

    Spectrum: d - 1 once, -1 with multiplicity d - 1, zero elsewhere.
    """
    if n < 2 or d < 2:
        raise ValidationError(f"need n >= 2 and d >= 2, got n={n}, d={d}")
    if d**n > DIMENSION_GUARD:
        raise ValidationError(f"dimension {d}^{n} exceeds the {DIMENSION_GUARD} guard")
    # |k...k> sits at index k * (d^n - 1) / (d - 1) in the computational basis.
    stride = (d**n - 1) // (d - 1)
    idx = np.arange(d) * stride
    s = np.zeros(d**n)
    s[idx] = 1.0
    m = np.outer(s, s)
    m[idx, idx] -= 1.0
    return HermitianOperator(m, (d,) * n)


def min_eigenvalue(op: HermitianOperator) -> float:
    """Smallest eigenvalue, from a dense Hermitian eigensolve."""
    return float(np.linalg.eigvalsh(op.matrix)[0])


def partial_transpose(op: HermitianOperator) -> HermitianOperator:
    """Transpose on the second tensor factor of a bipartite operator."""
    if len(op.parties) != 2:
        raise ValidationError(f"partial transpose needs exactly 2 parties, got {op.parties}")
    da, db = op.parties
    t = op.matrix.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(da * db, da * db)
    return HermitianOperator(t, op.parties)
