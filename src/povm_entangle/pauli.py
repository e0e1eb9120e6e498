"""Single- and two-qubit Pauli algebra shared by every layer.

The Pauli matrices, the Pauli eigenstates and the column order of the
outcome grid, the table of the 16 two-qubit Pauli products, the rank floor,
and the two array helpers the frozen containers use.  Everything here is a
numpy array or a function of one, so a process that only needs the array
path (linear inversion, the closed-form quasidistribution) imports no
operator class.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = np.stack([SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z])

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

# the rank floor: the standard form's filter sweeps floor the reduced
# operators' eigenvalues here, and the Monte Carlo counts a Wootters value at
# or below it, times the element's trace, as zero
_EIG_FLOOR = 1e-12

# kron(sigma_w, sigma_v) for all 16 axis pairs, indexed [w, v], as one
# broadcast product: entry [w, v, 2i + k, 2j + l] is sigma_w[i, j] sigma_v[k, l]
_PAULI_KRONS = (PAULIS[:, None, :, None, :, None] * PAULIS[None, :, None, :, None, :]).reshape(4, 4, 4, 4)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + np.swapaxes(m, -1, -2).conj()) / 2


def pauli_eigenstate(axis: str, sign: int) -> np.ndarray:
    """Unit eigenvector of sigma_axis with eigenvalue sign (+1 or -1)."""
    try:
        return _EIGENSTATES[(axis, int(sign))].copy()
    except KeyError:
        raise ValidationError(f"unknown Pauli eigenstate ({axis!r}, {sign})") from None


def pauli_matrices(c: np.ndarray) -> np.ndarray:
    """Hermitian sum_wv c[..., w, v] sigma_w (x) sigma_v of stacked real coefficients."""
    return _hermitize(np.einsum("...wv,wvij->...ij", c, _PAULI_KRONS))
