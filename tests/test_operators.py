"""Pauli algebra, Bell projectors, probe elements, and the flip operator."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povm_entangle import (
    HermitianOperator,
    PauliCorrelationMatrix,
    PovmSet,
    ValidationError,
    bell_povm,
    bell_state,
    bloch_vector,
    ghz_state,
    lambda_operator,
    me_state,
    min_eigenvalue,
    noisy_ghz_element,
    noisy_me_element,
    partial_transpose,
    pauli_compose,
    pauli_eigenstate,
    pauli_expand,
)
from povm_entangle.operators import PAULIS, _hermiticity_deviation

from conftest import random_pd_element


def test_pauli_orthogonality():
    # tr(sigma_i sigma_j) = 2 delta_ij
    for i, a in enumerate(PAULIS):
        for j, b in enumerate(PAULIS):
            expect = 2.0 if i == j else 0.0
            assert abs(np.trace(a @ b).real - expect) < 1e-15
            assert np.max(np.abs(a - a.conj().T)) == 0


def test_pauli_eigenstates():
    for axis, row in (("x", 1), ("y", 2), ("z", 3)):
        for sign in (1, -1):
            v = pauli_eigenstate(axis, sign)
            assert abs(np.linalg.norm(v) - 1) < 1e-15
            assert np.allclose(PAULIS[row] @ v, sign * v, atol=1e-15)
            b = bloch_vector(v)
            expect = np.zeros(3)
            expect[row - 1] = sign
            assert np.allclose(b, expect, atol=1e-15)
    with pytest.raises(ValidationError):
        pauli_eigenstate("w", 1)


def test_bell_states_orthonormal():
    labels = ("0", "x", "y", "z")
    vs = [bell_state(s) for s in labels]
    gram = np.array([[np.vdot(a, b) for b in vs] for a in vs])
    assert np.max(np.abs(gram - np.eye(4))) < 1e-15


def test_bell_povm_complete(ideal_bell):
    total = sum(el.matrix for el in ideal_bell.elements)
    assert np.max(np.abs(total - np.eye(4))) < 1e-15
    assert ideal_bell.labels == ("0", "x", "y", "z")


def test_bell_diagonal_coefficients(ideal_bell):
    # diagonal Pauli coefficients (xx, yy, zz) of each Bell projector
    expected = {
        "0": (-0.25, -0.25, -0.25),
        "x": (-0.25, 0.25, 0.25),
        "y": (0.25, -0.25, 0.25),
        "z": (0.25, 0.25, -0.25),
    }
    for label, el in ideal_bell.items():
        c = pauli_expand(el).coeffs
        assert abs(c[0, 0] - 0.25) < 1e-15
        diag = tuple(c[w, w] for w in (1, 2, 3))
        assert np.allclose(diag, expected[label], atol=1e-15)
        off = c - np.diag(np.diag(c))
        assert np.max(np.abs(off)) < 1e-15


def test_expand_identity_quarter():
    c = pauli_expand(HermitianOperator(np.eye(4) / 4, (2, 2))).coeffs
    assert c[0, 0] == pytest.approx(0.25, abs=1e-15)
    assert np.max(np.abs(c - np.diag([0.25, 0.0, 0.0, 0.0]))) < 1e-15


def test_expand_rejects_non_hermitian():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValidationError):
        pauli_expand(m)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_expand_compose_round_trip(seed):
    rng = np.random.default_rng(seed)
    el = random_pd_element(rng, trace=float(rng.uniform(0.1, 4.0)))
    back = pauli_compose(pauli_expand(el))
    assert np.max(np.abs(back.matrix - el.matrix)) < 1e-12


def test_compose_validates_coefficients():
    with pytest.raises(ValidationError):
        PauliCorrelationMatrix(np.zeros((3, 4)))
    with pytest.raises(ValidationError):
        PauliCorrelationMatrix(np.full((4, 4), 1j))


def test_hermitian_operator_validation():
    with pytest.raises(ValidationError):
        HermitianOperator(np.array([[0, 1], [0, 0]]), (2,))
    with pytest.raises(ValidationError):
        HermitianOperator(np.eye(4), (2, 3))
    with pytest.raises(ValidationError):
        HermitianOperator(np.eye(2), (1, 2))
    op = HermitianOperator(np.eye(4) / 2, (2, 2))
    assert op.dim == 4
    assert op.trace() == pytest.approx(2.0)


@pytest.mark.parametrize(
    "entries",
    [
        {(0, 0): np.nan},
        {(1, 2): 1j * np.nan, (2, 1): 1j * np.nan},
        {(3, 3): np.inf},
        {(0, 0): 1j * np.inf},
        {(0, 1): np.inf, (1, 0): np.inf},
        {(0, 1): -np.inf, (1, 0): -np.inf},
        {(2, 3): complex(0, np.inf), (3, 2): complex(0, -np.inf)},
    ],
)
def test_hermitian_operator_rejects_non_finite(entries):
    m = np.eye(4, dtype=complex) / 4
    for ij, value in entries.items():
        m[ij] = value
    with pytest.raises(ValidationError, match="non-finite"):
        HermitianOperator(m, (2, 2))


@pytest.mark.parametrize("ij", [(200, 3), (200, 200)])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_hermitian_operator_rejects_late_non_finite_quietly(ij, value):
    # a diagonal entry at row 200 reaches only the last block of the check
    m = np.eye(256, dtype=complex) / 256
    m[ij] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="non-finite"):
            HermitianOperator(m, (4, 4, 4, 4))


@pytest.mark.parametrize("dim", [4, 100, 1024])
def test_blocked_hermiticity_deviation_is_exact(dim):
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    near = (a + a.conj().T) / 2
    near[dim - 1, 0] += 1e-13
    for m in (a, (a + a.conj().T) / 2, near):
        assert _hermiticity_deviation(m) == float(np.max(np.abs(m - m.conj().T)))


def test_operator_dict_round_trip(rng):
    el = random_pd_element(rng)
    back = HermitianOperator.from_dict(el.to_dict())
    assert back.parties == el.parties
    assert np.max(np.abs(back.matrix - el.matrix)) < 1e-15
    with pytest.raises(ValidationError):
        HermitianOperator.from_dict({"re": [[1]]})


def test_povm_set_validation(ideal_bell):
    with pytest.raises(ValidationError):
        PovmSet(("a", "a"), ideal_bell.elements[:2])
    with pytest.raises(ValidationError):
        PovmSet(("a", "b"), ideal_bell.elements[:2])  # incomplete sum
    rt = PovmSet.from_dict(ideal_bell.to_dict())
    assert rt.labels == ideal_bell.labels
    for a, b in zip(rt.elements, ideal_bell.elements):
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-15
    with pytest.raises(ValidationError):
        ideal_bell.element("nope")


def test_ghz_me_states():
    g = ghz_state(3)
    assert abs(np.linalg.norm(g) - 1) < 1e-15
    assert g[0] == pytest.approx(2**-0.5)
    assert g[-1] == pytest.approx(2**-0.5)
    assert np.count_nonzero(g) == 2
    m = me_state(3)
    assert abs(np.linalg.norm(m) - 1) < 1e-15
    assert np.count_nonzero(m) == 3
    for k in range(3):
        assert m[k * 3 + k] == pytest.approx(3**-0.5)


def test_noisy_element_traces():
    # unnormalized mixing: trace = eps 2^n + (1 - eps)
    el = noisy_ghz_element(2, 0.5)
    assert el.trace() == pytest.approx(2.5, abs=1e-12)
    assert el.parties == (2, 2)
    assert noisy_ghz_element(3, 0.0).trace() == pytest.approx(1.0, abs=1e-12)
    assert noisy_me_element(3, 0.2).trace() == pytest.approx(0.2 * 9 + 0.8, abs=1e-12)
    with pytest.raises(ValidationError):
        noisy_ghz_element(2, 1.5)


def test_lambda_operator_structure():
    lam = lambda_operator(3, 2)
    v0 = np.zeros(8)
    v0[0] = 1.0
    v1 = np.zeros(8)
    v1[-1] = 1.0
    expect = np.outer(v0, v1) + np.outer(v1, v0)
    assert np.max(np.abs(lam.matrix - expect)) < 1e-15
    assert abs(np.trace(lam.matrix)) < 1e-15


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
def test_lambda_spectrum_endpoints(n, d):
    w = np.linalg.eigvalsh(lambda_operator(n, d).matrix)
    assert w[-1] == pytest.approx(d - 1, abs=1e-9)
    assert w[0] == pytest.approx(-1.0, abs=1e-9)


def test_lambda_dimension_guard():
    with pytest.raises(ValidationError):
        lambda_operator(13, 2)  # 8192 > 4096


def test_min_eigenvalue(rng):
    el = random_pd_element(rng)
    assert min_eigenvalue(el) == pytest.approx(np.linalg.eigvalsh(el.matrix)[0])
    assert min_eigenvalue(el) > 0


def test_partial_transpose_singlet(ideal_bell):
    pt = partial_transpose(ideal_bell.element("0"))
    assert min_eigenvalue(pt) == pytest.approx(-0.5, abs=1e-12)


def test_partial_transpose_involution(rng):
    el = random_pd_element(rng, parties=(2, 3))
    back = partial_transpose(partial_transpose(el))
    assert np.max(np.abs(back.matrix - el.matrix)) < 1e-15


def test_partial_transpose_product(rng):
    a = random_pd_element(rng, parties=(2,)).matrix
    b = random_pd_element(rng, parties=(2,)).matrix
    el = HermitianOperator(np.kron(a, b), (2, 2))
    pt = partial_transpose(el)
    assert np.max(np.abs(pt.matrix - np.kron(a, b.T))) < 1e-12
