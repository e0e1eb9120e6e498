"""Local filtering, signed diagonalization, and the tilde back-transformation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povm_entangle import (
    ConvergenceError,
    HermitianOperator,
    LocalTransform,
    StandardForm,
    ValidationError,
    back_transform,
    bell_model,
    draw_counts,
    min_eigenvalue,
    optimal_quasidistribution,
    partial_transpose,
    pauli_expand,
    physicality_correct,
    reconstruct_povm,
    relative_frequencies,
    remove_local_terms,
    su2_from_so3,
    to_standard_form,
)
from povm_entangle import standard_form
from povm_entangle.pauli import PAULIS, pauli_eigenstate, pauli_matrices
from povm_entangle.quasidist import _lorentz_pi

from conftest import random_pd_element, recompose

SINGLET_PI = np.array([0.25, 0.25, 0.25, -0.25])
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
FILTER_A = np.array([[1.3, 0.2j], [0.1, 0.6]])


def standard_operator(pi) -> HermitianOperator:
    """sum_w pi_w sigma_w (x) sigma_w for a 4-vector or StandardForm."""
    if isinstance(pi, StandardForm):
        pi = pi.pi
    m = sum(pi[w] * np.kron(PAULIS[w], PAULIS[w]) for w in range(4))
    return HermitianOperator(m, (2, 2))


def so3_from_su2(u: np.ndarray) -> np.ndarray:
    """Rotation matrix r[i, j] = tr(sigma_i U sigma_j U^dag) / 2."""
    r = np.empty((3, 3))
    for j in range(3):
        conj = u @ PAULIS[j + 1] @ u.conj().T
        for i in range(3):
            r[i, j] = np.trace(PAULIS[i + 1] @ conj).real / 2
    return r


def assert_maps_onto_standard(el, form, tol=1e-9):
    t = form.transform
    k = np.kron(t.rotation_a @ t.filter_a, t.rotation_b @ t.filter_b)
    out = k @ el.matrix @ k.conj().T
    assert np.max(np.abs(out - standard_operator(form.pi).matrix)) < tol


def filtered_phi_plus_projector():
    v = np.kron(FILTER_A, np.eye(2)) @ PHI_PLUS
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def axis_rotation(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def test_singlet_already_standard(ideal_bell):
    form = to_standard_form(ideal_bell.element("0"))
    assert np.max(np.abs(form.pi - SINGLET_PI)) < 1e-12
    assert form.residual < 1e-9
    assert form.source_trace == pytest.approx(1.0, abs=1e-12)
    t = form.transform
    # no local terms: the filters stay proportional to the identity, and the
    # rotations only move the singlet's signs onto the last axis
    for m in (t.filter_a, t.filter_b):
        scaled = m / m[0, 0]
        assert np.max(np.abs(scaled - np.eye(2))) < 1e-9
    assert_maps_onto_standard(ideal_bell.element("0"), form)


def test_other_bell_elements(ideal_bell):
    for label in ("x", "y", "z"):
        form = to_standard_form(ideal_bell.element(label))
        assert np.max(np.abs(form.pi - np.array([0.25, 0.25, 0.25, -0.25]))) < 1e-12


def test_boosted_singlet_recovers_scaled_singlet(ideal_bell):
    b = np.kron(np.diag([np.exp(0.1), np.exp(-0.1)]), np.eye(2))
    el = HermitianOperator(b @ ideal_bell.element("0").matrix @ b, (2, 2))
    form = to_standard_form(el)
    assert form.source_trace == pytest.approx(np.cosh(0.2), abs=1e-12)
    assert np.max(np.abs(form.pi - np.cosh(0.2) * SINGLET_PI)) < 1e-9


def test_white_noise_mix_of_singlet(ideal_bell):
    el0 = ideal_bell.element("0")
    mixed = HermitianOperator(0.8 * el0.matrix + 0.2 * np.eye(4) / 4, (2, 2))
    form = to_standard_form(mixed)
    assert np.max(np.abs(form.pi - np.array([0.25, 0.2, 0.2, -0.2]))) < 1e-12


def test_remove_local_terms_contract(rng):
    el = random_pd_element(rng, trace=1.7)
    filtered, ma, mb = remove_local_terms(el)
    assert filtered.trace() == pytest.approx(1.7, abs=1e-9)
    c = pauli_expand(filtered)
    assert np.max(np.abs(c[0, 1:])) < 1e-9
    assert np.max(np.abs(c[1:, 0])) < 1e-9
    k = np.kron(ma, mb)
    assert np.max(np.abs(k @ el.matrix @ k.conj().T - filtered.matrix)) < 1e-9


def test_rank_deficient_raises_with_residual():
    proj = np.zeros((4, 4))
    proj[0, 0] = 1.0
    el = HermitianOperator(proj, (2, 2))
    with pytest.raises(ConvergenceError) as err:
        to_standard_form(el)
    assert err.value.residual > 0


def test_near_pure_full_rank_element():
    # full rank, but so close to a filtered pure state that alternating
    # filters alone stall above the Bloch tolerance
    el = HermitianOperator(0.99996 * filtered_phi_plus_projector() + 1e-5 * np.eye(4), (2, 2))
    form = to_standard_form(el)
    assert form.residual < 1e-9
    assert_maps_onto_standard(el, form)


def test_resampled_bell_elements_need_no_sweeps(monkeypatch):
    counts = draw_counts(bell_model(counts_per_setting=10_000), 0)
    povm, _, _ = physicality_correct(reconstruct_povm(relative_frequencies(counts)))
    # one sweep at most: the closed-form filters must do the work on their own
    monkeypatch.setattr(standard_form, "_MAX_SWEEPS", 1)
    for el in povm.elements:
        form = to_standard_form(el)
        assert_maps_onto_standard(el, form)


def test_rank_deficient_elements_still_converge(ideal_bell):
    # r eta r^T eta is degenerate or defective for rank-deficient inputs, so
    # the closed-form filters leave local terms and the sweeps finish the job
    el = HermitianOperator(filtered_phi_plus_projector(), (2, 2))
    form = to_standard_form(el)
    assert np.max(np.abs(form.pi - np.array([0.25, 0.25, 0.25, -0.25]))) < 1e-9
    assert_maps_onto_standard(el, form)

    b = np.kron(FILTER_A, np.array([[0.9, 0.3], [0, 1.1]]))
    mix = (ideal_bell.element("y").matrix + ideal_bell.element("z").matrix) / 2
    el = HermitianOperator(b @ mix @ b.conj().T, (2, 2))
    form = to_standard_form(el)
    assert np.max(np.abs(form.pi - np.array([0.280988, 0.280988, 0, 0]))) < 1e-6
    assert np.max(np.abs(form.pi - el.trace() / 4 * np.array([1, 1, 0, 0]))) < 1e-9
    assert_maps_onto_standard(el, form)


def test_standard_form_validation():
    with pytest.raises(ValidationError):
        to_standard_form(HermitianOperator(np.zeros((4, 4)), (2, 2)))


def test_construct_and_invert_rotations(rng):
    # known signed diagonal hidden behind random rotations on both arms
    target = np.array([0.2, -0.1, 0.05])
    block = random_rotation(rng) @ np.diag(target) @ random_rotation(rng).T
    c = np.zeros((4, 4))
    c[0, 0] = 0.25
    c[1:, 1:] = block
    el = HermitianOperator(pauli_matrices(c), (2, 2))
    form = to_standard_form(el)
    assert np.allclose(np.abs(form.pi[1:]), [0.2, 0.1, 0.05], atol=1e-9)
    assert np.prod(np.sign(form.pi[1:])) == pytest.approx(-1.0)
    assert form.residual < 1e-9
    # transform really maps the element onto the reported diagonal form
    assert_maps_onto_standard(el, form)


def test_sorting_permutation_convention():
    # exactly diagonal blocks, ties and mixed signs included: magnitudes come
    # out nonincreasing and the sign of the block's determinant lands on the
    # last entry, as the closed form reads them
    cases = [
        ([0.25, 0.1, 0.2, 0.05], [0.25, 0.2, 0.1, 0.05]),
        ([0.25, 0.05, -0.2, 0.1], [0.25, 0.2, 0.1, -0.05]),
        ([0.25, -0.2, -0.2, -0.2], [0.25, 0.2, 0.2, -0.2]),
        ([0.25, 0.2, -0.2, 0.2], [0.25, 0.2, 0.2, -0.2]),
        ([0.25, -0.1, 0.2, 0.2], [0.25, 0.2, 0.2, -0.1]),
        ([0.25, 0.1, -0.2, 0.2], [0.25, 0.2, 0.2, -0.1]),
    ]
    for pi_in, pi_out in cases:
        el = standard_operator(pi_in)
        form = to_standard_form(el)
        assert np.allclose(form.pi, pi_out, atol=1e-12)
        assert np.all(np.diff(np.abs(form.pi[1:])) <= 0)
        assert np.all(form.pi[1:3] >= 0)
        assert np.sign(form.pi[3]) == np.sign(np.prod(pi_in[1:]))
        assert_maps_onto_standard(el, form)
        t = form.transform
        assert np.linalg.det(so3_from_su2(t.rotation_a)) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.det(so3_from_su2(t.rotation_b)) == pytest.approx(1.0, abs=1e-9)
        pi, closed = _lorentz_pi(pauli_expand(el))
        assert closed
        np.testing.assert_allclose(pi, form.pi, rtol=0, atol=1e-12)


def test_idempotence(rng):
    el = random_pd_element(rng)
    form = to_standard_form(el)
    again = to_standard_form(standard_operator(form))
    assert np.max(np.abs(again.pi - form.pi)) < 1e-9
    t = again.transform
    for m in (t.filter_a, t.filter_b):
        scaled = m / m[0, 0]
        assert np.max(np.abs(scaled - np.eye(2))) < 1e-6


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_standard_form_preserves_spectrum_scale(seed):
    rng = np.random.default_rng(seed)
    el = random_pd_element(rng, trace=float(rng.uniform(0.2, 3.0)))
    form = to_standard_form(el)
    assert form.source_trace == pytest.approx(el.trace(), abs=1e-9)
    assert abs(4 * form.pi[0] - el.trace()) < 1e-9


def test_filter_preserves_ppt_verdict():
    # local invertible maps cannot create or destroy entanglement
    rng = np.random.default_rng(7)
    flips = 0
    for _ in range(500):
        el = random_pd_element(rng)
        before = min_eigenvalue(partial_transpose(el)) < -1e-9
        form = to_standard_form(el)
        std = standard_operator(form)
        after = min_eigenvalue(partial_transpose(std)) < -1e-9 * form.source_trace
        flips += before != after
    assert flips == 0


def test_su2_so3_round_trips(rng):
    for _ in range(20):
        r = random_rotation(rng)
        u = su2_from_so3(r)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
        assert np.max(np.abs(so3_from_su2(u) - r)) < 1e-9
    assert np.max(np.abs(su2_from_so3(np.eye(3)) - np.eye(2))) < 1e-12


def test_su2_lift_near_pi():
    for axis in ((0, 0, 1), (1, 1, 1), (0.3, -0.5, 0.8)):
        r = axis_rotation(axis, np.pi)
        assert np.max(np.abs(so3_from_su2(su2_from_so3(r)) - r)) < 1e-9
        r = axis_rotation(axis, np.pi - 1e-7)
        assert np.max(np.abs(so3_from_su2(su2_from_so3(r)) - r)) < 1e-6


def test_su2_rejects_improper():
    with pytest.raises(ValidationError):
        su2_from_so3(-np.eye(3))
    with pytest.raises(ValidationError):
        su2_from_so3(np.eye(3) * 1.5)


def test_transform_validation():
    eye = np.eye(2)
    with pytest.raises(ValidationError):
        LocalTransform(np.zeros((2, 2)), eye, eye, eye)
    with pytest.raises(ValidationError):
        LocalTransform(eye, eye, 2 * eye, eye)
    with pytest.raises(ValidationError):
        StandardForm(np.array([-0.1, 0, 0, 0]), LocalTransform(eye, eye, eye, eye), 1.0, 0.0)


def test_back_transform_identity(ideal_bell):
    form = to_standard_form(ideal_bell.element("0"))
    qdist = optimal_quasidistribution(form)
    tilde = back_transform(form, qdist)
    # transforms are trivial here, so tilde states are the Pauli eigenstates
    from povm_entangle.pauli import QUASI_AXES

    for k, (axis, sign) in enumerate(QUASI_AXES):
        ref = pauli_eigenstate(axis, sign)
        overlap = abs(np.vdot(tilde.states_a[k], ref))
        assert overlap == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(tilde.grid - qdist.grid)) < 1e-9
    rec = recompose(tilde)
    assert np.max(np.abs(rec.matrix - ideal_bell.element("0").matrix)) < 1e-12


def test_back_transform_closure_and_signs(rng):
    for _ in range(50):
        el = random_pd_element(rng, trace=float(rng.uniform(0.3, 2.0)))
        form = to_standard_form(el)
        qdist = optimal_quasidistribution(form)
        tilde = back_transform(form, qdist)
        assert np.max(np.abs(recompose(tilde).matrix - el.matrix)) < 1e-8
        assert np.all(np.sign(tilde.grid) == np.sign(qdist.grid))
        assert abs(tilde.grid.sum() - el.trace()) < 1e-9
        for side in (tilde.states_a, tilde.states_b):
            assert np.allclose(np.linalg.norm(side, axis=1), 1.0, atol=1e-12)


def test_back_transform_validates_grid(rng):
    form = to_standard_form(random_pd_element(rng))

    class Fake:
        grid = np.zeros((3, 3))

    with pytest.raises(ValidationError):
        back_transform(form, Fake())
