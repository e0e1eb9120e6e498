"""Shared fixtures and random-operator helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from povm_entangle import HermitianOperator, PovmSet, bell_povm, ghz_state, me_state
from povm_entangle.pauli import _hermitize

# the same examples on every run, from a seed derived from each test, and no
# example database: two runs of one commit test the same inputs.  Each test's
# own max_examples and deadline still apply.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


def random_pd_element(rng, parties=(2, 2), trace=1.0):
    """Full-rank positive element G G^dag scaled to the requested trace."""
    dim = int(np.prod(parties))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m *= trace / np.trace(m).real
    return HermitianOperator(m, parties)


def random_product_state(rng, dims):
    """Normalized product vector, one Haar-ish factor per party."""
    factors = []
    for d in dims:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        factors.append(v / np.linalg.norm(v))
    out = factors[0]
    for v in factors[1:]:
        out = np.kron(out, v)
    return out


def random_separable_element(rng, dims=(2, 2), terms=10, trace=1.0):
    """Convex mixture of at most `terms` product projectors."""
    k = int(rng.integers(1, terms + 1))
    weights = rng.random(k)
    weights /= weights.sum()
    dim = int(np.prod(dims))
    m = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        v = random_product_state(rng, dims)
        m += w * np.outer(v, v.conj())
    m *= trace / np.trace(m).real
    return HermitianOperator(m, tuple(dims))


def random_povm(rng, outcomes=4, parties=(2, 2)):
    """Random full-rank POVM: whiten positive blocks so they sum to identity."""
    dim = int(np.prod(parties))
    blocks = []
    for _ in range(outcomes):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        blocks.append(g @ g.conj().T)
    total = sum(blocks)
    w, v = np.linalg.eigh(total)
    whiten = v @ np.diag(w**-0.5) @ v.conj().T
    elements = tuple(
        HermitianOperator(whiten @ b @ whiten.conj().T, parties) for b in blocks
    )
    labels = tuple(f"k{i}" for i in range(outcomes))
    return PovmSet(labels, elements)


def recompose(tilde) -> HermitianOperator:
    """sum_kl grid[k, l] |a_k><a_k| (x) |b_l><b_l| of a TildeDecomposition."""
    m = np.zeros((4, 4), dtype=complex)
    for k in range(6):
        pa = np.outer(tilde.states_a[k], tilde.states_a[k].conj())
        for l in range(6):
            if tilde.grid[k, l] == 0.0:
                continue
            pb = np.outer(tilde.states_b[l], tilde.states_b[l].conj())
            m += tilde.grid[k, l] * np.kron(pa, pb)
    return HermitianOperator(_hermitize(m), (2, 2))


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


@pytest.fixture
def ideal_bell():
    return bell_povm()


# The dense builds of the producers that are now built from their entries,
# kept as byte-for-byte oracles: each forms the whole matrix and runs the
# constructor's full Hermiticity scan.
def dense_lambda_operator(n, d):
    idx = np.arange(d) * ((d**n - 1) // (d - 1))
    m = np.zeros((d**n, d**n))
    m[np.ix_(idx, idx)] = 1.0 - np.eye(d)
    return HermitianOperator(m, (d,) * n)


def dense_ghz_probe(n):
    m = (np.eye(2**n) + dense_lambda_operator(n, 2).matrix) / 2**n
    return HermitianOperator(m, (2,) * n)


def dense_me_probe(d):
    m = (np.eye(d * d) + dense_lambda_operator(2, d).matrix) / d**2
    return HermitianOperator(m, (d, d))


def dense_noisy_ghz_element(n, eps):
    v = ghz_state(n)
    m = eps * np.eye(2**n) + (1 - eps) * np.outer(v, v.conj())
    return HermitianOperator(m, (2,) * n)


def dense_noisy_me_element(d, eps):
    v = me_state(d)
    m = eps * np.eye(d * d) + (1 - eps) * np.outer(v, v.conj())
    return HermitianOperator(m, (d, d))


def random_start(dims, rng):
    """One restart's random product state, drawn party by party from its own generator.

    The oracle for the solver's stacked starts: real parts, then imaginary
    parts, of each party in turn, normalized by np.linalg.norm.
    """
    states = []
    for d in dims:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        states.append(v / np.linalg.norm(v))
    return states
