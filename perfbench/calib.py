"""The host's speed, from fixed work timed right before each measured play.

On a shared host the speed can drop 1.8-fold for minutes at a time.
A play's time times a calibration's reference time over that calibration's
time right before the play is the play's time at the reference speed.  The
calibrations are the benchmark's own code, so a change to the package cannot
move them.  Each follows one kind of work: ``loop`` tracks computation in a
running interpreter, ``interpreter_start`` a process's start-up and imports,
and ``contraction`` tensor contractions that stream a 16 MB operator from
memory.  The loop follows neither of the other two.
"""

import functools
import subprocess
import sys
import time

import numpy as np

_CAL_MATRIX = np.arange(16.0).reshape(4, 4) % 5 + np.eye(4)


def loop() -> float:
    """Wall time of a fixed loop of interpreter and small-matrix work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    for _ in range(600):
        np.linalg.eigh(_CAL_MATRIX @ _CAL_MATRIX.T)
    return time.perf_counter() - t0


@functools.cache
def _operator() -> tuple[np.ndarray, np.ndarray]:
    """A fixed 1024-dimensional Hermitian operator as a tensor, and a state of 512 dimensions."""
    rng = np.random.default_rng(0)
    m = rng.standard_normal((1024, 1024)) + 1j * rng.standard_normal((1024, 1024))
    return (m + m.conj().T).reshape(2, 512, 2, 512), np.full(512, 512**-0.5, dtype=complex)


def contraction() -> float:
    """Wall time of contracting the operator with product states, as the separability solver does."""
    tensor, state = _operator()
    t0 = time.perf_counter()
    for _ in range(4):
        np.einsum("aibj,i,j->ab", tensor, state.conj(), state, optimize=True)
    return time.perf_counter() - t0


def interpreter_start() -> float:
    """Wall time to start an interpreter that imports numpy."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import numpy"],
        check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60,
    )
    return time.perf_counter() - t0


# each calibration with its time at the reference speed; on a 2-core Xeon VM
# at 2.0 GHz the loop took 10 to 20 ms, the contraction 23 to 31 ms and the
# start 0.18 to 0.3 s
CALIBRATIONS = {
    "loop": (loop, 0.015),
    "contraction": (contraction, 0.025),
    "interpreter_start": (interpreter_start, 0.2),
}
