"""The canonical JSON writer and the bytes the commands write with it."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import povm_entangle
from povm_entangle import cli
from povm_entangle.cli import _canonical, main

SRC = str(Path(povm_entangle.__file__).parents[1])


def stdlib(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def outcome(write, obj):
    """The text, or the type and message of what the writer raised."""
    try:
        return write(obj)
    except (TypeError, ValueError) as e:
        return type(e), str(e)


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324, 1e300]),
)
TEXTS = st.one_of(
    st.text(max_size=8),
    st.sampled_from([", ", "a, b", "[", "], [", '"', '", "', ": ", "{}", "\\", "Grüße, ±1 €", " "]),
)
OTHER_KEYS = st.one_of(st.integers(-5, 5), st.floats(allow_nan=False), st.booleans(), st.none())
GRIDS = st.lists(st.lists(SCALARS, max_size=4), max_size=4)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(TEXTS, children, max_size=5),
        # non-str keys: converted, or for mixed types refused, as the stdlib does
        st.dictionaries(OTHER_KEYS, children, max_size=3),
        st.dictionaries(st.one_of(st.integers(0, 3), st.text(max_size=2)), children, max_size=3),
        GRIDS,
    )


TREES = st.recursive(st.one_of(SCALARS, TEXTS, GRIDS), containers, max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(TREES)
def test_canonical_matches_stdlib(obj):
    assert outcome(_canonical, obj) == outcome(stdlib, obj)


def test_canonical_edge_cases():
    shared = [1.5, None]
    cases = [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [[]], "d": [[], [1]], "e": [[1], []]},
        [[1.0, 2.0], (3, True)],
        [[math.nan, -math.inf], [math.inf, -0.0]],
        {"k": ["x, y", 1.0], "m": {"p": "q, r", "s": 2}},
        {"grid": [[1, "a"], [2, "b"]], "rows": [[1], [2], [3]]},
        {"a": shared, "b": shared, "c": [shared, shared]},
        {1: "one", 2.5: "two", None: 0, True: 1},
        [np.float64(0.1), np.int64(3), np.bool_(True)],
        {"sub": {"x": np.float64(-0.0)}},
        10**40,
        "plain",
    ]
    # nested past the walker's depth limit
    deep = [1.0]
    for k in range(120):
        deep = [k, {"d": deep}] if k % 2 else [deep]
    cases.append(deep)
    for obj in cases:
        assert outcome(_canonical, obj) == outcome(stdlib, obj)


def test_canonical_refuses_what_stdlib_refuses():
    loop: list = [1.0]
    loop.append(loop)
    looped: dict = {"a": 1}
    looped["self"] = looped
    for obj in ([object()], {"a": {1, 2}}, {"a": [1, "b", object()]}, {1: 1, "a": 2}, loop, looped):
        with pytest.raises((TypeError, ValueError)):
            stdlib(obj)
        assert outcome(_canonical, obj) == outcome(stdlib, obj)


def test_canonical_without_c_encoder(monkeypatch):
    obj = {"b": [1.0, math.nan], "a": {"x": "y, z"}}
    monkeypatch.setattr(cli, "_c_encode", None)
    assert _canonical(obj) == stdlib(obj)


def digests(path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(path.iterdir())}


# sha256 of every file the commands write, taken before the JSON writer, the
# counts reader and the Monte Carlo aggregation were rewritten; any change to
# an output byte shows up here.  Paths are relative, since manifests record them.
# The errors JSON digests were retaken when every Monte Carlo element's pi
# came to be read off its Wootters values: no float moved by more than 5e-15
# relative, and no SVG byte moved.
ERRORS_C8 = {
    "errors_AA.json": "9e14ce21865e47d1f5c00c31c14ebf44eec735462cc9d67fe1427c5aa2439360",
    "errors_AA.svg": "322d6490df2bf19f4b6d084d66010f1f17fa8fda4fe0603c98af0779db9d0795",
    "errors_AD.json": "7cb48de8273fa5f134ef4f0f79292a30cd35aadb9c53e34c41349ab86adc97cf",
    "errors_AD.svg": "e09c1203e4252d3e8e76885e3d87023b35b14cad63b30b68778cf92bdca6379f",
    "errors_DA.json": "fc2cd15ad018ad19c5d8859ef7bfc06c2f378981c0e7fe35af0c697e046fe3e5",
    "errors_DA.svg": "9b375b1196bad0b5991f54290629f2ad563da4de6c3819360b6ca6a5849c5c18",
    "errors_DD.json": "0ee18d75da6af50fa80d0052b767f3cceb3d1449795d5c476ada32bbae81b796",
    "errors_DD.svg": "98bcf134c6086c3e71d612d7193810b93c89934a5b10122ef445c96b5210114d",
    "summary.json": "3bfc4478b5553eda7e416b5bed53252d756060dba39e3e7fdd0998627a55a8a5",
}
RECONSTRUCT_NOISY = "9663e3656d0ae8b787509068d913a1dd1bdda7ed45eab37106a3fb09801316cb"
# the element files retaken when their always-null negativity.significance
# key was dropped; no other byte moved
QUASIDIST_NOISY = {
    "element_AA.json": "4acf729b650c907348ff68ab760f8af66c7dd568cea795527d209479cc108902",
    "element_AA.svg": "76f04694b622d4cafeed04228b877807348c9c7887c36aa35b24769e9a4e5a7c",
    "element_AD.json": "9936b44729a4972e1ea2969b9eb37020aa22f80bb050fe37d63f6b1f72c1e5fd",
    "element_AD.svg": "487ae0e16315062abd46e19974cf908d63dbbf26bf776c4a507b35a86fafebc8",
    "element_DA.json": "c56d2656a7a39a69d9b9bd06f0736f9426b03c0ccfc50cf4307679132f4da292",
    "element_DA.svg": "c8109a96fcab3924dd0892b429930b1e7fc2962b35528c6d8bf6986867c96862",
    "element_DD.json": "2873f4e9c4de86fd041755c7743789ca6116b6cb9d7a4c3c1793df1857dd6cc7",
    "element_DD.svg": "5f71d9d3209967aa2c61aec74ff555e35f65238de6eb5fc5f9e31204fab56eef",
    "summary.json": "2762342fa1eb9b31c88e1549657c02bcdec419186a4bd69dee7e4b9765b08c23",
}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_criterion_8_errors_bytes_are_pinned(tmp_path, monkeypatch, workers):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--seed", "0", "-o", "counts.csv"]) == 0
    argv = ["errors", "--counts", "counts.csv", "--samples", "1000", "--seed", "0"]
    assert main([*argv, "--workers", workers, "-o", "err"]) == 0
    assert digests(tmp_path / "err") == ERRORS_C8


def test_noisy_reconstruct_and_quasidist_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--eps", "0.1", "--counts", "1000", "--seed", "7", "-o", "noisy.csv"]) == 0
    assert main(["reconstruct", "--counts", "noisy.csv", "-o", "rec.json"]) == 0
    assert main(["quasidist", "--povm", "rec.json", "-o", "qd"]) == 0
    assert hashlib.sha256((tmp_path / "rec.json").read_bytes()).hexdigest() == RECONSTRUCT_NOISY
    assert digests(tmp_path / "qd") == QUASIDIST_NOISY


# sha256 of `witness` outputs, taken when the closed-form bound came to
# decide every verdict and `--numeric` became a cross-check; the element
# runs read the pinned noisy `reconstruct` output, with the default ME probe
# and with the two-qubit GHZ probe (the latter taken before element and
# family mode came to share one evaluate-and-write path).
WITNESS = {
    ("--family", "ghz", "-n", "3", "--eps", "0.1"): "0e23e06e3e919c69d82a964545d1ae488584ceb82ec77d11ac8098e90d13b2c4",
    ("--family", "ghz", "-n", "3", "--eps", "0.1", "--numeric"): "c384aed15e3b6aca6bcfac7d118a763f989f6e3f7c1ae21929207c30300b5c5a",
    ("--family", "me", "-d", "3", "--eps", "0.1"): "b054f393a87fa0588c65b4799c4a84f3a0006753c807bf9f14988b77bc1a407a",
    ("--family", "me", "-d", "3", "--eps", "0.1", "--numeric"): "0aebc86a369af4480aabbb1bade458a22355fe1f53c92940535f33be5f6f95ca",
    ("--povm", "rec.json", "--element", "DD"): "0198a5ca8020fd3b83f4499a037a42720fb491691e4d36c48f610c6094afb7ad",
    ("--povm", "rec.json", "--element", "DD", "--numeric"): "09f4e228fa2596c2e90a11ff65ac627a09592b23209a0dcebd8a7a3c90006ec9",
    ("--povm", "rec.json", "--element", "DD", "--family", "ghz"): "ed67fae898546182d24c577dcb4599d01c9da9c62ae59ef17a9774a1bb772c12",
    ("--povm", "rec.json", "--element", "DD", "--family", "ghz", "--numeric"): "ec6345f3b27691aaeb34424c4a458dc7f2ad82fbe166b5e731667e204913d0c6",
}


def test_witness_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--eps", "0.1", "--counts", "1000", "--seed", "7", "-o", "noisy.csv"]) == 0
    assert main(["reconstruct", "--counts", "noisy.csv", "-o", "rec.json"]) == 0
    got = {}
    for args in WITNESS:
        assert main(["witness", *args, "-o", "w.json"]) == 0
        got[args] = hashlib.sha256((tmp_path / "w.json").read_bytes()).hexdigest()
    assert got == WITNESS


# sha256 of `witness` runs at dimension 1024: both solver paths' largest
# lambda units, taken before the operators were built from their entries,
# and the numeric GHZ family witness, taken again when `--numeric` became a
# cross-check of the closed-form bound.
WITNESS_D1024 = {
    ("--lambda", "-n", "5", "-d", "4"): "e6069e9de37f1c1c93d673576bbaf2c96d8631db8b935a36a990396f4e0a5fe7",
    ("--lambda", "-n", "10", "-d", "2"): "22f99956a0b0dd11dada36abb8f62b7e86195e9ea65e8896f0e8a218a643f9af",
    ("--family", "ghz", "-n", "10", "--eps", "0.1", "--numeric"): "b96e7da7287ce4060a86bead18a72819a144c9b548fd24e01ea35f7a4b293a55",
}


@pytest.mark.parametrize("args", list(WITNESS_D1024), ids=" ".join)
def test_dimension_1024_witness_bytes_are_pinned(tmp_path, args):
    out = tmp_path / "w.json"
    assert main(["witness", *args, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WITNESS_D1024[args]


# runs CLI commands in a fresh interpreter, whose BLAS reads its thread count
# at start-up, and reports the sha256 of every file they wrote
_HASH_RUNS = """
import hashlib, json, sys
from pathlib import Path
from povm_entangle.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps({
    str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path().rglob("*")) if p.is_file()
}))
"""


def hashes_at_blas_threads(threads: str, commands: list, cwd) -> dict:
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads}
    out = subprocess.run(
        [sys.executable, "-c", _HASH_RUNS, json.dumps(commands)],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # every pinned witness run, and errors and quasidist on criterion 8's data
    witness_runs = {f"w{k}.json": args for k, args in enumerate([*WITNESS, *WITNESS_D1024])}
    commands = [
        ["simulate", "--eps", "0.1", "--counts", "1000", "--seed", "7", "-o", "noisy.csv"],
        ["reconstruct", "--counts", "noisy.csv", "-o", "rec.json"],
        *(["witness", *args, "-o", name] for name, args in witness_runs.items()),
        ["simulate", "--seed", "0", "-o", "counts.csv"],
        ["reconstruct", "--counts", "counts.csv", "-o", "c8.json"],
        ["quasidist", "--povm", "c8.json", "-o", "qd"],
        ["errors", "--counts", "counts.csv", "--samples", "1000", "--seed", "0", "--workers", "1", "-o", "err"],
    ]
    got = {}
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        got[threads] = hashes_at_blas_threads(threads, commands, tmp_path / threads)
    assert got["1"] == got["2"]
    pins = {**WITNESS, **WITNESS_D1024}
    assert {name: got["1"][name] for name in witness_runs} == {name: pins[a] for name, a in witness_runs.items()}
    assert {name[4:]: h for name, h in got["1"].items() if name.startswith("err/")} == ERRORS_C8
    assert len([name for name in got["1"] if name.startswith("qd/")]) == 9
