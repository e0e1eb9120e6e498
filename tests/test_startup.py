"""Start-up cost: each CLI command loads only its own layers, and the
package resolves its exports on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import povm_entangle
from povm_entangle import cli

SRC = str(Path(povm_entangle.__file__).parents[1])
PACKAGE = "povm_entangle."

# runs one command in a fresh interpreter and reports what it imported
_PROBE = """
import json, sys
from povm_entangle import cli
rc = cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""


def modules_after(argv: list[str], cwd: Path) -> set[str]:
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True, text=True, env=env, cwd=cwd, check=True, timeout=120,
    )
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["rc"] == 0, out.stderr
    return set(report["modules"])


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("startup")
    assert cli.main(["simulate", "--eps", "0.1", "--counts", "1000", "--seed", "3", "-o", str(d / "c.csv")]) == 0
    assert cli.main(["reconstruct", "--counts", str(d / "c.csv"), "-o", str(d / "r.json")]) == 0
    return d


@pytest.mark.parametrize(
    "argv, absent",
    [
        (
            ["reconstruct", "--counts", "c.csv", "-o", "r2.json"],
            [PACKAGE + m for m in ("montecarlo", "witness", "simulate", "standard_form", "quasidist", "svg", "streams")]
            + ["numpy.random", "concurrent.futures"],
        ),
        (
            ["quasidist", "--povm", "r.json", "-o", "q"],
            [PACKAGE + m for m in ("montecarlo", "witness", "simulate", "streams")] + ["numpy.random"],
        ),
        (
            ["errors", "--counts", "c.csv", "--samples", "20", "--workers", "1", "-o", "e"],
            [PACKAGE + "witness", PACKAGE + "simulate", "concurrent.futures"],
        ),
        (
            ["errors", "--counts", "c.csv", "--samples", "20", "--workers", "2", "-o", "e2"],
            [PACKAGE + "witness", PACKAGE + "simulate", "concurrent.futures", "multiprocessing"],
        ),
    ],
    ids=["reconstruct", "quasidist", "errors-workers-1", "errors-workers-2"],
)
def test_command_loads_only_its_layers(dataset, argv, absent):
    loaded = modules_after(argv, dataset)
    assert PACKAGE + "tomography" in loaded
    assert [m for m in absent if m in loaded] == []


def test_every_export_is_its_home_modules_object():
    for name in povm_entangle.__all__:
        home = povm_entangle._HOME.get(name, "errors")
        module = importlib.import_module(PACKAGE + home)
        assert getattr(povm_entangle, name) is getattr(module, name), name


def test_exports_are_read_from_the_home_module_each_time(monkeypatch):
    # a rebinding in the home module (a tracer, a test double) shows through
    # the package, and undoing it restores the original
    from povm_entangle import tomography

    original = tomography.reconstruct_povm
    assert povm_entangle.reconstruct_povm is original
    monkeypatch.setattr(tomography, "reconstruct_povm", "stand-in")
    assert povm_entangle.reconstruct_povm == "stand-in"
    monkeypatch.undo()
    assert povm_entangle.reconstruct_povm is original


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        povm_entangle.no_such_name
    assert not hasattr(povm_entangle, "invert_frequencies")


def test_star_import_binds_all_exports():
    namespace: dict = {}
    exec("from povm_entangle import *", namespace)
    assert set(povm_entangle.__all__) <= set(namespace)
    for name in povm_entangle.__all__:
        assert namespace[name] is getattr(povm_entangle, name)
    assert set(povm_entangle.__all__) <= set(dir(povm_entangle))
