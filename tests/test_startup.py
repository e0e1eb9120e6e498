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
    "argv, tomography, absent",
    [
        (
            ["reconstruct", "--counts", "c.csv", "-o", "r2.json"],
            True,
            [PACKAGE + m for m in ("montecarlo", "witness", "simulate", "standard_form", "quasidist", "svg", "streams")]
            + ["numpy.random", "concurrent.futures", "click"],
        ),
        (
            ["quasidist", "--povm", "r.json", "-o", "q"],
            False,
            [PACKAGE + m for m in ("montecarlo", "witness", "simulate", "streams")] + ["numpy.random", "click"],
        ),
        (
            ["errors", "--counts", "c.csv", "--samples", "20", "--workers", "1", "-o", "e"],
            True,
            [PACKAGE + m for m in ("witness", "simulate", "operators", "standard_form")]
            + ["concurrent.futures", "click", "numpy.random", "secrets"],
        ),
        (
            ["errors", "--counts", "c.csv", "--samples", "20", "--workers", "2", "-o", "e2"],
            True,
            [PACKAGE + m for m in ("witness", "simulate", "operators", "standard_form")]
            + ["concurrent.futures", "multiprocessing", "click", "numpy.random", "secrets"],
        ),
        (
            ["witness", "--lambda", "-n", "2", "-d", "2"],
            False,
            [PACKAGE + m for m in ("montecarlo", "simulate", "standard_form", "quasidist", "svg")]
            + ["click"],
        ),
        (
            ["combine", "--counts", "c.csv", "--groups", "AA+AD,DA+DD", "-o", "m.csv"],
            True,
            [PACKAGE + m for m in ("montecarlo", "witness", "simulate", "standard_form", "quasidist", "svg", "streams")]
            + ["numpy.random", "concurrent.futures", "click"],
        ),
    ],
    ids=["reconstruct", "quasidist", "errors-workers-1", "errors-workers-2", "witness-lambda", "combine"],
)
def test_command_loads_only_its_layers(dataset, argv, tomography, absent):
    loaded = modules_after(argv, dataset)
    # the commands that read counts load tomography; the others do not
    assert (PACKAGE + "tomography" in loaded) == tomography
    assert [m for m in absent if m in loaded] == []


def test_errors_on_closed_form_data_loads_only_the_array_path(dataset):
    loaded = modules_after(["errors", "--counts", "c.csv", "--samples", "20", "-o", "e3"], dataset)
    package = {m for m in loaded if m.startswith(PACKAGE)}
    expected = (
        "cli", "commands", "commands.errors", "errors", "pauli", "tomography", "quasidist", "streams", "montecarlo", "svg"
    )
    assert package == {PACKAGE + m for m in expected}


COMMANDS = sorted(cli._COMMANDS)
# one run of each command, in the dataset's directory
COMMAND_RUNS = {
    "simulate": ["simulate", "--counts", "100", "-o", "s.csv"],
    "reconstruct": ["reconstruct", "--counts", "c.csv", "-o", "r3.json"],
    "quasidist": ["quasidist", "--povm", "r.json", "-o", "q3"],
    "errors": ["errors", "--counts", "c.csv", "--samples", "20", "-o", "e4"],
    "witness": ["witness", "--lambda", "-n", "2", "-d", "2", "--restarts", "1"],
    "combine": ["combine", "--counts", "c.csv", "--groups", "AA+AD,DA+DD", "-o", "m2.csv"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_its_own_handler_module(dataset, command):
    loaded = modules_after(COMMAND_RUNS[command], dataset)
    assert {m for m in loaded if m.startswith(PACKAGE + "commands.")} == {PACKAGE + "commands." + command}


def test_top_level_help_loads_every_handler_module(dataset):
    loaded = modules_after(["--help"], dataset)
    assert {m for m in loaded if m.startswith(PACKAGE + "commands.")} == {PACKAGE + "commands." + c for c in COMMANDS}


@pytest.mark.parametrize("argv", [*COMMAND_RUNS.values(), ["--help"]], ids=[*COMMAND_RUNS, "help"])
def test_no_command_loads_argparse_gettext_or_locale(dataset, argv):
    # the command line is read from cli's own option table
    assert {"argparse", "gettext", "locale"} & modules_after(argv, dataset) == set()


_PACKAGE_DIR = Path(povm_entangle.__file__).parent
MODULES = sorted(p.stem for p in _PACKAGE_DIR.glob("*.py") if p.stem != "__init__") + ["commands"] + sorted(
    "commands." + p.stem for p in (_PACKAGE_DIR / "commands").glob("*.py") if p.stem != "__init__"
)


@pytest.mark.parametrize("module", MODULES)
def test_every_module_imports_alone(module):
    # a fresh interpreter per module: an import cycle between the lazily
    # linked layers fails here whichever module is loaded first
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", f"import {PACKAGE}{module}"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr


def test_simulate_still_loads_numpy_random(dataset):
    # its multinomial draws come from a keyed numpy Generator
    loaded = modules_after(["simulate", "--counts", "100", "-o", "s.csv"], dataset)
    assert {"numpy.random", "secrets"} <= loaded


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
