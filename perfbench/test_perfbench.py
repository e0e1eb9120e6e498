"""Tests for the benchmark itself.

Tiny runs of every workload must emit exactly the metrics BENCHMARK.json
declares, each with its declared unit, and the generated inputs must depend
on the seed alone.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _tiny_run(workload: str, trace: int) -> dict:
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_emits_every_declared_metric(workload, trace):
    result = _tiny_run(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _tree(path: Path) -> dict:
    return {p.relative_to(path).as_posix(): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_inputs_depend_on_the_seed_alone(workload, tmp_path):
    cls = WORKLOADS[workload]
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        cls(tiny=True).make_inputs(seed, tmp_path / name)
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")
