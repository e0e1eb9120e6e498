"""The example scripts run to completion against the package's exports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import povm_entangle

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("ideal_bell_quasidist.py", ["--out", "charts"]),
        ("noise_threshold_scan.py", []),
        ("noise_threshold_scan.py", ["--max-n", "1100"]),
        ("pipeline_demo.py", ["--samples", "20", "--out", "demo"]),
        ("exit_time.py", ["--repeats", "2"]),
    ],
)
def test_script_runs(tmp_path, script, args):
    env = {**os.environ, "PYTHONPATH": str(Path(povm_entangle.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    if "--out" in args:
        assert any((tmp_path / args[args.index("--out") + 1]).iterdir())
