"""The example scripts run to completion against the package's exports."""

import json
import os
import shutil
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


@pytest.mark.skipif(shutil.which("git") is None or shutil.which("tar") is None, reason="needs git and tar")
def test_bench_pairs_writes_the_record(tmp_path):
    # a repository of one commit holding what the benchmark runs, paired with itself
    repo = tmp_path / "repo"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, repo / part, ignore=shutil.ignore_patterns("__pycache__", ".perfbench-work"))
    shutil.copy(ROOT / "BENCHMARK.json", repo)
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org", "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "tree"]):
        subprocess.run([*git, *args], cwd=repo, check=True, capture_output=True)
    out = tmp_path / "BENCH_1.json"
    argv = ["HEAD", "HEAD", "--workload", "noisy_chain", "--pairs", "1", "--seconds", "1", "--size", "tiny"]
    for first in ("1", "2"):
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), *argv, "--first-seed", first, "--out", str(out)],
            capture_output=True, text=True, cwd=repo, timeout=300,
        )
        assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text())
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=repo, capture_output=True, text=True).stdout
    assert record["parent_commit"] == record["change_commit"] == head.strip()
    assert {"machine", "protocol", "description"} <= set(record)
    pairs = record["pairs"]["noisy_chain"]
    assert [(p["seed"], p["first"]) for p in pairs] == [(1, "parent"), (2, "change")]
    assert all(p[side]["correct"] and p[side]["failed"] == 0 for p in pairs for side in ("parent", "change"))
    assert set(record["summary_by_seeds"]) == {"seeds_1_1", "seeds_2_2"}
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    summary = record["summary"]["noisy_chain"]
    assert set(summary) == {"failed_ops", *names}
    for name in names:
        s = summary[name]
        assert s["pairs"] == 2 and 0 <= s["change_wins"] <= 2
        assert s["sign_test_p"] == {0: 0.5, 1: 1.0, 2: 0.5}[s["change_wins"]]
        assert s["parent_iqr"] == s["parent"]["q3"] - s["parent"]["q1"] >= 0
        assert not s["gain_shown"] or s["change_wins"] == 2

    # a seed already recorded is refused, and the record is left as it was
    before = out.read_text()
    again = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), *argv, "--first-seed", "2", "--out", str(out)],
        capture_output=True, text=True, cwd=repo, timeout=60,
    )
    assert again.returncode == 2 and "already holds seeds [2]" in again.stderr
    assert out.read_text() == before

    # a change that edits the benchmark's bounds is not judged by them
    bench = json.loads((repo / "BENCHMARK.json").read_text())
    bench["end_to_end"][0]["bound"] *= 10
    (repo / "BENCHMARK.json").write_text(json.dumps(bench))
    subprocess.run([*git, "commit", "-q", "-am", "bounds"], cwd=repo, check=True, capture_output=True)
    other = tmp_path / "BENCH_2.json"
    refused = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "HEAD~1", "HEAD", *argv[2:], "--out", str(other)],
        capture_output=True, text=True, cwd=repo, timeout=60,
    )
    assert refused.returncode != 0 and "BENCHMARK.json differ" in refused.stderr
    assert not other.exists()


def test_bench_pairs_sign_test():
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.sign_test(10, 10) == module.sign_test(0, 10) == 2 / 1024
    assert module.sign_test(19, 20) == 2 * 21 / 2**20
    assert module.sign_test(5, 10) == 1.0
