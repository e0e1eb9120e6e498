"""Paired benchmark runs of two revisions, written as a BENCH record.

    python3 scripts/bench_pairs.py PARENT_REV CHANGE_REV --workload noisy_chain \
        --workload bell_desk --workload witness_grid --pairs 10 --out BENCH_31.json

Run from inside the repository.  Both revisions are exported with
`git archive` into fresh directories, and each pair runs
`perfbench/run.py --trace 0` once on each side with
PYTHONDONTWRITEBYTECODE=1, so neither side reads a bytecode cache, as the
benchmark's fresh checkouts do not.  Pair seeds run from --first-seed up;
on odd seeds the parent runs first, on even seeds the change.  Each seed
runs every workload before the next seed starts.

The record holds the commits, the machine, the protocol, every pair's
metrics, and per workload and end-to-end metric of BENCHMARK.json a
summary: each side's median and quartiles by
`statistics.quantiles(method="inclusive")`, the pairs the change won, the
two-sided sign-test probability of that count, the parent's quartile
distance, the change's relative worsening against the metric's bound, and
whether a gain is shown by the benchmark's rule (at least 9 of 10 pairs won
and a median better by more than the parent's quartile distance).  An
existing --out file of the same two commits keeps its pairs: the new ones
are added, "summary" covers them all, and "summary_by_seeds" holds one
summary per run of this script, keyed by its seeds.  A seed the file
already holds for one of the workloads is refused, so no pair counts
twice, and so are two revisions whose BENCHMARK.json differ, so a change
is never judged by bounds of its own.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, into: Path) -> Path:
    """A clean tree of rev under into, from `git archive`."""
    into.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {rev} exited {archive.returncode}")
    return into


def machine() -> dict:
    import numpy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": model or platform.processor(),
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float, size: str) -> dict:
    """One perfbench run in tree: its correctness, operation counts and end-to-end metrics."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0", "--size", size]
    proc = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed} in {tree}: exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    return {
        "attempted": result["attempted"],
        "correct": result["correct"],
        "failed": result["failed"],
        **{name: m["value"] for name, m in result["metrics"].items()},
    }


def sign_test(wins: int, n: int) -> float:
    """Two-sided probability of a split at least as uneven as wins of n fair coin flips."""
    tail = min(wins, n - wins)
    return min(1.0, 2 * sum(math.comb(n, k) for k in range(tail + 1)) / 2**n)


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """The summary of one workload's pairs, per end-to-end metric."""
    out = {"failed_ops": {side: sum(p[side]["failed"] for p in pairs) for side in ("change", "parent")}}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum((c > p) if higher else (c < p) for c, p in zip(change, parent))
        ps, cs = _quartiles(parent), _quartiles(change)
        iqr = ps["q3"] - ps["q1"]
        worse = (ps["median"] - cs["median"]) if higher else (cs["median"] - ps["median"])
        out[name] = {
            "bound": m["bound"],
            "change": cs,
            "change_wins": wins,
            "gain_shown": wins >= 0.9 * len(pairs) and -worse > iqr,
            "median_difference": cs["median"] - ps["median"],
            "pairs": len(pairs),
            "parent": ps,
            "parent_iqr": iqr,
            "relative_change_worse": worse / ps["median"],
            "sign_test_p": sign_test(wins, len(pairs)),
            "within_bound": worse / ps["median"] <= m["bound"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_rev")
    ap.add_argument("change_rev")
    ap.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", type=Path, required=True, help="the record, e.g. BENCH_31.json")
    ap.add_argument("--description", default="")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be positive")

    commits = {"parent_commit": _git("rev-parse", "--short", args.parent_rev),
               "change_commit": _git("rev-parse", "--short", args.change_rev)}
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    if record and {k: record.get(k) for k in commits} != commits:
        ap.error(f"{args.out} records other commits")
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    held = sorted({p["seed"] for w in args.workload for p in record.get("pairs", {}).get(w, [])} & set(seeds))
    if held:
        ap.error(f"{args.out} already holds seeds {held} of these workloads")
    batch = {w: [] for w in args.workload}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as work:
        trees = {side: export(commits[f"{side}_commit"], Path(work) / side) for side in ("parent", "change")}
        bench = {side: json.loads((tree / "BENCHMARK.json").read_text()) for side, tree in trees.items()}
        if bench["change"] != bench["parent"]:
            raise SystemExit("the two revisions' BENCHMARK.json differ; pair revisions that share one")
        metrics = bench["parent"]["end_to_end"]
        for seed in seeds:
            first = "parent" if seed % 2 else "change"
            order = (first, "change" if first == "parent" else "parent")
            for workload in args.workload:
                pair = {"first": first, "seed": seed}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed, args.seconds, args.size)
                batch[workload].append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{m['name']} {pair['parent'][m['name']]:.4g} -> {pair['change'][m['name']]:.4g}" for m in metrics
                ), file=sys.stderr)

    pairs = record.get("pairs", {})
    for workload, new in batch.items():
        pairs[workload] = pairs.get(workload, []) + new
    by_seeds = record.get("summary_by_seeds", {})
    by_seeds[f"seeds_{seeds[0]}_{seeds[-1]}"] = {w: summarize(p, metrics) for w, p in batch.items()}
    record.update(
        commits,
        description=args.description or record.get("description", ""),
        machine=machine(),
        protocol=(
            f"perfbench/run.py --seconds {args.seconds:g} --trace 0 --size {args.size} per run with "
            "PYTHONDONTWRITEBYTECODE=1, each side from a clean git archive export; odd seeds parent first, "
            "even seeds change first; quartiles by statistics.quantiles(method='inclusive'); sign_test_p is "
            "the two-sided sign-test probability of change_wins"
        ),
        pairs=pairs,
        summary={w: summarize(p, metrics) for w, p in pairs.items()},
        summary_by_seeds=by_seeds,
    )
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
