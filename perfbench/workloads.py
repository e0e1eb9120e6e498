"""The benchmark's three workloads: inputs from a seed, one timed unit, checks.

A workload's inputs are a fixed list of units.  A run plays the whole list
in passes, one unit after another, so every unit is repeated, and its
repeats are spread over the run.  A unit is fixed work, so its wall time
compares across versions:

- bell_desk: one ``errors`` command (in-process, ``--workers 1``, 2
  samples) on the ideal Bell analyzer dataset at 10^4 counts per setting,
  the criterion-8 input; the units differ in their resampling seed.
  Resampled Bell elements are near rank-deficient, so the filter iteration
  and the physicality repair run on every sample.  One sample's cost varies
  several-fold with its resampling seed, more than the few samples a run
  can afford would average out, so these seeds are fixed like the dataset.
- noisy_chain: simulate -> reconstruct -> quasidist -> errors on one noisy,
  low-count dataset, each step its own CLI process as a user runs it, with
  ``errors --workers`` at most 2.  Elements are full rank and cheap, so
  per-command costs (interpreter start, imports, parsing, JSON and SVG
  writes, pool start-up) take a visible share.
- witness_grid: one separability solve, at one (n, d) of criterion 5's grid
  extended to dimension 1024 or for one numeric family witness.  The
  two-qubit pipeline is not on this path.  The sweep count of a solve, and
  so its time, varies up to two-fold with the solver seed, so that seed is
  fixed too.

Where the work is fixed, the workload seed sets the order in which a pass
plays the units.

Checks read only the programs' outputs and the generated inputs, with plain
numpy, so they add no spans to a traced round.

Each workload names the calibration (``calib.py``) whose kind of work its
plays resemble; the benchmark reports play times at the reference speed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# rounds call through the modules, so the tracer's rebinding sees the calls
from povm_entangle import cli, operators, witness
from povm_entangle import (
    CoincidenceCounts,
    bell_model,
    draw_counts,
    physicality_correct,
    reconstruct_povm,
    relative_frequencies,
)
from spans import DIR_ENV, PARENT_ENV

BENCH_DIR = Path(__file__).resolve().parent
VERDICT_TOL = 1e-9  # negativity_report's default: entangled exactly when q < -tol
_AXIS_OF = np.repeat(np.arange(3), 2)
_CROSS = _AXIS_OF[:, None] != _AXIS_OF[None, :]


def derive_seed(*parts) -> int:
    """Deterministic 31-bit seed for one named input of one workload seed."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def seeded_order(n: int, *parts) -> list[int]:
    """A permutation of range(n) drawn from the seed of ``parts``."""
    return [int(i) for i in np.random.default_rng(derive_seed(*parts)).permutation(n)]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load(path: Path):
    return json.loads(path.read_text())


def _dir_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _element_traces(povm_dict: dict) -> dict[str, float]:
    return {
        label: float(np.trace(np.asarray(el["re"], dtype=float)))
        for label, el in zip(povm_dict["labels"], povm_dict["elements"])
    }


@dataclass
class Round:
    """What one play of one unit did, measured from the benchmark side."""

    unit: str
    parts: dict = field(default_factory=dict)  # wall time of each timed step: CLI command or solve
    ops: int = 0  # Monte Carlo samples attempted, or separability solves
    ops_part: str = ""  # the step doing those ops
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    bytes_written: int = 0
    excluded: int = 0
    permuted: int = 0
    element_samples: int = 0
    solve_s: float = 0.0  # the separability solve alone, without building its operator
    sweeps: int = 0
    cal: float = 0.0  # the workload's calibration, timed right before the play

    @property
    def wall_s(self) -> float:
        return sum(self.parts.values())

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


@dataclass
class Context:
    """Where a round runs and whether it is traced."""

    root: Path
    workdir: Path
    env: dict
    tracer: object = None
    trace_dir: Path | None = None
    tracing: bool = False

    def span(self, name: str):
        if self.tracing:
            return self.tracer.span(name)
        return nullcontext(None)


def run_cli(ctx: Context, args: list[str], rnd: Round) -> None:
    """Run one CLI command as its own process; its wall time goes to the round."""
    cmd = args[0]
    if ctx.tracing:
        argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), *args]
    else:
        argv = [sys.executable, "-m", "povm_entangle.cli", *args]
    with ctx.span(f"cli.{cmd}") as sid:
        env = ctx.env if sid is None else {**ctx.env, PARENT_ENV: sid, DIR_ENV: str(ctx.trace_dir)}
        t0 = time.perf_counter()
        proc = subprocess.run(
            argv, cwd=ctx.root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=150,
        )
        dt = time.perf_counter() - t0
    rnd.parts[cmd] = rnd.parts.get(cmd, 0.0) + dt
    rnd.check(proc.returncode == 0, f"{cmd} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")


def checked(rnd: Round, check, *args, **kwargs) -> None:
    """Run output checks; output that cannot be read fails one more check."""
    try:
        check(*args, **kwargs)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        rnd.check(False, f"unreadable output: {exc!r}")


def check_grid(rnd: Round, label: str, grid, total: float | None) -> None:
    """Cross-axis cells vanish; the grid totals the element's trace, when given."""
    g = np.asarray(grid, dtype=float)
    cross = float(np.max(np.abs(g[_CROSS])))
    rnd.check(cross < 1e-12, f"{label}: cross-axis grid cell {cross:.3e} does not vanish")
    if total is not None:
        rnd.check(
            abs(float(g.sum()) - total) < 1e-9,
            f"{label}: grid total {g.sum():.12f} differs from element trace {total:.12f}",
        )


def check_errors_dir(rnd: Round, out: Path, traces: dict, samples: int, min_sig: float | None):
    """Checks on an ``errors -o DIR`` output; adds its sample counts to the round."""
    summary = _load(out / "summary.json")
    retained, excluded = summary["retained"], summary["excluded"]
    rnd.check(
        retained + excluded == samples,
        f"retained {retained} + excluded {excluded} != {samples} samples attempted",
    )
    rnd.check(set(summary["elements"]) == set(traces), "errors output has the wrong elements")
    rnd.check(abs(sum(traces.values()) - 4.0) < 1e-9, "element traces do not sum to 4")
    rnd.excluded += excluded
    for label, entry in summary["elements"].items():
        e = _load(out / entry["file"])
        q_ref = e["q"]["reference"]
        rnd.check(q_ref < -VERDICT_TOL, f"{label}: reference q {q_ref} is not entangled")
        if min_sig is not None:
            sig = e["negativity_significance"]
            rnd.check(sig is not None and sig > min_sig, f"{label}: significance {sig} <= {min_sig}")
        check_grid(rnd, f"{label} reference", e["grid_reference"], traces.get(label, np.nan))
        # resampled elements have their own traces, so only the mean's shape is fixed
        check_grid(rnd, f"{label} mean", e["grid_mean"], None)
        rnd.permuted += e["permuted_samples"]
        rnd.element_samples += retained


class BellDesk:
    name = "bell_desk"
    why = "criterion-8 input: ideal Bell analyzer, 10^4 counts per setting, errors --workers 1"
    # criterion 8's dataset is fixed (simulate seed 0), and so are the
    # resampling seeds, since a sample's cost varies several-fold with its seed
    counts_seed = 0
    samples = 2
    calibration = "loop"

    def __init__(self, tiny: bool = False):
        self.units = 2 if tiny else 6
        self.traces: dict = {}

    def make_inputs(self, seed: int, dest: Path) -> dict:
        dest.mkdir(parents=True, exist_ok=True)
        data = draw_counts(bell_model(counts_per_setting=10_000), self.counts_seed)
        (dest / "counts.csv").write_text(data.to_csv())
        # reference element traces for the checks, computed before any tracing
        povm, _, _ = physicality_correct(reconstruct_povm(relative_frequencies(data)))
        self.traces = _element_traces(povm.to_dict())
        spec = {
            "workload": self.name,
            "seed": seed,
            "samples": self.samples,
            "workers": 1,
            "counts_files": ["counts.csv"],
            "units": [
                {"unit": f"mc{j}", "mc_seed": derive_seed(self.name, "mc", j)}
                for j in seeded_order(self.units, self.name, seed, "order")
            ],
        }
        _write_json(dest / "inputs.json", spec)
        return spec

    def replay_input(self, spec: dict, inputs: Path, i: int) -> tuple[CoincidenceCounts, int]:
        counts = CoincidenceCounts.from_csv((inputs / "counts.csv").read_text())
        return counts, spec["units"][i]["mc_seed"]

    def run_unit(self, ctx: Context, spec: dict, inputs: Path, i: int, k: int) -> Round:
        out = ctx.workdir / f"play_{k}"
        args = [
            "errors", "--counts", str(inputs / "counts.csv"), "--samples", str(self.samples),
            "--seed", str(spec["units"][i]["mc_seed"]), "--workers", "1", "-o", str(out),
        ]
        rnd = Round(unit=spec["units"][i]["unit"], ops=self.samples, ops_part="errors")
        with ctx.span("bench.round"), ctx.span("cli.errors"):
            t0 = time.perf_counter()
            rc = cli.main(args)
            rnd.parts["errors"] = time.perf_counter() - t0
        rnd.check(rc == 0, f"errors exited {rc}")
        if rc == 0:
            checked(rnd, check_errors_dir, rnd, out, self.traces, self.samples, min_sig=5.0)
        rnd.bytes_written = _dir_bytes(out) if out.exists() else 0
        shutil.rmtree(out, ignore_errors=True)
        return rnd


class NoisyChain:
    name = "noisy_chain"
    why = "whole CLI chain per dataset, white noise 0.1, 10^3 counts, errors --workers 2"
    eps = 0.1
    counts = 1000
    calibration = "interpreter_start"  # every step is a CLI process

    def __init__(self, tiny: bool = False):
        self.samples = 4 if tiny else 40
        self.units = 1 if tiny else 2
        self.workers = max(1, min(2, len(os.sched_getaffinity(0))))

    def make_inputs(self, seed: int, dest: Path) -> dict:
        dest.mkdir(parents=True, exist_ok=True)
        units = [
            {"sim_seed": derive_seed(self.name, seed, "sim", i), "mc_seed": derive_seed(self.name, seed, "mc", i)}
            for i in range(self.units)
        ]
        spec = {
            "workload": self.name,
            "seed": seed,
            "eps": self.eps,
            "counts_per_setting": self.counts,
            "samples": self.samples,
            "workers": self.workers,
            "units": units,
        }
        _write_json(dest / "inputs.json", spec)
        return spec

    def replay_input(self, spec: dict, inputs: Path, i: int) -> tuple[CoincidenceCounts, int]:
        u = spec["units"][i]
        return draw_counts(bell_model(self.eps, self.counts), u["sim_seed"]), u["mc_seed"]

    def run_unit(self, ctx: Context, spec: dict, inputs: Path, i: int, k: int) -> Round:
        u = spec["units"][i]
        d = ctx.workdir / f"play_{k}"
        d.mkdir(parents=True)
        counts, rec, qd, err = d / "counts.csv", d / "rec.json", d / "qd", d / "err"
        rnd = Round(unit=f"dataset{i}", ops=self.samples, ops_part="errors")
        with ctx.span("bench.round"):
            run_cli(ctx, ["simulate", "--eps", str(self.eps), "--counts", str(self.counts),
                          "--seed", str(u["sim_seed"]), "-o", str(counts)], rnd)
            run_cli(ctx, ["reconstruct", "--counts", str(counts), "-o", str(rec)], rnd)
            run_cli(ctx, ["quasidist", "--povm", str(rec), "-o", str(qd)], rnd)
            run_cli(ctx, ["errors", "--counts", str(counts), "--samples", str(self.samples),
                          "--seed", str(u["mc_seed"]), "--workers", str(self.workers), "-o", str(err)], rnd)
        if rnd.failed == 0:
            checked(rnd, self._check, rnd, rec, qd, err)
        rnd.bytes_written = _dir_bytes(d)
        shutil.rmtree(d, ignore_errors=True)
        return rnd

    def _check(self, rnd: Round, rec: Path, qd: Path, err: Path) -> None:
        traces = _element_traces(_load(rec)["corrected_povm"])
        summary = _load(qd / "summary.json")
        rnd.check(summary["failed"] == [], f"quasidist failed for {summary['failed']}")
        rnd.check(set(summary["elements"]) == set(traces), "quasidist output has the wrong elements")
        for label, entry in summary["elements"].items():
            rnd.check(entry.get("verdict") == "entangled", f"{label}: verdict {entry.get('verdict')}")
            if "file" in entry:
                e = _load(qd / entry["file"])
                check_grid(rnd, f"{label} quasidist", e["quasidistribution"]["grid"], traces.get(label, np.nan))
        check_errors_dir(rnd, err, traces, self.samples, min_sig=None)


# criterion 5's grid (d^n <= 4096 over n, d in 2..4) plus three points near dimension 1024
LAMBDA_GRID = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4), (6, 3), (5, 4), (10, 2))
FAMILIES = (("ghz", 3), ("ghz", 4), ("ghz", 5), ("me", 3), ("me", 4), ("me", 5))


class WitnessGrid:
    name = "witness_grid"
    why = "separability solver over criterion 5's (n, d) grid up to dimension 1024, plus family witnesses"
    restarts = 12
    samples = 0  # no Monte Carlo stage
    calibration = "contraction"  # the large solves stream their operator from memory

    def __init__(self, tiny: bool = False):
        self.grid = LAMBDA_GRID[:4] if tiny else LAMBDA_GRID
        self.families = FAMILIES[:2] if tiny else FAMILIES

    def make_inputs(self, seed: int, dest: Path) -> dict:
        dest.mkdir(parents=True, exist_ok=True)
        units = [{"lambda": [n, d]} for n, d in self.grid] + [{"family": [f, size]} for f, size in self.families]
        spec = {
            "workload": self.name,
            "seed": seed,
            "restarts": self.restarts,
            "solver_seed": derive_seed(self.name, "solver"),
            "units": [units[j] for j in seeded_order(len(units), self.name, seed, "order")],
        }
        _write_json(dest / "inputs.json", spec)
        return spec

    def run_unit(self, ctx: Context, spec: dict, inputs: Path, i: int, k: int) -> Round:
        u, seed = spec["units"][i], spec["solver_seed"]
        if "lambda" in u:
            n, d = u["lambda"]
            rnd = Round(unit=f"n{n}_d{d}", ops=1, ops_part="solve")
            with ctx.span("bench.round"):
                t0 = time.perf_counter()
                op = operators.lambda_operator(n, d)
                analytic = witness.lambda_gmax_analytic(n, d)
                ts = time.perf_counter()
                res = witness.separability_eigenvalue_numeric(
                    op, restarts=spec["restarts"], seed=seed, track_history=ctx.tracing
                )
                rnd.solve_s = time.perf_counter() - ts
                rnd.parts["solve"] = time.perf_counter() - t0
            rnd.sweeps = sum(len(h) for h in res.history)
            gap = abs(analytic - res.gmax)
            rnd.check(gap < 1e-6, f"lambda n={n} d={d}: |analytic - numeric| = {gap:.3e}")
            return rnd
        family, size = u["family"]
        rnd = Round(unit=f"{family}{size}", ops=1, ops_part="solve")
        with ctx.span("bench.round"):
            t0 = time.perf_counter()
            eps = witness.noise_threshold(family, size) / 2
            if family == "ghz":
                element, probe = operators.noisy_ghz_element(size, eps), witness.ghz_probe(size)
            else:
                element, probe = operators.noisy_me_element(size, eps), witness.me_probe(size)
            res = witness.witness_evaluate(element, probe, numeric=True, restarts=spec["restarts"], seed=seed)
            rnd.parts["solve"] = time.perf_counter() - t0
        rnd.check(res.verdict == "entangled", f"{family} {size}: verdict {res.verdict} below threshold")
        gap = abs(res.bound - probe.gmax)
        rnd.check(gap < 1e-6, f"{family} {size}: |analytic - numeric g_max| = {gap:.3e}")
        return rnd


WORKLOADS = {w.name: w for w in (BellDesk, NoisyChain, WitnessGrid)}
