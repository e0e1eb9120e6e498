"""Benchmark of the povm-entangle pipeline, end to end and per layer.

    python3 perfbench/run.py --workload bell_desk --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
workload's inputs, a list of fixed units of work, are generated from
``--seed``, set-up is timed in fresh interpreters, then the units are played
in passes, one after another, until the next would end after ``--seconds``,
and every play's outputs are checked.  ``--trace 0`` reports the end-to-end
metrics in reference seconds (see ``calib.py``), each unit's steps taken at
their mean over the passes; ``--trace 1`` plays each unit twice, untraced
and traced on the same inputs, and reports per-layer metrics from the
traced plays' spans.  A human-readable report goes to stderr, a record of
the run with the machine's details to ``.perfbench-work/results/``, and the
last line of stdout is the JSON result.  The exit code is 0 only when every
check passed.
"""

import os

# one BLAS/OpenMP thread in this process and every child: pool workers
# times BLAS threads must not exceed the cores
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from calib import CALIBRATIONS, interpreter_start  # noqa: E402
from spans import Tracer, load_spans, self_times  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ".perfbench-work"
SETUP_REPEATS = 9
NAMES = ("bell_desk", "noisy_chain", "witness_grid")
LAYERS = (
    "bench",
    "cli",
    "simulate",
    "tomography",
    "standard_form",
    "quasidist",
    "montecarlo",
    "witness",
    "operators",
    "svg",
)


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _quartiles(xs) -> tuple[float, float]:
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (0.0, 0.0)
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def _tail(xs) -> tuple[str, float]:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    label, value = "none", 0.0
    for p in (50, 90, 99, 99.9):
        if len(xs) * (1 - p / 100) >= 10:
            label, value = f"p{p:g}", float(np.percentile(xs, p))
    return label, value


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "povm_entangle").rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path, src: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": importlib.metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "commit": _commit(root),
        "source_sha256": _source_digest(src),
    }


def measure_setup(root: Path, inputs: Path) -> tuple[float, float]:
    """Set-up time, and the interpreter-start calibration right before it."""
    cal = interpreter_start()
    # stderr is piped so the wait ends at the pipe's EOF; a bare wait with a
    # timeout polls in steps of up to 50 ms, which would quantize the timing
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(inputs / "inputs.json")],
        cwd=root, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60,
    )
    return time.perf_counter() - t0, cal


def play(wl, ctx, spec, inputs, i: int, k: int, tracing: bool):
    if not tracing:
        return wl.run_unit(ctx, spec, inputs, i, k)
    ctx.tracer.install()
    ctx.tracing = True
    try:
        return wl.run_unit(ctx, spec, inputs, i, k)
    finally:
        ctx.tracing = False
        ctx.tracer.uninstall()


def run_passes(wl, ctx, spec, inputs, seconds: float, trace: bool):
    """Passes over the units until the next unit would end after the deadline.

    The first pass always completes; after it, a unit is predicted to take
    as long as its last play.
    """
    untraced, traced = [], []
    calibrate, _ = CALIBRATIONS[wl.calibration]
    calibrate()  # warm-up: the first call pays lazy set-up
    n = len(spec["units"])
    deadline = time.perf_counter() + seconds
    last = [0.0] * n
    k = 0
    while k < n or time.perf_counter() + last[k % n] <= deadline:
        i = k % n
        cal = calibrate()
        t0 = time.perf_counter()
        # in a traced run, traced and untraced take turns at going first
        sides = ((False, True) if k % 2 == 0 else (True, False)) if trace else (False,)
        for tracing in sides:
            rnd = play(wl, ctx, spec, inputs, i, k, tracing)
            rnd.cal = cal
            (traced if tracing else untraced).append(rnd)
        last[i] = time.perf_counter() - t0
        k += 1
    return untraced, traced


def median_steps(rounds) -> dict:
    """Each unit's steps at their median over the passes: {(unit, step): seconds}."""
    times: dict = {}
    for r in rounds:
        for step, t in r.parts.items():
            times.setdefault((r.unit, step), []).append(t)
    return {key: _median(ts) for key, ts in times.items()}


def ref_steps(rounds, ref_s: float) -> dict:
    """Each unit's steps in reference seconds, the mean over the passes: {(unit, step): seconds}."""
    times: dict = {}
    for r in rounds:
        for step, t in r.parts.items():
            times.setdefault((r.unit, step), []).append(t * ref_s / r.cal)
    return {key: statistics.fmean(ts) for key, ts in times.items()}


def pass_times(rounds, steps: dict) -> tuple[float, float]:
    """Wall time of one pass, and ops per second of the steps doing them, from per-step times."""
    first_plays = {r.unit: r for r in reversed(rounds)}.values()
    ops_wall = sum(steps[(r.unit, r.ops_part)] for r in first_plays)
    return sum(steps.values()), sum(r.ops for r in first_plays) / ops_wall


def end_to_end(wl, rounds, setup) -> dict:
    wall, ops_per_s = pass_times(rounds, ref_steps(rounds, CALIBRATIONS[wl.calibration][1]))
    start_ref_s = CALIBRATIONS["interpreter_start"][1]
    rss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "setup_s": (_median([t * start_ref_s / cal for t, cal in setup]), "s"),
        "ref_wall_s": (wall, "s"),
        "ref_ops_per_s": (ops_per_s, "1/s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }


def replay_draws(wl, spec, inputs) -> list[float]:
    """Per-sample draw times through sample_frequencies on unit 0's input."""
    from povm_entangle import McConfig, relative_frequencies, sample_frequencies

    counts, mc_seed = wl.replay_input(spec, inputs, 0)
    draws = sample_frequencies(relative_frequencies(counts), McConfig(sample_size=wl.samples, seed=mc_seed))
    times = []
    while True:
        t0 = time.perf_counter()
        if next(draws, None) is None:
            return times
        times.append(time.perf_counter() - t0)


def pool_speedup(wl, spec, inputs) -> float:
    """propagate at 1 worker over propagate at the workload's worker count."""
    from povm_entangle import McConfig, propagate

    if wl.workers < 2:
        return 1.0
    counts, mc_seed = wl.replay_input(spec, inputs, 0)
    walls = []
    for workers in (1, wl.workers):
        t0 = time.perf_counter()
        propagate(counts, McConfig(sample_size=wl.samples, seed=mc_seed, workers=workers))
        walls.append(time.perf_counter() - t0)
    return walls[0] / walls[1]


def per_layer(wl, untraced, traced, spans, draw_times, speedup) -> tuple[dict, str]:
    from workloads import LAMBDA_GRID

    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)

    def durs(name):
        return [(s[4] - s[3]) / 1e9 for s in by_name.get(name, [])]

    def p50(name, scale):
        return _median(durs(name)) * scale

    n_units = len({r.unit for r in untraced})
    passes = max(len(traced) / n_units, 1e-9)  # traced passes, not necessarily whole
    out: dict = {}
    rlt = durs("standard_form.remove_local_terms")
    tail_label, tail_value = _tail(rlt)
    out["standard_form.remove_local_terms_ms.p50"] = (_median(rlt) * 1e3, "ms")
    out["standard_form.remove_local_terms_ms.tail"] = (tail_value * 1e3, "ms")
    out["standard_form.remove_local_terms.calls"] = (len(rlt), "count")
    out["standard_form.diagonalize_correlations_us"] = (p50("standard_form.diagonalize_correlations", 1e6), "us")
    out["standard_form.to_standard_form_ms"] = (p50("standard_form.to_standard_form", 1e3), "ms")
    out["standard_form.back_transform_us"] = (p50("standard_form.back_transform", 1e6), "us")

    draw_s = _median(draw_times)
    out["montecarlo.draw_ms"] = (draw_s * 1e3, "ms")
    out["montecarlo.match_grid_us"] = (p50("montecarlo.match_grid", 1e6), "us")
    out["montecarlo.propagate_s"] = (p50("montecarlo.propagate", 1.0), "s")
    capacity = covered = 0.0
    for prop in by_name.get("montecarlo.propagate", []):
        children = [s for s in spans if s[1] == prop[0]]
        pids = {s[0].split(".")[0] for s in children if s[5]}
        capacity += (prop[4] - prop[3]) / 1e9 * max(len(pids), 1)
        covered += sum(s[4] - s[3] for s in children) / 1e9 + wl.samples * draw_s
    out["montecarlo.unaccounted_frac"] = (1 - covered / capacity if capacity else 0.0, "frac")
    rounds = untraced + traced
    samples = sum(r.ops for r in rounds) if wl.samples else 0
    element_samples = sum(r.element_samples for r in rounds)
    out["montecarlo.excluded_frac"] = (sum(r.excluded for r in rounds) / samples if samples else 0.0, "frac")
    out["montecarlo.permuted_frac"] = (
        sum(r.permuted for r in rounds) / element_samples if element_samples else 0.0, "frac")
    out["montecarlo.pool_speedup"] = (speedup, "ratio")

    out["tomography.from_csv_ms"] = (p50("tomography.from_csv", 1e3), "ms")
    out["tomography.relative_frequencies_us"] = (p50("tomography.relative_frequencies", 1e6), "us")
    out["tomography.reconstruct_povm_us"] = (p50("tomography.reconstruct_povm", 1e6), "us")
    out["tomography.physicality_correct_us"] = (p50("tomography.physicality_correct", 1e6), "us")
    repairs = by_name.get("tomography.physicality_correct", [])
    fired = sum(s[6].get("fired", 0) for s in repairs)
    out["tomography.repair_fired_frac"] = (fired / len(repairs) if repairs else 0.0, "frac")

    out["quasidist.optimal_quasidistribution_us"] = (p50("quasidist.optimal_quasidistribution", 1e6), "us")
    out["quasidist.negativity_report_us"] = (p50("quasidist.negativity_report", 1e6), "us")
    out["simulate.draw_counts_ms"] = (p50("simulate.draw_counts", 1e3), "ms")
    for cmd in ("simulate", "reconstruct", "quasidist", "errors"):
        out[f"cli.{cmd}_s"] = (_median([r.parts[cmd] for r in untraced if cmd in r.parts]), "s")
    out["cli.bytes_written"] = (_median([r.bytes_written for r in untraced]), "bytes")
    out["svg.quasidist_svg_us"] = (p50("svg.quasidist_svg", 1e6), "us")

    for n, d in LAMBDA_GRID:
        key = f"n{n}_d{d}"
        out[f"witness.solve_ms.{key}"] = (_median([r.solve_s for r in traced if r.unit == key]) * 1e3, "ms")
    out["witness.sweeps"] = (sum(r.sweeps for r in traced[:n_units]), "count")
    out["operators.lambda_operator_ms"] = (sum(durs("operators.lambda_operator")) / passes * 1e3, "ms")

    # per traced pass; the untraced plays of the same units give the overhead
    selfs = self_times(spans)
    for layer in LAYERS:
        out[f"self_s.{layer}"] = (selfs.get(layer, 0.0) / passes, "s")
    traced_wall = sum(r.wall_s for r in traced) / passes
    untraced_wall = sum(r.wall_s for r in untraced[: len(traced)]) / passes
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out["trace.overhead_frac"] = ((traced_wall - untraced_wall) / untraced_wall if untraced_wall else 0.0, "frac")
    out["trace.accounted_frac"] = (sum(selfs.values()) / passes / traced_wall if traced_wall else 0.0, "frac")
    out["trace.rounds"] = (len(traced), "count")
    out["trace.spans"] = (len(spans), "count")
    return out, tail_label


def readable(wl, args, metrics: dict, tail: str, rounds, setup, attempted, failed, failures) -> str:
    units = sorted({r.unit for r in rounds})
    lines = [f"== {wl.name}  seed {args.seed}  trace {args.trace}  {len(rounds)} plays of {len(units)} units"
             f"  ({wl.why})"]
    if args.trace:
        for name, (value, unit) in metrics.items():
            note = f"  ({tail})" if name.endswith(".tail") else ""
            lines.append(f"  {name:48s} {value:14.6g} {unit}{note}")
    else:
        med = median_steps(rounds)

        def row(name, xs, unit, what):
            q1, q3 = _quartiles(xs)
            lines.append(f"  {name:22s} {_median(xs):12.6g} {unit:5s} {what} of {len(xs)}, q1 {q1:.6g}, q3 {q3:.6g}")

        def unit_walls(step=None):
            return [sum(t for (u, s), t in med.items() if u == unit and step in (None, s)) for unit in units]

        wall, ops_per_s = pass_times(rounds, med)
        ops_name = "witness_solves_per_s" if wl.name == "witness_grid" else "mc_samples_per_s"
        lines.append(f"  {'setup_s':22s} {metrics['setup_s'][0]:12.6g} s     at the reference speed")
        lines.append(f"  {'ref_wall_s':22s} {metrics['ref_wall_s'][0]:12.6g} s     one pass at the reference speed")
        lines.append(f"  {'ref_ops_per_s':22s} {metrics['ref_ops_per_s'][0]:12.6g} 1/s   {ops_name} at the reference speed")
        row("plain_setup_s", [t for t, _ in setup], "s", "median")
        row("cal_s", [r.cal for r in rounds], "s", f"median {wl.calibration} calibration")
        lines.append(f"  {'wall_s':22s} {wall:12.6g} s     one pass, each step at its median")
        lines.append(f"  {ops_name:22s} {ops_per_s:12.6g} 1/s")
        row("unit_s", unit_walls(), "s", "median over units of the unit's median play")
        row("play_s", [r.wall_s for r in rounds], "s", "median over plays")
        if wl.name == "noisy_chain":
            row("chain_s", unit_walls(), "s", "median over datasets of the median chain")
            row("report_s", unit_walls("quasidist"), "s", "median over datasets of the median quasidist")
        lines.append(f"  {'failed_frac':22s} {failed / attempted:12.6g} frac  {failed} of {attempted}")
        lines.append(f"  {'peak_rss_mb':22s} {metrics['peak_rss_mb'][0]:12.6g} MB")
    lines += [f"  FAILED: {f}" for f in failures[:20]]
    return "\n".join(lines)


def run_workload(args, root: Path, src: Path) -> int:
    # imported here: the package becomes importable once src/ is on the path
    from workloads import WORKLOADS, Context

    wl = WORKLOADS[args.workload](tiny=args.size == "tiny")
    workdir = root / WORK_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    results = root / WORK_DIR / "results"
    inputs = workdir / "inputs"
    try:
        spec = wl.make_inputs(args.seed, inputs)
        setup = [measure_setup(root, inputs) for _ in range(2 if args.size == "tiny" else SETUP_REPEATS)]
        ctx = Context(root=root, workdir=workdir, env=dict(os.environ))
        if args.trace:
            ctx.trace_dir = workdir / "spans"
            ctx.tracer = Tracer(ctx.trace_dir)
        untraced, traced = run_passes(wl, ctx, spec, inputs, args.seconds, bool(args.trace))
        rounds = untraced + traced
        attempted = sum(r.attempted + r.ops for r in rounds)
        bad = sum(r.failed for r in rounds)
        failed = bad + sum(r.excluded for r in rounds)
        failures = [f for r in rounds for f in r.failures]
        if args.trace:
            spans = ctx.tracer.spans + load_spans(ctx.trace_dir)
            draws = replay_draws(wl, spec, inputs) if wl.samples else []
            speedup = pool_speedup(wl, spec, inputs) if wl.name == "noisy_chain" else 0.0
            metrics, tail = per_layer(wl, untraced, traced, spans, draws, speedup)
        else:
            spans, tail = [], ""
            metrics = end_to_end(wl, untraced, setup)
        print(readable(wl, args, metrics, tail, untraced, setup, attempted, failed, failures), file=sys.stderr)
        record = {
            "workload": wl.name,
            "why": wl.why,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "size": args.size,
            "environment": environment(root, src),
            "units": spec["units"],
            "runs": {"plays": len(untraced), "traced_plays": len(traced), "setup_repeats": len(setup)},
            "setup_s": [t for t, _ in setup],
            "setup_cal_s": [cal for _, cal in setup],
            "calibration": wl.calibration,
            "plays": [{"unit": r.unit, "steps_s": r.parts, "cal_s": r.cal} for r in untraced],
            "traced_plays": [{"unit": r.unit, "steps_s": r.parts} for r in traced],
            "attempted": attempted,
            "failed": failed,
            "failures": failures,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
        (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
        if spans:
            with (results / f"{stem}-spans.jsonl").open("w") as fh:
                for s in spans:
                    fh.write(json.dumps(s) + "\n")
        result = {
            "correct": bad == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": record["metrics"],
        }
        print(json.dumps(result))
        return 0 if bad == 0 else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args, root: Path) -> int:
    """Every workload in turn, each in its own process; metrics keyed workload.metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 and not lines:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        code = code or proc.returncode
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every round, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    root = Path.cwd()
    src = root / "src"
    if not (src / "povm_entangle" / "__init__.py").is_file():
        print("perfbench: no src/povm_entangle here; run from the repository root", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    if args.workload == "all":
        return run_all(args, root)
    tmp = root / WORK_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    sys.path.insert(0, str(src))
    return run_workload(args, root, src)


if __name__ == "__main__":
    sys.exit(main())
