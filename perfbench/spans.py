"""In-memory spans around calls into povm_entangle's public functions.

The tracer wraps a fixed list of public functions from the benchmark side:
every module-level name in the package that refers to one of them is
rebound to a timing wrapper, so nested calls (``to_standard_form`` calling
``remove_local_terms``) nest their spans.  Nothing in the package itself is
edited.  A span is ``[id, parent, name, start_ns, end_ns, worker, attrs]``;
the layer of a span is the part of its name before the first dot.

Spans are kept in memory and written out as JSON lines, one file per
process, when the process is done: the benchmark process and CLI
subprocesses call ``dump`` themselves, and pool workers forked by
``propagate`` dump from a multiprocessing finalizer at worker exit.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from multiprocessing import util as mp_util
from pathlib import Path

PARENT_ENV = "PERFBENCH_PARENT_SPAN"
DIR_ENV = "PERFBENCH_TRACE_DIR"

# module -> public functions whose calls get a span named "<module>.<function>"
TRACED_FUNCTIONS = {
    "simulate": ("draw_counts",),
    "tomography": (
        "relative_frequencies",
        "reconstruct_povm",
        "reconstruct_correlations",
        "physicality_correct",
        "closest_bell_labels",
    ),
    "standard_form": (
        "to_standard_form",
        "remove_local_terms",
        "diagonalize_correlations",
        "back_transform",
    ),
    "quasidist": ("optimal_quasidistribution", "negativity_report"),
    "montecarlo": ("propagate", "match_grid"),
    "witness": ("separability_eigenvalue_numeric", "witness_evaluate"),
    "operators": ("lambda_operator", "noisy_ghz_element", "noisy_me_element"),
    "svg": ("quasidist_svg",),
}
# module -> class -> classmethods, traced as "<module>.<method>"
TRACED_METHODS = {"tomography": {"CoincidenceCounts": ("from_csv", "from_json_dict")}}
PACKAGE_MODULES = (
    "operators",
    "tomography",
    "standard_form",
    "quasidist",
    "montecarlo",
    "witness",
    "simulate",
    "svg",
    "cli",
)


def _repair_fired(result) -> dict:
    return {"fired": int(result[1] > 0)}


# attributes read off a traced call's return value
ANNOTATE = {"tomography.physicality_correct": _repair_fired}


class Tracer:
    """Span recorder for one process; spans nest through an explicit stack."""

    def __init__(self, out_dir: Path, parent: str | None = None):
        self.out_dir = Path(out_dir)
        self.spans: list[list] = []
        self.stack: list[str] = [parent] if parent else []
        self.worker = False
        self._count = 0
        self._patches: list[tuple[object, str, object]] = []
        mp_util.register_after_fork(self, Tracer._enter_worker)

    def _enter_worker(self):
        # a forked pool worker keeps the parent's stack, so its spans hang
        # under the caller's propagate span; it drops the parent's records
        self.spans = []
        self.worker = True
        mp_util.Finalize(None, self.dump, exitpriority=0)

    def _open(self) -> tuple[str, str | None]:
        self._count += 1
        sid = f"{os.getpid()}.{self._count}"
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0, attrs):
        t1 = time.monotonic_ns()
        self.stack.pop()
        self.spans.append([sid, parent, name, t0, t1, self.worker, attrs])

    @contextmanager
    def span(self, name: str):
        """Span around a block; yields the span id for child processes."""
        sid, parent = self._open()
        t0 = time.monotonic_ns()
        try:
            yield sid
        finally:
            self._close(sid, parent, name, t0, {})

    def wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            t0 = time.monotonic_ns()
            attrs: dict = {}
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                self._close(sid, parent, name, t0, attrs)
            if annotate is not None:
                attrs.update(annotate(result))
            return result

        return traced

    def install(self):
        """Rebind every package-level reference to a traced function."""
        import importlib

        modules = [importlib.import_module("povm_entangle")]
        modules += [importlib.import_module(f"povm_entangle.{m}") for m in PACKAGE_MODULES]
        for layer, names in TRACED_FUNCTIONS.items():
            home = importlib.import_module(f"povm_entangle.{layer}")
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self.wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)
        for layer, classes in TRACED_METHODS.items():
            home = importlib.import_module(f"povm_entangle.{layer}")
            for cname, methods in classes.items():
                cls = getattr(home, cname)
                for mname in methods:
                    orig = cls.__dict__[mname]
                    self._patches.append((cls, mname, orig))
                    setattr(cls, mname, classmethod(self.wrap(f"{layer}.{mname}", orig.__func__)))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def dump(self):
        if not self.spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("a") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
        self.spans = []


def load_spans(out_dir: Path) -> list[list]:
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with path.open() as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds of self time per layer along the benchmark's own timeline.

    A span's self time is its duration minus the durations of its children.
    Pool-worker spans run beside their parent, not inside its timeline, so
    they are left out here: their time shows as the waiting ``propagate``.
    """
    child_ns: dict[str, int] = {}
    for sid, parent, name, t0, t1, worker, _ in spans:
        if not worker and parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
    out: dict[str, float] = {}
    for sid, parent, name, t0, t1, worker, _ in spans:
        if worker:
            continue
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (t1 - t0 - child_ns.get(sid, 0)) / 1e9
    return out
