"""Command line interface.

Subcommands cover the whole workflow: simulate coincidence data, reconstruct
and repair the POVM, derive standard forms and optimal quasidistributions
with SVG charts, propagate counting errors, evaluate probe witnesses, and
merge outcome groups.  All JSON output is canonical (sorted keys, two-space
indent, trailing newline) and embeds a run manifest, so reruns with equal
inputs are byte identical.

Canonical JSON: `_canonical` is the one writer, and its bytes equal
`json.dumps(obj, indent=2, sort_keys=True) + "\n"` for every input that call
accepts; what it refuses, it refuses with the same error.  With `indent`,
the stdlib runs its pure-Python encoder, so `_encode` walks dicts and lists
itself and hands each scalar, each container of scalars and strings, and
each grid (a list of scalar lists) to the stdlib's C encoder, then turns the
C encoder's ", " separators into indented lines; a container where a string
holds ", " is walked instead.  Anything else, and everything without the C
encoder, goes to the stdlib encoder.  Input files are read as UTF-8 with an
optional byte-order mark.

Arguments: one table, `_COMMANDS`, declares each command and its options,
and feeds both the command's `argparse` parser and the mode checks.  A
parser is built the first time its command runs and kept for the process,
so a caller that runs commands in one process builds each only once.
Prefixes of an option are refused, an option set explicitly counts as given
even at its default value, and a value option takes the next argument as
is, even when it starts with "-".  A usage error prints the usage line and
returns 1; `main` returns an exit code and never raises `SystemExit`.

Start-up: this module imports only what every command shares (numpy, the
error classes and the standard library's `argparse`).  Each command imports
its own layers when it runs, and so do the readers: the counts and
basis-map readers import `tomography`, the POVM reader the operator layer.
A process so compiles and executes only the modules its command uses.
`reconstruct` never loads the Monte Carlo, witness or simulator modules,
nor `numpy.random`; `errors` on data the closed form covers loads neither
the operator layer nor the standard form; `quasidist` and `witness` load
no `tomography`.

Exit: `process_main`, the entry of `python -m povm_entangle.cli` and of the
`povm-entangle` script, freezes the heap (`gc.freeze`) once `main` has
returned.  The interpreter's finalization would otherwise run full cyclic
collections over the some 22 000 objects numpy and the package leave
tracked, about 20 ms a process, more than most commands' own work; it still
clears modules, frees objects by reference count, flushes stdout and stderr
and runs atexit handlers.  `main` itself leaves the collector alone, since
its in-process callers (tests, scripts, benchmarks) go on running.

Exit codes: 0 success, 1 usage, 2 invalid data, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, NoReturn

import numpy as np

from . import __version__
from .errors import ConvergenceError, ValidationError

if TYPE_CHECKING:
    from .operators import PovmSet
    from .tomography import BasisMap, CoincidenceCounts


def _manifest(command: str, **params) -> dict:
    return {
        "tool": "povm-entangle",
        "version": __version__,
        "command": command,
        "parameters": params,
    }


_SCALARS = frozenset({float, int, bool, type(None)})
_LEAVES = _SCALARS | {str}
_STR = frozenset({str})
_SEQS = frozenset({list, tuple})
# one indent level past this, a subtree goes to the stdlib encoder, which
# also catches circular references
_DEEPEST = 1 + 2 * 64
_escape = json.encoder.encode_basestring_ascii
_c_make = json.encoder.c_make_encoder
# the stdlib's C encoder with json.dumps' defaults and no indent: it writes
# each scalar, string and key as the pure-Python encoder does, with ", "
# between items and ": " after keys
_c_encode = _c_make and _c_make(
    None, json.JSONEncoder().default, _escape, None, ": ", ", ", True, False, True
)


def _encode(o, pad: str) -> str:
    """The text json.dumps(o, indent=2, sort_keys=True) gives o at indent pad.

    pad is a newline and two spaces per enclosing level.  Dicts with str keys,
    lists and tuples are walked here.  A container of scalars and strings
    comes from one C-encoder call, re-indented at its ", " separators when
    it holds exactly len - 1 of them, that is when no string holds one; a
    list of non-empty scalar lists, a grid, likewise, its rows split at
    "], [" (marked by a NUL, which no scalar's text holds).
    Anything else goes to the stdlib encoder, whose newlines are then
    re-indented.
    """
    t = type(o)
    if t is str:
        return _escape(o)
    if t in _SCALARS:
        return "".join(_c_encode(o, 0))
    is_dict = t is dict and _STR.issuperset(map(type, o))
    if len(pad) < _DEEPEST and (is_dict or t is list or t is tuple):
        if not o:
            return "{}" if is_dict else "[]"
        inner = pad + "  "
        if _LEAVES.issuperset(map(type, o.values() if is_dict else o)):
            flat = "".join(_c_encode(o, 0))
            if flat.count(", ") == len(o) - 1:
                return flat[0] + inner + flat[1:-1].replace(", ", "," + inner) + pad + flat[-1]
        elif (
            not is_dict
            and _SEQS.issuperset(map(type, o))
            and all(o)
            and _SCALARS.issuperset(map(type, chain.from_iterable(o)))
        ):
            row = inner + "  "
            flat = "".join(_c_encode(o, 0))[2:-2].replace("], [", "\0")
            body = flat.replace(", ", "," + row).replace("\0", inner + "]," + inner + "[" + row)
            return "[" + inner + "[" + row + body + inner + "]" + pad + "]"
        if is_dict:
            items = [_escape(k) + ": " + _encode(o[k], inner) for k in sorted(o)]
            return "{" + inner + ("," + inner).join(items) + pad + "}"
        return "[" + inner + ("," + inner).join([_encode(v, inner) for v in o]) + pad + "]"
    return json.dumps(o, indent=2, sort_keys=True).replace("\n", pad)


def _canonical(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) plus a newline, byte for byte."""
    if _c_encode is None:
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    return _encode(obj, "\n") + "\n"


def _emit(obj: dict, out: str | None):
    text = _canonical(obj)
    if out is None:
        print(text, end="", flush=True)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _read_text(path: str) -> str:
    """UTF-8 text of an input file, less any byte-order mark; any failure to
    read it is invalid data."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise ValidationError(f"no such file: {path}") from None
    except UnicodeDecodeError as e:
        raise ValidationError(f"{path} is not UTF-8 text: {e}") from None
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e.strerror or e}") from None


def _load_json(path: str) -> dict:
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path} is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{path} must hold a JSON object, got {type(data).__name__}")
    return data


def _read_basis_map(path: str | None) -> BasisMap | None:
    if path is None:
        return None
    from .tomography import BasisMap

    return BasisMap.from_dict(_load_json(path))


def _read_counts(path: str, basis_map: BasisMap | None = None) -> CoincidenceCounts:
    from .tomography import CoincidenceCounts

    if path.endswith(".json"):
        if basis_map is not None:
            raise ValidationError(
                f"--basis-map applies only to CSV counts; JSON counts ({path}) carry their own"
            )
        return CoincidenceCounts.from_json_dict(_load_json(path))
    return CoincidenceCounts.from_csv(_read_text(path), basis_map=basis_map)


def _write_counts(data: CoincidenceCounts, out: str | None, manifest: dict):
    """Counts as JSON with the manifest when out ends in .json, else as CSV."""
    if out is not None and out.endswith(".json"):
        _emit({"manifest": manifest, **data.to_json_dict()}, out)
    elif out is None:
        print(data.to_csv(), end="", flush=True)
    else:
        Path(out).write_text(data.to_csv(), encoding="utf-8")


def _read_povm(path: str) -> PovmSet:
    """A bare POVM record, or the corrected POVM of reconstruct's output."""
    from .operators import PovmSet

    d = _load_json(path)
    return PovmSet.from_dict(d.get("corrected_povm", d))


def _check_mode(command: str, given: frozenset[str], mode: str, needs: set[str], reads: set[str]):
    """Usage error unless the options in needs are all given and every other
    given option is in reads.  An option counts as given when it is on the
    command line, so an explicit default value counts too."""
    options = _COMMANDS[command][1]
    missing = [o.flags[0] for o in options if o.dest in needs - given]
    if missing:
        raise _UsageError(f"{mode} needs {', '.join(missing)}", f"{_PROG} {command}")
    unread = [o.flags[0] for o in options if o.dest in given - needs - reads]
    if unread:
        raise _UsageError(f"{mode} takes no {', '.join(unread)}", f"{_PROG} {command}")


def _file_stems(labels) -> dict[str, str]:
    """Each element label's part of its output file names; labels that would
    share one, or that cannot name a file (a NUL byte, or a character the
    file system's encoding lacks), are refused before any file is written."""
    owner: dict[str, str] = {}
    for label in labels:
        stem = label.replace("/", "_").replace("\\", "_")
        try:
            os.fsencode(stem)
        except UnicodeEncodeError:
            raise ValidationError(f"label {label!r} cannot name a file in the file system's encoding") from None
        if "\0" in stem:
            raise ValidationError(f"label {label!r} holds a NUL byte and cannot name a file")
        if owner.setdefault(stem, label) != label:
            raise ValidationError(f"labels {owner[stem]!r} and {label!r} would share the file name {stem!r}")
    return {label: stem for stem, label in owner.items()}


def simulate(given, model_path, povm_path, eps, counts, indefiniteness, seed, basis_map_path, out):
    """Draw synthetic coincidence counts from a detector model."""
    from .simulate import DetectorModel, bell_model, draw_counts, model_from_spec
    from .tomography import BasisMap

    if model_path is not None:
        # the spec carries the model's own fields; only --seed overrides one
        _check_mode("simulate", given, "--model", {"model_path"}, {"seed", "out"})
        model, model_seed = model_from_spec(_load_json(model_path))
    else:
        model_seed = 0
        basis_map = _read_basis_map(basis_map_path)
        if povm_path is None or povm_path.lower() == "bell":
            model = bell_model(eps, counts, indefiniteness, basis_map)
        else:
            model = DetectorModel(
                povm=_read_povm(povm_path),
                eps=eps,
                counts_per_setting=counts,
                basis_map=basis_map or BasisMap.default(),
                indefiniteness=indefiniteness,
            )
    used_seed = model_seed if seed is None else seed
    manifest = _manifest(
        "simulate",
        eps=model.eps,
        counts_per_setting=model.counts_per_setting,
        indefiniteness=model.indefiniteness,
        seed=used_seed,
    )
    _write_counts(draw_counts(model, used_seed), out, manifest)


def reconstruct(given, counts_path, basis_map_path, margin, out):
    """Linearly invert counts into a POVM and repair indefiniteness."""
    from .tomography import (
        closest_bell_labels,
        physicality_correct,
        reconstruct_correlations,
        reconstruct_povm,
        relative_frequencies,
    )

    basis_map = _read_basis_map(basis_map_path)
    data = _read_counts(counts_path, basis_map)
    freqs = relative_frequencies(data)
    raw = reconstruct_povm(freqs)
    corrected, p, lam = physicality_correct(raw, margin=margin)
    corrs = reconstruct_correlations(freqs)
    total = sum(el.matrix for el in raw.elements)
    residual = float(np.max(np.abs(total - np.eye(4))))
    payload = {
        "manifest": _manifest("reconstruct", counts=counts_path, margin=margin),
        "raw_povm": raw.to_dict(),
        "corrected_povm": corrected.to_dict(),
        "lambda": lam,
        "p": p,
        "completeness_residual": residual,
        "correlations": {
            label: c.tolist() for label, c in zip(raw.labels, corrs)
        },
        "bell_match": closest_bell_labels(corrected),
    }
    _emit(payload, out)


def quasidist(given, povm_path, out_dir):
    """Standard forms, optimal quasidistributions, and SVG charts per element."""
    from .operators import bloch_vector
    from .quasidist import LABELS, negativity_report, optimal_quasidistribution
    from .standard_form import _MAX_SWEEPS, back_transform, to_standard_form
    from .svg import quasidist_svg

    povm = _read_povm(povm_path)
    stems = _file_stems(povm.labels)
    outp = Path(out_dir)
    outp.mkdir(parents=True, exist_ok=True)
    manifest = _manifest("quasidist", povm=povm_path, max_iter=_MAX_SWEEPS)
    summary: dict = {"manifest": manifest, "elements": {}, "failed": []}
    for label, element in povm.items():
        try:
            form = to_standard_form(element)
        except ConvergenceError as e:
            summary["elements"][label] = {"error": str(e), "residual": e.residual}
            summary["failed"].append(label)
            continue
        qdist = optimal_quasidistribution(form)
        report = negativity_report(qdist)
        tilde = back_transform(form, qdist)
        bloch_a = [bloch_vector(s) for s in tilde.states_a]
        bloch_b = [bloch_vector(s) for s in tilde.states_b]
        fname = f"element_{stems[label]}.json"
        payload = {
            "manifest": manifest,
            "label": label,
            "standard_form": form.to_dict(),
            "quasidistribution": qdist.to_dict(),
            "negativity": report.to_dict(),
            "tilde": {
                "states_a": [[[v.real, v.imag] for v in s] for s in tilde.states_a.tolist()],
                "states_b": [[[v.real, v.imag] for v in s] for s in tilde.states_b.tolist()],
                "bloch_a": [v.tolist() for v in bloch_a],
                "bloch_b": [v.tolist() for v in bloch_b],
                "grid": tilde.grid.tolist(),
            },
        }
        Path(outp / fname).write_text(_canonical(payload), encoding="utf-8")
        footer = tuple(
            "A %s: (%.4f, %.4f, %.4f)" % ((LABELS[k],) + tuple(bloch_a[k])) for k in range(6)
        ) + tuple(
            "B %s: (%.4f, %.4f, %.4f)" % ((LABELS[k],) + tuple(bloch_b[k])) for k in range(6)
        )
        svg = quasidist_svg(
            qdist.grid,
            title=f"Optimal quasidistribution: element {label}",
            q=qdist.q,
            footer_lines=footer,
        )
        Path(outp / f"element_{stems[label]}.svg").write_text(svg, encoding="utf-8")
        summary["elements"][label] = {
            "q": qdist.q,
            "max_negativity": report.max_negativity,
            "cumulative_negativity": report.cumulative_negativity,
            "verdict": report.verdict,
            "file": fname,
        }
    Path(outp / "summary.json").write_text(_canonical(summary), encoding="utf-8")
    if summary["failed"]:
        raise ConvergenceError(
            "standard form failed for element(s): " + ", ".join(summary["failed"])
        )


def errors(given, counts_path, basis_map_path, samples, inflation, seed, workers, margin, out_dir):
    """Propagate counting statistics through the pipeline by resampling."""
    from .montecarlo import McConfig, propagate
    from .svg import quasidist_svg

    basis_map = _read_basis_map(basis_map_path)
    data = _read_counts(counts_path, basis_map)
    stems = _file_stems(data.outcomes) if out_dir is not None else None
    cfg = McConfig(sample_size=samples, inflation=inflation, seed=seed, workers=workers)
    report = propagate(data, cfg, margin=margin)
    manifest = _manifest(
        "errors",
        counts=counts_path,
        samples=samples,
        inflation=inflation,
        seed=seed,
        margin=margin,
    )
    if out_dir is None:
        _emit({"manifest": manifest, **report.to_dict()}, None)
        return
    outp = Path(out_dir)
    outp.mkdir(parents=True, exist_ok=True)
    summary: dict = {
        "manifest": manifest,
        "sample_size": cfg.sample_size,
        "inflation": cfg.inflation,
        "seed": cfg.seed,
        "retained": report.retained,
        "excluded": report.excluded,
        "elements": {},
    }
    for e in report.elements:
        fname = f"errors_{stems[e.label]}.json"
        Path(outp / fname).write_text(_canonical({"manifest": manifest, **e.to_dict()}), encoding="utf-8")
        svg = quasidist_svg(
            e.grid_reference,
            title=f"Quasidistribution with error bars: element {e.label}",
            q=e.q_reference,
            sigma=e.grid_std,
        )
        Path(outp / f"errors_{stems[e.label]}.svg").write_text(svg, encoding="utf-8")
        summary["elements"][e.label] = {
            "q_mean": e.q_mean,
            "q_std": e.q_std,
            "max_negativity_mean": e.max_negativity_mean,
            "max_negativity_std": e.max_negativity_std,
            "negativity_significance": (
                e.negativity_significance if np.isfinite(e.negativity_significance) else None
            ),
            "file": fname,
        }
    Path(outp / "summary.json").write_text(_canonical(summary), encoding="utf-8")


# each witness mode's options: those it needs, then the others it reads
_WITNESS_MODES = {
    "--lambda": ({"n", "d"}, {"lambda_mode", "restarts", "seed", "out"}),
    "element mode": ({"povm_path", "element_label"}, {"family", "numeric", "restarts", "seed", "out"}),
    "--family ghz": ({"n"}, {"family", "eps", "numeric", "restarts", "seed", "out"}),
    "--family me": ({"d"}, {"family", "eps", "numeric", "restarts", "seed", "out"}),
}


def witness(given, family, n, d, eps, povm_path, element_label, lambda_mode, numeric, restarts, seed, out):
    """Evaluate probe-state witnesses or cross-check separability bounds."""
    from .operators import lambda_operator, noisy_ghz_element, noisy_me_element
    from .witness import (
        ghz_probe,
        lambda_gmax_analytic,
        me_probe,
        noise_threshold,
        separability_eigenvalue_numeric,
        witness_evaluate,
    )

    if lambda_mode:
        mode = "--lambda"
    elif povm_path is not None or element_label is not None:
        mode = "element mode"
    elif family is not None:
        mode = f"--family {family}"
    else:
        raise _UsageError("pick a mode: --family, --povm/--element, or --lambda", f"{_PROG} witness")
    _check_mode("witness", given, mode, *_WITNESS_MODES[mode])
    if lambda_mode:
        op = lambda_operator(n, d)
        analytic = lambda_gmax_analytic(n, d)
        res = separability_eigenvalue_numeric(op, restarts=restarts, seed=seed)
        payload = {
            "manifest": _manifest("witness", mode="lambda", n=n, d=d, restarts=restarts, seed=seed),
            "mode": "lambda",
            "n": n,
            "d": d,
            "analytic": analytic,
            "numeric": res.gmax,
            "difference": analytic - res.gmax,
            "converged": res.converged,
        }
        _emit(payload, out)
        return
    if mode == "element mode":
        povm = _read_povm(povm_path)
        element = povm.element(element_label)
        if family == "ghz":
            if any(p != 2 for p in element.parties):
                raise ValidationError("ghz probe needs qubit parties")
            probe = ghz_probe(len(element.parties))
        else:
            if len(element.parties) != 2 or element.parties[0] != element.parties[1]:
                raise ValidationError("me probe needs two equal-dimension parties")
            probe = me_probe(element.parties[0])
        result = witness_evaluate(
            element, probe, numeric=numeric, restarts=restarts, seed=seed
        )
        payload = {
            "manifest": _manifest(
                "witness",
                mode="element",
                povm=povm_path,
                element=element_label,
                family=family or "me",
                numeric=numeric,
                restarts=restarts,
                seed=seed,
            ),
            "mode": "element",
            "element": element_label,
            **result.to_dict(),
        }
        _emit(payload, out)
        return
    if family == "ghz":
        element = noisy_ghz_element(n, eps)
        probe = ghz_probe(n)
        threshold = noise_threshold("ghz", n)
        size = n
    else:
        element = noisy_me_element(d, eps)
        probe = me_probe(d)
        threshold = noise_threshold("me", d)
        size = d
    result = witness_evaluate(element, probe, numeric=numeric, restarts=restarts, seed=seed)
    payload = {
        "manifest": _manifest(
            "witness",
            mode="family",
            family=family,
            size=size,
            eps=eps,
            numeric=numeric,
            restarts=restarts,
            seed=seed,
        ),
        "mode": "family",
        "family": family,
        "size": size,
        "eps": eps,
        "noise_threshold": threshold,
        **result.to_dict(),
    }
    _emit(payload, out)


def combine(given, counts_path, basis_map_path, groups, out):
    """Merge outcome groups by summing their counts."""
    from .tomography import combine_outcomes

    basis_map = _read_basis_map(basis_map_path)
    data = _read_counts(counts_path, basis_map)
    parsed = [[lbl.strip() for lbl in grp.split("+")] for grp in groups.split(",") if grp]
    manifest = _manifest("combine", counts=counts_path, groups=groups)
    _write_counts(combine_outcomes(data, parsed), out, manifest)


class _Option(NamedTuple):
    """A command line option: its flags, the first of which messages name, the
    parameter it sets, its help, and how its value is read."""

    flags: tuple[str, ...]
    dest: str
    help: str
    parse: type | None = str  # None: an on/off flag
    default: object = None
    required: bool = False
    choices: tuple[str, ...] | None = None


_COUNTS = _Option(("--counts",), "counts_path", "Coincidence counts (.csv or .json).", required=True)
_BASIS_MAP = _Option(("--basis-map",), "basis_map_path", "Basis map JSON (CSV input only).")

# every command, and its options in the order its help lists them; a command
# is called with the set of options given, then every option's value by name
_COMMANDS = {
    "simulate": (simulate, (
        _Option(("--model",), "model_path", "JSON model spec file."),
        _Option(("--povm",), "povm_path", "'bell' or a POVM JSON to simulate (default: Bell analyzer)."),
        _Option(("--eps",), "eps", "White noise fraction.", float, 0.0),
        _Option(("--counts",), "counts", "Events per setting pair.", int, 10000),
        _Option(("--indefiniteness",), "indefiniteness", "Zero-sum probability distortion amplitude.", float, 0.0),
        _Option(("--seed",), "seed", "RNG seed (default: the --model spec's seed, else 0).", int),
        _Option(("--basis-map",), "basis_map_path", "Basis map JSON file."),
        _Option(("--out", "-o"), "out", "Output file (.csv or .json; default: CSV to stdout)."),
    )),
    "reconstruct": (reconstruct, (
        _COUNTS,
        _BASIS_MAP,
        _Option(("--margin",), "margin", "Eigenvalue margin for the physicality correction.", float, 1e-5),
        _Option(("--out", "-o"), "out", "Output JSON file (default: stdout)."),
    )),
    "quasidist": (quasidist, (
        _Option(("--povm",), "povm_path", "POVM JSON (bare or reconstruct output).", required=True),
        _Option(("--out", "-o"), "out_dir", "Output directory.", required=True),
    )),
    "errors": (errors, (
        _COUNTS,
        _BASIS_MAP,
        _Option(("--samples",), "samples", "Monte Carlo sample count.", int, 10000),
        _Option(("--inflation",), "inflation", "Covariance factor inflation.", float, 1.05),
        _Option(("--seed",), "seed", "RNG seed.", int, 0),
        _Option(("--workers",), "workers", "Sample shares run in parallel, one forked process per usable CPU at most.", int, 1),
        _Option(("--margin",), "margin", "Physicality margin.", float, 1e-5),
        _Option(("--out", "-o"), "out_dir", "Output directory (default: summary to stdout)."),
    )),
    "witness": (witness, (
        _Option(("--family",), "family", "Probe family.", choices=("ghz", "me")),
        _Option(("-n",), "n", "Qubit number for the ghz family.", int),
        _Option(("-d",), "d", "Local dimension for the me family.", int),
        _Option(("--eps",), "eps", "White noise fraction (family mode).", float, 0.0),
        _Option(("--povm",), "povm_path", "POVM JSON for element mode."),
        _Option(("--element",), "element_label", "Element label within the POVM."),
        _Option(("--lambda",), "lambda_mode", "Cross-check the analytic bound against the numeric solver.", None, False),
        _Option(("--numeric",), "numeric", "Use the numeric lower bound for the verdict.", None, False),
        _Option(("--restarts",), "restarts", "Solver restarts.", int, 64),
        _Option(("--seed",), "seed", "Solver seed.", int, 0),
        _Option(("--out", "-o"), "out", "Output JSON file (default: stdout)."),
    )),
    "combine": (combine, (
        _COUNTS,
        _BASIS_MAP,
        _Option(("--groups",), "groups", "Merge spec, e.g. 'AA+AD,DA+DD'.", required=True),
        _Option(("--out", "-o"), "out", "Output file (.csv or .json; default: CSV to stdout)."),
    )),
}

_PROG = "povm-entangle"
_TOP_USAGE = f"{_PROG} [OPTIONS] COMMAND [ARGS]..."
_METAVARS = {str: "TEXT", int: "INTEGER", float: "FLOAT"}


class _UsageError(Exception):
    """A command line that cannot run; main prints it under the usage line of
    prog and returns 1."""

    def __init__(self, message: str, prog: str):
        super().__init__(message)
        self.prog = prog


class _Exit(Exception):
    """Raised where argparse would exit, that is after printing --help."""

    def __init__(self, status: int):
        super().__init__(status)
        self.status = status


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message, self.prog)

    def exit(self, status=0, message=None):
        raise _Exit(status)


class _Formatter(argparse.HelpFormatter):
    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


@functools.cache
def _parser(command: str) -> _Parser:
    """The command's parser, built on its first use and kept for the process."""
    fn, options = _COMMANDS[command]
    parser = _Parser(
        prog=f"{_PROG} {command}",
        usage="%(prog)s [OPTIONS]",
        description=fn.__doc__,
        formatter_class=_Formatter,
        add_help=False,
        allow_abbrev=False,
    )
    group = parser.add_argument_group("Options")
    for o in options:
        # an option not given stays out of the namespace, so that a given
        # default value can be told from a default taken
        if o.parse is None:
            group.add_argument(*o.flags, dest=o.dest, action="store_true", default=argparse.SUPPRESS, help=o.help)
            continue
        note = "  [required]" if o.required else "" if o.default is None else f"  [default: {o.default}]"
        group.add_argument(
            *o.flags,
            dest=o.dest,
            type=o.parse,
            choices=o.choices,
            default=argparse.SUPPRESS,
            metavar=f"[{'|'.join(o.choices)}]" if o.choices else _METAVARS[o.parse],
            help=o.help + note,
        )
    group.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


def _attached(args: list[str], options) -> list[str]:
    """args with each value option's next argument attached to it as
    --opt=value, so that a value starting with "-", such as --eps -1e-3, is
    read as the value; an option with nothing after it is left to the parser."""
    takes_value = {flag for o in options if o.parse is not None for flag in o.flags}
    out, i = [], 0
    while i < len(args):
        if args[i] in takes_value and i + 1 < len(args):
            out.append(f"{args[i]}={args[i + 1]}")
            i += 2
        else:
            out.append(args[i])
            i += 1
    return out


def _overview() -> str:
    """The top-level help: usage, options, and one line per command."""
    width = max(map(len, _COMMANDS))
    commands = "".join(f"  {name:<{width}}  {fn.__doc__}\n" for name, (fn, _) in sorted(_COMMANDS.items()))
    return (
        f"Usage: {_TOP_USAGE}\n\n"
        "  Detector tomography, quasidistributions, and entanglement witnesses.\n\n"
        "Options:\n"
        "  --version  Show the version and exit.\n"
        "  --help     Show this message and exit.\n\n"
        f"Commands:\n{commands}"
    )


def _run(args: list[str]) -> int:
    if not args:
        # no command is a usage error that shows the overview
        sys.stderr.write(_overview())
        return 1
    command, rest = args[0], args[1:]
    if command == "--help":
        sys.stdout.write(_overview())
        return 0
    if command == "--version":
        print(f"{_PROG}, version {__version__}")
        return 0
    if command not in _COMMANDS:
        kind = "option" if command.startswith("-") else "command"
        raise _UsageError(f"No such {kind} '{command}'.", _PROG)
    fn, options = _COMMANDS[command]
    given = vars(_parser(command).parse_args(_attached(rest, options)))
    # checked here, after the parser has refused any unknown argument
    missing = [o.flags[0] for o in options if o.required and o.dest not in given]
    if missing:
        raise _UsageError(f"Missing option '{missing[0]}'.", f"{_PROG} {command}")
    fn(frozenset(given), **{o.dest: given.get(o.dest, o.default) for o in options})
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit code mapping."""
    try:
        return _run(sys.argv[1:] if argv is None else list(argv))
    except _Exit as e:
        return e.status
    except _UsageError as e:
        usage = _TOP_USAGE if e.prog == _PROG else f"{e.prog} [OPTIONS]"
        sys.stderr.write(f"Usage: {usage}\nTry '{e.prog} --help' for help.\n\nError: {e}\n")
        return 1
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ConvergenceError, np.linalg.LinAlgError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


def process_main() -> NoReturn:
    """Process entry of `python -m povm_entangle.cli` and the `povm-entangle`
    script: runs main, then exits with its code.

    Once main has returned, the heap is frozen, so the interpreter's
    finalization skips the cyclic collector's walks over the objects numpy
    and the package leave tracked; modules are still cleared, objects freed
    by reference count, stdout and stderr flushed and atexit handlers run.
    main leaves the collector alone, since its callers go on running.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    process_main()
