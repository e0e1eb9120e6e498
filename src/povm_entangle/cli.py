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

Start-up: this module imports only what every command shares (the error
classes, the counts and basis-map readers, and `PovmSet`); each command
imports its own layers when it runs, so a process compiles and executes
only the modules its command uses.  `reconstruct` never loads the Monte
Carlo, witness or simulator modules, nor `numpy.random`.

Exit codes: 0 success, 1 usage, 2 invalid data, 3 numeric failure.
"""

from __future__ import annotations

import json
import sys
from itertools import chain
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import __version__
from .errors import ConvergenceError, ValidationError
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
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text)


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
    return BasisMap.from_dict(_load_json(path))


def _read_counts(path: str, basis_map: BasisMap | None = None) -> CoincidenceCounts:
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
        click.echo(data.to_csv(), nl=False)
    else:
        Path(out).write_text(data.to_csv())


def _read_povm(path: str) -> PovmSet:
    """A bare POVM record, or the corrected POVM of reconstruct's output."""
    d = _load_json(path)
    return PovmSet.from_dict(d.get("corrected_povm", d))


def _check_mode(ctx: click.Context, mode: str, needs: set[str], reads: set[str]):
    """Usage error unless the options in needs are all given and every other
    given option is in reads.  An option counts as given when it did not take
    its default, so an explicit default value counts too."""
    params = ctx.command.params
    given = {p.name for p in params if ctx.get_parameter_source(p.name) is not ParameterSource.DEFAULT}
    missing = [p.opts[0] for p in params if p.name in needs - given]
    if missing:
        raise click.UsageError(f"{mode} needs {', '.join(missing)}")
    unread = [p.opts[0] for p in params if p.name in given - needs - reads]
    if unread:
        raise click.UsageError(f"{mode} takes no {', '.join(unread)}")


def _file_stems(labels) -> dict[str, str]:
    """Each element label's part of its output file names; labels that would
    share one are refused before any file is written."""
    owner: dict[str, str] = {}
    for label in labels:
        stem = label.replace("/", "_").replace("\\", "_")
        if owner.setdefault(stem, label) != label:
            raise ValidationError(f"labels {owner[stem]!r} and {label!r} would share the file name {stem!r}")
    return {label: stem for stem, label in owner.items()}


@click.group()
@click.version_option(version=__version__, prog_name="povm-entangle")
def cli():
    """Detector tomography, quasidistributions, and entanglement witnesses."""


@cli.command()
@click.option("--model", "model_path", type=str, default=None, help="JSON model spec file.")
@click.option("--povm", "povm_path", type=str, default=None, help="'bell' or a POVM JSON to simulate (default: Bell analyzer).")
@click.option("--eps", type=float, default=0.0, show_default=True, help="White noise fraction.")
@click.option("--counts", type=int, default=10000, show_default=True, help="Events per setting pair.")
@click.option("--indefiniteness", type=float, default=0.0, show_default=True, help="Zero-sum probability distortion amplitude.")
@click.option("--seed", type=int, default=None, help="RNG seed (default: the --model spec's seed, else 0).")
@click.option("--basis-map", "basis_map_path", type=str, default=None, help="Basis map JSON file.")
@click.option("--out", "-o", type=str, default=None, help="Output file (.csv or .json; default: CSV to stdout).")
@click.pass_context
def simulate(ctx, model_path, povm_path, eps, counts, indefiniteness, seed, basis_map_path, out):
    """Draw synthetic coincidence counts from a detector model."""
    from .simulate import DetectorModel, bell_model, draw_counts, model_from_spec

    if model_path is not None:
        # the spec carries the model's own fields; only --seed overrides one
        _check_mode(ctx, "--model", {"model_path"}, {"seed", "out"})
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


@cli.command()
@click.option("--counts", "counts_path", type=str, required=True, help="Coincidence counts (.csv or .json).")
@click.option("--basis-map", "basis_map_path", type=str, default=None, help="Basis map JSON (CSV input only).")
@click.option("--margin", type=float, default=1e-5, show_default=True, help="Eigenvalue margin for the physicality correction.")
@click.option("--out", "-o", type=str, default=None, help="Output JSON file (default: stdout).")
def reconstruct(counts_path, basis_map_path, margin, out):
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


@cli.command()
@click.option("--povm", "povm_path", type=str, required=True, help="POVM JSON (bare or reconstruct output).")
@click.option("--out", "-o", "out_dir", type=str, required=True, help="Output directory.")
def quasidist(povm_path, out_dir):
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
                "states_a": [[[v.real, v.imag] for v in s] for s in tilde.states_a],
                "states_b": [[[v.real, v.imag] for v in s] for s in tilde.states_b],
                "bloch_a": [v.tolist() for v in bloch_a],
                "bloch_b": [v.tolist() for v in bloch_b],
                "grid": tilde.grid.tolist(),
            },
        }
        Path(outp / fname).write_text(_canonical(payload))
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
        Path(outp / f"element_{stems[label]}.svg").write_text(svg)
        summary["elements"][label] = {
            "q": qdist.q,
            "max_negativity": report.max_negativity,
            "cumulative_negativity": report.cumulative_negativity,
            "verdict": report.verdict,
            "file": fname,
        }
    Path(outp / "summary.json").write_text(_canonical(summary))
    if summary["failed"]:
        raise ConvergenceError(
            "standard form failed for element(s): " + ", ".join(summary["failed"])
        )


@cli.command()
@click.option("--counts", "counts_path", type=str, required=True, help="Coincidence counts (.csv or .json).")
@click.option("--basis-map", "basis_map_path", type=str, default=None, help="Basis map JSON (CSV input only).")
@click.option("--samples", type=int, default=10000, show_default=True, help="Monte Carlo sample count.")
@click.option("--inflation", type=float, default=1.05, show_default=True, help="Covariance factor inflation.")
@click.option("--seed", type=int, default=0, show_default=True, help="RNG seed.")
@click.option("--workers", type=int, default=1, show_default=True, help="Sample shares run in parallel, one forked process per usable CPU at most.")
@click.option("--margin", type=float, default=1e-5, show_default=True, help="Physicality margin.")
@click.option("--out", "-o", "out_dir", type=str, default=None, help="Output directory (default: summary to stdout).")
def errors(counts_path, basis_map_path, samples, inflation, seed, workers, margin, out_dir):
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
        Path(outp / fname).write_text(_canonical({"manifest": manifest, **e.to_dict()}))
        svg = quasidist_svg(
            e.grid_reference,
            title=f"Quasidistribution with error bars: element {e.label}",
            q=e.q_reference,
            sigma=e.grid_std,
        )
        Path(outp / f"errors_{stems[e.label]}.svg").write_text(svg)
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
    Path(outp / "summary.json").write_text(_canonical(summary))


# each witness mode's options: those it needs, then the others it reads
_WITNESS_MODES = {
    "--lambda": ({"n", "d"}, {"lambda_mode", "restarts", "seed", "out"}),
    "element mode": ({"povm_path", "element_label"}, {"family", "numeric", "restarts", "seed", "out"}),
    "--family ghz": ({"n"}, {"family", "eps", "numeric", "restarts", "seed", "out"}),
    "--family me": ({"d"}, {"family", "eps", "numeric", "restarts", "seed", "out"}),
}


@cli.command()
@click.option("--family", type=click.Choice(["ghz", "me"]), default=None, help="Probe family.")
@click.option("-n", "n", type=int, default=None, help="Qubit number for the ghz family.")
@click.option("-d", "d", type=int, default=None, help="Local dimension for the me family.")
@click.option("--eps", type=float, default=0.0, show_default=True, help="White noise fraction (family mode).")
@click.option("--povm", "povm_path", type=str, default=None, help="POVM JSON for element mode.")
@click.option("--element", "element_label", type=str, default=None, help="Element label within the POVM.")
@click.option("--lambda", "lambda_mode", is_flag=True, help="Cross-check the analytic bound against the numeric solver.")
@click.option("--numeric", is_flag=True, help="Use the numeric lower bound for the verdict.")
@click.option("--restarts", type=int, default=64, show_default=True, help="Solver restarts.")
@click.option("--seed", type=int, default=0, show_default=True, help="Solver seed.")
@click.option("--out", "-o", type=str, default=None, help="Output JSON file (default: stdout).")
@click.pass_context
def witness(ctx, family, n, d, eps, povm_path, element_label, lambda_mode, numeric, restarts, seed, out):
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
        raise click.UsageError("pick a mode: --family, --povm/--element, or --lambda")
    _check_mode(ctx, mode, *_WITNESS_MODES[mode])
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


@cli.command()
@click.option("--counts", "counts_path", type=str, required=True, help="Coincidence counts (.csv or .json).")
@click.option("--basis-map", "basis_map_path", type=str, default=None, help="Basis map JSON (CSV input only).")
@click.option("--groups", type=str, required=True, help="Merge spec, e.g. 'AA+AD,DA+DD'.")
@click.option("--out", "-o", type=str, default=None, help="Output file (.csv or .json; default: CSV to stdout).")
def combine(counts_path, basis_map_path, groups, out):
    """Merge outcome groups by summing their counts."""
    from .tomography import combine_outcomes

    basis_map = _read_basis_map(basis_map_path)
    data = _read_counts(counts_path, basis_map)
    parsed = [[lbl.strip() for lbl in grp.split("+")] for grp in groups.split(",") if grp]
    manifest = _manifest("combine", counts=counts_path, groups=groups)
    _write_counts(combine_outcomes(data, parsed), out, manifest)


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit code mapping."""
    try:
        rv = cli.main(args=argv, prog_name="povm-entangle", standalone_mode=False)
        return int(rv) if isinstance(rv, int) else 0
    except click.exceptions.Exit as e:
        return int(e.exit_code)
    except click.ClickException as e:
        e.show(file=sys.stderr)
        return 1
    except ValidationError as e:
        click.echo(f"error: {e}", err=True)
        return 2
    except (ConvergenceError, np.linalg.LinAlgError) as e:
        click.echo(f"error: {e}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
