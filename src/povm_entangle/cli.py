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
optional byte-order mark.  A file that cannot be read or written is invalid
data, named with the system's reason.

Arguments: one table, `_COMMANDS`, declares each command and its options,
and `_parse` reads the command line from it directly, as do the command's
help and the mode checks; no parser is built, so a caller that runs
commands in one process pays no per-command set-up.  An option is given as
`--opt value` or `--opt=value`, a short one also as `-o value`, `-ovalue` or
`-o=value`.  A value option takes the next argument as is, even when it
starts with "-"; a flag refuses `=value`; prefixes of an option are refused;
a repeated option keeps its last value; and an option set explicitly counts
as given even at its default value.  A value that fails its type or its
choices is refused where it is read, and so is an option left without its
value; `--help` prints the help where it is read; arguments no option
claims, and all from a `--` on, are refused once the whole line is read,
and a missing required option after that.  An empty value of a file
option (an `--out` or a `..._path`) is invalid data, named by its option.
Messages keep the wording of the standard library's argparse.  A usage
error prints the usage line and returns 1; `main` returns an exit code and
never raises `SystemExit`.

Start-up: this module holds the option table, the parser, the readers and
writers the commands share, and canonical JSON, and imports only numpy, the
error classes and the standard library.  Each command's handler is its own
module, `commands.<command>`, imported when the command runs (all six for
the top-level help), so a process compiles no other command's code.  Each
handler imports its own layers when it runs, and so do the readers: the
counts and basis-map readers import `tomography`, the POVM reader the
operator layer.  A process so compiles and executes only the modules its
command uses.  `reconstruct` never loads the Monte Carlo, witness or
simulator modules, nor `numpy.random`; `errors` loads neither the operator
layer nor the standard form; `quasidist` and `witness` load no
`tomography`.

Exit: `process_main`, the entry of `python -m povm_entangle.cli` and of the
`povm-entangle` script, registers this module under its own name when it
runs as `__main__`, so that the handler's `from ..cli import` does not
compile and run it a second time.  Once `main` has returned, it freezes the
heap (`gc.freeze`), runs the atexit handlers, flushes stdout and stderr and
leaves through `os._exit`: the rest of the interpreter's finalization,
clearing modules and freeing every object, cost 5-9 ms a process with
nothing to show for it.  With a profiler or tracer attached, or when a
flush fails, it exits through the interpreter instead, whose finalization
then skips the cyclic collector's walks over the frozen heap.  A reader
that closes stdout's pipe early, a `BrokenPipeError` from `main` or from
the final flush, makes a quiet exit with 141 (128 + SIGPIPE), as a shell
pipeline expects: stdout's file descriptor is pointed at `os.devnull`, so
that no later flush fails again, and nothing goes to stderr.  A stdout with
no file descriptor to point is left to the interpreter, which reports the
error.  `main` itself leaves the collector alone and never exits, since its
in-process callers (tests, scripts, benchmarks) go on running.

Exit codes: 0 success, 1 usage, 2 invalid data, 3 numeric failure, 141
stdout's reader gone.
"""

from __future__ import annotations

import atexit
import gc
import importlib
import json
import os
import sys
from itertools import chain
from pathlib import Path
from types import ModuleType
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
        _write_text(out, text)


def _write_text(path: str | Path, text: str):
    """Write an output file as UTF-8; any failure to write it is invalid data."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise ValidationError(f"cannot write {path}: {e.strerror or e}") from None


def _out_dir(path: str) -> Path:
    """An output directory, made with any missing parents; a failure to make
    it is invalid data."""
    outp = Path(path)
    try:
        outp.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ValidationError(f"cannot write {path}: {e.strerror or e}") from None
    return outp


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
    text = _read_text(path)
    try:
        data = json.loads(text)
    except ValueError as e:
        # a JSONDecodeError, or an integer literal past int's digit limit
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
        _write_text(out, data.to_csv())


def _read_povm(path: str) -> PovmSet:
    """A bare POVM record, or the corrected POVM of reconstruct's output."""
    from .operators import PovmSet

    d = _load_json(path)
    return PovmSet.from_dict(d.get("corrected_povm", d))


def _check_mode(command: str, given: frozenset[str], mode: str, needs: set[str], reads: set[str]):
    """Usage error unless the options in needs are all given and every other
    given option is in reads.  An option counts as given when it is on the
    command line, so an explicit default value counts too."""
    options = _COMMANDS[command]
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

# every command, and its options in the order its help lists them; a command's
# handler, the function of its name in its module (`_command`), is called with
# the set of options given, then every option's value by name
_COMMANDS = {
    "simulate": (
        _Option(("--model",), "model_path", "JSON model spec file."),
        _Option(("--povm",), "povm_path", "'bell' or a POVM JSON to simulate (default: Bell analyzer)."),
        _Option(("--eps",), "eps", "White noise fraction.", float, 0.0),
        _Option(("--counts",), "counts", "Events per setting pair.", int, 10000),
        _Option(("--indefiniteness",), "indefiniteness", "Zero-sum probability distortion amplitude.", float, 0.0),
        _Option(("--seed",), "seed", "RNG seed (default: the --model spec's seed, else 0).", int),
        _Option(("--basis-map",), "basis_map_path", "Basis map JSON file."),
        _Option(("--out", "-o"), "out", "Output file (.csv or .json; default: CSV to stdout)."),
    ),
    "reconstruct": (
        _COUNTS,
        _BASIS_MAP,
        _Option(("--margin",), "margin", "Eigenvalue margin for the physicality correction.", float, 1e-5),
        _Option(("--out", "-o"), "out", "Output JSON file (default: stdout)."),
    ),
    "quasidist": (
        _Option(("--povm",), "povm_path", "POVM JSON (bare or reconstruct output).", required=True),
        _Option(("--out", "-o"), "out_dir", "Output directory.", required=True),
    ),
    "errors": (
        _COUNTS,
        _BASIS_MAP,
        _Option(("--samples",), "samples", "Monte Carlo sample count.", int, 10000),
        _Option(("--inflation",), "inflation", "Covariance factor inflation.", float, 1.05),
        _Option(("--seed",), "seed", "RNG seed.", int, 0),
        _Option(("--workers",), "workers", "Sample shares run in parallel, one forked process per usable CPU at most.", int, 1),
        _Option(("--margin",), "margin", "Physicality margin.", float, 1e-5),
        _Option(("--out", "-o"), "out_dir", "Output directory (default: summary to stdout)."),
    ),
    "witness": (
        _Option(("--family",), "family", "Probe family.", choices=("ghz", "me")),
        _Option(("-n",), "n", "Qubit number for the ghz family.", int),
        _Option(("-d",), "d", "Local dimension for the me family.", int),
        _Option(("--eps",), "eps", "White noise fraction (family mode).", float, 0.0),
        _Option(("--povm",), "povm_path", "POVM JSON for element mode."),
        _Option(("--element",), "element_label", "Element label within the POVM."),
        _Option(("--lambda",), "lambda_mode", "Cross-check the analytic bound against the numeric solver.", None, False),
        _Option(("--numeric",), "numeric", "Add the numeric solver's g_max as a cross-check; the closed form decides the verdict.", None, False),
        _Option(("--restarts",), "restarts", "Solver restarts.", int, 64),
        _Option(("--seed",), "seed", "Solver seed.", int, 0),
        _Option(("--out", "-o"), "out", "Output JSON file (default: stdout)."),
    ),
    "combine": (
        _COUNTS,
        _BASIS_MAP,
        _Option(("--groups",), "groups", "Merge spec, e.g. 'AA+AD,DA+DD'.", required=True),
        _Option(("--out", "-o"), "out", "Output file (.csv or .json; default: CSV to stdout)."),
    ),
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


def _command(command: str) -> ModuleType:
    """The module of the command's handler, imported on its first use; its
    docstring is the command's help line."""
    return importlib.import_module(f"povm_entangle.commands.{command}")


_HELP = _Option(("--help",), "help", "Show this message and exit.", None)


def _parse(command: str, args: list[str]) -> dict[str, object] | None:
    """The options args give the command, by parameter name, as the module
    docstring's Arguments section describes; None once --help is read."""
    prog = f"{_PROG} {command}"
    options = {flag: o for o in (*_COMMANDS[command], _HELP) for flag in o.flags}
    given: dict[str, object] = {}
    unknown: list[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        i += 1
        if arg == "--":
            unknown += args[i - 1 :]
            break
        flag, value = arg, None
        if arg not in options:
            # --opt=value, or a short option's -ovalue or -o=value
            if arg.startswith("--"):
                flag, eq, value = arg.partition("=")
                value = value if eq else None
            elif arg.startswith("-"):
                flag, value = arg[:2], arg[2:].removeprefix("=")
        o = options.get(flag)
        if o is None:
            unknown.append(arg)
            continue
        name = "/".join(o.flags)
        if o.parse is None:
            if value is not None:
                raise _UsageError(f"argument {name}: ignored explicit argument {value!r}", prog)
            if o is _HELP:
                return None
            given[o.dest] = True
            continue
        if value is None:
            if i == len(args):
                raise _UsageError(f"argument {name}: expected one argument", prog)
            value = args[i]
            i += 1
        try:
            value = o.parse(value)
        except ValueError:
            raise _UsageError(f"argument {name}: invalid {o.parse.__name__} value: {value!r}", prog) from None
        if o.choices and value not in o.choices:
            choices = ", ".join(map(repr, o.choices))
            raise _UsageError(f"argument {name}: invalid choice: {value!r} (choose from {choices})", prog)
        given[o.dest] = value
    if unknown:
        raise _UsageError(f"unrecognized arguments: {' '.join(unknown)}", prog)
    return given


def _help(command: str) -> str:
    """The command's help: usage, its handler's docstring, and one line per
    option with its metavar and its default or [required]."""
    rows = []
    for o in (*_COMMANDS[command], _HELP):
        text, flags = o.help, o.flags
        if o.parse is not None:
            metavar = f"[{'|'.join(o.choices)}]" if o.choices else _METAVARS[o.parse]
            flags = [f"{flag} {metavar}" for flag in flags]
            text += " [required]" if o.required else "" if o.default is None else f" [default: {o.default}]"
        rows.append((", ".join(flags), text))
    width = max(len(flags) for flags, _ in rows)
    lines = "".join(f"  {flags:<{width}}  {text}\n" for flags, text in rows)
    return f"Usage: {_PROG} {command} [OPTIONS]\n\n{_command(command).__doc__}\n\nOptions:\n{lines}"


def _overview() -> str:
    """The top-level help: usage, options, and one line per command."""
    width = max(map(len, _COMMANDS))
    commands = "".join(f"  {name:<{width}}  {_command(name).__doc__}\n" for name in sorted(_COMMANDS))
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
    given = _parse(command, rest)
    if given is None:
        sys.stdout.write(_help(command))
        return 0
    options = _COMMANDS[command]
    # checked here, after the parser has refused any unknown argument
    missing = [o.flags[0] for o in options if o.required and o.dest not in given]
    if missing:
        raise _UsageError(f"Missing option '{missing[0]}'.", f"{_PROG} {command}")
    # an empty path would name the working directory
    for o in options:
        if given.get(o.dest) == "" and (o.dest.endswith("_path") or o.dest.startswith("out")):
            raise ValidationError(f"{'/'.join(o.flags)} is an empty path")
    handler = getattr(_command(command), command)
    handler(frozenset(given), **{o.dest: given.get(o.dest, o.default) for o in options})
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit code mapping."""
    try:
        return _run(sys.argv[1:] if argv is None else list(argv))
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


def _watched() -> bool:
    """Whether a profiler or tracer is attached, which reports at finalization."""
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12 on; tool ids 0-5
    return (
        sys.getprofile() is not None
        or sys.gettrace() is not None
        or (monitoring is not None and any(map(monitoring.get_tool, range(6))))
    )


def _flush_error() -> OSError | None:
    """Flush stdout and stderr; the error of the first flush that fails."""
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError as e:
        return e
    return None


# 128 + SIGPIPE, the status a shell reports for a writer whose reader left
_PIPE_CLOSED = 141


def _silenced() -> bool:
    """Point stdout's file descriptor at os.devnull once its reader has closed
    the pipe, so that no later flush fails again; False if it has none."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        # no stdout, one without a descriptor, or a closed one
        return False
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)
    return True


def process_main() -> NoReturn:
    """Process entry of `python -m povm_entangle.cli` and the `povm-entangle`
    script: runs main, then exits with its code, as the module docstring's
    Exit section describes."""
    module = sys.modules.get(__name__)
    if module is None or vars(module) is not globals():
        # a bare namespace, as `python -m cProfile -m` runs this file in
        module = ModuleType(__name__)
        vars(module).update(globals())
    sys.modules.setdefault("povm_entangle.cli", module)
    try:
        code = main()
    except BrokenPipeError:
        if not _silenced():
            raise
        code = _PIPE_CLOSED
    gc.freeze()
    if not _watched():
        atexit._run_exitfuncs()
        error = _flush_error()
        if isinstance(error, BrokenPipeError) and _silenced():
            code, error = _PIPE_CLOSED, _flush_error()
        if error is None:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    process_main()
