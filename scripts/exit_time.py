"""Time from the CLI's main() returning until the parent sees the process exit.

    PYTHONPATH=src python3 scripts/exit_time.py --repeats 15

Each command of the analysis chain (simulate, reconstruct, quasidist,
errors --workers 2) runs in fresh interpreters, two launches alternating:
a bare `sys.exit(cli.main())`, which leaves through the interpreter's whole
finalization, and the process entry `cli.process_main`, which once main has
returned freezes the heap, runs the exit handlers, flushes stdout and
stderr and leaves through `os._exit`.  A bare `import numpy` runs likewise,
its second launch with a heap freeze after the import and the
interpreter's exit.  The child stamps the monotonic clock when main has
returned (or numpy is imported); the parent stamps it when the child's exit
has been reaped.  Prints the median and quartiles of the difference per
command and launch, in milliseconds.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import povm_entangle

# the children import the package from where this process found it
_ENV = {**os.environ, "PYTHONPATH": str(Path(povm_entangle.__file__).parents[1])}

_CHILD = """
import sys, time
from povm_entangle import cli

main = cli.main

def stamped(argv=None):
    code = main(argv)
    sys.stderr.write(f"{time.monotonic()}\\n")
    return code

cli.main = stamped
if FROZEN:
    cli.process_main()
sys.exit(cli.main())
"""

_NUMPY = """
import gc, sys, time
import numpy

sys.stderr.write(f"{time.monotonic()}\\n")
if FROZEN:
    gc.freeze()
"""


def exit_ms(code: str, args: list[str], cwd: Path) -> float:
    """One launch's time from the child's stamp to the parent's, in ms."""
    done = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=_ENV, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, check=True, timeout=120,
    )
    end = time.monotonic()
    return 1e3 * (end - float(done.stderr.splitlines()[-1]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=15, help="launches per command and side")
    opts = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        counts = ["--counts", "c.csv"]
        # in chain order: each command reads what the one before wrote
        chain = {
            "simulate": ["simulate", "--eps", "0.1", "--counts", "1000", "--seed", "1", "-o", "c.csv"],
            "reconstruct": ["reconstruct", *counts, "-o", "r.json"],
            "quasidist": ["quasidist", "--povm", "r.json", "-o", "q"],
            "errors --workers 2": ["errors", *counts, "--samples", "40", "--workers", "2", "-o", "e"],
        }
        print(f"{'command':<20} {'launch':<13} {'median':>7} {'q1':>7} {'q3':>7}  (ms, {opts.repeats} launches)")
        cases = [("import numpy", _NUMPY, [])] + [(name, _CHILD, argv) for name, argv in chain.items()]
        for name, code, argv in cases:
            times: dict[bool, list[float]] = {False: [], True: []}
            for i in range(opts.repeats):
                for frozen in (i % 2 == 0, i % 2 == 1):
                    times[frozen].append(exit_ms(code.replace("FROZEN", str(frozen)), argv, d))
            for frozen, label in ((False, "bare"), (True, "entry")):
                q1, med, q3 = statistics.quantiles(times[frozen], n=4, method="inclusive")
                print(f"{name:<20} {label:<13} {med:7.1f} {q1:7.1f} {q3:7.1f}")


if __name__ == "__main__":
    main()
