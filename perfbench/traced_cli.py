"""Run one povm-entangle CLI command with spans around the package's calls.

    python3 perfbench/traced_cli.py <command> [options ...]

The span directory and the id of the caller's span come from the
PERFBENCH_TRACE_DIR and PERFBENCH_PARENT_SPAN environment variables; spans
of this process and of its pool workers are written there at exit.
"""

import os
import sys
from pathlib import Path

from spans import DIR_ENV, PARENT_ENV, Tracer


def main() -> int:
    tracer = Tracer(Path(os.environ[DIR_ENV]), os.environ.get(PARENT_ENV))
    tracer.install()
    from povm_entangle.cli import main as cli_main

    try:
        return cli_main(sys.argv[1:])
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
