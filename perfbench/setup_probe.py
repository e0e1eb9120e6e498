"""Set-up a CLI user pays: import the CLI, then load a workload's generated input.

    python3 perfbench/setup_probe.py <inputs.json>
"""

import json
import sys
from pathlib import Path


def main(spec_path: str) -> int:
    import povm_entangle.cli  # noqa: F401  (every CLI command pays this import)
    from povm_entangle.tomography import CoincidenceCounts

    path = Path(spec_path)
    spec = json.loads(path.read_text())
    for name in spec.get("counts_files", []):
        CoincidenceCounts.from_csv((path.parent / name).read_text())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
