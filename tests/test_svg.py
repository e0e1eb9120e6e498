"""SVG rendering of quasidistribution grids."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import povm_entangle
from povm_entangle.svg import quasidist_svg


def test_title_is_escaped():
    svg = quasidist_svg(np.zeros((6, 6)), title='a & b < c > d "e"')
    assert '>a &amp; b &lt; c &gt; d "e"</text>' in svg


def test_cli_import_leaves_out_network_modules(tmp_path):
    # xml.sax.saxutils imports urllib.request, and with it http.client, ssl and
    # email; neither the import nor any command, each loading its own layers,
    # may bring it in
    env = {**os.environ, "PYTHONPATH": str(Path(povm_entangle.__file__).parents[1])}
    code = "import sys, povm_entangle.cli; print('urllib.request' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
    commands = [
        ["simulate", "--eps", "0.1", "--counts", "1000", "-o", "c.csv"],
        ["reconstruct", "--counts", "c.csv", "-o", "r.json"],
        ["quasidist", "--povm", "r.json", "-o", "q"],
        ["errors", "--counts", "c.csv", "--samples", "20", "--workers", "1", "-o", "e"],
        ["witness", "--family", "ghz", "-n", "3"],
        ["combine", "--counts", "c.csv", "--groups", "AA+AD,DA+DD", "-o", "m.csv"],
    ]
    code = (
        "import json, sys\n"
        "from povm_entangle import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print('urllib.request' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        capture_output=True, text=True, env=env, cwd=tmp_path, check=True,
    )
    assert out.stdout.splitlines()[-1] == "False"
