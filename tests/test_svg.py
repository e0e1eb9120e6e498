"""SVG rendering of quasidistribution grids."""

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


def test_cli_import_leaves_out_network_modules():
    # xml.sax.saxutils imports urllib.request, and with it http.client, ssl and email
    env = {**os.environ, "PYTHONPATH": str(Path(povm_entangle.__file__).parents[1])}
    code = "import sys, povm_entangle.cli; print('urllib.request' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
