"""SVG rendering of quasidistribution grids."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import povm_entangle
from povm_entangle.svg import quasidist_svg

_BELL = np.where(np.add.outer(np.arange(6), np.arange(6)) % 2 == 0, 1 / 3, -1 / 6)
_RAMP = (np.arange(36, dtype=float).reshape(6, 6) - 17.0) / 40.0
_MIXED = _RAMP.copy()
_MIXED[0, 0] = 0.0
_MIXED[2, 3] = -0.0
_MIXED[5, 5] = 0.0
_SIGMA = np.abs(_RAMP[::-1]) / 10.0
_SIGMA[1, 1] = 0.0
_SIGMA[4, 2] = 0.0
_NAN = _BELL.copy()
_NAN[3, 4] = np.nan
_FOOTER = tuple("A %d: (%.4f, 0.5000, -0.2500)" % (k, k / 7) for k in range(12))

# SHA-256 of the chart text, pinned so that any change to the rendering,
# down to one coordinate's last digit, shows up here
_CHARTS = {
    "zeros": (
        dict(grid=np.zeros((6, 6))),
        "e81af16b865f1b4a4f60d966f840fc19c3a8babfcab6a6952107836cec6143d9",
    ),
    "bell_q": (
        dict(grid=_BELL, q=-1 / 3),
        "86723e86533023050cbc2fd3550a40539ab1044a7f9b61f903e6e5e8a15bbb3c",
    ),
    "bell_sigma": (
        dict(grid=_BELL, q=-1 / 3, sigma=np.full((6, 6), 0.0125)),
        "5233342348376efbe03497c4bfea6593f00fb5a4a0bb348c5b620a4a2cc20d51",
    ),
    "mixed_sigma_footer": (
        dict(grid=_MIXED, q=-0.125, sigma=_SIGMA, footer_lines=_FOOTER),
        "9c0b3d944f26ea8b562af780e1ff876ed8d7fd1296d687553705207a1bfe70b2",
    ),
    "mixed_escaped": (
        dict(grid=_MIXED, title='a & b < c > d "e"', q=0.0),
        "853f27c386c6d073ca25483d25f19e52380ce3d4f449773f6731f3b5538926cf",
    ),
    "nan_cell": (
        dict(grid=_NAN, q=None),
        "1f0da3c7f28e828a781cecfc6dec1d3bfd9fe8ceecae62052813f314e728dd9e",
    ),
    "tiny_scale": (
        dict(grid=_RAMP * 1e-3, sigma=_SIGMA * 1e-3, footer_lines=_FOOTER[:2]),
        "b3b925299f1efebd6d7f4969290c72444e50716561b62c57eacc4de7ac46b3d8",
    ),
    "large_scale": (
        dict(grid=_RAMP * 10.0, q=-2.5, sigma=_SIGMA * 10.0),
        "2a0afa992ebff09aa7e4fe99175db74c12146a38369aefa7967eafd9af4c387d",
    ),
}


@pytest.mark.parametrize("name", sorted(_CHARTS))
def test_chart_bytes_are_pinned(name):
    kwargs, digest = _CHARTS[name]
    assert hashlib.sha256(quasidist_svg(**kwargs).encode()).hexdigest() == digest


def test_non_finite_cell_leaves_the_others_drawn():
    # the scale comes from the finite cells, so the 35 others keep their
    # bars and whiskers, and the bad cell is marked instead of drawn
    svg = quasidist_svg(_NAN, q=-1 / 3, sigma=np.full((6, 6), 0.01))
    assert svg.count('fill="#2a9d8f"') + svg.count('fill="#e76f51"') == 35
    assert svg.count('stroke-width="1"') == 3 * 35
    assert svg.count(">n/a</text>") == 1
    assert "nan" not in svg.lower()
    sigma = np.full((6, 6), 0.01)
    sigma[0, 0] = np.inf
    svg = quasidist_svg(_BELL, sigma=sigma)
    assert svg.count('stroke-width="1"') == 3 * 35
    assert "inf" not in svg


def test_chart_ignores_input_dtype_and_layout():
    # lists, integer arrays and transposed views render as their float values
    ref = quasidist_svg(_RAMP.copy(), sigma=_SIGMA.copy())
    assert quasidist_svg(_RAMP.tolist(), sigma=_SIGMA.tolist()) == ref
    assert quasidist_svg(np.asfortranarray(_RAMP), sigma=_SIGMA.T.copy().T) == ref
    ints = np.arange(36).reshape(6, 6) - 18
    assert quasidist_svg(ints) == quasidist_svg(ints.astype(float))


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
