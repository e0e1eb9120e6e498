"""Self-contained SVG bar charts for 6x6 quasidistribution grids.

One mini bar per cell: positive weight points up, negative weight down from a
per-cell baseline, with optional one-sigma whiskers.  Output is deterministic
text with no external assets, so charts can be diffed byte for byte.

Most of a chart never depends on the grid: the 12 axis labels, each cell's
frame and baseline, and each cell's bar x and width, whisker x, tick ends and
value-label positions.  `_skeleton` formats these once, on the first chart,
into templates whose only open fields are the data-dependent numbers (bar y
and height, whisker ends, the value text).  Those fields keep the formats the
coordinates have always had (`%.2f` for coordinates, `%.6g` for values) and
are filled from the same float arithmetic, so the text is the same, byte for
byte, as formatting every coordinate on every call.

Bars scale to the largest finite |value| (with its sigma).  A cell whose
value is not finite is marked "n/a" and gets no bar or whisker, and a sigma
that is not finite draws no whisker, so one bad cell leaves the others
drawn.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import ValidationError
from .quasidist import LABELS

_POS = "#2a9d8f"
_NEG = "#e76f51"
_FRAME = "#c8c8c8"
_BASE = "#8a8a8a"
_TEXT = "#222222"

_CELL_W = 78.0
_CELL_H = 88.0
_LEFT = 92.0
_TOP = 64.0
_FOOTER_LINE = 16.0
_WIDTH = _LEFT + 6 * _CELL_W + 24

_NO_SIGMA = (0.0,) * 36


def _escape(text: str) -> str:
    """Escape &, < and > for XML text, as xml.sax.saxutils.escape does."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _coord(x: float) -> str:
    return "%.2f" % float(x)


@cache
def _skeleton() -> tuple[str, tuple]:
    """The axis-label lines, and per cell in row-major order its templates.

    A cell is (frame, base, bar, whiskers, text_up, text_down, mark): its
    frame and baseline lines, the baseline's y, a bar rect open in y, height
    and fill, the whisker and its two ticks open in (top, bot, top, top,
    bot, bot), the value text open in the value, placed for a nonnegative
    and for a negative value, and the "n/a" text of a non-finite value.
    """
    labels = [
        '<text x="%s" y="%s" font-size="11" text-anchor="middle">%s</text>'
        % (_coord(_LEFT + (j + 0.5) * _CELL_W), _coord(_TOP - 8), _escape(lbl))
        for j, lbl in enumerate(LABELS)
    ] + [
        '<text x="%s" y="%s" font-size="11" text-anchor="end">%s</text>'
        % (_coord(_LEFT - 10), _coord(_TOP + (i + 0.5) * _CELL_H + 4), _escape(lbl))
        for i, lbl in enumerate(LABELS)
    ]
    cells = []
    for i in range(6):
        for j in range(6):
            x0 = _LEFT + j * _CELL_W
            y0 = _TOP + i * _CELL_H
            base = y0 + 0.52 * _CELL_H
            cx = _coord(x0 + 0.5 * _CELL_W)
            frame = (
                '<rect x="%s" y="%s" width="%s" height="%s" fill="none" stroke="%s"/>\n'
                '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="0.7"/>'
                % (
                    _coord(x0), _coord(y0), _coord(_CELL_W), _coord(_CELL_H), _FRAME,
                    _coord(x0 + 4), _coord(base), _coord(x0 + _CELL_W - 4), _coord(base), _BASE,
                )
            )
            bar = '<rect x="%s" y="%%.2f" width="%s" height="%%.2f" fill="%%s"/>' % (
                _coord(x0 + 0.25 * _CELL_W),
                _coord(0.5 * _CELL_W),
            )
            line = '<line x1="%s" y1="%%.2f" x2="%s" y2="%%.2f" stroke="%s" stroke-width="1"/>'
            tick = line % (_coord(x0 + 0.5 * _CELL_W - 4), _coord(x0 + 0.5 * _CELL_W + 4), _TEXT)
            whiskers = "\n".join((line % (cx, cx, _TEXT), tick, tick))
            text = '<text x="%s" y="%s" font-size="9" text-anchor="middle">%%.6g</text>'
            cells.append(
                (
                    frame,
                    base,
                    bar,
                    whiskers,
                    text % (cx, _coord(y0 + _CELL_H - 5)),
                    text % (cx, _coord(y0 + 11)),
                    (text % (cx, _coord(y0 + _CELL_H - 5))).replace("%.6g", "n/a"),
                )
            )
    return "\n".join(labels), tuple(cells)


def quasidist_svg(
    grid: np.ndarray,
    title: str = "Optimal quasidistribution",
    q: float | None = None,
    sigma: np.ndarray | None = None,
    footer_lines: tuple[str, ...] = (),
) -> str:
    """Render the grid (rows: first party, columns: second party) as SVG text."""
    g = np.asarray(grid, dtype=float)
    if g.shape != (6, 6):
        raise ValidationError(f"grid must be 6x6, got {g.shape}")
    s = None
    if sigma is not None:
        s = np.asarray(sigma, dtype=float)
        if s.shape != (6, 6):
            raise ValidationError(f"sigma must be 6x6, got {s.shape}")

    finite = np.isfinite(g)
    span = float(np.max(np.abs(g), where=finite, initial=0.0))
    if s is not None:
        reach = np.abs(g) + np.abs(s)
        span = max(span, float(np.max(reach, where=np.isfinite(reach), initial=0.0)))
    if span <= 0:
        span = 1.0
    amp = 0.46 * _CELL_H
    scale = amp / span

    height = _TOP + 6 * _CELL_H + 36 + _FOOTER_LINE * len(footer_lines)
    labels, cells = _skeleton()
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%.2f" height="%.2f" '
        'viewBox="0 0 %.2f %.2f">' % (_WIDTH, height, _WIDTH, height),
        '<rect width="%.2f" height="%.2f" fill="#ffffff"/>' % (_WIDTH, height),
        '<g font-family="monospace" fill="%s">' % _TEXT,
        '<text x="%s" y="22" font-size="15">%s</text>' % (_coord(_LEFT), _escape(title)),
    ]
    if q is not None:
        out.append('<text x="%s" y="40" font-size="11">q = %.6g</text>' % (_coord(_LEFT), float(q)))
    out.append(labels)

    sigmas = _NO_SIGMA if s is None else s.ravel().tolist()
    for (frame, base, bar, whiskers, text_up, text_down, mark), v, sv in zip(
        cells, g.ravel().tolist(), sigmas
    ):
        out.append(frame)
        if not math.isfinite(v):
            out.append(mark)
            continue
        h = abs(v) * scale
        if h > 0:
            out.append(bar % ((base - h, h, _POS) if v >= 0 else (base, h, _NEG)))
        if 0 < sv < math.inf:
            top = base - (v + sv) * scale
            bot = base - (v - sv) * scale
            out.append(whiskers % (top, bot, top, top, bot, bot))
        out.append((text_up if v >= 0 else text_down) % v)

    fy = _TOP + 6 * _CELL_H + 24
    for k, line in enumerate(footer_lines):
        out.append(
            '<text x="%s" y="%.2f" font-size="11">%s</text>'
            % (_coord(_LEFT), fy + k * _FOOTER_LINE, _escape(str(line)))
        )
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
