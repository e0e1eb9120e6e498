"""Self-contained SVG bar charts for 6x6 quasidistribution grids.

One mini bar per cell: positive weight points up, negative weight down from a
per-cell baseline, with optional one-sigma whiskers.  Output is deterministic
text with no external assets, so charts can be diffed byte for byte.
"""

from __future__ import annotations

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


def _escape(text: str) -> str:
    """Escape &, < and > for XML text, as xml.sax.saxutils.escape does."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(x: float) -> str:
    return "%.6g" % float(x)


def _coord(x: float) -> str:
    return "%.2f" % float(x)


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

    span = float(np.max(np.abs(g)))
    if s is not None:
        span = max(span, float(np.max(np.abs(g) + np.abs(s))))
    if span <= 0:
        span = 1.0
    amp = 0.46 * _CELL_H
    scale = amp / span

    width = _LEFT + 6 * _CELL_W + 24
    height = _TOP + 6 * _CELL_H + 36 + _FOOTER_LINE * len(footer_lines)

    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%s" height="%s" '
        'viewBox="0 0 %s %s">' % (_coord(width), _coord(height), _coord(width), _coord(height)),
        '<rect width="%s" height="%s" fill="#ffffff"/>' % (_coord(width), _coord(height)),
        '<g font-family="monospace" fill="%s">' % _TEXT,
        '<text x="%s" y="22" font-size="15">%s</text>' % (_coord(_LEFT), _escape(title)),
    ]
    if q is not None:
        out.append(
            '<text x="%s" y="40" font-size="11">q = %s</text>' % (_coord(_LEFT), _fmt(q))
        )
    for j, lbl in enumerate(LABELS):
        x = _LEFT + (j + 0.5) * _CELL_W
        out.append(
            '<text x="%s" y="%s" font-size="11" text-anchor="middle">%s</text>'
            % (_coord(x), _coord(_TOP - 8), _escape(lbl))
        )
    for i, lbl in enumerate(LABELS):
        y = _TOP + (i + 0.5) * _CELL_H
        out.append(
            '<text x="%s" y="%s" font-size="11" text-anchor="end">%s</text>'
            % (_coord(_LEFT - 10), _coord(y + 4), _escape(lbl))
        )

    for i in range(6):
        for j in range(6):
            x0 = _LEFT + j * _CELL_W
            y0 = _TOP + i * _CELL_H
            base = y0 + 0.52 * _CELL_H
            out.append(
                '<rect x="%s" y="%s" width="%s" height="%s" fill="none" stroke="%s"/>'
                % (_coord(x0), _coord(y0), _coord(_CELL_W), _coord(_CELL_H), _FRAME)
            )
            out.append(
                '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="0.7"/>'
                % (_coord(x0 + 4), _coord(base), _coord(x0 + _CELL_W - 4), _coord(base), _BASE)
            )
            v = g[i, j]
            bw = 0.5 * _CELL_W
            bx = x0 + 0.25 * _CELL_W
            h = abs(v) * scale
            if v >= 0:
                by, fill = base - h, _POS
            else:
                by, fill = base, _NEG
            if h > 0:
                out.append(
                    '<rect x="%s" y="%s" width="%s" height="%s" fill="%s"/>'
                    % (_coord(bx), _coord(by), _coord(bw), _coord(h), fill)
                )
            if s is not None and s[i, j] > 0:
                cx = x0 + 0.5 * _CELL_W
                top = base - (v + s[i, j]) * scale
                bot = base - (v - s[i, j]) * scale
                out.append(
                    '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="1"/>'
                    % (_coord(cx), _coord(top), _coord(cx), _coord(bot), _TEXT)
                )
                for yy in (top, bot):
                    out.append(
                        '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="1"/>'
                        % (_coord(cx - 4), _coord(yy), _coord(cx + 4), _coord(yy), _TEXT)
                    )
            ty = y0 + _CELL_H - 5 if v >= 0 else y0 + 11
            out.append(
                '<text x="%s" y="%s" font-size="9" text-anchor="middle">%s</text>'
                % (_coord(x0 + 0.5 * _CELL_W), _coord(ty), _fmt(v))
            )

    fy = _TOP + 6 * _CELL_H + 24
    for k, line in enumerate(footer_lines):
        out.append(
            '<text x="%s" y="%s" font-size="11">%s</text>'
            % (_coord(_LEFT), _coord(fy + k * _FOOTER_LINE), _escape(str(line)))
        )
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
