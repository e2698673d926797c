"""Tiny dependency-free SVG line plot for experiment reports.

Deterministic output: no timestamps, fixed float formatting, elements
written in input order.
"""

from __future__ import annotations

from typing import Sequence


_SERIES = "#1f6fb2"  # the colour of the plotted series


def _fmt(x: float) -> str:
    return ("%.3f" % x).rstrip("0").rstrip(".")


def _text(x: float, y: float, s: str, size: int, anchor: str) -> str:
    s = s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return ('<text x="%s" y="%s" font-size="%d" font-family="monospace" text-anchor="%s">%s</text>'
            % (_fmt(x), _fmt(y), size, anchor, s))


def _line(x1: float, y1: float, x2: float, y2: float, color: str, width: float) -> str:
    return ('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="%s"/>'
            % (_fmt(x1), _fmt(y1), _fmt(x2), _fmt(y2), color, _fmt(width)))


def line_plot(title: str, label: str, xs: Sequence[float], ys: Sequence[float], path: str) -> None:
    """Write a plot of the series `label` (at least one point) against n
    to `path`; the y axis is named `label` too."""

    w, h, m = 640, 400, 45
    # a series of one value spans a unit around it
    (x0, x1), (y0, y1) = [(min(v) - 0.5, max(v) + 0.5) if min(v) == max(v) else (min(v), max(v))
                          for v in (xs, ys)]
    sx = (w - 2 * m) / max(x1 - x0, 1e-12)
    sy = (h - 2 * m) / max(y1 - y0, 1e-12)
    points = " ".join("%s,%s" % (_fmt(m + (x - x0) * sx), _fmt(h - m - (y - y0) * sy)) for x, y in zip(xs, ys))
    parts = [
        _line(m, h - m, w - m, h - m, "#444444", 1.0),
        _line(m, m, m, h - m, "#444444", 1.0),
        _text(w / 2, 20, title, 13, "middle"),
        _text(w / 2, h - 8, "n", 12, "middle"),
        _text(12, m - 10, label, 12, "start"),
        _text(m, h - m + 16, _fmt(x0), 10, "start"),
        _text(w - m, h - m + 16, _fmt(x1), 10, "end"),
        _text(m - 4, h - m, _fmt(y0), 10, "end"),
        _text(m - 4, m, _fmt(y1), 10, "end"),
        '<polyline fill="none" stroke="%s" stroke-width="1.5" points="%s"/>' % (_SERIES, points),
        _text(w - m - 4, m + 14, label, 10, "end"),
        _line(w - m - 80, m + 10, w - m - 64, m + 10, _SERIES, 2.0),
    ]
    with open(path, "w") as fh:
        fh.write('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">'
                 '<rect width="100%%" height="100%%" fill="white"/>%s</svg>' % (w, h, w, h, "".join(parts)))
