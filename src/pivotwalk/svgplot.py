"""Tiny dependency-free SVG emitters for experiment reports.

Deterministic output: no timestamps, fixed float formatting, elements
written in input order.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


_SERIES = "#1f6fb2"  # the colour of the plotted series


def _fmt(x: float) -> str:
    return ("%.3f" % x).rstrip("0").rstrip(".")


class SvgCanvas:
    width, height, margin = 640, 400, 45

    def __init__(self):
        self._parts: List[str] = []

    def _scale(self, xlim, ylim):
        m, w, h = self.margin, self.width, self.height
        sx = (w - 2 * m) / max(xlim[1] - xlim[0], 1e-12)
        sy = (h - 2 * m) / max(ylim[1] - ylim[0], 1e-12)

        def to_px(x, y):
            return m + (x - xlim[0]) * sx, h - m - (y - ylim[0]) * sy

        return to_px

    def polyline(self, pts: Sequence[Tuple[float, float]]):
        joined = " ".join("%s,%s" % (_fmt(x), _fmt(y)) for x, y in pts)
        self._parts.append('<polyline fill="none" stroke="%s" stroke-width="1.5" points="%s"/>' % (_SERIES, joined))

    def text(self, x: float, y: float, s: str, size: int = 12, anchor: str = "start"):
        self._parts.append(
            '<text x="%s" y="%s" font-size="%d" font-family="monospace" text-anchor="%s">%s</text>'
            % (_fmt(x), _fmt(y), size, anchor, _escape(s))
        )

    def line(self, x1, y1, x2, y2, color="#444444", width=1.0):
        self._parts.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="%s"/>'
            % (_fmt(x1), _fmt(y1), _fmt(x2), _fmt(y2), color, _fmt(width))
        )

    def render(self) -> str:
        head = (
            '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d">' % (self.width, self.height, self.width, self.height)
        )
        return head + '<rect width="100%" height="100%" fill="white"/>' + "".join(self._parts) + "</svg>"


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_plot(label: str, xs: Sequence[float], ys: Sequence[float], title: str, xlabel: str, ylabel: str,
              path: str) -> None:
    """Write a line plot of one labelled series of at least one point to `path`."""

    canvas = SvgCanvas()
    xlim = (min(xs), max(xs))
    ylim = (min(ys), max(ys))
    if xlim[0] == xlim[1]:
        xlim = (xlim[0] - 0.5, xlim[1] + 0.5)
    if ylim[0] == ylim[1]:
        ylim = (ylim[0] - 0.5, ylim[1] + 0.5)
    to_px = canvas._scale(xlim, ylim)
    m, w, h = canvas.margin, canvas.width, canvas.height
    canvas.line(m, h - m, w - m, h - m)
    canvas.line(m, m, m, h - m)
    canvas.text(w / 2, 20, title, size=13, anchor="middle")
    canvas.text(w / 2, h - 8, xlabel, anchor="middle")
    canvas.text(12, m - 10, ylabel)
    canvas.text(m, h - m + 16, _fmt(xlim[0]), size=10)
    canvas.text(w - m, h - m + 16, _fmt(xlim[1]), size=10, anchor="end")
    canvas.text(m - 4, h - m, _fmt(ylim[0]), size=10, anchor="end")
    canvas.text(m - 4, m, _fmt(ylim[1]), size=10, anchor="end")
    canvas.polyline([to_px(x, y) for x, y in zip(xs, ys)])
    canvas.text(w - m - 4, m + 14, label, size=10, anchor="end")
    canvas.line(w - m - 80, m + 10, w - m - 64, m + 10, color=_SERIES, width=2.0)
    with open(path, "w") as fh:
        fh.write(canvas.render())

