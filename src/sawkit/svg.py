"""Minimal deterministic SVG line plots for CLI reports.

Pure string generation from the data: identical inputs render byte-identical
files, which keeps report diffs meaningful.  Only what the reports need is
implemented: line series, point markers, vertical rules, axes with 1-2-5
ticks, and vertically stacked panels.

A series with more finite samples than the panel has pixel columns is dense.
It is drawn as its per-pixel-column envelope: only the samples at each
column's minimum and maximum y are kept, in their order (the extremes of M4,
Jugel et al., VLDB 2014), so render time and file size follow the plot
width, not the trace length.  Dense point markers would merge into a band,
so they are drawn as that envelope with a stroke one marker wide.  Titles
and labels are XML-escaped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
TICKS_PER_AXIS = 5
#: document width and the height of each stacked panel, in pixels
WIDTH, PANEL_HEIGHT = 640, 320


def _nice_ticks(lo, hi):
    """About ``TICKS_PER_AXIS`` round ticks covering lo < hi, a 1-2-5 step apart."""
    raw = (hi - lo) / TICKS_PER_AXIS
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks or [lo, hi]


def _fmt_tick(v):
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.3g}"
    return f"{v:.4g}"


def _escape(text):
    """``text`` with ``&``, ``<`` and ``>`` escaped for XML character data.

    The same as ``xml.sax.saxutils.escape``, whose import pulls in
    ``urllib.request`` and the HTTP, SSL and e-mail modules.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _range(values):
    """(min, max) of ``values`` as floats, or (0, 1) when there are none."""
    if values.size == 0:
        return 0.0, 1.0
    return float(values.min()), float(values.max())


@dataclass
class Panel:
    """One set of axes: add series, then render via :func:`render_panels`.

    Each series keeps its finite samples (x and y both finite) as numpy
    arrays.  The x of every series must be non-decreasing, because a dense
    series is reduced per pixel column in sample order.
    """

    title: str = ""
    xlabel: str = ""
    ylabel: str = ""
    lines: list = field(default_factory=list)   # (x, y, color, label)
    points: list = field(default_factory=list)  # (x, y, color, label)
    vlines: list = field(default_factory=list)  # x of each dashed rule

    def _series(self, x, y, label):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        finite = np.isfinite(x) & np.isfinite(y)
        color = PALETTE[(len(self.lines) + len(self.points)) % len(PALETTE)]
        return x[finite], y[finite], color, label

    def add_line(self, x, y, label=None):
        self.lines.append(self._series(x, y, label))

    def add_points(self, x, y, label=None):
        self.points.append(self._series(x, y, label))

    def add_vline(self, x):
        self.vlines.append(float(x))

    def _extent(self):
        series = self.lines + self.points
        rules = np.array(self.vlines, dtype=float)
        x0, x1 = _range(np.concatenate([s[0] for s in series]
                                       + [rules[np.isfinite(rules)]]))
        y0, y1 = _range(np.concatenate([s[1] for s in series] + [np.empty(0)]))
        if x1 == x0:
            x0, x1 = x0 - 0.5, x1 + 0.5
        if y1 == y0:
            y0, y1 = y0 - 0.5, y1 + 0.5
        pad = 0.05 * (y1 - y0)
        return x0, x1, y0 - pad, y1 + pad


def _envelope(u, y):
    """Indices, in order, of the first min and max ``y`` in each unit column of ``u``.

    ``u`` is non-decreasing, so the samples of one column form one run.
    """
    col = np.floor(u).astype(np.intp)
    first = np.diff(col, prepend=col[0] - 1) != 0
    run = np.cumsum(first) - 1
    keep = np.zeros(y.size, dtype=bool)
    for extreme in (np.minimum, np.maximum):
        hit = np.flatnonzero(y == extreme.reduceat(y, np.flatnonzero(first))[run])
        keep[hit[np.diff(run[hit], prepend=-1) != 0]] = True
    return np.flatnonzero(keep)


def _polyline(px, py, color, stroke):
    xy = np.column_stack((px, py)).ravel().tolist()
    pts = " ".join(["%.2f,%.2f"] * px.size) % tuple(xy)
    return f'<polyline points="{pts}" fill="none" stroke="{color}" {stroke}/>'


def render_panels(panels) -> str:
    """Render stacked panels into one standalone SVG document."""
    m_left, m_right, m_top, m_bottom = 62, 14, 30, 42
    total_h = PANEL_HEIGHT * len(panels)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
           f'height="{total_h}" font-family="sans-serif" font-size="11">',
           f'<rect width="{WIDTH}" height="{total_h}" fill="white"/>']
    for k, panel in enumerate(panels):
        oy = k * PANEL_HEIGHT
        pw = WIDTH - m_left - m_right
        ph = PANEL_HEIGHT - m_top - m_bottom
        x0, x1, y0, y1 = panel._extent()

        def sx(v):
            return m_left + (v - x0) / (x1 - x0) * pw

        def sy(v):
            return oy + m_top + (y1 - v) / (y1 - y0) * ph

        def drawn(x, y):
            """Pixel coordinates of a series, reduced to its envelope when dense."""
            u = (x - x0) / (x1 - x0) * pw
            if x.size > pw:
                keep = _envelope(u, y)
                u, y = u[keep], y[keep]
            return m_left + u, sy(y)

        out.append(f'<rect x="{m_left}" y="{oy + m_top}" width="{pw}" height="{ph}" '
                   'fill="none" stroke="#333333"/>')
        if panel.title:
            out.append(f'<text x="{m_left + pw / 2:.1f}" y="{oy + m_top - 10}" '
                       f'text-anchor="middle" font-size="13">{_escape(panel.title)}</text>')
        for t in _nice_ticks(x0, x1):
            if x0 <= t <= x1:
                px = sx(t)
                out.append(f'<line x1="{px:.2f}" y1="{oy + m_top + ph}" x2="{px:.2f}" '
                           f'y2="{oy + m_top + ph + 4}" stroke="#333333"/>')
                out.append(f'<text x="{px:.2f}" y="{oy + m_top + ph + 16}" '
                           f'text-anchor="middle">{_fmt_tick(t)}</text>')
        for t in _nice_ticks(y0, y1):
            if y0 <= t <= y1:
                py = sy(t)
                out.append(f'<line x1="{m_left - 4}" y1="{py:.2f}" x2="{m_left}" '
                           f'y2="{py:.2f}" stroke="#333333"/>')
                out.append(f'<text x="{m_left - 7}" y="{py + 3.5:.2f}" '
                           f'text-anchor="end">{_fmt_tick(t)}</text>')
        if panel.xlabel:
            out.append(f'<text x="{m_left + pw / 2:.1f}" y="{oy + PANEL_HEIGHT - 10}" '
                       f'text-anchor="middle">{_escape(panel.xlabel)}</text>')
        if panel.ylabel:
            cy = oy + m_top + ph / 2
            out.append(f'<text x="14" y="{cy:.1f}" text-anchor="middle" '
                       f'transform="rotate(-90 14 {cy:.1f})">{_escape(panel.ylabel)}</text>')
        for x in panel.vlines:
            if x0 <= x <= x1:
                out.append(f'<line x1="{sx(x):.2f}" y1="{oy + m_top}" x2="{sx(x):.2f}" '
                           f'y2="{oy + m_top + ph}" stroke="#888888" '
                           'stroke-dasharray="4 3"/>')
        # data first, so that a fit line is painted over its data
        for x, y, color, _ in panel.points:
            px, py = drawn(x, y)
            if x.size > pw:
                # markers 4.4 px wide merge into a band: draw it as a stroke
                out.append(_polyline(px, py, color, 'stroke-width="4.4" '
                                     'stroke-linecap="round" stroke-linejoin="round"'))
                continue
            for a, b in zip(px.tolist(), py.tolist()):
                out.append(f'<circle cx="{a:.2f}" cy="{b:.2f}" r="2.2" fill="{color}"/>')
        for x, y, color, _ in panel.lines:
            px, py = drawn(x, y)
            out.append(_polyline(px, py, color, 'stroke-width="1.4"'))
        labeled = [(c, l) for _, _, c, l in panel.lines + panel.points if l]
        for i, (color, label) in enumerate(labeled):
            ly = oy + m_top + 14 + 14 * i
            out.append(f'<line x1="{m_left + pw - 120}" y1="{ly - 3}" '
                       f'x2="{m_left + pw - 100}" y2="{ly - 3}" stroke="{color}" '
                       'stroke-width="2"/>')
            out.append(f'<text x="{m_left + pw - 95}" y="{ly}">{_escape(label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
