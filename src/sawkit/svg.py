"""Minimal deterministic SVG line plots for CLI reports.

Pure string generation from the data: identical inputs render byte-identical
files, which keeps report diffs meaningful.  Only what the reports need is
implemented: line series, point markers, vertical rules, axes with 1-2-5
ticks, and vertically stacked panels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def _nice_ticks(lo, hi, target=5):
    """Round tick positions covering [lo, hi] with a 1-2-5 step."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo, hi] if hi > lo else [lo - 1, lo + 1]
    raw = (hi - lo) / target
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


@dataclass
class Panel:
    """One set of axes: add series, then render via :func:`render_panels`."""

    title: str = ""
    xlabel: str = ""
    ylabel: str = ""
    lines: list = field(default_factory=list)   # (x, y, color, label)
    points: list = field(default_factory=list)  # (x, y, color, label)
    vlines: list = field(default_factory=list)  # x of each dashed rule

    def add_line(self, x, y, label=None):
        color = PALETTE[(len(self.lines) + len(self.points)) % len(PALETTE)]
        self.lines.append(([float(v) for v in x], [float(v) for v in y], color, label))

    def add_points(self, x, y, label=None):
        color = PALETTE[(len(self.lines) + len(self.points)) % len(PALETTE)]
        self.points.append(([float(v) for v in x], [float(v) for v in y], color, label))

    def add_vline(self, x):
        self.vlines.append(float(x))

    def _extent(self):
        xs, ys = [], []
        for x, y, _, _ in self.lines + self.points:
            xs += x
            ys += y
        xs += self.vlines
        if not xs:
            xs = ys = [0.0, 1.0]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 == x0:
            x0, x1 = x0 - 0.5, x1 + 0.5
        if y1 == y0:
            y0, y1 = y0 - 0.5, y1 + 0.5
        pad = 0.05 * (y1 - y0)
        return x0, x1, y0 - pad, y1 + pad


def render_panels(panels, width=640, panel_height=320) -> str:
    """Render stacked panels into one standalone SVG document."""
    m_left, m_right, m_top, m_bottom = 62, 14, 30, 42
    total_h = panel_height * len(panels)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{total_h}" font-family="sans-serif" font-size="11">',
           f'<rect width="{width}" height="{total_h}" fill="white"/>']
    for k, panel in enumerate(panels):
        oy = k * panel_height
        pw = width - m_left - m_right
        ph = panel_height - m_top - m_bottom
        x0, x1, y0, y1 = panel._extent()

        def sx(v):
            return m_left + (v - x0) / (x1 - x0) * pw

        def sy(v):
            return oy + m_top + (y1 - v) / (y1 - y0) * ph

        out.append(f'<rect x="{m_left}" y="{oy + m_top}" width="{pw}" height="{ph}" '
                   'fill="none" stroke="#333333"/>')
        if panel.title:
            out.append(f'<text x="{m_left + pw / 2:.1f}" y="{oy + m_top - 10}" '
                       f'text-anchor="middle" font-size="13">{panel.title}</text>')
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
            out.append(f'<text x="{m_left + pw / 2:.1f}" y="{oy + panel_height - 10}" '
                       f'text-anchor="middle">{panel.xlabel}</text>')
        if panel.ylabel:
            cy = oy + m_top + ph / 2
            out.append(f'<text x="14" y="{cy:.1f}" text-anchor="middle" '
                       f'transform="rotate(-90 14 {cy:.1f})">{panel.ylabel}</text>')
        for x in panel.vlines:
            if x0 <= x <= x1:
                out.append(f'<line x1="{sx(x):.2f}" y1="{oy + m_top}" x2="{sx(x):.2f}" '
                           f'y2="{oy + m_top + ph}" stroke="#888888" '
                           'stroke-dasharray="4 3"/>')
        for x, y, color, _ in panel.lines:
            pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y)
                           if math.isfinite(a) and math.isfinite(b))
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                       'stroke-width="1.4"/>')
        for x, y, color, _ in panel.points:
            for a, b in zip(x, y):
                if math.isfinite(a) and math.isfinite(b):
                    out.append(f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="2.2" '
                               f'fill="{color}"/>')
        labeled = [(c, l) for _, _, c, l in panel.lines + panel.points if l]
        for i, (color, label) in enumerate(labeled):
            ly = oy + m_top + 14 + 14 * i
            out.append(f'<line x1="{m_left + pw - 120}" y1="{ly - 3}" '
                       f'x2="{m_left + pw - 100}" y2="{ly - 3}" stroke="{color}" '
                       'stroke-width="2"/>')
            out.append(f'<text x="{m_left + pw - 95}" y="{ly}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
