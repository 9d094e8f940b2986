import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from sawkit.svg import Panel, render_panels


def make_panel():
    x = np.linspace(0, 10, 50)
    panel = Panel(title="demo", xlabel="x", ylabel="y")
    panel.add_line(x, np.sin(x), label="signal")
    panel.add_points(x[::10], np.sin(x[::10]), label="samples")
    panel.add_vline(5.0)
    return panel


def test_render_is_deterministic():
    a = render_panels([make_panel()])
    b = render_panels([make_panel()])
    assert a == b


def test_document_structure():
    svg = render_panels([make_panel(), make_panel()])
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    assert 'height="640"' in svg
    assert "demo" in svg and "signal" in svg


def test_degenerate_extents_do_not_crash():
    panel = Panel()
    panel.add_line([1.0, 1.0], [2.0, 2.0])
    svg = render_panels([panel])
    assert "<polyline" in svg


def frame(svg):
    """(left, top, width, height) of the first panel's frame rectangle."""
    m = re.search(r'<rect x="(\d+)" y="(\d+)" width="(\d+)" height="(\d+)"', svg)
    return tuple(int(v) for v in m.groups())


def polylines(svg):
    """The vertices of each polyline, as (n, 2) arrays in drawing order."""
    return [np.array([[float(c) for c in p.split(",")] for p in pts.split()])
            for pts in re.findall(r'<polyline points="([^"]*)"', svg)]


def test_text_is_escaped():
    panel = Panel(title='Nb3d & O1s <raw> "x"', xlabel="a<b", ylabel="c>d")
    panel.add_line([0.0, 1.0], [0.0, 1.0], label='fit & "data" <all>')
    root = ET.fromstring(render_panels([panel]))
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert 'Nb3d & O1s <raw> "x"' in texts
    assert 'fit & "data" <all>' in texts
    assert "a<b" in texts and "c>d" in texts


def test_leading_nan_sample_is_left_out():
    panel = Panel()
    panel.add_line([0, 1, 2], [np.nan, 1, 2])
    svg = render_panels([panel])
    assert "nan" not in svg
    (vertices,) = polylines(svg)
    assert len(vertices) == 2 and np.all(np.isfinite(vertices))


def test_panel_with_only_rules_renders():
    panel = Panel(title="rules")
    panel.add_vline(0.25)
    panel.add_vline(0.75)
    svg = render_panels([panel])
    ET.fromstring(svg)
    assert svg.count('stroke-dasharray="4 3"') == 2


@pytest.mark.parametrize("n", [10, 563, 564, 565, 2000, 6001, 20000])
def test_dense_series_keeps_each_pixel_column_extremes(n):
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.integers(0, 3, n)) * 0.37 + 5.0   # non-decreasing, with ties
    y = np.cumsum(rng.standard_normal(n))
    panel = Panel()
    panel.add_line(x, y)
    svg = render_panels([panel])
    left, top, pw, ph = frame(svg)
    x0, x1, y0, y1 = panel._extent()
    u = (x - x0) / (x1 - x0) * pw
    px, py = left + u, top + (y1 - y) / (y1 - y0) * ph
    col = np.floor(u)
    (drawn,) = polylines(svg)
    assert len(drawn) <= 2 * pw + 2
    # every vertex is a sample, in order: find which, and so its column
    drawn_col, j = [], 0
    for a, b in drawn:
        while abs(px[j] - a) > 0.0051 or abs(py[j] - b) > 0.0051:
            j += 1
        drawn_col.append(col[j])
        j += 1
    drawn_col = np.array(drawn_col)
    for c in np.unique(col):
        full, kept = py[col == c], drawn[drawn_col == c, 1]
        assert abs(kept.min() - full.min()) <= 0.01
        assert abs(kept.max() - full.max()) <= 0.01


def test_dense_points_draw_one_band_and_sparse_points_markers():
    x = np.linspace(0.0, 1.0, 6001)
    panel = Panel()
    panel.add_points(x, np.sin(20 * x))
    panel.add_points(x[::600], np.cos(20 * x[::600]))
    svg = render_panels([panel])
    (band,) = polylines(svg)
    assert len(band) <= 2 * frame(svg)[2] + 2
    assert svg.count("<circle") == 11
