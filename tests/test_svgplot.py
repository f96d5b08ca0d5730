import json

import numpy as np
import pytest

from orbitgeom import svgplot
from orbitgeom.svgplot import render_svg


def _render_by_vertex(points=None, polygon=None, curve=None) -> str:
    """The renderer written vertex by vertex, in numpy scalar arithmetic."""
    size, margin = 800, 40
    geoms = [None if g is None else np.asarray(g, dtype=float).reshape(-1, 2)
             for g in (points, polygon, curve)]
    stacked = [g for g in geoms if g is not None and g.size]
    if stacked:
        allpts = np.vstack(stacked)
        lo, hi = allpts.min(axis=0), allpts.max(axis=0)
    else:
        lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    scale = (size - 2 * margin) / float(np.max(np.maximum(hi - lo, 1e-12)))
    center = 0.5 * (lo + hi)

    def to_px(xy):
        return (size / 2 + (xy[0] - center[0]) * scale,
                size / 2 - (xy[1] - center[1]) * scale)

    def fmt(x):
        return f"{x:.4f}"

    meta = {"viewBox": [0, 0, size, size],
            "center": [float(center[0]), float(center[1])], "scale": float(scale)}
    layers = [f"<metadata>{json.dumps(meta, sort_keys=True)}</metadata>"]
    pts, poly, crv = geoms
    if poly is not None and poly.size:
        coords = " ".join(",".join(map(fmt, to_px(v))) for v in poly)
        layers.append(
            f'<polygon points="{coords}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>')
    if crv is not None and crv.size:
        coords = " ".join(",".join(map(fmt, to_px(v))) for v in crv)
        layers.append(
            f'<polyline points="{coords}" fill="none" stroke="#2ca02c" stroke-width="1.5"/>')
    if pts is not None and pts.size:
        for v in pts[::max(1, len(pts) // svgplot._MAX_POINTS)]:
            x, y = to_px(v)
            layers.append(
                f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="1.2" fill="#d62728" fill-opacity="0.5"/>')
    body = "\n".join(layers)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}">\n'
            f"{body}\n</svg>\n")


def _layers(seed):
    rng = np.random.default_rng(seed)
    cloud = rng.standard_normal((2 * svgplot._MAX_POINTS + 7, 2)) * rng.uniform(1e-3, 1e3, 2)
    t = np.linspace(0.0, 2.0 * np.pi, 91)
    ring = np.column_stack((np.cos(t), 0.3 * np.sin(t))) + rng.standard_normal(2)
    return cloud, ring[:-1], ring


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("which", ["points", "polygon", "curve", "all"])
def test_bytes_equal_the_vertex_by_vertex_renderer(seed, which):
    # the cloud is above _MAX_POINTS, so the step subsampling runs
    cloud, polygon, curve = _layers(seed)
    layers = {"points": cloud, "polygon": polygon, "curve": curve}
    if which != "all":
        layers = {which: layers[which]}
    assert render_svg(**layers) == _render_by_vertex(**layers)


@pytest.mark.parametrize("layers", [
    {"points": [[0.5, -2.0]]},
    {"points": [[0.5, -2.0]], "polygon": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]},
    {"curve": [[1e-300, -1e-300], [2e-300, 3e-300]]},
    {"points": np.empty((0, 2)), "polygon": [[1.0, 1.0]]},
    {},
], ids=["one-point", "point-and-triangle", "tiny-curve", "empty-points", "no-layers"])
def test_edge_layers_equal_the_vertex_by_vertex_renderer(layers):
    assert render_svg(**layers) == _render_by_vertex(**layers)
