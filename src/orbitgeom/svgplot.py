"""Minimal static SVG rendering for point clouds, polygons, and curves.

Plots are presentation-only: a fixed 800x800 viewBox with the data transform
recorded in a metadata element. Output is deterministic (fixed float
formatting, no timestamps).
"""

from __future__ import annotations

import json

import numpy as np

_SIZE = 800
_MARGIN = 40
_MAX_POINTS = 4000


def render_svg(points=None, polygon=None, curve=None) -> str:
    """Render up to three layers: sampled points, a closed polygon, a polyline."""
    layers = []
    geoms = []
    for g in (points, polygon, curve):
        if g is not None:
            g = np.asarray(g, dtype=float).reshape(-1, 2)
            geoms.append(g)
        else:
            geoms.append(None)
    stacked = [g for g in geoms if g is not None and g.size]
    if stacked:
        allpts = np.vstack(stacked)
        lo = allpts.min(axis=0)
        hi = allpts.max(axis=0)
    else:
        lo = np.array([-1.0, -1.0])
        hi = np.array([1.0, 1.0])
    span = np.maximum(hi - lo, 1e-12)
    scale = (_SIZE - 2 * _MARGIN) / float(np.max(span))
    center = 0.5 * (lo + hi)

    def to_px(g):
        """The layer's pixel coordinates as Python floats, y pointing down."""
        return (_SIZE / 2 + (g - center) * np.array([scale, -scale])).tolist()

    def coords(g):
        return " ".join(f"{x:.4f},{y:.4f}" for x, y in to_px(g))

    meta = {
        "viewBox": [0, 0, _SIZE, _SIZE],
        "center": [float(center[0]), float(center[1])],
        "scale": float(scale),
    }
    layers.append(f"<metadata>{json.dumps(meta, sort_keys=True)}</metadata>")
    pts, poly, crv = geoms
    if poly is not None and poly.size:
        layers.append(
            f'<polygon points="{coords(poly)}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
        )
    if crv is not None and crv.size:
        layers.append(
            f'<polyline points="{coords(crv)}" fill="none" stroke="#2ca02c" stroke-width="1.5"/>'
        )
    if pts is not None and pts.size:
        step = max(1, len(pts) // _MAX_POINTS)
        layers.extend(
            f'<circle cx="{x:.4f}" cy="{y:.4f}" r="1.2" fill="#d62728" fill-opacity="0.5"/>'
            for x, y in to_px(pts[::step])
        )
    body = "\n".join(layers)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SIZE} {_SIZE}">\n'
        f"{body}\n</svg>\n"
    )
