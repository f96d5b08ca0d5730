"""JSON and CSV interchange formats.

Matrices travel as ``{"rows": n, "cols": n, "data": [[...], ...]}``, linear
maps as ``{"P": [matrix, ...]}``, point clouds as CSV with header
``x1,...,xl`` (comma separated, '.' decimal, LF line endings). JSON reports
are dumped with sorted keys so identical inputs produce identical bytes.
"""

from __future__ import annotations

import io
import json

import numpy as np

from .linalg import DimensionError
from .orbits import LinearMapSpec, PointCloud


def matrix_to_json(m) -> dict:
    m = np.asarray(m, dtype=float)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": m.tolist()}


def _is_number(x) -> bool:
    """The JSON-number rule: an int or a float, never a bool (an int) or a string."""
    return type(x) in (int, float)


def _numbers(obj, message: str) -> np.ndarray:
    """A number or nested lists of numbers as a float array, else ValueError(message)."""
    todo = [obj]
    while todo:
        x = todo.pop()
        if isinstance(x, list):
            todo.extend(x)
        elif not _is_number(x):
            raise ValueError(message)
    try:
        return np.asarray(obj, dtype=float)
    except (ValueError, OverflowError):  # ragged rows, or an int beyond any float
        raise ValueError(message) from None


def matrix_from_json(obj, name: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict) or not {"rows", "cols", "data"} <= set(obj):
        raise ValueError(f"{name}: expected an object with rows, cols, data")
    expected = (obj["rows"], obj["cols"])
    if not all(type(x) is int for x in expected):  # a JSON true is no size
        raise ValueError(f"{name}: rows and cols must be integers, got {expected}")
    data = _numbers(obj["data"], f"{name}: data must be a list of rows of numbers")
    if data.shape != expected:
        raise DimensionError(
            f"{name}: data has shape {data.shape} but header says {expected}"
        )
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{name}: contains non-finite entries")
    return data


def map_to_json(lmap: LinearMapSpec) -> dict:
    return {"P": [matrix_to_json(m) for m in lmap.mats]}


def map_from_json(obj, name: str = "map") -> LinearMapSpec:
    if not isinstance(obj, dict) or not isinstance(obj.get("P"), list):
        raise ValueError(f"{name}: expected an object with a 'P' list")
    mats = [matrix_from_json(m, f"{name}.P[{i}]") for i, m in enumerate(obj["P"])]
    return LinearMapSpec(tuple(mats))


def cloud_to_csv(cloud: PointCloud) -> str:
    buf = io.StringIO()
    header = ",".join(f"x{i + 1}" for i in range(cloud.ell))
    buf.write(header + "\n")
    for row in cloud.points:
        buf.write(",".join(repr(float(x)) for x in row) + "\n")
    return buf.getvalue()


def cloud_from_csv(text: str) -> PointCloud:
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise ValueError("empty CSV")
    pts = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    ell = len(lines[0].split(","))
    arr = np.array(pts, dtype=float) if pts else np.empty((0, ell))
    return PointCloud(points=arr)


def support_samples_to_csv(region) -> str:
    buf = io.StringIO()
    buf.write("theta,r,touch_x,touch_y\n")
    for t, r, touch in zip(region.thetas, region.values, region.touches):
        buf.write(
            f"{float(t)!r},{float(r)!r},{float(touch[0])!r},{float(touch[1])!r}\n"
        )
    return buf.getvalue()


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_json_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
