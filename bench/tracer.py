"""Outside-in tracer: wraps orbitgeom's layer functions from the benchmark's side.

``from .x import y`` binds ``y`` in the importing module, so a function is
wrapped in every orbitgeom namespace that holds it (and in the package's
re-exports); methods are wrapped on their class, and the scipy entry points
on the scipy module that the package looks them up in at call time.

Each call records a span (layer, start, end, parent) on a thread-local stack,
so spans opened on the CLI's worker threads nest correctly. Spans stay in
memory until the run ends. ``Tracer.uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

import scipy.linalg
import scipy.spatial

import orbitgeom
from orbitgeom import boundary, certify, cli, ellipsoids, linalg, orbits, serialize, svgplot

PACKAGE_MODULES = (orbitgeom, linalg, orbits, ellipsoids, certify, boundary,
                   serialize, svgplot, cli)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _observe_geodesic(counters, args, kwargs, result, exc, duration):
    if exc is None and len(result.segments) > 1:
        counters["linalg.geodesic.detours"] += 1


def _observe_haar(counters, args, kwargs, result, exc, duration):
    counters["linalg.haar_rotations.rotations"] += _arg(args, kwargs, 1, "count", 0)


def _observe_sample(counters, args, kwargs, result, exc, duration):
    counters["orbits.sample_image.points"] += _arg(args, kwargs, 2, "count", 0)


def _observe_certificate(counters, args, kwargs, result, exc, duration):
    if exc is None and result.residual <= 1e-8:
        counters["certify.certify_scaled_point.ok"] += 1


def _observe_homotopy(counters, args, kwargs, result, exc, duration):
    if exc is None:
        counters["certify.homotopy_realize.iterations"] += result.trace[0]["iterations"]
    else:
        counters[f"certify.homotopy_realize.failed.{type(exc).__name__}"] += 1


def _observe_violation(counters, args, kwargs, result, exc, duration):
    region, points = args[0], _arg(args, kwargs, 1, "points")
    counters["boundary.SupportRegion.violation.point_dirs"] += (
        len(points) * len(region.directions))


def _observe_thompson(counters, args, kwargs, result, exc, duration):
    if exc is None:
        counters["boundary.thompson_membership.vertices"] += len(result.vertices)


def _observe_run_targets(counters, args, kwargs, result, exc, duration):
    threads = _arg(args, kwargs, 4, "threads", 1) or 1
    workers = min(threads, args[1]) if threads > 1 else 1
    counters["certify.pool.capacity_s"] += duration * workers


# (layer, owner, attribute, observer). The observer sees every call's
# arguments, outcome and duration and turns them into counts at the layer
# boundary.
LAYERS = (
    ("linalg.geodesic", linalg, "geodesic", _observe_geodesic),
    ("scipy.linalg.logm", scipy.linalg, "logm", None),
    ("linalg.RotationPath.call", linalg.RotationPath, "__call__", None),
    ("scipy.linalg.expm", scipy.linalg, "expm", None),
    ("linalg.require_rotation", linalg, "require_rotation", None),
    ("linalg.haar_rotations", linalg, "haar_rotations", _observe_haar),
    ("linalg.signed_svd", linalg, "signed_svd", None),
    ("orbits.apply_map", orbits, "apply_map", None),
    ("orbits.sample_image", orbits, "sample_image", _observe_sample),
    ("ellipsoids.ellipse_eu", ellipsoids, "ellipse_eu", None),
    ("ellipsoids.surface_projection", ellipsoids, "surface_projection", None),
    ("ellipsoids.membership", ellipsoids, "membership", None),
    ("ellipsoids.degenerate_u0", ellipsoids, "degenerate_u0", None),
    ("ellipsoids.ellipsoid_euv", ellipsoids, "ellipsoid_euv", None),
    ("ellipsoids.degenerate_uv", ellipsoids, "degenerate_uv", None),
    ("certify.certify_scaled_point", certify, "certify_scaled_point", _observe_certificate),
    ("certify.homotopy_realize", certify, "homotopy_realize", _observe_homotopy),
    ("certify.pool.run", certify, "_run_targets", _observe_run_targets),
    ("certify.pool.target", certify, "_one_target", None),
    ("boundary.support_boundary", boundary, "support_boundary", None),
    ("boundary.max_trace", boundary, "max_trace", None),
    ("boundary.argmax_frames", boundary, "argmax_frames", None),
    ("boundary.SupportRegion.violation", boundary.SupportRegion, "violation",
     _observe_violation),
    ("boundary.hull", scipy.spatial, "ConvexHull", None),
    ("boundary._point_polygon_distance", boundary, "_point_polygon_distance", None),
    ("boundary._closest_image_distance", boundary, "_closest_image_distance", None),
    ("boundary.max_trace_bruteforce", boundary, "max_trace_bruteforce", None),
    ("boundary.thompson_membership", boundary, "thompson_membership", _observe_thompson),
    ("serialize.dump_json", serialize, "dump_json", None),
    ("svgplot.render_svg", svgplot, "render_svg", None),
    ("cli.main", cli, "main", None),
)


class Tracer:
    """Installs span-recording wrappers; collects spans and counters in memory."""

    def __init__(self):
        self.spans = []        # (span_id, parent_id, layer, start, end, thread_id)
        self.counters = Counter()
        self._patches = []     # (owner, attribute, original)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    # -- installation ------------------------------------------------------

    def install(self):
        for layer, owner, attr, observer in LAYERS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(layer, original, observer)
            holders = [owner] + [m for m in PACKAGE_MODULES
                                 if m is not owner and m.__dict__.get(attr) is original]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        return self

    def uninstall(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc_info):
        self.uninstall()

    def _wrap(self, layer, fn, observer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result, error = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append((span_id, parent, layer, start, end,
                                         threading.get_ident()))
                    if observer is not None:
                        observer(tracer.counters, args, kwargs, result, error, end - start)

        return traced

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per layer: (calls, total time, self time). Self time is the span's
        duration minus the time its child spans cover."""
        child_time = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for span_id, _, layer, start, end, _ in self.spans:
            entry = out[layer]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[span_id]
        return {layer: tuple(v) for layer, v in out.items()}

    def write(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span_id, parent, layer, start, end, thread in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "layer": layer,
                                     "start": start, "end": end, "thread": thread}))
                fh.write("\n")


def patched_attributes() -> dict:
    """Identity of every attribute the tracer may patch, for restore checks."""
    out = {}
    for _, owner, attr, _ in LAYERS:
        for holder in (owner,) + PACKAGE_MODULES:
            if attr in holder.__dict__:
                out[(id(holder), attr)] = holder.__dict__[attr]
    return out
