"""The benchmark tracer's contract with the package: every layer it wraps exists
and is reached.

``bench/tracer.py`` wraps package functions by name; a renamed or dropped one
stops a traced benchmark run. The tracer is loaded here by path, without
writing bytecode next to it.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import orbitgeom as og
from orbitgeom.orbits import JointOrbitSpec

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("orbitgeom_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_layer_exists(tracer):
    missing = [(layer, attr) for layer, owner, attr, _ in tracer.LAYERS
               if attr not in owner.__dict__]
    assert missing == []


def _star_check():
    rng = np.random.default_rng(30)
    mats = [rng.standard_normal((4, 4)) for _ in range(3)]
    return og.star_check(mats, rng.standard_normal((4, 4)), 2, [0.5, 1.0], rng)


def _joint_o1():
    rng = np.random.default_rng(31)
    rows = [[rng.standard_normal((3, 3)) for _ in range(2)] for _ in range(2)]
    a_list = (rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
    return og.star_check_joint(rows, JointOrbitSpec(a_list, "O1"), 2, [0.5], rng)


def _counterexample():
    return og.counterexample_report("joint", rng=np.random.default_rng(32), starts=8)


def _max_trace_bruteforce():
    rng = np.random.default_rng(33)
    return og.max_trace_bruteforce(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)),
                                   starts=8, rng=rng)


@pytest.mark.parametrize("call, layers", [
    (_star_check, {"certify.pool.run": 1, "certify.pool.target": 2}),
    (_joint_o1, {"certify.pool.run": 1, "certify.pool.target": 2}),
    (_counterexample, {"boundary._closest_image_distance": 1}),
    # the max oracle shares the distance oracle's search, not its layer
    (_max_trace_bruteforce, {"boundary.max_trace_bruteforce": 1,
                             "boundary._closest_image_distance": 0}),
])
def test_traced_calls_reach_their_layers(tracer, call, layers):
    before = tracer.patched_attributes()
    spans = tracer.Tracer()
    with spans:
        call()
    assert tracer.patched_attributes() == before
    totals = spans.layer_totals()
    assert {layer: totals.get(layer, (0,))[0] for layer in layers} == layers
