"""Self-tests of the benchmark harness (not of orbitgeom).

    python3 bench/selftest.py

Checks that the tracer restores every attribute it wraps, that traced ops give
the same verdicts, residuals and CLI output digests as untraced ones at the
same seed, that workload inputs are a pure function of the seed, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import orbitgeom  # noqa: E402
from orbitgeom import certify, ellipsoids, linalg, orbits  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def fingerprint(workload) -> str:
    digest = hashlib.sha256()
    for op in workload.ops:
        digest.update(op.name.encode())
        for item in op.inputs:
            if isinstance(item, np.ndarray):
                digest.update(item.tobytes())
            else:
                digest.update(repr(item).encode())
    return digest.hexdigest()


class WorkDir(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class TracerRestores(unittest.TestCase):
    def test_every_wrapped_attribute_is_restored(self):
        before = tracer.patched_attributes()
        original = linalg.require_rotation
        with tracer.Tracer():
            # a function imported by name is wrapped in every namespace holding it
            for module in (linalg, ellipsoids, certify, orbits, orbitgeom):
                self.assertIsNot(module.require_rotation, original)
            self.assertIsNot(linalg.RotationPath.__dict__["__call__"],
                             before[(id(linalg.RotationPath), "__call__")])
        self.assertEqual(tracer.patched_attributes(), before)

    def test_restored_after_an_exception(self):
        before = tracer.patched_attributes()
        spans = tracer.Tracer()
        with self.assertRaises(ValueError):
            with spans:
                orbitgeom.require_rotation(2.0 * np.eye(3))
        self.assertEqual(tracer.patched_attributes(), before)
        self.assertEqual([s[2] for s in spans.spans], ["linalg.require_rotation"])

    def test_self_time_excludes_children(self):
        spans = tracer.Tracer()
        with spans:
            linalg.geodesic(np.eye(3), workloads.haar(np.random.default_rng(0), 3))
        totals = spans.layer_totals()
        calls, total, own = totals["linalg.geodesic"]
        self.assertEqual(calls, 1)
        self.assertEqual(totals["linalg.require_rotation"][0], 2)
        self.assertLess(own, total)


class TracedEqualsUntraced(WorkDir):
    # a cheap slice of each workload that still reaches every layer it stresses
    SLICES = {
        "certify-planar": lambda ops: ops[:5] + ops[-5:],
        "cli-star": lambda ops: ops[2:],
        "convexity": lambda ops: ops[:1],
        "oracles": lambda ops: [ops[4], ops[8], ops[11], ops[12], ops[21]],
    }

    def test_same_verdicts_residuals_and_digests(self):
        for name, build in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                workload = build(5, self.workdir)
                workload.ops = self.SLICES[name](workload.ops)
                plain = run.run_job(workload)
                with tracer.Tracer() as spans:
                    traced = run.run_job(workload)
                self.assertEqual(plain.failures, [])
                self.assertEqual(traced.verdicts, plain.verdicts)
                self.assertEqual(traced.digest, plain.digest)
                self.assertGreater(len(spans.spans), 0)


class SeededInputs(WorkDir):
    def test_runner_knows_every_workload(self):
        self.assertEqual(tuple(workloads.WORKLOADS), run.WORKLOAD_NAMES)

    def test_deterministic_per_seed_and_distinct_across_seeds(self):
        for name, build in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                first = fingerprint(build(3, self.workdir))
                again = fingerprint(build(3, self.workdir))
                other = fingerprint(build(4, self.workdir))
                self.assertEqual(first, again)
                self.assertNotEqual(first, other)


class RefusesWithoutSources(WorkDir):
    def test_exits_nonzero_without_printing_a_result(self):
        shutil.copytree(BENCH, os.path.join(self.workdir, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", self.workdir)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "oracles", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=self.workdir, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
