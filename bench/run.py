"""orbitgeom benchmark: one seeded workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload, each in its own process, in turn.

With ``--trace 0`` the workload's fixed job is repeated for S seconds, and
the end-to-end metrics of BENCHMARK.json are reported, times scaled by the
host's measured speed (see CALIBRATION_BLOCK). With ``--trace 1`` untraced
and traced jobs alternate for S seconds, the traced jobs' outputs must equal
the untraced ones, and the per-layer metrics are reported, plus probes that
no timed job includes: the workload's threaded twins and the robustness probe.

Every op's output is re-checked with the benchmark's own code. For a single
workload, the last line of standard output is one JSON object: correct,
attempted, failed, metrics.
Run from the root of a source checkout; the package is imported from
``src/`` there and nowhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# the keys of workloads.WORKLOADS, which can only be imported once src/ is found
WORKLOAD_NAMES = ("certify-planar", "cli-star", "convexity", "oracles")
# fresh processes timed per run for setup_s; the median is reported
SETUP_PROBES = 3
# The shared host's per-core speed drifts by up to half within minutes, in CPU
# time as much as in wall time, so no run length averages it out. A fixed
# block of small dense numpy calls, run after each op for a twentieth of the
# op's time, drifts largely with it (a pure-Python loop does not). job_s, cpu_s and
# the op percentiles are divided by the run's median block time over
# REFERENCE_BLOCK_S: they are reported at that reference speed. setup_s is
# timed in other processes and is not scaled.
CALIBRATION_MATRIX = np.array([[0.6, -1.2, 0.3], [0.9, 0.4, -0.7], [-0.2, 1.1, 0.8]])
CALIBRATION_BLOCK = 40       # QR + SVD + product + determinant rounds per block
REFERENCE_BLOCK_S = 2e-3     # a block's time at the reference speed
CALIBRATION_SHARE = 0.05     # seconds of calibration per second of op time


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    latencies_s: list
    blocks_s: list   # calibration block times, taken between the ops
    verdicts: list
    failures: list   # (op name, record) of each failed op
    digest: str      # of every op's record, to compare repeated jobs


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, run the warm-up op, print 'ready' and exit "
                             "(used to time setup in a fresh process)")
    return parser.parse_args(argv)


def run_op(op) -> tuple:
    """(value, error, seconds, CPU seconds) of one call; a failing op is counted, not fatal."""
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        value, error = op.call(), None
    except Exception as exc:
        value, error = None, exc
    return value, error, time.perf_counter() - start, time.process_time() - cpu


def calibrate(seconds: float) -> list:
    """Times of calibration blocks, run for about ``seconds`` (at least one block)."""
    blocks = []
    deadline = time.perf_counter() + seconds
    while not blocks or time.perf_counter() < deadline:
        start = time.perf_counter()
        for _ in range(CALIBRATION_BLOCK):
            q, _r = np.linalg.qr(CALIBRATION_MATRIX)
            np.linalg.svd(CALIBRATION_MATRIX, compute_uv=False)
            q @ CALIBRATION_MATRIX.T
            np.linalg.det(CALIBRATION_MATRIX)
        blocks.append(time.perf_counter() - start)
    return blocks


def slowdown(jobs) -> float:
    """The run's median calibration block time over the reference one."""
    return statistics.median(b for job in jobs for b in job.blocks_s) / REFERENCE_BLOCK_S


def run_job(workload) -> Job:
    """Run every op once, timed, calibrating after each; check the outputs after."""
    outcomes, blocks = [], []
    for op in workload.ops:
        outcomes.append(run_op(op))
        blocks += calibrate(CALIBRATION_SHARE * outcomes[-1][2])
    verdicts, failures, digest = [], [], hashlib.sha256()
    for op, (value, error, *_) in zip(workload.ops, outcomes):
        ok, record = check_op(op, value, error)
        verdicts.append(ok)
        if not ok:
            failures.append((op.name, record))
        digest.update(repr(record).encode())
    latencies = [out[2] for out in outcomes]
    return Job(sum(latencies), sum(out[3] for out in outcomes), latencies, blocks,
               verdicts, failures, digest.hexdigest())


def check_op(op, value, error):
    if error is not None:
        return False, ("raised", type(error).__name__, str(error))
    try:
        ok, record = op.check(value)
    except Exception as exc:  # a malformed output fails its check
        return False, ("check raised", type(exc).__name__, str(exc))
    return bool(ok), record


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or f"{blas['name']} {blas['version']}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def measure_setup(args) -> list:
    """Seconds from spawning a fresh interpreter to its first timed op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {child.returncode})")
        samples.append(elapsed)
    return samples


def quantile(values, q: int) -> float:
    """The q-th percentile (q a multiple of 10), interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def declared_metrics(kind: str) -> list:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


def emit(values: dict, kind: str, correct: bool, attempted: int, failed: int):
    metrics = {}
    for spec in declared_metrics(kind):
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<48} {value:>14.6g} {spec['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def more_time(deadline, walls) -> bool:
    """Start another job only if half a typical one still fits before the deadline.

    A run thus lasts --seconds to within half a job, with at least one job.
    """
    return not walls or time.perf_counter() + statistics.median(walls) / 2 < deadline


def untraced_run(args, workload, warm_ok, setup_samples) -> int:
    jobs = []
    deadline = time.perf_counter() + args.seconds
    while more_time(deadline, [job.wall_s for job in jobs]):
        jobs.append(run_job(workload))
    latencies = [lat for job in jobs for lat in job.latencies_s]
    verdicts = [ok for job in jobs for ok in job.verdicts]
    failed = verdicts.count(False)
    measured = {
        "job_s": statistics.median(job.wall_s for job in jobs),
        "cpu_s": statistics.median(job.cpu_s for job in jobs),
        "op_p50_ms": 1e3 * quantile(latencies, 50),
        "op_p90_ms": 1e3 * quantile(latencies, 90),
    }
    factor = slowdown(jobs)
    values = {name: value / factor for name, value in measured.items()}
    values["setup_s"] = statistics.median(setup_samples)
    values["ok_ratio"] = 1.0 - failed / len(verdicts)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"jobs {len(jobs)}, ops {len(verdicts)}; job walls "
          + ", ".join(f"{job.wall_s:.3f}" for job in jobs) + " s; setup samples "
          + ", ".join(f"{s:.3f}" for s in setup_samples) + " s")
    print(f"  host slowdown {factor:.4g} (calibration block {factor * REFERENCE_BLOCK_S * 1e3:.4g}"
          f" ms against {REFERENCE_BLOCK_S * 1e3:g} ms); unscaled "
          + ", ".join(f"{name} {value:.6g}" for name, value in measured.items()))
    print(f"  fail_ratio {failed / len(verdicts):.6g} ({failed} of {len(verdicts)} ops)")
    report_failures(jobs)
    report_notes(workload)
    emit(values, "end_to_end", warm_ok and failed == 0, len(verdicts), failed)
    return 0


def traced_run(args, workload, warm_ok) -> int:
    import tracer as tr
    from workloads import robustness_probe

    before = tr.patched_attributes()
    spans = tr.Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while more_time(deadline, [p.wall_s + t.wall_s for p, t in zip(plain, traced)]):
        plain.append(run_job(workload))
        with spans:
            traced.append(run_job(workload))
    # the thread pool, on the default-threads twins of the serial ops
    pool_spans = tr.Tracer()
    with pool_spans:
        pool = [run_op(op) for op in workload.threaded]
    restored = tr.patched_attributes() == before
    same = all(job.digest == plain[0].digest for job in plain + traced)
    probe = robustness_probe(args.seed)

    jobs = len(traced)
    values = {"trace.overhead_ratio":
              statistics.median(j.wall_s for j in traced)
              / statistics.median(j.wall_s for j in plain) - 1.0}
    totals = spans.layer_totals()
    for layer, *_ in tr.LAYERS:
        calls, total, own = totals.get(layer, (0, 0.0, 0.0))
        values[f"{layer}.calls"] = calls / jobs
        values[f"{layer}.self_s"] = own / jobs
    counts = spans.counters
    for name in ("linalg.geodesic.detours", "linalg.haar_rotations.rotations",
                 "orbits.sample_image.points", "certify.homotopy_realize.iterations",
                 "certify.homotopy_realize.failed.NumericalError",
                 "certify.homotopy_realize.failed.PreconditionError",
                 "boundary.SupportRegion.violation.point_dirs",
                 "boundary.thompson_membership.vertices"):
        values[name] = counts[name] / jobs
    cert_calls = totals.get("certify.certify_scaled_point", (0,))[0]
    values["certify.certify_scaled_point.ok_ratio"] = (
        counts["certify.certify_scaled_point.ok"] / cert_calls if cert_calls else 0.0)
    homotopies = totals.get("certify.homotopy_realize", (0,))[0]
    values["certify.homotopy_realize.iter_per_call"] = (
        counts["certify.homotopy_realize.iterations"] / homotopies if homotopies else 0.0)
    capacity = pool_spans.counters["certify.pool.capacity_s"]
    values["certify.pool.busy_ratio"] = (
        pool_spans.layer_totals().get("certify.pool.target", (0, 0.0))[1] / capacity
        if capacity else 0.0)
    # traced serial twins' median latency over the traced threaded latency
    values["certify.pool.speedup"] = (
        sum(statistics.median(job.latencies_s[k] for job in traced) for k in range(len(pool)))
        / sum(out[2] for out in pool) if pool else 0.0)
    values["boundary.convexity.gap_rel"] = max(
        workload.notes.get("gap_rel", {}).values(), default=0.0)
    for key, value in probe.items():
        values[f"certify.probe.{key}"] = value

    WORK.mkdir(exist_ok=True)
    span_file = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    spans.write(span_file)
    verdicts = [ok for job in plain + traced for ok in job.verdicts]
    for op, (value, error, *_) in zip(workload.threaded, pool):
        ok, record = check_op(op, value, error)
        verdicts.append(ok)
        if not ok:
            print(f"  FAILED {op.name}: {record}")
    failed = verdicts.count(False)
    print(f"jobs {len(plain)} untraced + {jobs} traced, {len(spans.spans)} spans "
          f"written to {span_file.relative_to(ROOT)}")
    print(f"  traced outputs identical to untraced: {same}; "
          f"wrapped attributes restored: {restored}")
    print(f"  fail_ratio {failed / len(verdicts):.6g} ({failed} of {len(verdicts)} ops)")
    report_failures(plain + traced)
    report_notes(workload)
    emit(values, "per_layer", warm_ok and failed == 0 and same and restored,
         len(verdicts), failed)
    return 0


def report_failures(jobs):
    """Print the failed ops of the first job that has any."""
    for name, record in next((job.failures for job in jobs if job.failures), []):
        print(f"  FAILED {name}: {record}")


def report_notes(workload):
    for name, value in sorted(workload.notes.get("gap_rel", {}).items()):
        print(f"  region->hull gap / diameter, {name}: {value:.4g} (known red, not gated)")


def run_all(args) -> int:
    """Every workload in its own process; exit status 0 only if all are correct."""
    verdicts = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
        verdicts[name] = (f"correct={result['correct']}, failed {result['failed']} of "
                          f"{result['attempted']} ops" if result
                          else f"crashed (exit {proc.returncode})")
    print("== summary")
    for name, verdict in verdicts.items():
        print(f"  {name:<16} {verdict}")
    return 0 if all(v.startswith("correct=True") for v in verdicts.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "orbitgeom" / "__init__.py").is_file():
        print(f"error: no orbitgeom sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    setup_samples = [] if args.setup_probe or args.trace else measure_setup(args)
    sys.path.insert(0, str(SRC))
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        value, error, *_ = run_op(workload.warmup)
        warm_ok, warm_record = check_op(workload.warmup, value, error)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        print("env " + json.dumps({"workload": args.workload, "seed": args.seed,
                                   "seconds": args.seconds, "trace": args.trace,
                                   **environment()}))
        if not warm_ok:
            print(f"  warm-up op failed: {warm_record}")
        if args.trace:
            return traced_run(args, workload, warm_ok)
        return untraced_run(args, workload, warm_ok, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
