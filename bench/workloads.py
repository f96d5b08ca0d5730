"""Seeded workloads of the orbitgeom benchmark and their independent output checks.

Every input is drawn here, from ``numpy.random.default_rng(seed)``, with the
benchmark's own Haar sampler, so a change to the package's samplers cannot
change what the package is asked to compute. The package sees only the
generated arrays (or, for the CLI, JSON files holding them).

A workload is a list of ops. An op is one public call (``call``) and an
independent check of what it returned (``check``). The check returns the op's
verdict and a *record*: the values that must come out bit-for-bit the same
whenever the op is repeated at the same seed, traced or not.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import orbitgeom as og
from orbitgeom import cli

ROTATION_TOL = 1e-10       # defect allowed in a witness rotation
CERT_REL_TOL = 1e-8        # certificate mismatch, relative to max(1, |target|)
CLI_RESIDUAL_TOL = 1e-8    # max_residual reported by star-check / joint
SUPPORT_TOL = 1e-8         # support violation of sampled points
BRUTEFORCE_TOL = 1e-6      # multistart maximum versus the closed form
# HiGHS meets equality rows to its feasibility tolerance (1e-7, scaled), not to
# roundoff; this is the slack a returned convex combination is allowed.
WEIGHT_TOL = 1e-7

BRUTEFORCE_SPECTRUM = np.array([3.0, 2.0, 1.0])  # singular values, up to 10% jitter

PLANAR_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple]  # result -> (ok, record)
    inputs: tuple = ()             # everything the call depends on


@dataclass
class Workload:
    ops: list
    warmup: Op
    # values filled in by checks that are reported but decide no verdict
    notes: dict = field(default_factory=dict)
    # ops[k]'s twin run with the default --threads: traced runs only, never timed
    threaded: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# independent numpy reference code
# ---------------------------------------------------------------------------


def haar(rng, n: int) -> np.ndarray:
    """Haar rotation by sign-corrected QR of a Gaussian matrix (Mezzadri)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.where(np.diag(r) < 0, -1.0, 1.0)
    if np.linalg.det(q) < 0:
        q[:, -1] *= -1.0
    return q


def rotation_defect(u) -> float:
    u = np.asarray(u, dtype=float)
    ortho = float(np.max(np.abs(u @ u.T - np.eye(u.shape[0]))))
    return max(ortho, abs(float(np.linalg.det(u)) - 1.0))


def trace_map(mats, x) -> np.ndarray:
    return np.array([float(np.sum(p * x.T)) for p in mats])


def closed_form_max_trace(p, a) -> float:
    sp = np.linalg.svd(p, compute_uv=False)
    sa = np.linalg.svd(a, compute_uv=False)
    sign = -1.0 if np.linalg.det(p) * np.linalg.det(a) < 0 else 1.0
    return float(sp[:-1] @ sa[:-1] + sign * sp[-1] * sa[-1])


def signed_permutations(s, det_sign: int) -> np.ndarray:
    """Rows sigma(s) with sign flips whose parity matches the determinant sign."""
    s = np.asarray(s, dtype=float)
    n = s.size
    perms = np.array(list(itertools.permutations(range(n))))
    flips = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    odd = (flips < 0).sum(axis=1) % 2
    if det_sign > 0:
        flips = flips[odd == 0]
    elif det_sign < 0:
        flips = flips[odd == 1]
    verts = (flips[:, None, :] * s[perms][None, :, :]).reshape(-1, n)
    return np.unique(verts, axis=0)


def check_certificate(mats, a, u, v, alpha, cert) -> tuple:
    """Re-check a certificate from the inputs; returns (ok, rel_mismatch)."""
    uw, w = cert.witness
    target = alpha * trace_map(mats, u @ a @ v)
    mismatch = float(np.linalg.norm(trace_map(mats, uw @ a @ w) - target))
    rel = mismatch / max(1.0, float(np.linalg.norm(target)))
    rotations = max(rotation_defect(uw), rotation_defect(w)) <= ROTATION_TOL
    return bool(rotations and rel <= CERT_REL_TOL), rel


def _matrix_json(m) -> dict:
    m = np.asarray(m, dtype=float)
    return {"rows": m.shape[0], "cols": m.shape[1], "data": m.tolist()}


def _gaussian(rng, n, count):
    return [rng.standard_normal((n, n)) for _ in range(count)]


def _seed(rng) -> int:
    return int(rng.integers(2**31 - 1))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def certify_planar(seed: int, workdir: str) -> Workload:
    """Serial planar certificates: n = 3, 4, 5, eight frame pairs each, five alphas."""
    rng = np.random.default_rng(seed)
    ops = []
    for n in (3, 4, 5):
        p, q, a = _gaussian(rng, n, 3)
        for k in range(8):
            u, v = haar(rng, n), haar(rng, n)
            for alpha in PLANAR_ALPHAS:
                ops.append(_certificate_op(f"certify n={n} frame={k} alpha={alpha}",
                                           (p, q), a, u, v, alpha))
    return Workload(ops, warmup=ops[2])


def _certificate_op(name, mats, a, u, v, alpha) -> Op:
    def check(cert):
        ok, rel = check_certificate(mats, a, u, v, alpha, cert)
        return ok, (cert.residual, rel)

    return Op(name, lambda: og.certify_scaled_point(list(mats), a, u, v, alpha), check,
              inputs=(*mats, a, u, v, alpha))


def cli_star(seed: int, workdir: str) -> Workload:
    """CLI commands run in-process with --threads 1; their threaded twins are probes.

    Timed with the default --threads, the job's median spread by about 0.2
    (IQR/median) over ten seeds of the same amount of work on a shared 2-vCPU
    host, against a regression bound of 0.25. So the timed job is serial, and
    each certify command's default-threads twin runs once per traced run.
    """
    rng = np.random.default_rng(seed)

    def command(name, subcommand, payload, args, check_output, suffix="json"):
        stem = os.path.join(workdir, name.replace(" ", "_"))
        text = json.dumps(payload, sort_keys=True)
        with open(stem + ".in.json", "w", encoding="utf-8") as fh:
            fh.write(text)
        out = f"{stem}.out.{suffix}"
        argv = [subcommand, "--input", stem + ".in.json", *args, "--out", out]

        def check(code):
            with open(out, "rb") as fh:
                data = fh.read()
            ok = code == 0 and check_output(data)
            return ok, (code, hashlib.sha256(data).hexdigest())

        return Op(name, lambda: cli.main(argv), check, inputs=(subcommand, text, *args))

    a4, *p4 = _gaussian(rng, 4, 4)
    star4 = {"A": _matrix_json(a4), "map": {"P": [_matrix_json(m) for m in p4]}}
    a5, *p5 = _gaussian(rng, 5, 4)
    star5 = {"A": _matrix_json(a5), "map": {"P": [_matrix_json(m) for m in p5]}}
    a_list = _gaussian(rng, 3, 2)
    rows = [_gaussian(rng, 3, 2) for _ in range(2)]
    joint = {"A_list": [_matrix_json(m) for m in a_list],
             "maps": [[_matrix_json(m) for m in row] for row in rows], "kind": "O3"}
    a3, p3, q3 = _gaussian(rng, 3, 3)
    bnd = {"A": _matrix_json(a3), "P": _matrix_json(p3), "Q": _matrix_json(q3)}
    certify_commands = [
        ("star-check ell=3 n=4", "star-check", star4,
         ["--seed", str(_seed(rng)), "--samples", "20"]),
        ("star-check ell=3 n=5", "star-check", star5,
         ["--seed", str(_seed(rng)), "--samples", "6", "--alpha", "0,0.5,1"]),
        ("joint O3 n=3 m=2", "joint", joint, ["--seed", str(_seed(rng)), "--samples", "20"]),
    ]
    ops = [command(name, sub, payload, [*args, "--threads", "1"], _star_report_ok)
           for name, sub, payload, args in certify_commands]
    ops.append(command("boundary svg", "boundary", bnd, ["--grid", "720", "--format", "svg"],
                       _svg_ok, suffix="svg"))
    threaded = [command(f"{name} threaded", sub, payload, args, _star_report_ok)
                for name, sub, payload, args in certify_commands]
    warmup = command("warm-up star-check", "star-check", star4,
                     ["--seed", "1", "--samples", "1", "--alpha", "0.5"], _star_report_ok)
    return Workload(ops, warmup=warmup, threaded=threaded)


def _star_report_ok(data: bytes) -> bool:
    report = json.loads(data)
    return report["num_failures"] == 0 and report["max_residual"] <= CLI_RESIDUAL_TOL


def _svg_ok(data: bytes) -> bool:
    root = ET.fromstring(data)
    polygons = root.findall("{http://www.w3.org/2000/svg}polygon")
    return len(polygons) == 1 and len(polygons[0].get("points", "").split()) >= 3


def convexity(seed: int, workdir: str) -> Workload:
    """Support region versus sampled hull, 1e5 samples, grid 720, six n=3 maps."""
    rng = np.random.default_rng(seed)
    ops = []
    notes = {"gap_rel": {}}
    for k in range(6):
        p, q, a = _gaussian(rng, 3, 3)
        op_seed = _seed(rng)
        name = f"convexity map={k}"

        def call(p=p, q=q, a=a, op_seed=op_seed):
            return og.convexity_check(p, q, a, samples=100_000,
                                      rng=np.random.default_rng(op_seed), grid=720)

        def check(report, name=name):
            # The region->hull gap is the known structural red (cube-root
            # convergence): recorded, never part of the verdict.
            notes["gap_rel"][name] = report.gap_region_to_hull / report.diameter
            return (report.support_violation <= SUPPORT_TOL,
                    (report.support_violation, report.gap_region_to_hull))

        ops.append(Op(name, call, check, inputs=(p, q, a, op_seed)))
    return Workload(ops, warmup=ops[0], notes=notes)


def oracles(seed: int, workdir: str) -> Workload:
    """Non-convexity instances, the multistart oracle and diagonal-hull membership."""
    rng = np.random.default_rng(seed)
    ops = []
    # The stock instances have no inputs but the multistart seed, which only
    # moves the sweep count; fixed seeds keep that out of the op latencies.
    for kind in ("ell3", "joint"):
        for op_seed in range(4):
            ops.append(Op(
                f"counterexample {kind} #{op_seed}",
                lambda kind=kind, op_seed=op_seed: og.counterexample_report(
                    kind, rng=np.random.default_rng(op_seed), starts=256),
                lambda rep: (bool(rep["passed"]),
                             (rep["passed"], rep["midpoint_distance_estimate"])),
                inputs=(kind, op_seed),
            ))
    for k in range(3):
        p, a = _spread_spectrum(rng), _spread_spectrum(rng)
        op_seed = _seed(rng)
        ref = closed_form_max_trace(p, a)
        ops.append(Op(
            f"max_trace_bruteforce #{k}",
            lambda p=p, a=a, op_seed=op_seed: og.max_trace_bruteforce(
                p, a, starts=2000, rng=np.random.default_rng(op_seed)),
            lambda value, ref=ref: (abs(value - ref) <= BRUTEFORCE_TOL, (value,)),
            inputs=(p, a, op_seed),
        ))
    for n, count in ((5, 10), (6, 3)):
        for k in range(count):
            ops.append(_thompson_op(rng, n, member=(k % 2 == 0), name=f"thompson n={n} #{k}"))
    # a non-member query runs both LPs, so it loads all of the solver
    warmup = next(op for op in ops if op.name == "thompson n=5 #1")
    return Workload(ops, warmup=warmup)


def _spread_spectrum(rng) -> np.ndarray:
    """A 3x3 matrix in seeded frames with singular values near BRUTEFORCE_SPECTRUM.

    The multistart ascent's sweep count grows as singular values close up:
    on Gaussian draws one call took anything from 80 to 700 ms. A spread
    spectrum keeps every seed's job the same size. The determinant's sign is
    drawn, so both branches of the closed form are checked.
    """
    s = BRUTEFORCE_SPECTRUM * (1.0 + 0.1 * rng.uniform(size=3))
    s[-1] *= rng.choice((-1.0, 1.0))
    return haar(rng, 3) @ np.diag(s) @ haar(rng, 3)


def _thompson_op(rng, n, member: bool, name: str) -> Op:
    a = rng.standard_normal((n, n))
    s = np.linalg.svd(a, compute_uv=False)
    det_sign = 1 if np.linalg.det(a) > 0 else -1
    d = np.diag(haar(rng, n) @ a @ haar(rng, n))
    if not member:
        # the hull lies in the l1 ball of radius sum(s); push d 5% beyond it
        d = d * (1.05 * s.sum() / np.abs(d).sum())
    verts = signed_permutations(s, det_sign)

    def check(res):
        if res.member != member:
            return False, (res.member,)
        if not np.array_equal(np.unique(res.vertices, axis=0), verts):
            return False, (res.member, "vertex set differs")
        if member:
            w = res.weights
            ok = (w.min() >= -WEIGHT_TOL and abs(w.sum() - 1.0) <= WEIGHT_TOL
                  and np.max(np.abs(res.vertices.T @ w - d)) <= WEIGHT_TOL * max(1.0, s[0]))
            return bool(ok), (True, tuple(w))
        margin = float(d @ res.functional - np.max(verts @ res.functional))
        return margin > 0.0, (False, tuple(res.functional))

    query = og.DiagonalHullQuery(d=d, s=s, det_sign=det_sign)
    return Op(name, lambda: og.thompson_membership(query), check,
              inputs=(d, s, det_sign, member))


WORKLOADS = {
    "certify-planar": certify_planar,
    "cli-star": cli_star,
    "convexity": convexity,
    "oracles": oracles,
}


# ---------------------------------------------------------------------------
# robustness probe (traced runs only; never part of a timed job)
# ---------------------------------------------------------------------------


def robustness_probe(seed: int) -> dict:
    """Planar certificates on scaled (A x 1e6) and near-collinear (Q = 2P + 1e-9 noise) maps."""
    rng = np.random.default_rng([seed, 4])
    counts = {"attempted": 0, "ok": 0, "failed.NumericalError": 0,
              "failed.PreconditionError": 0}
    worst = 0.0
    for n in (3, 4):
        p, q, a = _gaussian(rng, n, 3)
        cases = (((p, q), 1e6 * a),
                 ((p, 2.0 * p + 1e-9 * rng.standard_normal((n, n))), a))
        for mats, base in cases:
            for _ in range(10):
                u, v = haar(rng, n), haar(rng, n)
                for alpha in (0.1, 0.5, 0.9):
                    counts["attempted"] += 1
                    try:
                        cert = og.certify_scaled_point(list(mats), base, u, v, alpha)
                    except (og.NumericalError, og.PreconditionError) as exc:
                        counts[f"failed.{type(exc).__name__}"] += 1
                        continue
                    ok, rel = check_certificate(mats, base, u, v, alpha, cert)
                    counts["ok"] += ok
                    worst = max(worst, rel)
    return {**counts, "max_rel_residual": worst}
