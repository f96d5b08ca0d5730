"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Every tolerance is pinned here; nothing is deferred.
"""

import time

import numpy as np

import orbitgeom as og
from orbitgeom.cli import main as cli_main
from orbitgeom import serialize as ser


def _report(name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s)")
    assert ok, detail
    assert elapsed <= budget, f"time budget exceeded: {elapsed:.1f}s > {budget}s"


def test_01_miranda_thompson_agreement():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for k in range(20):
        p = rng.standard_normal((3, 3))
        a = rng.standard_normal((3, 3))
        exact = og.max_trace(p, a)
        oracle = og.max_trace_bruteforce(
            p, a, starts=2000, rng=np.random.default_rng(1000 + k)
        )
        worst = max(worst, abs(exact - oracle))
    _report("1 trace-max agreement", worst <= 1e-6,
            f"worst |closed form - oracle| = {worst:.2e}", time.time() - t0, 60)


def test_02_attainment():
    t0 = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for k in range(100):
        n = int(rng.integers(2, 7))
        p = rng.standard_normal((n, n))
        a = rng.standard_normal((n, n))
        u, v = og.argmax_frames(p, a)
        worst = max(worst, abs(np.trace(p @ u @ a @ v) - og.max_trace(p, a)))
    _report("2 attainment", worst <= 1e-10,
            f"worst frame gap = {worst:.2e}", time.time() - t0, 5)


def test_03_star_certificates_planar():
    t0 = time.time()
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        a = rng.standard_normal((3, 3))
        p, q = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        u, v = og.haar_rotation(3, rng), og.haar_rotation(3, rng)
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            cert = og.certify_scaled_point([p, q], a, u, v, alpha)
            worst = max(worst, cert.residual)
    _report("3 planar star certificates", worst <= 1e-8,
            f"worst residual = {worst:.2e} over 250 certificates",
            time.time() - t0, 120)


def test_04_star_certificates_ell3():
    t0 = time.time()
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        mats = [rng.standard_normal((4, 4)) for _ in range(3)]
        u, v = og.haar_rotation(4, rng), og.haar_rotation(4, rng)
        for alpha in (0.0, 0.5, 1.0):
            cert = og.certify_scaled_point(mats, a, u, v, alpha)
            worst = max(worst, cert.residual)
    _report("4 three-coordinate star certificates", worst <= 1e-8,
            f"worst residual = {worst:.2e} over 60 certificates",
            time.time() - t0, 120)


def test_05_degenerate_constructions():
    t0 = time.time()
    rng = np.random.default_rng(105)
    worst_det = 0.0
    for k in range(100):
        n = (3, 4, 5)[k % 3]
        p, q = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        u0 = og.degenerate_u0(p, q)
        worst_det = max(worst_det, abs(np.linalg.det(og.ellipse_eu(p, q, u0).shape)))
    worst_row = 0.0
    for _ in range(100):
        p1 = rng.standard_normal((4, 4))
        u, v = og.degenerate_uv(p1)
        worst_row = max(worst_row, float(np.linalg.norm(og.spherical_coeffs(u @ p1 @ v))))
    ok = worst_det <= 1e-10 and worst_row <= 1e-10
    _report("5 degenerate constructions", ok,
            f"worst |det T| = {worst_det:.2e}, worst first-row norm = {worst_row:.2e}",
            time.time() - t0, 10)


def test_06_witness_soundness():
    t0 = time.time()
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 6))
        p, q = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        u = og.haar_rotation(n, rng)
        curve = og.ellipse_eu(p, q, u)
        for theta in rng.uniform(0, 2 * np.pi, 10):
            point = curve.point([theta])
            redo = og.apply_map([p, q], curve.witness([theta]))
            worst = max(worst, float(np.max(np.abs(redo - point))))
    for _ in range(50):
        mats = [rng.standard_normal((4, 4)) for _ in range(3)]
        u, v = og.haar_rotation(4, rng), og.haar_rotation(4, rng)
        curve = og.ellipsoid_euv(mats, u, v)
        for _ in range(10):
            angles = rng.uniform(0, 2 * np.pi, 2)
            point = curve.point(angles)
            redo = og.apply_map(mats, curve.witness(angles))
            worst = max(worst, float(np.max(np.abs(redo - point))))
    _report("6 witness soundness", worst <= 1e-10,
            f"worst witness mismatch = {worst:.2e} over 1000 points",
            time.time() - t0, 10)


def test_07_convex_boundary_consistency():
    # The 1%-of-diameter clause is not reachable with 1e5 two-sided Haar
    # samples: the sampled hull under-fills the exact boundary following a
    # cube-root law (measured ~1.6-2.5% across seeds at 1e5; ~1.0% only near
    # 1e6 samples). Asserted as stated; see the decisions ledger.
    t0 = time.time()
    rng = np.random.default_rng(107)
    p, q = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
    rep = og.convexity_check(p, q, np.diag([3.0, 2.0, 1.0]),
                             samples=100000, rng=rng, grid=720)
    ok = rep.support_violation <= 1e-8 and rep.gap_region_to_hull <= 0.01 * rep.diameter
    _report(
        "7 convex boundary consistency", ok,
        f"support violation = {rep.support_violation:.2e}, region->hull gap = "
        f"{rep.gap_region_to_hull:.3f} vs 1% of diameter = {0.01 * rep.diameter:.3f}",
        time.time() - t0, 60,
    )


def test_08_counterexamples():
    t0 = time.time()
    ok = True
    details = []
    for n in (2, 3, 4):
        rep = og.counterexample_report("ell3", n=n, rng=np.random.default_rng(200 + n),
                                       starts=256)
        ok = ok and rep["endpoints_exact"] and rep["midpoint_distance_estimate"] >= 1e-3
        details.append(f"ell3 n={n}: dist={rep['midpoint_distance_estimate']:.3f}")
    rep = og.counterexample_report("joint", n=3, m=2, ell=2,
                                   rng=np.random.default_rng(208), starts=256)
    ok = ok and rep["endpoints_exact"] and rep["midpoint_distance_estimate"] >= 1e-3
    details.append(f"joint: dist={rep['midpoint_distance_estimate']:.3f}")
    _report("8 counterexamples", ok, "; ".join(details), time.time() - t0, 120)


def test_09_thompson_membership():
    t0 = time.time()
    rng = np.random.default_rng(109)
    a = np.diag([3.0, 2.0, 1.0])
    s = np.array([3.0, 2.0, 1.0])
    members = 0
    for _ in range(1000):
        u, v = og.haar_rotation(3, rng), og.haar_rotation(3, rng)
        d = np.diag(u @ a @ v)
        if og.thompson_membership(og.DiagonalHullQuery(d=d, s=s, det_sign=1)).member:
            members += 1
    rejected = 0
    for _ in range(100):
        u, v = og.haar_rotation(3, rng), og.haar_rotation(3, rng)
        d = np.diag(u @ a @ v)
        d = d * (1.01 * np.sum(s) / max(np.sum(np.abs(d)), 1e-9))
        res = og.thompson_membership(og.DiagonalHullQuery(d=d, s=s, det_sign=1))
        if not res.member and res.functional @ d > np.max(res.vertices @ res.functional):
            rejected += 1
    ok = members == 1000 and rejected == 100
    _report("9 diagonal hull membership", ok,
            f"{members}/1000 members, {rejected}/100 verified rejections",
            time.time() - t0, 30)


def test_10_gamma_structure():
    t0 = time.time()
    rng = np.random.default_rng(110)
    a = np.diag([4.0, 3.0, 2.0, 1.0])
    p = np.diag([3.0, 3.0, 1.0, 0.0])
    structure = og.MaximizerStructure.from_diagonal_p(p, a)
    r = og.gamma_value(structure)
    worst_gap, worst_off = 0.0, 0.0
    factor_sets = og.gamma_sample_factors(structure, 100, rng)
    for factors in factor_sets:
        b = og.gamma_build(structure, factors)
        rep = og.gamma_verify(b, structure)
        worst_gap = max(worst_gap, rep.trace_gap)
        worst_off = max(worst_off, rep.max_off_block)
    worst_path = 0.0
    for i in range(0, 20, 2):
        f1, f2 = factor_sets[i], factor_sets[i + 1]
        paths = [og.geodesic(b1, b2) for b1, b2 in zip(f1, f2)]
        for sval in np.linspace(0.0, 1.0, 100):
            b = og.gamma_build(structure, tuple(path(sval) for path in paths))
            worst_path = max(worst_path, abs(np.einsum("ij,ji->", p, b) - r))
    ok = worst_gap <= 1e-10 and worst_off <= 1e-10 and worst_path <= 1e-8
    _report("10 maximizer structure", ok,
            f"trace gap = {worst_gap:.2e}, off-block = {worst_off:.2e}, "
            f"path deviation = {worst_path:.2e}", time.time() - t0, 30)


def test_11_cli_determinism(tmp_path):
    t0 = time.time()

    def mat(m):
        return ser.matrix_to_json(np.asarray(m, dtype=float))

    e11 = np.zeros((2, 2)); e11[0, 0] = 1.0
    e21 = np.zeros((2, 2)); e21[1, 0] = 1.0
    circle = tmp_path / "circle.json"
    circle.write_text(ser.dump_json(
        {"A": mat(np.eye(2)), "map": {"P": [mat(e11), mat(e21)]}}
    ))
    star = tmp_path / "star.json"
    star.write_text(ser.dump_json(
        {"A": mat(np.diag([3.0, 2.0, 1.0])),
         "map": {"P": [mat(np.diag([1.0, 0, 0])), mat(np.diag([0, 1.0, 0]))]}}
    ))
    bdry = tmp_path / "bdry.json"
    bdry.write_text(ser.dump_json(
        {"A": mat(np.eye(2)), "P": mat(e11), "Q": mat(e21)}
    ))
    runs = [
        ["sample", "--input", str(circle), "--seed", "13", "--samples", "200",
         "--format", "csv"],
        ["star-check", "--input", str(star), "--seed", "13", "--samples", "3",
         "--alpha", "0,0.5,1"],
        ["counterexample", "ell3", "--n", "3", "--seed", "13", "--starts", "32"],
        ["boundary", "--input", str(bdry), "--grid", "64", "--format", "csv"],
        ["boundary", "--input", str(bdry), "--grid", "64", "--format", "svg"],
    ]
    ok = True
    for k, argv in enumerate(runs):
        o1, o2 = tmp_path / f"a{k}", tmp_path / f"b{k}"
        rc1 = cli_main(argv + ["--out", str(o1)])
        rc2 = cli_main(argv + ["--out", str(o2)])
        ok = ok and rc1 == rc2 and o1.read_bytes() == o2.read_bytes()
    _report("11 CLI determinism", ok, f"{len(runs)} commands byte-identical",
            time.time() - t0, 60)
