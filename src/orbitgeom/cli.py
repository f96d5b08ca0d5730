"""Command-line surface: JSON in, JSON/CSV/SVG out, seeded and reproducible.

Every stochastic subcommand requires an explicit --seed (no wall-clock
entropy); identical config plus seed yields byte-identical artifacts. Exit
status: 0 on success, 1 when a report records failures, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import boundary as bd
from . import certify as cf
from . import ellipsoids as el
from . import serialize as ser
from .config import tolerances
from .linalg import DimensionError, PreconditionError
from .orbits import JointOrbitSpec, OrbitSpec, sample_image
from .svgplot import render_svg


class InputError(Exception):
    pass


def _load_input(path):
    if path is None:
        raise InputError("this subcommand requires --input <json-file>")
    try:
        return ser.load_json_file(path)
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )


def _get_matrix(obj, key, path):
    if key not in obj:
        raise InputError(f"{path}: missing key {key!r}")
    return ser.matrix_from_json(obj[key], key)


def _get_map(obj, path):
    if "map" not in obj:
        raise InputError(f"{path}: missing key 'map' ({{'P': [matrix, ...]}})")
    return ser.map_from_json(obj["map"], "map")


def _require_seed(args):
    if args.seed is None:
        raise InputError("this subcommand draws random samples; --seed is required")
    return np.random.default_rng(args.seed)


def _parse_alpha(text):
    try:
        vals = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise InputError(f"cannot parse --alpha list: {text!r}")
    if not vals or any(not 0.0 <= v <= 1.0 for v in vals):
        raise InputError("--alpha values must lie in [0, 1]")
    return vals


def _emit(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_out(args, payload, seed_used=None):
    payload = dict(payload)
    payload.setdefault("tolerances", tolerances.as_dict())
    if seed_used is not None:
        payload.setdefault("seed", seed_used)
    _emit(args, ser.dump_json(payload))


def _cmd_sample(args):
    obj = _load_input(args.input)
    a = _get_matrix(obj, "A", args.input)
    lmap = _get_map(obj, args.input)
    group = obj.get("group", "SO")
    rng = _require_seed(args)
    cloud = sample_image(lmap, OrbitSpec(a, group), args.samples, rng, seed=args.seed)
    if args.format == "csv":
        _emit(args, ser.cloud_to_csv(cloud))
        print(f"seed={args.seed} samples={len(cloud)}", file=sys.stderr)
    elif args.format == "svg":
        _emit(args, render_svg(points=cloud.points[:, :2]))
    else:
        _json_out(
            args,
            {"points": cloud.points.tolist(), "count": len(cloud)},
            seed_used=args.seed,
        )
    return 0


def _cmd_boundary(args):
    obj = _load_input(args.input)
    a = _get_matrix(obj, "A", args.input)
    p = _get_matrix(obj, "P", args.input)
    q = _get_matrix(obj, "Q", args.input)
    region = bd.support_boundary(p, q, a, args.grid)
    if args.format == "csv":
        _emit(args, ser.support_samples_to_csv(region))
    elif args.format == "svg":
        _emit(args, render_svg(polygon=region.vertices, points=region.touches))
    else:
        _json_out(
            args,
            {
                "thetas": region.thetas.tolist(),
                "values": region.values.tolist(),
                "touches": region.touches.tolist(),
                "vertices": region.vertices.tolist(),
                "diameter": region.diameter(),
            },
        )
    return 0


def _cmd_star_check(args):
    obj = _load_input(args.input)
    a = _get_matrix(obj, "A", args.input)
    lmap = _get_map(obj, args.input)
    rng = _require_seed(args)
    alphas = _parse_alpha(args.alpha)
    report = cf.star_check(lmap, OrbitSpec(a), args.samples, alphas, rng)
    payload = report.to_json()
    payload["seed"] = args.seed
    _json_out(args, payload)
    return 0 if not report.failures else 1


def _cmd_certify(args):
    obj = _load_input(args.input)
    a = _get_matrix(obj, "A", args.input)
    lmap = _get_map(obj, args.input)
    alpha = obj.get("alpha", None)
    if args.alpha is not None:
        vals = _parse_alpha(args.alpha)
        if len(vals) != 1:
            raise InputError("certify takes a single --alpha value")
        alpha = vals[0]
    if alpha is None:
        raise InputError("certify needs 'alpha' in the input or --alpha")
    if "U" in obj and "V" in obj:
        u = _get_matrix(obj, "U", args.input)
        v = _get_matrix(obj, "V", args.input)
        seed_used = args.seed
    else:
        rng = _require_seed(args)
        from .linalg import haar_rotation

        u = haar_rotation(a.shape[0], rng)
        v = haar_rotation(a.shape[0], rng)
        seed_used = args.seed
    try:
        cert = cf.certify_scaled_point(lmap, a, u, v, float(alpha))
    except (cf.NumericalError, PreconditionError) as exc:
        _json_out(args, {"ok": False, "alpha": float(alpha), "error": str(exc)},
                  seed_used=seed_used)
        return 1
    payload = cert.to_json(include_witness=not args.no_witness)
    payload["alpha"] = float(alpha)
    payload["ok"] = bool(cert.residual <= tolerances.certificate_residual)
    _json_out(args, payload, seed_used=seed_used)
    return 0 if payload["ok"] else 1


def _cmd_ellipse(args):
    obj = _load_input(args.input)
    if "map" in obj:
        lmap = _get_map(obj, args.input)
        u = _get_matrix(obj, "U", args.input)
        v = _get_matrix(obj, "V", args.input)
        curve = el.ellipsoid_euv(lmap.mats, u, v)
    else:
        p = _get_matrix(obj, "P", args.input)
        q = _get_matrix(obj, "Q", args.input)
        u = _get_matrix(obj, "U", args.input)
        curve = el.ellipse_eu(p, q, u)
    if args.format == "svg":
        thetas = np.linspace(0.0, 2.0 * np.pi, max(args.grid, 16))
        pts = np.array([curve.point([t]) for t in thetas]) if curve.ell == 2 else None
        if pts is None:
            raise InputError("svg rendering of curves is planar only")
        _emit(args, render_svg(curve=pts))
        return 0
    _json_out(
        args,
        {
            "kind": curve.kind,
            "shape": ser.matrix_to_json(curve.shape),
            "center": curve.center.tolist(),
            "degenerate": curve.is_degenerate(),
        },
    )
    return 0


def _cmd_degenerate(args):
    obj = _load_input(args.input)
    if "P1" in obj:
        p1 = _get_matrix(obj, "P1", args.input)
        u, v = el.degenerate_uv(p1)
        row = el.spherical_coeffs(u @ p1 @ v)
        _json_out(
            args,
            {
                "kind": "two-sided",
                "U": ser.matrix_to_json(u),
                "V": ser.matrix_to_json(v),
                "first_row_norm": float(np.linalg.norm(row)),
            },
        )
        return 0
    p = _get_matrix(obj, "P", args.input)
    q = _get_matrix(obj, "Q", args.input)
    u0 = el.degenerate_u0(p, q)
    curve = el.ellipse_eu(p, q, u0)
    _json_out(
        args,
        {
            "kind": "planar",
            "U0": ser.matrix_to_json(u0),
            "shape_det": float(np.linalg.det(curve.shape)),
        },
    )
    return 0


def _cmd_maxtrace(args):
    obj = _load_input(args.input)
    p = _get_matrix(obj, "P", args.input)
    a = _get_matrix(obj, "A", args.input)
    value = bd.max_trace(p, a)
    u, v = bd.argmax_frames(p, a)
    achieved = float(np.einsum("ij,ji->", p, u @ a @ v))
    _json_out(
        args,
        {
            "value": value,
            "achieved": achieved,
            "U": ser.matrix_to_json(u),
            "V": ser.matrix_to_json(v),
        },
    )
    return 0


def _cmd_gamma(args):
    obj = _load_input(args.input)
    p = _get_matrix(obj, "P", args.input)
    a = _get_matrix(obj, "A", args.input)
    rng = _require_seed(args)
    structure = bd.MaximizerStructure.from_diagonal_p(p, a)
    mats = bd.gamma_sample(structure, args.samples, rng)
    reports = [bd.gamma_verify(b, p, a, structure) for b in mats]
    _json_out(
        args,
        {
            "r": bd.gamma_value(structure),
            "block_sizes": list(structure.block_sizes),
            "values": list(structure.values),
            "samples": len(mats),
            "all_verified": all(r.passed for r in reports),
            "max_trace_gap": max(r.trace_gap for r in reports),
            "max_off_block": max(r.max_off_block for r in reports),
        },
        seed_used=args.seed,
    )
    return 0 if all(r.passed for r in reports) else 1


def _cmd_thompson(args):
    obj = _load_input(args.input)
    if "d" not in obj:
        raise InputError(f"{args.input}: missing key 'd' (diagonal vector)")
    d = np.asarray(obj["d"], dtype=float)
    if "A" in obj:
        a = _get_matrix(obj, "A", args.input)
        s = np.linalg.svd(a, compute_uv=False)
        det = float(np.linalg.det(a))
        det_sign = 0 if det == 0 else (1 if det > 0 else -1)
    else:
        s = np.asarray(obj.get("s", []), dtype=float)
        det_sign = int(obj.get("det_sign", 1))
    result = bd.thompson_membership(bd.DiagonalHullQuery(d=d, s=s, det_sign=det_sign))
    payload = {"member": result.member}
    if result.member:
        payload["weights"] = result.weights.tolist()
    else:
        payload["functional"] = result.functional.tolist()
        payload["margin"] = result.margin
    _json_out(args, payload)
    return 0


def _cmd_counterexample(args):
    rng = _require_seed(args)
    report = bd.counterexample_report(
        args.kind, n=args.n, m=args.m, ell=args.ell, rng=rng, starts=args.starts
    )
    _json_out(args, report, seed_used=args.seed)
    return 0 if report["passed"] else 1


def _cmd_convexity(args):
    obj = _load_input(args.input)
    a = _get_matrix(obj, "A", args.input)
    p = _get_matrix(obj, "P", args.input)
    q = _get_matrix(obj, "Q", args.input)
    rng = _require_seed(args)
    report = bd.convexity_check(p, q, a, samples=args.samples, rng=rng, grid=args.grid)
    payload = report.to_json()
    _json_out(args, payload, seed_used=args.seed)
    return 0 if report.passed else 1


def _cmd_joint(args):
    obj = _load_input(args.input)
    if "A_list" not in obj or "maps" not in obj:
        raise InputError(
            f"{args.input}: joint input needs 'A_list' (matrices) and 'maps' "
            f"(list over coordinates of lists over orbit matrices)"
        )
    a_list = [ser.matrix_from_json(m, f"A_list[{i}]") for i, m in enumerate(obj["A_list"])]
    rows = [
        [ser.matrix_from_json(p, f"maps[{j}][{i}]") for i, p in enumerate(row)]
        for j, row in enumerate(obj["maps"])
    ]
    kind = obj.get("kind", "O3")
    joint = JointOrbitSpec(tuple(a_list), kind)
    rng = _require_seed(args)
    alphas = _parse_alpha(args.alpha)
    report = cf.star_check_joint(rows, joint, args.samples, alphas, rng)
    payload = report.to_json()
    payload["seed"] = args.seed
    if kind in ("O1", "O2"):
        from .orbits import reduce_joint

        payload["reduced_map"] = ser.map_to_json(reduce_joint(rows, a_list, kind))
    _json_out(args, payload)
    return 0 if not report.failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitgeom",
        description="Linear images of rotation orbits: certificates, boundaries, counterexamples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, samples=None, grid=None, alpha=None):
        sp.add_argument("--input", help="path to the JSON input file")
        sp.add_argument("--seed", type=int, default=None, help="RNG seed (required for sampling)")
        sp.add_argument("--out", help="output path (stdout when omitted)")
        sp.add_argument("--format", choices=["json", "csv", "svg"], default="json")
        sp.add_argument("--tol", type=float, default=None, help="override the residual tolerance")
        sp.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility; ignored")
        if samples is not None:
            sp.add_argument("--samples", type=int, default=samples)
        if grid is not None:
            sp.add_argument("--grid", type=int, default=grid)
        if alpha is not None:
            sp.add_argument("--alpha", default=alpha)

    common(sub.add_parser("sample", help="CSV/JSON point cloud of an orbit image"), samples=1000)
    common(sub.add_parser("boundary", help="exact planar support boundary"), grid=720)
    common(sub.add_parser("star-check", help="batch star-shapedness certification"),
           samples=10, alpha="0,0.25,0.5,0.75,1")
    sp = sub.add_parser("certify", help="one scaled-point certificate")
    common(sp)
    sp.add_argument("--alpha", default=None)
    sp.add_argument("--no-witness", action="store_true", help="omit the witness matrix from output")
    common(sub.add_parser("ellipse", help="ellipse/ellipsoid locus of a frame"), grid=360)
    common(sub.add_parser("degenerate", help="degenerate frame construction"))
    common(sub.add_parser("maxtrace", help="closed-form trace maximum and frames"))
    common(sub.add_parser("gamma", help="sample and verify trace maximizers"), samples=20)
    common(sub.add_parser("thompson", help="diagonal hull membership"))
    sp = sub.add_parser("counterexample", help="verify a stock non-convexity instance")
    sp.add_argument("kind", choices=["ell3", "joint"])
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--ell", type=int, default=3)
    sp.add_argument("--starts", type=int, default=256)
    common(sp)
    common(sub.add_parser("convexity", help="support region vs sampled hull"),
           samples=100000, grid=720)
    common(sub.add_parser("joint", help="joint-orbit reduction and star check"),
           samples=10, alpha="0,0.5,1")
    return parser


_HANDLERS = {
    "sample": _cmd_sample,
    "boundary": _cmd_boundary,
    "star-check": _cmd_star_check,
    "certify": _cmd_certify,
    "ellipse": _cmd_ellipse,
    "degenerate": _cmd_degenerate,
    "maxtrace": _cmd_maxtrace,
    "gamma": _cmd_gamma,
    "thompson": _cmd_thompson,
    "counterexample": _cmd_counterexample,
    "convexity": _cmd_convexity,
    "joint": _cmd_joint,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    saved_tol = tolerances.certificate_residual
    if getattr(args, "tol", None) is not None:
        tolerances.certificate_residual = args.tol
    try:
        return _HANDLERS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DimensionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        tolerances.certificate_residual = saved_tol


if __name__ == "__main__":
    sys.exit(main())
