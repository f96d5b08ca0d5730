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
from .linalg import DimensionError, PreconditionError, haar_rotation, require_square
from .orbits import JointOrbitSpec, reduce_joint, sample_image
from .svgplot import render_svg


class InputError(Exception):
    pass


def _load_input(path):
    if path is None:
        raise InputError("this subcommand requires --input <json-file>")
    try:
        obj = ser.load_json_file(path)
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected a JSON object at the top level")
    return obj


def _get_matrix(obj, key, path):
    if key not in obj:
        raise InputError(f"{path}: missing key {key!r}")
    return ser.matrix_from_json(obj[key], key)


def _input_matrices(path, *keys):
    """The matrices under ``keys`` in the JSON input file at ``path``."""
    obj = _load_input(path)
    return [_get_matrix(obj, key, path) for key in keys]


def _get_map(obj, path):
    if "map" not in obj:
        raise InputError(f"{path}: missing key 'map' ({{'P': [matrix, ...]}})")
    return ser.map_from_json(obj["map"], "map")


def _require_seed(args):
    if args.seed is None:
        raise InputError("this subcommand draws random samples; --seed is required")
    return np.random.default_rng(args.seed)


def _parse_alpha(text):
    """The --alpha list; the library checks the range of each value."""
    try:
        vals = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise InputError(f"cannot parse --alpha list: {text!r}")
    if not vals:
        raise InputError("--alpha needs at least one value")
    return vals


def _vector(obj, key, path):
    """The list of numbers under ``key`` (empty when missing) as a float array."""
    return ser._numbers(obj.get(key, []), f"{path}: {key!r} must be a list of numbers")


def _number(value, key, path):
    """``value``, read under ``key``, if it is a JSON number that a float can hold."""
    if not ser._is_number(value):
        raise InputError(f"{path}: {key!r} must be a number, got {value!r}")
    if type(value) is int and abs(value) > sys.float_info.max:
        raise InputError(f"{path}: {key!r} is an integer beyond the float range")
    return value


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
    rng = _require_seed(args)
    if args.format == "svg" and lmap.ell < 2:
        raise InputError("svg rendering of samples needs at least two map coordinates")
    cloud = sample_image(lmap, a, args.samples, rng)
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
    a, p, q = _input_matrices(args.input, "A", "P", "Q")
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
    report = cf.star_check(lmap, a, args.samples, alphas, rng)
    _json_out(args, report.to_json(), seed_used=args.seed)
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
    alpha = _number(alpha, "alpha", args.input)
    if "U" in obj or "V" in obj:  # both or neither: a lone frame is a missing key
        u = _get_matrix(obj, "U", args.input)
        v = _get_matrix(obj, "V", args.input)
    else:
        rng = _require_seed(args)
        u = haar_rotation(a.shape[0], rng)
        v = haar_rotation(a.shape[0], rng)
    try:
        cert = cf.certify_scaled_point(lmap, a, u, v, float(alpha))
    except (cf.NumericalError, PreconditionError) as exc:
        _json_out(args, {"ok": False, "alpha": float(alpha), "error": str(exc)},
                  seed_used=args.seed)
        return 1
    # certify_scaled_point raises past the residual bound, so a returned certificate passed
    payload = cert.to_json(include_witness=not args.no_witness)
    payload["alpha"] = float(alpha)
    payload["ok"] = True
    _json_out(args, payload, seed_used=args.seed)
    return 0


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
        if curve.ell != 2:
            raise InputError("svg rendering of curves is planar only")
        thetas = np.linspace(0.0, 2.0 * np.pi, 360)
        _emit(args, render_svg(curve=np.array([curve.point([t]) for t in thetas])))
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
    p, a = _input_matrices(args.input, "P", "A")
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
    p, a = _input_matrices(args.input, "P", "A")
    rng = _require_seed(args)
    if args.samples < 1:
        raise InputError(f"samples must be at least 1, got {args.samples}")
    structure = bd.MaximizerStructure.from_diagonal_p(p, a)
    mats = bd.gamma_sample(structure, args.samples, rng)
    reports = [bd.gamma_verify(b, structure) for b in mats]
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
    d = _vector(obj, "d", args.input)
    if "A" in obj:
        if "s" in obj or "det_sign" in obj:
            raise InputError(f"{args.input}: give either 'A' or 's' and 'det_sign', not both")
        a = require_square(_get_matrix(obj, "A", args.input), "A")
        s = np.linalg.svd(a, compute_uv=False)
        # slogdet's sign never underflows; it is 0 where LU meets a zero pivot
        det_sign = int(np.linalg.slogdet(a)[0])
    else:
        s = _vector(obj, "s", args.input)
        det_sign = _number(obj.get("det_sign", 1), "det_sign", args.input)
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
    a, p, q = _input_matrices(args.input, "A", "P", "Q")
    rng = _require_seed(args)
    report = bd.convexity_check(p, q, a, samples=args.samples, rng=rng, grid=args.grid)
    _json_out(args, report.to_json(), seed_used=args.seed)
    return 0 if report.passed else 1


def _cmd_joint(args):
    obj = _load_input(args.input)
    maps = obj.get("maps")
    if not (isinstance(obj.get("A_list"), list) and isinstance(maps, list)
            and all(isinstance(row, list) for row in maps)):
        raise InputError(
            f"{args.input}: joint input needs 'A_list' (matrices) and 'maps' "
            f"(list over coordinates of lists over orbit matrices)"
        )
    a_list = [ser.matrix_from_json(m, f"A_list[{i}]") for i, m in enumerate(obj["A_list"])]
    rows = [
        [ser.matrix_from_json(p, f"maps[{j}][{i}]") for i, p in enumerate(row)]
        for j, row in enumerate(maps)
    ]
    kind = obj.get("kind", "O3")
    joint = JointOrbitSpec(tuple(a_list), kind)
    rng = _require_seed(args)
    alphas = _parse_alpha(args.alpha)
    report = cf.star_check_joint(rows, joint, args.samples, alphas, rng)
    payload = report.to_json()
    if kind in ("O1", "O2"):
        payload["reduced_map"] = ser.map_to_json(reduce_joint(rows, a_list, kind))
    _json_out(args, payload, seed_used=args.seed)
    return 0 if not report.failures else 1


# The argparse keywords of each option, whichever subcommand reads it
_OPTIONS = {
    "--input": {"help": "path to the JSON input file"},
    "--seed": {"type": int, "help": "RNG seed (required for sampling)"},
    "--out": {"help": "output path (stdout when omitted)"},
    "--format": {},
    "--samples": {"type": int},
    "--grid": {"type": int},
    "--alpha": {},
    "--threads": {"type": int, "help": "accepted for compatibility; ignored"},
    "--no-witness": {"action": "store_true", "help": "omit the witness matrix from output"},
    "kind": {"choices": ["ell3", "joint"]},
    "--n": {"type": int},
    "--m": {"type": int, "help": "orbit matrices of the joint instance (default 2)"},
    "--ell": {"type": int},
    "--starts": {"type": int},
}

_FILE = {"--input": None, "--out": None}
_SEEDED = {"--input": None, "--seed": None, "--out": None}
_STAR = {**_SEEDED, "--samples": 10, "--threads": None}

# Every subcommand's handler, help text and the options it reads, with their
# defaults; a --format entry gives the choices, of which the first is the default.
_COMMANDS = {
    "sample": (_cmd_sample, "CSV/JSON point cloud of an orbit image",
               {**_SEEDED, "--format": ("json", "csv", "svg"), "--samples": 1000}),
    "boundary": (_cmd_boundary, "exact planar support boundary",
                 {**_FILE, "--format": ("json", "csv", "svg"), "--grid": 720}),
    "star-check": (_cmd_star_check, "batch star-shapedness certification",
                   {**_STAR, "--alpha": "0,0.25,0.5,0.75,1"}),
    "certify": (_cmd_certify, "one scaled-point certificate",
                {**_SEEDED, "--alpha": None, "--no-witness": False}),
    "ellipse": (_cmd_ellipse, "ellipse/ellipsoid locus of a frame",
                {**_FILE, "--format": ("json", "svg")}),
    "degenerate": (_cmd_degenerate, "degenerate frame construction", _FILE),
    "maxtrace": (_cmd_maxtrace, "closed-form trace maximum and frames", _FILE),
    "gamma": (_cmd_gamma, "sample and verify trace maximizers", {**_SEEDED, "--samples": 20}),
    "thompson": (_cmd_thompson, "diagonal hull membership", _FILE),
    "counterexample": (_cmd_counterexample, "verify a stock non-convexity instance",
                       {"kind": None, "--n": 3, "--m": None, "--ell": 3, "--starts": 256,
                        "--seed": None, "--out": None}),
    "convexity": (_cmd_convexity, "support region vs sampled hull",
                  {**_SEEDED, "--samples": 100000, "--grid": 720}),
    "joint": (_cmd_joint, "joint-orbit reduction and star check",
              {**_STAR, "--alpha": "0,0.5,1"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitgeom",
        description="Linear images of rotation orbits: certificates, boundaries, counterexamples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        for flag, default in options.items():
            keywords = {**_OPTIONS[flag], "default": default}
            if flag == "--format":
                keywords.update(choices=default, default=default[0])
            sp.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "counterexample" and args.kind == "ell3" and args.m is not None:
        parser.error(f"unrecognized arguments: --m {args.m} (only counterexample joint reads it)")
    try:
        return args.handler(args)
    except (InputError, DimensionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
