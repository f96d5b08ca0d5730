"""Constructive star-shapedness certificates for orbit images.

Any point of the image scaled toward the origin is re-realized by an explicit
rotation. The engine is a homotopy: the scaled target sits inside an ellipse
or ellipsoid swept by a rotation block at the starting frame; moving the frame
continuously to a degenerate one forces the target through the swept surface,
and a bisection pins down the crossing, where the surface parametrization
yields the witness rotation.

For planar maps the frame is a single rotation of size n >= 3 and the scaled
rows are handled two at a time; for ell >= 3 coordinates the homotopy runs at
the minimal block size 2^(ell-1) on block-combined matrices, and larger n is
reached by composing over all row subsets of that size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.linalg

from .config import tolerances
from .ellipsoids import (
    ellipse_eu,
    ellipsoid_euv,
    degenerate_u0,
    degenerate_uv,
    membership,
    surface_projection,
)
from .linalg import (
    DimensionError,
    NumericalError,
    PreconditionError,
    ensure_rng,
    geodesic,
    haar_rotation,
    require_rotation,
    require_square,
)
from .orbits import JointOrbitSpec, LinearMapSpec, OrbitSpec, apply_map, reduce_joint


@dataclass(frozen=True)
class Certificate:
    """Explicit rotation(s) realizing a target point, with re-checked residual."""

    target: np.ndarray
    witness: tuple
    achieved: np.ndarray
    residual: float
    trace: list

    def to_json(self, include_witness: bool = True) -> dict:
        out = {
            "target": [float(x) for x in self.target],
            "achieved": [float(x) for x in self.achieved],
            "residual": float(self.residual),
            "iterations": int(sum(step.get("iterations", 0) for step in self.trace)),
            "trace": self.trace,
        }
        if include_witness:
            out["witness"] = [w.tolist() for w in self.witness]
        return out


@dataclass
class StarTargetResult:
    index: int
    alpha: float
    residual: float
    ok: bool
    iterations: int = 0
    error: str | None = None


@dataclass
class StarReport:
    """Batch certification outcome with per-target residuals."""

    results: list
    config: dict

    @property
    def max_residual(self) -> float:
        vals = [r.residual for r in self.results if r.ok]
        return max(vals) if vals else float("nan")

    @property
    def failures(self) -> list:
        return [r for r in self.results if not r.ok]

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "max_residual": float(self.max_residual),
            "num_failures": len(self.failures),
            "results": [
                {
                    "index": r.index,
                    "alpha": r.alpha,
                    "residual": r.residual,
                    "ok": r.ok,
                    "iterations": r.iterations,
                    "error": r.error,
                }
                for r in self.results
            ],
        }


def _solve_on_family(curve_at, y):
    """Find (angles, s, iterations, curve) with curve_at(s).point(angles) = y.

    Precondition: y inside or on curve_at(0); curve_at(1) degenerate. The
    bisection runs on the radial coordinate minus one, treated as +inf when y
    leaves the degenerate span.
    """
    c0 = curve_at(0.0)
    m0 = membership(c0, y)
    if m0.classification in ("boundary", "on-degenerate-span"):
        return m0.witness_angles, 0.0, 0, c0
    if m0.classification in ("outside", "off-degenerate-span"):
        raise PreconditionError(
            f"target lies outside the starting curve (radial {m0.radial:.6g})"
        )
    c1 = curve_at(1.0)
    m1 = membership(c1, y)
    if m1.classification in ("boundary", "on-degenerate-span"):
        return m1.witness_angles, 1.0, 0, c1
    g1 = m1.radial - 1.0
    if np.isfinite(g1) and g1 < 0.0:
        raise NumericalError(
            "target remains interior at the degenerate frame; no crossing to bisect"
        )
    lo, hi = 0.0, 1.0
    best_s, best_g = None, np.inf
    iterations = 0
    for iterations in range(1, tolerances.max_bisection_iter + 1):
        mid = 0.5 * (lo + hi)
        radial, _, _ = surface_projection(curve_at(mid), y)
        g = radial - 1.0
        if np.isfinite(g) and abs(g) < abs(best_g):
            best_s, best_g = mid, g
        if abs(g) <= tolerances.bisection_gtol:
            break
        if g < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16:
            break
    if best_s is None:
        raise NumericalError("bisection never reached the curve surface")
    curve = curve_at(best_s)
    _, _, angles = surface_projection(curve, y)
    if angles is None:
        raise NumericalError("crossing point left the reachable span")
    return angles, best_s, iterations, curve


def homotopy_realize(m_list, y, start_frame, rng=None) -> Certificate:
    """Witness rotation X with (tr(M_1 X), ..., tr(M_ell X)) equal to y.

    The target must lie inside or on the swept curve at the starting frame.
    Planar maps (two matrices, size >= 3) move a single frame toward the
    rank-killing frame of the pair; for ell >= 3 the matrices have the minimal
    block size 2^(ell-1) and both frames of the centered ellipsoid travel to
    the pair produced by the diagonal quarter-turn construction.
    """
    mats = [require_square(m, f"M[{i}]") for i, m in enumerate(m_list)]
    ell = len(mats)
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != ell:
        raise DimensionError(f"target has dimension {y.size}, map has {ell}")

    if ell == 2:
        n = mats[0].shape[0]
        if mats[1].shape[0] != n:
            raise DimensionError(
                f"matrices differ in size: {mats[0].shape} vs {mats[1].shape}"
            )
        if n < 3:
            raise DimensionError(
                "planar homotopy needs size >= 3; no degenerate frame exists at size 2"
            )
        if isinstance(start_frame, tuple):
            left = require_rotation(start_frame[0], "start frame (left)")
            if np.max(np.abs(left - np.eye(n))) > tolerances.matrix_residual:
                raise ValueError(
                    "the planar family moves a single right frame; pass the "
                    "rotation alone or pair it with the identity on the left"
                )
            start = require_rotation(start_frame[-1], "start frame")
        else:
            start = require_rotation(start_frame, "start frame")
        u_deg = degenerate_u0(mats[0], mats[1])
        path = geodesic(start, u_deg, rng=rng)

        def curve_at(s):
            return ellipse_eu(mats[0], mats[1], path(s))

    elif ell >= 3:
        n = 2 ** (ell - 1)
        for i, m in enumerate(mats):
            if m.shape[0] != n:
                raise DimensionError(
                    f"M[{i}] has shape {m.shape}, expected {(n, n)} for ell={ell}"
                )
        us, vs = start_frame
        us = require_rotation(us, "start frame U")
        vs = require_rotation(vs, "start frame V")
        ud, vd = degenerate_uv(mats[0])
        path_u = geodesic(us, ud, rng=rng)
        path_v = geodesic(vs, vd, rng=rng)

        def curve_at(s):
            return ellipsoid_euv(mats, path_u(s), path_v(s))

    else:
        raise DimensionError("need at least two map coordinates")

    angles, s, iterations, curve = _solve_on_family(curve_at, y)
    x = curve.witness(angles)
    achieved = apply_map(mats, x)
    residual = float(np.linalg.norm(achieved - y))
    if residual > tolerances.certificate_residual:
        raise NumericalError(
            f"homotopy witness residual {residual:.3e} exceeds "
            f"{tolerances.certificate_residual:.1e}"
        )
    return Certificate(
        target=y,
        witness=(x,),
        achieved=achieved,
        residual=residual,
        trace=[{"s": float(s), "iterations": int(iterations),
                "angles": [float(a) for a in np.atleast_1d(angles)]}],
    )


def _front_permutation(n: int, rows) -> np.ndarray:
    rows = tuple(rows)
    rest = [r for r in range(n) if r not in rows]
    return np.array(list(rows) + rest)


def certify_row_scaled(m1, m2, frame, eps: float, rows=(0, 1), rng=None) -> Certificate:
    """Realize the point whose designated two rows are scaled by eps in [0, 1].

    The scaled point sits inside or on the row-pair ellipse at the current
    frame, so one homotopy call produces the witness. Row pairs other than
    (0, 1) are reduced to the leading pair by a permutation conjugation, which
    preserves traces and keeps the frame a rotation.
    """
    m1 = require_square(m1, "M1")
    m2 = require_square(m2, "M2")
    frame = require_rotation(frame, "frame")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    n = m1.shape[0]
    perm = _front_permutation(n, rows)
    inv = np.argsort(perm)
    mats = [m[perm][:, perm] for m in (m1, m2)]
    w = frame[perm][:, perm]
    scaled = [m.copy() for m in mats]
    for m in scaled:
        m[:2, :] *= eps
    target = np.array([np.einsum("ij,ji->", m, w) for m in scaled])
    cert = homotopy_realize(mats, target, w, rng=rng)
    witness = cert.witness[0][inv][:, inv]
    achieved = np.array(
        [np.einsum("ij,ji->", m, witness) for m in (m1, m2)]
    )
    return Certificate(
        target=target,
        witness=(witness,),
        achieved=achieved,
        residual=float(np.linalg.norm(achieved - target)),
        trace=[{"rows": list(rows), **cert.trace[0]}],
    )


def certify_scaled_point(lmap, a, u, v, alpha: float, rng=None) -> Certificate:
    """Certificate that alpha times the image point of (U, V) stays in the image.

    Decomposes the scaling over all row subsets of the block size (2 for
    planar maps, 2^(ell-1) otherwise) in lexicographic order. Each row belongs
    to C(n-1, block-1) subsets, so eps is the corresponding root of alpha and
    each subset step realizes one eps-row-scaled point via a single homotopy,
    composing witnesses right-to-left.
    """
    lmap = lmap if isinstance(lmap, LinearMapSpec) else LinearMapSpec(tuple(lmap))
    a = require_square(a, "A")
    u = require_rotation(u, "U")
    v = require_rotation(v, "V")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    n = a.shape[0]
    ell = lmap.ell
    if lmap.n != n:
        raise DimensionError(f"map coefficients are {lmap.n}x{lmap.n}, A is {a.shape}")
    if ell == 2:
        if n < 3:
            raise PreconditionError("planar certification needs n >= 3")
        block = 2
    elif ell >= 3:
        block = 2 ** (ell - 1)
        if n < block:
            raise PreconditionError(
                f"certification with {ell} coordinates needs n >= {block}, got {n}"
            )
    else:
        raise PreconditionError("need at least two map coordinates")

    mats = [(p @ u) @ a for p in lmap.mats]
    subsets = list(itertools.combinations(range(n), block))
    exponent = comb(n - 1, block - 1)
    eps = float(alpha) ** (1.0 / exponent) if alpha > 0.0 else 0.0
    target = alpha * apply_map(lmap, (u @ a) @ v)

    counts = np.zeros((len(subsets) + 1, n), dtype=int)
    for t, rows in enumerate(subsets):
        counts[t + 1] = counts[t]
        counts[t + 1, list(rows)] += 1

    w = v.copy()
    steps = []
    for t in reversed(range(len(subsets))):
        rows = subsets[t]
        rowscale = eps ** counts[t].astype(float)
        scaled_mats = [rowscale[:, None] * m for m in mats]
        perm = _front_permutation(n, rows)
        inv = np.argsort(perm)
        nmats = [m[perm][:, perm] for m in scaled_mats]
        wt = w[perm][:, perm]
        if ell == 2:
            step_scaled = [m.copy() for m in nmats]
            for m in step_scaled:
                m[:block, :] *= eps
            step_target = np.array(
                [np.einsum("ij,ji->", m, wt) for m in step_scaled]
            )
            cert = homotopy_realize(nmats, step_target, wt, rng=rng)
            wt = cert.witness[0]
        else:
            b_list = [m[:block, :] @ wt[:, :block] for m in nmats]
            tb = np.array([np.trace(b) for b in b_list])
            cert = homotopy_realize(
                b_list, eps * tb, (np.eye(block), np.eye(block)), rng=rng
            )
            x = cert.witness[0]
            wt = wt @ scipy.linalg.block_diag(x, np.eye(n - block))
        w = wt[inv][:, inv]
        steps.append({"rows": list(rows), **cert.trace[0]})

    achieved = apply_map(lmap, (u @ a) @ w)
    residual = float(np.linalg.norm(achieved - target))
    return Certificate(
        target=target,
        witness=(u, w),
        achieved=achieved,
        residual=residual,
        trace=[{"alpha": float(alpha), "eps": eps, "exponent": exponent}] + steps,
    )


def _one_target(make_cert, idx, alpha_grid) -> list:
    certs = make_cert(idx)
    out = []
    for alpha in alpha_grid:
        try:
            cert = certs(alpha)
            out.append(
                StarTargetResult(
                    index=idx,
                    alpha=float(alpha),
                    residual=cert.residual,
                    ok=cert.residual <= tolerances.certificate_residual,
                    iterations=sum(s.get("iterations", 0) for s in cert.trace),
                )
            )
        except (NumericalError, PreconditionError) as exc:
            out.append(
                StarTargetResult(
                    index=idx,
                    alpha=float(alpha),
                    residual=float("nan"),
                    ok=False,
                    error=str(exc),
                )
            )
    return out


def _run_targets(make_cert, num_targets, alpha_grid, config) -> StarReport:
    results = [r for i in range(num_targets) for r in _one_target(make_cert, i, alpha_grid)]
    return StarReport(results=results, config=config)


def star_check(lmap, orbit: OrbitSpec, num_targets: int, alpha_grid, rng) -> StarReport:
    """Certify alpha-scaled random image points of the orbit; failures are recorded."""
    lmap = lmap if isinstance(lmap, LinearMapSpec) else LinearMapSpec(tuple(lmap))
    rng = ensure_rng(rng)
    n = orbit.n
    frames = [(haar_rotation(n, rng), haar_rotation(n, rng)) for _ in range(num_targets)]

    def make_cert(idx):
        u, v = frames[idx]
        return lambda alpha: certify_scaled_point(lmap, orbit.a, u, v, alpha)

    config = {
        "kind": "single",
        "n": n,
        "ell": lmap.ell,
        "num_targets": num_targets,
        "alpha_grid": [float(a) for a in alpha_grid],
        "tolerances": tolerances.as_dict(),
    }
    return _run_targets(make_cert, num_targets, list(alpha_grid), config)


def star_check_joint(
    l_joint, joint: JointOrbitSpec, num_targets: int, alpha_grid, rng
) -> StarReport:
    """Star check for joint orbits.

    O1 and O2 reduce to a single-rotation map once and delegate; O3 freezes
    the left frame per target (coefficients sum_i P_i^(j) @ U @ A_i) and
    certifies the scaling on the right factor.
    """
    rng = ensure_rng(rng)
    n = joint.n
    if joint.kind in ("O1", "O2"):
        reduced = reduce_joint(l_joint, joint.a_list, joint.kind)
        report = star_check(reduced, OrbitSpec(np.eye(n)), num_targets, alpha_grid, rng)
        report.config["kind"] = f"joint-{joint.kind}"
        report.config["m"] = joint.m
        return report

    rows = [
        [require_square(p, f"P[{j}][{i}]") for i, p in enumerate(coeffs)]
        for j, coeffs in enumerate(l_joint)
    ]
    for j, coeffs in enumerate(rows):
        if len(coeffs) != joint.m:
            raise DimensionError(
                f"map row {j} has {len(coeffs)} coefficients for m={joint.m}"
            )
    frames = [(haar_rotation(n, rng), haar_rotation(n, rng)) for _ in range(num_targets)]
    identity = np.eye(n)

    def make_cert(idx):
        u, v = frames[idx]
        frozen = LinearMapSpec(
            tuple(
                sum((p @ u) @ a for p, a in zip(coeffs, joint.a_list))
                for coeffs in rows
            )
        )
        return lambda alpha: certify_scaled_point(frozen, identity, identity, v, alpha)

    config = {
        "kind": "joint-O3",
        "n": n,
        "m": joint.m,
        "ell": len(rows),
        "num_targets": num_targets,
        "alpha_grid": [float(a) for a in alpha_grid],
        "tolerances": tolerances.as_dict(),
    }
    return _run_targets(make_cert, num_targets, list(alpha_grid), config)
