"""Constructive star-shapedness certificates for orbit images.

Any point of the image scaled toward the origin is re-realized by an explicit
rotation. The engine is a homotopy: the scaled target sits inside an ellipse
or ellipsoid swept by a rotation block at the starting frame; moving the frame
continuously to a degenerate one forces the target through the swept surface,
and a safeguarded false-position search pins down the crossing, where the
surface parametrization yields the witness rotation.

For planar maps the frame is a single rotation of size n >= 3 and the scaled
rows are handled two at a time; for ell >= 3 coordinates the homotopy runs at
the minimal block size 2^(ell-1) on block-combined matrices, and larger n is
reached by composing row-subset homotopies. The composition's subsets are the
minimal cyclic cover of the rows: consecutive windows of the block size, taken
mod n, so that every row is scaled equally often by the fewest subsets. In both
cases the search's trial points are evaluated in coefficient form: the swept
shape is a fixed linear combination of the paths' sines and cosines, so a
trial builds no frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from .config import tolerances
from .ellipsoids import (
    _bracket_root,
    _ellipse_eu,
    _ellipse_radial_along,
    _ellipsoid_euv,
    _ellipsoid_radial_along,
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


def _finite_or_none(x: float) -> float | None:
    return float(x) if np.isfinite(x) else None


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
        """JSON-ready report; a non-finite residual (a failed target's, or the
        maximum when no target passed) is written as null, which strict JSON
        parsers accept where they reject NaN."""
        return {
            "config": self.config,
            "max_residual": _finite_or_none(self.max_residual),
            "num_failures": len(self.failures),
            "results": [
                {
                    "index": r.index,
                    "alpha": r.alpha,
                    "residual": _finite_or_none(r.residual),
                    "ok": r.ok,
                    "iterations": r.iterations,
                    "error": r.error,
                }
                for r in self.results
            ],
        }


def _tight_bracket(g, s, gs, g0, g1):
    """Sign-change bracket (lo, hi, g(lo), g(hi), evaluations) of g next to s.

    Steps away from s toward the side where the sign changes, from 2^-30 and
    growing sixteenfold, and stops at the ends 0 and 1 of the homotopy, whose
    values g0 < 0 and g1 >= 0 are known.
    """
    step, evaluations = 2.0 ** -30, 0
    while True:
        x = min(1.0, s + step) if gs < 0.0 else max(0.0, s - step)
        if x in (0.0, 1.0):
            gx = g0 if x == 0.0 else g1
        else:
            gx, evaluations = g(x), evaluations + 1
        if (gx < 0.0) != (gs < 0.0):
            lo, hi = sorted(((s, gs), (x, gx)))
            return lo[0], hi[0], lo[1], hi[1], evaluations
        s, gs, step = x, gx, 16.0 * step


def _solve_on_family(start_curve, family, y):
    """Find (angles, s, iterations, curve) with curve.point(angles) = y.

    The homotopy's curves run from ``start_curve``, the checked curve at the
    starting frame (s = 0), to a degenerate one at s = 1. The target is
    classified against ``start_curve`` first; only when it lies strictly
    inside does ``family()`` build the path and return
    ``(curve_at, radial, trial_gtol)``: ``curve_at(s)`` builds the curve at
    the path's frames without input checks (the caller checks the witness it
    returns); ``radial(s)`` is the trial evaluator, the radial coordinate of
    y at s, +inf off a degenerate span. The bracketing root-finder runs on
    ``radial(s) - 1`` until |radial - 1| <= ``trial_gtol``. The gap is then
    read once on the curve that yields the witness angles; if it misses
    ``bisection_gtol`` there (a trial evaluator that agrees with the curve
    only up to roundoff can stop short on a nearly flat ellipse), the search
    continues on the curves' own radial, from a tight bracket around s.
    """
    m0 = membership(start_curve, y)
    if m0.classification in ("boundary", "on-degenerate-span"):
        return m0.witness_angles, 0.0, 0, start_curve
    if m0.classification in ("outside", "off-degenerate-span"):
        raise PreconditionError(
            f"target lies outside the starting curve (radial {m0.radial:.6g})"
        )
    curve_at, radial, trial_gtol = family()
    m1 = membership(curve_at(1.0), y)
    if m1.classification in ("boundary", "on-degenerate-span"):
        return m1.witness_angles, 1.0, 0, curve_at(1.0)
    g0, g1 = m0.radial - 1.0, m1.radial - 1.0
    if np.isfinite(g1) and g1 < 0.0:
        raise NumericalError(
            "target remains interior at the degenerate frame; no crossing to find"
        )
    gtol = tolerances.bisection_gtol
    s, iterations = _bracket_root(lambda s: radial(s) - 1.0, 0.0, 1.0, g0, g1, trial_gtol)
    curve = curve_at(s)
    r, _, angles = surface_projection(curve, y)
    # where the trial evaluator is the curve's own it reads the same gap,
    # and a search on the curves would retrace the same steps
    if not abs(r - 1.0) <= gtol and r != radial(s):

        def exact(s):
            return surface_projection(curve_at(s), y)[0] - 1.0

        lo, hi, glo, ghi, steps = _tight_bracket(exact, s, r - 1.0, g0, g1)
        s, more = _bracket_root(exact, lo, hi, glo, ghi, gtol)
        iterations += steps + more
        curve = curve_at(s)
        _, _, angles = surface_projection(curve, y)
    if angles is None:
        raise NumericalError("crossing point left the reachable span")
    return angles, s, iterations, curve


def homotopy_realize(m_list, y, start_frame) -> Certificate:
    """Witness rotation X with (tr(M_1 X), ..., tr(M_ell X)) equal to y.

    The target must lie inside or on the swept curve at the starting frame.
    Planar maps (two matrices, size >= 3) take one rotation as
    ``start_frame`` and move it toward the rank-killing frame of the pair; for
    ell >= 3 the matrices have the minimal block size 2^(ell-1),
    ``start_frame`` is the pair (U, V), and both frames of the centered
    ellipsoid travel to the pair produced by the diagonal quarter-turn
    construction. The degenerate frames and the paths (``geodesic``) are
    built only for a target strictly inside the starting curve. Trial points
    are evaluated in coefficient form, planar ones by
    ``_ellipse_radial_along`` and ell >= 3 ones by ``_ellipsoid_radial_along``;
    the witness comes from the curve at the crossing and is checked as a
    rotation.
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
        start = require_rotation(start_frame, "start frame")
        if start.shape[0] != n:
            raise DimensionError(f"start frame is {start.shape}, expected {(n, n)}")
        # P and Q are validated once, above, and the witness once, below
        p, q = mats
        start_curve = _ellipse_eu(p, q, start)

        def family():
            path = geodesic(start, degenerate_u0(p, q))

            def curve_at(s):
                return _ellipse_eu(p, q, path(s))

            # a trial costs microseconds, so its search runs on to the
            # radial's roundoff floor (one ulp of 1): the witness misses y by
            # about |y - center| |radial - 1|, so a target far from the
            # origin needs a far smaller gap than bisection_gtol
            return curve_at, _ellipse_radial_along(p, q, path, y), np.finfo(float).eps

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
        if us.shape[0] != n or vs.shape[0] != n:
            raise DimensionError(
                f"start frames must be {n}x{n}: U is {us.shape}, V is {vs.shape}"
            )
        start_curve = _ellipsoid_euv(mats, us, vs)

        def family():
            ud, vd = degenerate_uv(mats[0])
            path_u = geodesic(us, ud)
            path_v = geodesic(vs, vd)

            def curve_at(s):
                return _ellipsoid_euv(mats, path_u(s), path_v(s))

            return (curve_at, _ellipsoid_radial_along(mats, path_u, path_v, y),
                    tolerances.bisection_gtol)

    else:
        raise DimensionError("need at least two map coordinates")

    angles, s, iterations, curve = _solve_on_family(start_curve, family, y)
    x = require_rotation(curve.witness(angles), "witness")
    achieved = apply_map(mats, x)
    residual = float(np.linalg.norm(achieved - y))
    if not residual <= tolerances.certificate_residual:  # a NaN residual fails too
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


def _scaled_rows_step(mats, w, rows, eps):
    """One homotopy realizing the point of frame w with ``rows`` scaled by eps.

    Returns (witness, target, trace step). The rows are permuted to the front,
    a conjugation that preserves traces and keeps the frame a rotation. Two
    matrices scale the two leading rows and run the planar homotopy from w;
    more matrices run the block homotopy on their leading block, whose
    witness turns the leading columns of w. The witness is permuted back.
    """
    perm = _front_permutation(w.shape[0], rows)
    inv = np.argsort(perm)
    front = [m[perm][:, perm] for m in mats]
    wp = w[perm][:, perm]
    if len(mats) == 2:
        scaled = [m.copy() for m in front]
        for m in scaled:
            m[:2, :] *= eps
        target = np.array([np.einsum("ij,ji->", m, wp) for m in scaled])
        cert = homotopy_realize(front, target, wp)
        wp = cert.witness[0]
    else:
        block = len(rows)
        b_list = [m[:block, :] @ wp[:, :block] for m in front]
        target = eps * np.array([np.trace(b) for b in b_list])
        cert = homotopy_realize(b_list, target, (np.eye(block), np.eye(block)))
        wp[:, :block] = wp[:, :block] @ cert.witness[0]
    return wp[inv][:, inv], target, {"rows": list(rows), **cert.trace[0]}


def certify_row_scaled(m1, m2, frame, eps: float, rows=(0, 1)) -> Certificate:
    """Realize the point whose designated two rows are scaled by eps in [0, 1].

    The scaled point sits inside or on the row-pair ellipse at the current
    frame, so one homotopy call produces the witness. Row pairs other than
    (0, 1) are reduced to the leading pair by a permutation conjugation, which
    preserves traces and keeps the frame a rotation. ``rows`` must be two
    distinct indices in ``range(n)``; anything else raises ``ValueError``.
    """
    m1 = require_square(m1, "M1")
    m2 = require_square(m2, "M2")
    frame = require_rotation(frame, "frame")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    n = frame.shape[0]
    if m1.shape != (n, n) or m2.shape != (n, n):
        raise DimensionError(f"M1 is {m1.shape}, M2 is {m2.shape}, frame is {frame.shape}")
    rows = tuple(rows)
    if (len(rows) != 2 or rows[0] == rows[1]
            or not all(isinstance(r, (int, np.integer)) and 0 <= r < n for r in rows)):
        raise ValueError(f"rows must be two distinct indices in range({n}), got {rows}")
    witness, target, step = _scaled_rows_step((m1, m2), frame, rows, eps)
    achieved = np.array(
        [np.einsum("ij,ji->", m, witness) for m in (m1, m2)]
    )
    return Certificate(
        target=target,
        witness=(witness,),
        achieved=achieved,
        residual=float(np.linalg.norm(achieved - target)),
        trace=[step],
    )


def _row_cover(n: int, block: int):
    """Minimal cyclic cover of n rows by subsets of size ``block``.

    Returns (subsets, k): consecutive windows of ``block`` rows, taken mod n
    over lcm(n, block) positions and each sorted, so that every row lies in
    exactly k = lcm(n, block) / n of the lcm(n, block) / block subsets. No
    list of fewer subsets holds every row equally often: m subsets holding
    each row k times have m block = n k, a common multiple of n and block.
    For block = n - 1 (planar n = 3, ell = 3 at n = 5) this is the
    lexicographic list of all subsets.
    """
    span = lcm(n, block)
    subsets = [tuple(sorted((start + i) % n for i in range(block)))
               for start in range(0, span, block)]
    return subsets, span // n


def certify_scaled_point(lmap, a, u, v, alpha: float) -> Certificate:
    """Certificate that alpha times the image point of (U, V) stays in the image.

    Decomposes the scaling over row subsets S_1 ... S_m of the block size (2
    for planar maps, 2^(ell-1) otherwise), each step realizing one
    eps-row-scaled point via a single homotopy (``_scaled_rows_step``) and
    composing witnesses right-to-left. Let E_j scale each row by eps once for
    every subset before S_j that holds it: step j turns tr(E_{j+1} M w_{j+1})
    into tr(E_j M w_j), since E_{j+1} is E_j with the rows of S_j scaled once
    more. The steps run from j = m, with w_{m+1} = V, down to j = 1, where
    E_1 = I. If every row appears the same number k of times, E_{m+1} is
    eps^k I, so with eps = alpha^(1/k) the chain is exact for any such list.
    The subsets are the minimal cyclic cover (``_row_cover``): lcm(n, block)
    / block of them, each row in k = lcm(n, block) / n, which the trace
    reports as ``exponent``. At alpha = 1 the witness is (U, V) itself and the
    trace holds only its head. Raises ``NumericalError`` when a step's or the
    composed certificate's residual exceeds ``certificate_residual``.
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
    subsets, exponent = _row_cover(n, block)
    eps = float(alpha) ** (1.0 / exponent) if alpha > 0.0 else 0.0
    target = alpha * apply_map(lmap, (u @ a) @ v)

    # every row lies in `exponent` subsets; walking them in reverse, a row's
    # count drops to the number of subsets before the current one holding it.
    # At alpha = 1 the pair (U, V) is itself an exact witness: no steps.
    count = np.full(n, exponent)
    w = v
    steps = []
    for rows in reversed(subsets) if alpha < 1.0 else ():
        count[list(rows)] -= 1
        rowscale = eps ** count.astype(float)
        w, _, step = _scaled_rows_step([rowscale[:, None] * m for m in mats], w, rows, eps)
        steps.append(step)

    achieved = apply_map(lmap, (u @ a) @ w)
    residual = float(np.linalg.norm(achieved - target))
    # each step passed the gate, but their errors add up in the composition
    if not residual <= tolerances.certificate_residual:
        raise NumericalError(
            f"composed certificate residual {residual:.3e} exceeds "
            f"{tolerances.certificate_residual:.1e}"
        )
    return Certificate(
        target=target,
        witness=(u, w),
        achieved=achieved,
        residual=residual,
        trace=[{"alpha": float(alpha), "eps": eps, "exponent": exponent}] + steps,
    )


def _one_target(make_cert, idx, alpha_grid) -> list:
    """Target idx's results, one per alpha; ``make_cert(idx)`` runs once.

    A target passes when its certificate is returned: certify_scaled_point
    raises past the residual bound.
    """
    certs = make_cert(idx)
    out = []
    for alpha in alpha_grid:
        residual, iterations, error = float("nan"), 0, None
        try:
            cert = certs(alpha)
            residual = cert.residual
            iterations = sum(s.get("iterations", 0) for s in cert.trace)
        except (NumericalError, PreconditionError) as exc:
            error = str(exc)
        out.append(StarTargetResult(
            index=idx,
            alpha=alpha,
            residual=residual,
            ok=error is None,
            iterations=iterations,
            error=error,
        ))
    return out


def _run_targets(make_cert, num_targets, alpha_grid, config) -> StarReport:
    """The batch driver: every target at every alpha, failures recorded.

    ``make_cert(idx)`` returns target idx's map alpha -> Certificate. The
    report's config is ``config`` plus the batch's size, grid and tolerances.
    """
    if num_targets < 0:
        raise ValueError(f"num_targets must be at least 0, got {num_targets}")
    alpha_grid = [float(x) for x in alpha_grid]
    config = {**config, "num_targets": num_targets, "alpha_grid": alpha_grid,
              "tolerances": tolerances.as_dict()}
    results = [r for i in range(num_targets) for r in _one_target(make_cert, i, alpha_grid)]
    return StarReport(results=results, config=config)


def star_check(lmap, orbit: OrbitSpec, num_targets: int, alpha_grid, rng) -> StarReport:
    """Certify alpha-scaled random image points of the orbit; failures are recorded.

    The frames are drawn from SO(n); an orbit of another group raises
    ``PreconditionError``.
    """
    if orbit.group != "SO":
        raise PreconditionError(f"star_check certifies SO orbits only, got {orbit.group!r}")
    lmap = lmap if isinstance(lmap, LinearMapSpec) else LinearMapSpec(tuple(lmap))
    rng = ensure_rng(rng)
    n = orbit.n
    frames = [(haar_rotation(n, rng), haar_rotation(n, rng)) for _ in range(num_targets)]

    def make_cert(idx):
        u, v = frames[idx]
        return lambda alpha: certify_scaled_point(lmap, orbit.a, u, v, alpha)

    config = {"kind": "single", "n": n, "ell": lmap.ell}
    return _run_targets(make_cert, num_targets, alpha_grid, config)


def star_check_joint(
    l_joint, joint: JointOrbitSpec, num_targets: int, alpha_grid, rng
) -> StarReport:
    """Star check for joint orbits.

    O1 and O2 reduce to a single-rotation map once and delegate; O3 freezes
    the left frame per target (coefficients sum_i P_i^(j) @ U @ A_i) and
    certifies the scaling on the right factor. The frames are drawn from
    SO(n).
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

    config = {"kind": "joint-O3", "n": n, "m": joint.m, "ell": len(rows)}
    return _run_targets(make_cert, num_targets, alpha_grid, config)
