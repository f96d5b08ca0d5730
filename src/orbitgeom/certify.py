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

There is one engine, and it works on lanes: a lane is one (matrices, A, U, V,
alpha) certificate of arrays that its call checked once (``_checked``).
``_certify`` takes a flat list of lanes (a star check's are every target at
every alpha) and runs cover step j for all live lanes together
(``_scaled_rows_step`` and ``_homotopies``), each stage one stacked kernel
call: classifications, degenerate frames, geodesics, coefficient blocks,
witnesses and their checks. The root search advances the searching lanes in
lockstep (``ellipsoids._lockstep``). A lane that fails records the exception
and message its own call raises and leaves the batch; the others go on, and no
lane's steps depend on the lanes beside it. ``certify_scaled_point`` and
``homotopy_realize`` are batches of one that re-raise their lane's exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, lcm

import numpy as np

from .config import tolerances
from .ellipsoids import (
    _bracket_root,
    _classes,
    _ellipse_eu,
    _ellipse_radial_along,
    _ellipsoid_euv,
    _ellipsoid_radial_along,
    _illinois,
    _lockstep,
    _projections,
    _witnesses,
    degenerate_u0,
    degenerate_uv,
)
from .linalg import (
    DimensionError,
    NumericalError,
    PreconditionError,
    RotationPath,
    _dots,
    _geodesic,
    _haar_finish,
    _haar_normals,
    ensure_rng,
    require_rotation,
    require_same_size,
    require_square,
    rotation_defect,
)
from .orbits import JointOrbitSpec, LinearMapSpec, _as_map, _joint_rows, reduce_joint


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
            "results": [{**vars(r), "residual": _finite_or_none(r.residual)}
                        for r in self.results],
        }


def _step_out(s: float, gs: float, g0: float, g1: float, ftol: float):
    """One lane of the curve re-search: a generator of points, returning (x, iterations).

    The lane steps away from s toward the side where the sign changes, from
    2^-30 and growing sixteenfold, and stops at the ends 0 and 1 of the
    homotopy, whose values g0 < 0 and g1 >= 0 are known; from that bracket
    it runs ``_illinois`` to ``ftol``. Every evaluation counts as an iteration.
    """
    step, evaluations = 2.0 ** -30, 0
    while True:
        x = min(1.0, s + step) if gs < 0.0 else max(0.0, s - step)
        if x in (0.0, 1.0):
            gx = g0 if x == 0.0 else g1
        else:
            gx, evaluations = (yield x), evaluations + 1
        if (gx < 0.0) != (gs < 0.0):
            lo, hi = sorted(((s, gs), (x, gx)))
            root, iterations = yield from _illinois(lo[0], hi[0], lo[1], hi[1], ftol)
            return root, evaluations + iterations
        s, gs, step = x, gx, 16.0 * step


def _traces(mats, x):
    """tr(M_i X) per lane, for matrices (lanes, ell, n, n) and X (lanes, n, n).

    Read off the products' diagonals, so that each lane's sums run in the
    same order whatever the number of lanes.
    """
    return np.einsum("kmii->km", mats @ x[:, None])


def _lanes(path: RotationPath, idx) -> RotationPath:
    """The paths ``idx`` of a stack of paths."""
    return RotationPath(path.base_z[idx], path.z_t[idx], path.theta[idx])


def _homotopies(mats, y, start):
    """Lane-wise ``homotopy_realize``, in lockstep: (witnesses, achieved, residuals, steps).

    Lane k realizes the target y[k] with the matrices mats[k], from the
    frames start[...][k]: planar lanes take two n x n matrices and one start
    frame, ``start = (U,)``; ell >= 3 lanes take ell matrices of the block
    size 2^(ell-1) and ``start = (U, V)``. Inputs are not checked. Each step
    runs for every lane still live, through stacked kernels:

    1. classify the targets against the start curves; a lane on its curve
       settles at s = 0, and one outside it fails;
    2. build the degenerate frames and the geodesics to them (``_geodesic``:
       the start frames are checked by the caller, and the degenerate frames
       are rotations by construction), and classify against the end curves,
       whose rank is judged against the Frobenius norm of the lane's
       matrices where that exceeds the shape's largest singular value; a
       lane on its end curve settles at s = 1, and one still inside fails;
    3. the lane-wise root search on the coefficient-form trial radial minus
       1 (``_bracket_root``), planar lanes to the radial's roundoff floor
       (one ulp of 1: the witness misses y by about |y - center| |radial -
       1|, so a target far from the origin needs a far smaller gap than
       ``bisection_gtol``), block lanes to ``bisection_gtol``;
    4. read the gap once on the curve at the crossing; a lane whose gap
       misses ``bisection_gtol`` there (a trial evaluator that agrees with
       the curve only up to roundoff can stop short on a nearly flat
       ellipse) searches on with the curves' own radial, from a tight
       bracket around its s (``_step_out``);
    5. the witnesses from the crossing curves' frames and angles, their
       rotation defects in one stacked check, and the residual gate.

    steps[k] is lane k's trace step ``{"s", "iterations", "angles"}``, or the
    exception the lane failed with, which is the exception and message its
    own call raises; the witness, achieved point and residual of a failed
    lane are meaningless. A lane's steps do not depend on the other lanes.
    """
    lanes, ell = y.shape
    planar = ell == 2
    steps = [None] * lanes
    s, iterations = np.zeros(lanes), np.zeros(lanes, dtype=int)
    angles = np.zeros((lanes, ell - 1))
    frames = tuple(f.copy() for f in start)  # each lane's frames where it settles

    def project(m, at, target, floor=1e-300):
        curve = _ellipse_eu(m[:, 0], m[:, 1], *at) if planar else _ellipsoid_euv(m, *at)
        return _projections(curve.shape, curve.center, target, floor)

    # 1. the start curves; the live lanes' data is compacted as lanes leave
    live, m, target, at = np.arange(lanes), mats, y, start
    radial0, _, ang, degenerate = project(m, at, target)
    settled, inside = _classes(radial0, degenerate)
    if np.count_nonzero(inside) < len(live):
        angles[settled] = ang[settled]
        for k in np.flatnonzero(~(settled | inside)):
            steps[k] = PreconditionError(
                f"target lies outside the starting curve (radial {radial0[k]:.6g})")
        live, m, target, radial0 = live[inside], m[inside], target[inside], radial0[inside]
        at = tuple(f[inside] for f in at)
    if live.size:  # 2. the degenerate frames, the paths and the end curves
        ends = (degenerate_u0(m[:, 0], m[:, 1]),) if planar else degenerate_uv(m[:, 0])
        paths = tuple(_geodesic(f, end) for f, end in zip(at, ends))
        at = ends  # the paths' frames at s = 1
        # a rank-one pair's degenerate shape is pure roundoff, of full rank
        # against its own largest singular value: judge it at the lane's scale
        scale = np.linalg.norm(m.reshape(len(m), -1), axis=1)[:, None]
        radial1, _, ang, degenerate = project(m, at, target, scale)
        settled, inside = _classes(radial1, degenerate)
        search = ~(settled | inside)
        if np.count_nonzero(search) < len(live):
            done = live[settled]
            s[done], angles[done] = 1.0, ang[settled]
            for frame, end in zip(frames, at):
                frame[done] = end[settled]
            for k in live[inside]:
                steps[k] = NumericalError(
                    "target remains interior at the degenerate frame; no crossing to find")
            live, m, target = live[search], m[search], target[search]
            radial0, radial1 = radial0[search], radial1[search]
            paths = tuple(_lanes(path, search) for path in paths)
    if live.size:  # 3. and 4. the crossings
        if planar:
            trial = _ellipse_radial_along(m[:, 0], m[:, 1], *paths, target)
            ftol = np.finfo(float).eps
        else:
            trial = _ellipsoid_radial_along(m, *paths, target)
            ftol = tolerances.bisection_gtol
        s[live], iterations[live], angles[live], at, errors = _crossings(
            trial, ftol, lambda idx, at: project(m[idx], at, target[idx]), paths,
            radial0 - 1.0, radial1 - 1.0)
        for frame, new in zip(frames, at):
            frame[live] = new
        for k, exc in errors.items():
            steps[live[k]] = exc
    # 5. the witnesses, checked together
    good = [k for k, step in enumerate(steps) if step is None]
    good = slice(None) if len(good) == lanes else np.array(good, dtype=int)
    witness = frames[0].copy()
    witness[good] = _witnesses(tuple(f[good] for f in frames), angles[good])
    tol, gate = tolerances.matrix_residual, tolerances.certificate_residual
    defect = rotation_defect(witness[good]).tolist()  # not finite exactly for such witnesses
    achieved = _traces(mats, witness)
    miss = achieved - y
    residual = np.sqrt(_dots(miss, miss))
    for k, bad in zip(np.arange(lanes)[good].tolist(), defect):
        if not isfinite(bad):
            steps[k] = ValueError("witness contains non-finite entries")
        elif bad > tol:
            steps[k] = ValueError(f"witness is not a rotation (defect {bad:.3e} > {tol:.1e})")
        elif not residual[k] <= gate:  # a NaN residual fails too
            steps[k] = NumericalError(
                f"homotopy witness residual {residual[k]:.3e} exceeds {gate:.1e}")
        else:
            steps[k] = {"s": float(s[k]), "iterations": int(iterations[k]),
                        "angles": angles[k].tolist()}
    return witness, achieved, residual, steps


def _crossings(trial, ftol, project, paths, g0, g1):
    """Steps 3 and 4 of ``_homotopies`` for its searching lanes.

    ``trial(s, live)`` is the lanes' coefficient-form radial minus 1,
    ``project(idx, frames)`` the projections of their curves at the frames,
    ``paths`` their stacks of paths and g0 < 0 <= g1 their radial gaps at
    s = 0 and 1.
    Returns (s, iterations, angles, frames, errors), with NaN angles where
    the crossing point left the reachable span and ``errors`` mapping a
    lane to its NumericalError.
    """
    count = len(g0)
    x, its, errors = _bracket_root(trial, np.zeros(count), np.ones(count), g0, g1, ftol)
    at = tuple(path._at(x) for path in paths)
    r, _, angles, _ = project(slice(None), at)
    gtol = tolerances.bisection_gtol
    # where the trial evaluator is the curve's own it reads the same gap,
    # and a search on the curves would retrace the same steps
    gap = r - 1.0
    polish = ~(np.abs(gap) <= gtol)
    if errors:
        polish[list(errors)] = False
    if np.count_nonzero(polish):
        polish[polish] = gap[polish] != np.asarray(trial(x[polish], np.flatnonzero(polish)))
    if np.count_nonzero(polish):
        redo = np.flatnonzero(polish)
        redone = tuple(_lanes(path, redo) for path in paths)

        def exact(t, live):
            at = tuple(_lanes(path, live)._at(t) for path in redone)
            return project(redo[live], at)[0] - 1.0

        roots, late = _lockstep(lambda *lane: _step_out(*lane, gtol),
                                exact, x[redo], gap[redo], g0[redo], g1[redo])
        x[redo] = [root[0] if root else np.nan for root in roots]
        its[redo] += [root[1] if root else 0 for root in roots]
        errors.update((int(redo[k]), exc) for k, exc in late.items())
        frames = tuple(path._at(x[redo]) for path in redone)
        for frame, new in zip(at, frames):
            frame[redo] = new
        angles[redo] = project(redo, frames)[2]
    lost = np.isnan(angles[:, 0])
    for k in np.flatnonzero(lost) if np.count_nonzero(lost) else ():
        errors.setdefault(int(k), NumericalError("crossing point left the reachable span"))
    return x, its, angles, at, errors


def homotopy_realize(m_list, y, start_frame) -> Certificate:
    """Witness rotation X with (tr(M_1 X), ..., tr(M_ell X)) equal to y.

    The target must lie inside or on the swept curve at the starting frame.
    Planar maps (two matrices, size >= 3) take one rotation as
    ``start_frame`` and move it toward the rank-killing frame of the pair; for
    ell >= 3 the matrices have the minimal block size 2^(ell-1),
    ``start_frame`` is the pair (U, V), and both frames of the centered
    ellipsoid travel to the pair produced by the diagonal quarter-turn
    construction. The inputs are checked here, once; the homotopy itself is
    a batch of one lane of ``_homotopies``, whose exception it raises.
    """
    if len(m_list) < 2:
        raise DimensionError("need at least two map coordinates")
    lmap = LinearMapSpec(tuple(m_list))
    mats, ell, n = lmap.mats, lmap.ell, lmap.n
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != ell:
        raise DimensionError(f"target has dimension {y.size}, map has {ell}")
    # planar maps need a size above 2^(ell-1) = 2, where no degenerate frame
    # exists; ell >= 3 runs at the block size 2^(ell-1) exactly
    if (n <= 2) if ell == 2 else (n != 2 ** (ell - 1)):
        size = "> 2" if ell == 2 else f"{2 ** (ell - 1)}"
        raise DimensionError(f"a homotopy with ell={ell} needs size {size}, got {n}")

    if ell == 2:
        start = require_rotation(start_frame, "start frame")
        require_same_size(M=mats[0], start_frame=start)
        frames = (start[None],)
    else:
        try:
            us, vs = start_frame
        except (TypeError, ValueError):
            raise DimensionError(
                f"start frame for ell={ell} must be a (U, V) pair of {n}x{n} rotations"
            ) from None
        us = require_rotation(us, "start frame U")
        vs = require_rotation(vs, "start frame V")
        require_same_size(M=mats[0], U=us, V=vs)
        frames = (us[None], vs[None])
    witness, achieved, residual, steps = _homotopies(np.stack(mats)[None], y[None], frames)
    if isinstance(steps[0], Exception):
        raise steps[0]
    return Certificate(target=y, witness=(witness[0],), achieved=achieved[0],
                       residual=float(residual[0]), trace=steps)


def _front_permutation(n: int, rows) -> np.ndarray:
    rows = tuple(rows)
    rest = [r for r in range(n) if r not in rows]
    return np.array(list(rows) + rest)


def _scaled_rows_step(mats, w, rows, eps):
    """One homotopy per lane realizing the point of frame w with ``rows`` scaled by eps.

    Lanes: matrices (lanes, ell, n, n), frames w (lanes, n, n) and eps
    (lanes,). Returns (witnesses, targets, steps), where steps[k] is lane
    k's trace step, or the exception it failed with. The rows are permuted
    to the front, a conjugation that preserves traces and keeps the frame a
    rotation. Two matrices scale the two leading rows and run the planar
    homotopy from w; more matrices run the block homotopy on their leading
    block from the identity, whose witness turns the leading columns of w.
    The witness is permuted back.
    """
    perm = _front_permutation(w.shape[-1], rows)
    inv = np.argsort(perm)
    front = mats[..., perm[:, None], perm]
    wp = w[:, perm[:, None], perm]
    if mats.shape[1] == 2:
        scaled = front.copy()
        scaled[:, :, :2, :] *= eps[:, None, None, None]
        target = _traces(scaled, wp)
        wp, _, _, steps = _homotopies(front, target, (wp,))
    else:
        block = len(rows)
        b = front[:, :, :block, :] @ wp[:, None, :, :block]
        target = eps[:, None] * np.einsum("kmii->km", b)
        eye = np.broadcast_to(np.eye(block), (len(wp), block, block))
        witness, _, _, steps = _homotopies(b, target, (eye, eye))
        wp[:, :, :block] = wp[:, :, :block] @ witness
    steps = [step if isinstance(step, Exception) else {"rows": list(rows), **step}
             for step in steps]
    return wp[:, inv[:, None], inv], target, steps


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
    composed certificate's residual exceeds ``certificate_residual``. The
    certificate is a batch of one lane of ``_certify``.
    """
    outcome = _certify([(_checked(lmap, a, [alpha], U=u, V=v), alpha)])[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _in_unit_interval(alphas):
    """Raise ``ValueError`` at the first alpha outside [0, 1]; a NaN is outside."""
    for alpha in alphas:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")


def _checked(lmap, a, alphas, **frames) -> tuple:
    """One certification call's inputs, checked once: (matrices, A, *frames).

    Checks the map, A, the named frames as rotations, every alpha and the
    sizes, in that order. Frames the package drew itself are not passed.
    """
    mats = _as_map(lmap).mats
    a = require_square(a, "A")
    frames = {name: require_rotation(f, name) for name, f in frames.items()}
    _in_unit_interval(alphas)
    require_same_size(P=mats[0], A=a, **frames)
    return (mats, a, *frames.values())


def _certify(lanes) -> list:
    """The certification engine: every lane in lockstep.

    A lane is a (job, alpha) pair, the job a (matrices, A, U, V) of arrays
    that its call checked; all jobs have one size n and one ell, which alone
    decide a PreconditionError for every lane. Returns, per lane, the
    Certificate of ``certify_scaled_point`` or the exception that lane failed
    with. Every lane with alpha < 1 walks the same cover, and step j runs for
    every lane still live at once (``_scaled_rows_step``), so the homotopies
    of a whole star check share each stacked kernel call. A lane that fails
    leaves; the others go on, and each lane's certificate, or failure, is the
    one its own call gives. The witnesses are then composed and gated.
    """
    if not lanes:
        return []
    jobs, alphas = zip(*lanes)
    coeffs = np.array([mats for mats, _, _, _ in jobs])
    _, ell, n, _ = coeffs.shape
    block = 2 ** (ell - 1)  # the cover's subset size; a planar map needs one row more
    if ell < 2 or n < block + (ell == 2):
        reason = ("need at least two map coordinates" if ell < 2 else
                  "planar certification needs n >= 3" if ell == 2 else
                  f"certification with {ell} coordinates needs n >= {block}, got {n}")
        return [PreconditionError(reason) for _ in lanes]
    _, aa, uu, vv = zip(*jobs)
    subsets, exponent = _row_cover(n, block)
    alphas = [float(x) for x in alphas]
    eps = [x ** (1.0 / exponent) if x > 0.0 else 0.0 for x in alphas]
    ua = np.array([u @ a for u, a in zip(uu, aa)])
    mats = (coeffs @ np.array(uu)[:, None]) @ np.array(aa)[:, None]

    def image(w):
        return _traces(coeffs, ua @ w)

    w = np.array(vv)
    target = np.array(alphas)[:, None] * image(w)
    traces = [[{"alpha": x, "eps": e, "exponent": exponent}] for x, e in zip(alphas, eps)]
    outcome = [None] * len(alphas)
    # every row lies in `exponent` subsets; walking them in reverse, a row's
    # count drops to the number of subsets before the current one holding it.
    # At alpha = 1 the pair (U, V) is itself an exact witness: no steps.
    live = [k for k, x in enumerate(alphas) if x < 1.0]
    eps = np.array(eps)
    count = [exponent] * n
    for rows in reversed(subsets):
        if not live:
            break
        for r in rows:
            count[r] -= 1
        rowscale = eps[live, None] ** np.array(count, dtype=float)
        w[live], _, steps = _scaled_rows_step(rowscale[:, None, :, None] * mats[live], w[live],
                                              rows, eps[live])
        for k, step in zip(live, steps):
            if isinstance(step, Exception):
                outcome[k] = step
            else:
                traces[k].append(step)
        live = [k for k in live if outcome[k] is None]

    achieved = image(w)
    miss = achieved - target
    residual = np.sqrt(_dots(miss, miss)).tolist()
    gate = tolerances.certificate_residual
    for k in [k for k, failed in enumerate(outcome) if failed is None]:
        # each step passed the gate, but their errors add up in the composition
        if not residual[k] <= gate:
            outcome[k] = NumericalError(
                f"composed certificate residual {residual[k]:.3e} exceeds {gate:.1e}")
        else:
            outcome[k] = Certificate(target=target[k], witness=(uu[k], w[k]), achieved=achieved[k],
                                     residual=residual[k], trace=traces[k])
    return outcome


def _frames(n: int, num_targets: int, rng) -> list:
    """The targets' Haar frame pairs (U, V), U then V drawn per target; a
    negative count raises ``ValueError``. All 2T frames come from one draw and
    one ``_haar_finish``. The normals are drawn sample-major, as 2T successive
    ``haar_rotation`` calls read the stream, so the frames are those calls'
    up to the last bits of a one-sample finish."""
    if num_targets < 0:
        raise ValueError(f"num_targets must be at least 0, got {num_targets}")
    count = 2 * num_targets
    if n in (2, 3):  # a 2-vector or quaternion per sample; _haar_normals draws these entry-major
        g = rng.standard_normal((count, 2 * n - 2)).T
    else:
        g = _haar_normals(n, count, rng)
    r = np.ascontiguousarray(np.moveaxis(_haar_finish(n, g), -1, 0))
    return list(zip(r[0::2], r[1::2]))


def _one_target(idx, alpha_grid, outcomes) -> list:
    """Target idx's results, one per alpha, from its lanes' outcomes.

    A target passes at an alpha when its certificate came out of the engine
    (which raises past the residual bound); a NumericalError or
    PreconditionError is recorded, and any other exception raises.
    """
    out = []
    for alpha, cert in zip(alpha_grid, outcomes):
        residual, iterations, error = float("nan"), 0, None
        if isinstance(cert, (NumericalError, PreconditionError)):
            error = str(cert)
        elif isinstance(cert, Exception):
            raise cert
        else:
            residual = cert.residual
            iterations = sum(s.get("iterations", 0) for s in cert.trace)
        out.append(StarTargetResult(index=idx, alpha=alpha, residual=residual,
                                    ok=error is None, iterations=iterations, error=error))
    return out


def _run_targets(jobs, alpha_grid, config) -> StarReport:
    """The batch driver: every target's job at every alpha, failures recorded.

    ``jobs`` holds one (matrices, A, U, V) per target and ``alpha_grid`` is a
    list of floats, all checked by the caller; every job at every alpha runs
    as the lanes of one ``_certify`` call. The report's config is ``config``
    plus the batch's size, grid and tolerances.
    """
    config = {**config, "num_targets": len(jobs), "alpha_grid": alpha_grid,
              "tolerances": tolerances.as_dict()}
    outcomes = _certify([(job, alpha) for job in jobs for alpha in alpha_grid])
    width = len(alpha_grid)
    results = [r for i in range(len(jobs))
               for r in _one_target(i, alpha_grid, outcomes[i * width:(i + 1) * width])]
    return StarReport(results=results, config=config)


def star_check(lmap, a, num_targets: int, alpha_grid, rng) -> StarReport:
    """Certify alpha-scaled random image points of A's orbit; failures are recorded.

    The inputs are checked once, whatever the number of targets. The frames
    are drawn from SO(n), (U, V) per target.
    """
    alpha_grid = [float(x) for x in alpha_grid]
    mats, a = _checked(lmap, a, alpha_grid)
    n = a.shape[0]
    jobs = [(mats, a, u, v) for u, v in _frames(n, num_targets, ensure_rng(rng))]
    config = {"kind": "single", "n": n, "ell": len(mats)}
    return _run_targets(jobs, alpha_grid, config)


def star_check_joint(
    l_joint, joint: JointOrbitSpec, num_targets: int, alpha_grid, rng
) -> StarReport:
    """Star check for joint orbits.

    O1 and O2 reduce to a single-rotation map once (``reduce_joint``), and
    each target certifies that map at A = I, as ``star_check`` of the
    reduced map on the orbit of I would. O3 freezes the left frame per
    target (coefficients sum_i P_i^(j) @ U @ A_i) and certifies the scaling
    on the right factor, with A = U = I. The frames are drawn from SO(n),
    (U, V) per target, in both cases. The inputs are checked once.
    """
    rng = ensure_rng(rng)
    alpha_grid = [float(x) for x in alpha_grid]
    n = joint.n
    identity = np.eye(n)
    if joint.kind in ("O1", "O2"):
        mats, a = _checked(reduce_joint(l_joint, joint.a_list, joint.kind), identity, alpha_grid)
        ell = len(mats)
        jobs = [(mats, a, u, v) for u, v in _frames(n, num_targets, rng)]
    else:  # the frozen maps are built from the checked rows; only the grid is left
        rows = _joint_rows(l_joint, joint.a_list)
        _in_unit_interval(alpha_grid)
        ell = len(rows)
        jobs = [(tuple(sum((p @ u) @ a for p, a in zip(coeffs, joint.a_list)) for coeffs in rows),
                 identity, identity, v)
                for u, v in _frames(n, num_targets, rng)]
    config = {"kind": f"joint-{joint.kind}", "n": n, "m": joint.m, "ell": ell}
    return _run_targets(jobs, alpha_grid, config)
