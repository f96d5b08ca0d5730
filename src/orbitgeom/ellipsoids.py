"""Rotation-frame ellipse and ellipsoid loci, and degenerate-frame searches.

The recursive rotation family R(t_1, ..., t_k) lives in the rotation group of
size 2^k and pairs with any square matrix through a trace identity: the trace
of R(t) @ A is a fixed coefficient vector dotted with the spherical direction
(cos t_{k}, sin t_{k} cos t_{k-1}, ..., sin t_{k} ... sin t_1). Sweeping the
angles therefore traces out a centered ellipsoid; with a planar 2x2 rotation
block embedded in a larger frame the locus is an ellipse with an offset.

Both loci admit frames that make the swept shape rank-deficient; the two
constructions below produce such frames explicitly.

Along a rotation path both loci are also available in coefficient form: the
path's frame is linear in a few sines and cosines of the time, so
the planar ellipse's shape and center, and the ellipsoid's shape (bilinear in
its two frames), are fixed linear combinations of them, and the radial
coordinate of a query (less one: the gap a homotopy's search reads) is
evaluated without building a frame (``_ellipse_radial_along``,
``_ellipsoid_radial_along``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import tolerances
from .linalg import (
    DimensionError,
    NumericalError,
    _completions,
    _dots,
    require_rotation,
    require_same_size,
    require_square,
    require_square_stack,
    signed_svd,
)


def recursive_rotation(angles) -> np.ndarray:
    """Rotation of size 2^k built from angles (t_1, ..., t_k).

    Base: R(t_1) = [[cos t_1, sin t_1], [-sin t_1, cos t_1]]. Step: the next
    matrix has diagonal blocks cos(t_k) I and off-diagonal blocks
    +/- sin(t_k) times the previous matrix (transposed below the diagonal).
    A stack of angle vectors (..., k) gives a stack of rotations.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if angles.shape[-1] < 1:
        raise ValueError("at least one angle is required")
    c, s = np.cos(angles), np.sin(angles)
    r = np.stack((np.stack((c[..., 0], s[..., 0]), -1), np.stack((-s[..., 0], c[..., 0]), -1)), -2)
    for k in range(1, angles.shape[-1]):
        ck, sk, eye = c[..., k, None, None], s[..., k, None, None], np.eye(r.shape[-1])
        r = np.concatenate((np.concatenate((ck * eye, sk * r), -1),
                            np.concatenate((-sk * np.swapaxes(r, -1, -2), ck * eye), -1)), -2)
    return r


def spherical_point(angles) -> np.ndarray:
    """Unit vector (cos t_{k}, sin t_{k} cos t_{k-1}, ..., sin t_{k}...sin t_1)."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    ell = angles.size + 1
    out = np.empty(ell)
    prod = 1.0
    for i in range(ell - 1):
        theta = angles[ell - 2 - i]
        out[i] = prod * np.cos(theta)
        prod *= np.sin(theta)
    out[ell - 1] = prod
    return out


def angles_from_unit(u) -> np.ndarray:
    """Angles (t_1, ..., t_{k}) with spherical_point(angles) equal to the unit vector u.

    A stack of unit vectors (..., ell) gives a stack of angle vectors.
    """
    u = np.asarray(u, dtype=float)
    ell = u.shape[-1] if u.ndim else 1
    if ell < 2:
        raise DimensionError("need at least a 2-vector to recover angles")
    if ell == 2:
        return np.arctan2(u[..., 1:], u[..., :1])
    angles = np.zeros(u.shape[:-1] + (ell - 1,))
    v, live = u, None  # live: no earlier tail vanished
    for pos in range(ell - 1, 1, -1):
        r = np.sqrt(np.sum(v[..., 1:] ** 2, axis=-1))
        turn = np.arctan2(r, v[..., 0])
        angles[..., pos - 1] = turn if live is None else np.where(live, turn, 0.0)
        live = (r >= 1e-15) if live is None else live & (r >= 1e-15)
        v = v[..., 1:] / np.where(live, r, 1.0)[..., None]
    angles[..., 0] = np.where(live, np.arctan2(v[..., 1], v[..., 0]), 0.0)
    return angles


def _coeffs(a: np.ndarray) -> np.ndarray:
    """``spherical_coeffs`` of a stack (..., n, n) without input checks: (..., log2 n + 1).

    Each level of the block recursion takes the head tr(A_1) + tr(A_4) and
    continues on A_3 - A_2^T, halving the size until 1x1.
    """
    heads = []
    while a.shape[-1] > 1:
        m = a.shape[-1] // 2
        heads.append(np.einsum("...ii->...", a[..., :m, :m])
                     + np.einsum("...ii->...", a[..., m:, m:]))
        a = a[..., m:, :m] - np.swapaxes(a[..., :m, m:], -1, -2)
    heads.append(a[..., 0, 0])
    return np.stack(heads, axis=-1)


def spherical_coeffs(a) -> np.ndarray:
    """Coefficient vector c with tr(R(t) @ A) = c . spherical_point(t) for all angles.

    Computed by the block recursion: the head is tr(A_1 + A_4) and the tail
    recurses on A_3 - A_2^T, halving the size until 1x1.
    """
    a = require_square(a, "A")
    n = a.shape[0]
    if n < 2 or (n & (n - 1)) != 0:
        raise DimensionError(f"size must be a power of two >= 2, got {n}")
    return _coeffs(a)


@dataclass(frozen=True)
class EllipsoidCurve:
    """Affine image of the unit sphere: point(angles) = shape @ spherical + center.

    ``kind`` records which frame family produced the curve so that every
    parametrized point can be converted into an explicit rotation witness.
    """

    shape: np.ndarray
    center: np.ndarray
    kind: str            # "euv" (two-sided frames, centered) or "eu" (planar block)
    frames: tuple

    @property
    def ell(self) -> int:
        return self.shape.shape[0]

    def point(self, angles) -> np.ndarray:
        return self.shape @ spherical_point(angles) + self.center

    def witness(self, angles) -> np.ndarray:
        """Rotation X with trace-map value at X equal to point(angles)."""
        return _witnesses(self.frames, angles)

    def is_degenerate(self) -> bool:
        sv = np.linalg.svd(self.shape, compute_uv=False)
        return bool(sv[-1] <= tolerances.degenerate_rank * max(sv[0], 1e-300))


def _witnesses(frames, angles) -> np.ndarray:
    """Rotations realizing the curve points at ``angles``; stacks share leading axes.

    A planar curve's frame U has its leading column pair turned: U (R(t) (+) I),
    R(t) = [[cos t, sin t], [-sin t, cos t]]. An ellipsoid's (U, V) give V R(angles) U.
    """
    if len(frames) == 2:
        u, v = frames
        return v @ recursive_rotation(angles) @ u
    u = frames[0]
    c, sn = np.cos(angles), np.sin(angles)
    witness = u.copy()
    witness[..., :, 0] = c * u[..., :, 0] - sn * u[..., :, 1]
    witness[..., :, 1] = sn * u[..., :, 0] + c * u[..., :, 1]
    return witness


def ellipsoid_euv(p_list, u, v) -> EllipsoidCurve:
    """Centered ellipsoid swept by tr(R(t) @ U @ P_i @ V) over all angles.

    Row i of the shape matrix is the spherical coefficient vector of
    U @ P_i @ V. Every parametrized point is realized by the rotation
    V @ R(t) @ U (trace cyclicity), so the locus sits inside the image of
    the rotation group under the map (P_1, ..., P_ell).
    """
    mats = [require_square(p, f"P[{i}]") for i, p in enumerate(p_list)]
    ell = len(mats)
    if ell < 2:
        raise DimensionError("need at least two coefficient matrices")
    u = require_rotation(u, "U")
    v = require_rotation(v, "V")
    n = require_same_size(**{f"P[{i}]": p for i, p in enumerate(mats)}, U=u, V=v)
    if n != 2 ** (ell - 1):
        raise DimensionError(f"ell={ell} needs size {2 ** (ell - 1)}, got {n}")
    return _ellipsoid_euv(mats, u, v)


def _ellipsoid_euv(mats, u, v) -> EllipsoidCurve:
    """``ellipsoid_euv`` without input checks, for frames already validated.

    Also takes stacks: matrices (..., ell, n, n) with frames (..., n, n).
    """
    t = _coeffs(u[..., None, :, :] @ np.asarray(mats) @ v[..., None, :, :])
    return EllipsoidCurve(shape=t, center=np.zeros(t.shape[:-1]), kind="euv", frames=(u, v))


def ellipse_eu(p, q, u) -> EllipsoidCurve:
    """Planar ellipse swept by the 2x2 rotation block acting on the first two rows.

    The locus of (tr(T_t P U), tr(T_t Q U)) with T_t = R(t) (+) I_{n-2}: the
    shape matrix mixes the first two rows of P, Q with the first two columns
    of U; the center collects the remaining rows' trace contribution.
    """
    p = require_square(p, "P")
    q = require_square(q, "Q")
    u = require_rotation(u, "U")
    if require_same_size(P=p, Q=q, U=u) < 2:
        raise DimensionError("the planar ellipse needs size >= 2")
    return _ellipse_eu(p, q, u)


def _ellipse_eu(p, q, u) -> EllipsoidCurve:
    """``ellipse_eu`` without input checks, for a frame already validated.

    Also takes stacks (..., n, n) of frames and of P and Q, broadcast
    against each other; shape and center then carry the leading axes. Row m
    of the shape is ``(g_00 + g_11, g_10 - g_01)`` for ``g = M[:2] @ U[:, :2]``
    with M = P, Q, and entry m of the center is the trace of
    ``M[2:] @ U[:, 2:]``.
    """
    mats = np.concatenate((p[..., None, :, :], q[..., None, :, :]), axis=-3)
    g = mats[..., :2, :] @ u[..., None, :, :2]
    # (g_00 + g_11, g_10 - g_01): sums with exact zeros, so one rounding each
    signs = np.array([[1.0, 0.0], [0.0, -1.0], [0.0, 1.0], [1.0, 0.0]])
    shape = g.reshape(g.shape[:-2] + (4,)) @ signs
    center = np.einsum("...ii->...", mats[..., 2:, :] @ u[..., None, :, 2:])
    return EllipsoidCurve(shape=shape, center=center, kind="eu", frames=(u,))


def _ellipse_radial_along(p, q, path, y):
    """The radial gap (radial - 1) of y against the planar ellipse of (P, Q) at path(s).

    Lane by lane: P, Q (lanes, n, n), ``path`` a stack of paths and y
    (lanes, 2). The frame is linear in {1, cos s theta_k, sin s theta_k}
    (``RotationPath.trig_basis``), and the ellipse is linear in the frame, so
    the 2x2 shape and the center form a 6 x (2K+1) coefficient block per
    lane, built once from one batched ``_ellipse_eu`` call. ``gap(s, live)``
    evaluates the lanes ``live`` (indices) at their points s, as a list: the
    trigonometric values and one small product per lane, stacked, and each
    lane's closed-form radial of ``_radial_2x2``, which equals
    ``surface_projection`` on ``_ellipse_eu(p, q, path(s))`` up to roundoff,
    minus 1.
    """
    curves = _ellipse_eu(p[:, None], q[:, None], path.trig_basis())
    lanes = len(y)
    block = np.concatenate((curves.shape.reshape(lanes, -1, 4), curves.center), axis=2)
    block = np.ascontiguousarray(block.transpose(0, 2, 1))
    ys, turns = y.tolist(), path.theta.shape[-1]
    held = [None]

    def gap(s, live):
        if live is not held[0]:  # the live lanes' rows, taken once per set of lanes
            trig = np.ones((len(live), 1 + 2 * turns))  # [1, cos, sin] per lane
            held[:] = (live, block[live], path.theta[live], [ys[k] for k in live.tolist()], trig)
        phase, trig = s[:, None] * held[2], held[4]
        np.cos(phase, out=trig[:, 1:1 + turns])
        np.sin(phase, out=trig[:, 1 + turns:])
        values = (held[1] @ trig[:, :, None]).reshape(len(phase), 6).tolist()
        return [_radial_2x2(s00, s01, s10, s11, y0 - c0, y1 - c1) - 1.0
                for (s00, s01, s10, s11, c0, c1), (y0, y1) in zip(values, held[3])]

    return gap


def _ellipsoid_radial_along(mats, path_u, path_v, y):
    """``_ellipse_radial_along`` for the centered ellipsoids of ``mats`` at (path_u(s), path_v(s)).

    Lane by lane: matrices (lanes, ell, n, n), two stacks of paths and y
    (lanes, ell). U is linear in its Ku = 2K+1 trigonometric terms and V in
    its Kv terms (``RotationPath.trig_basis``), so U P_i V is bilinear in the
    two bases, and so is the ell x ell shape, as ``_coeffs`` is linear. Its
    coefficients form an (ell, ell, Ku, Kv) block per lane, built once from
    one product and one batched ``_coeffs`` call. A trial point is then the
    two trigonometric vectors, two small products and one SVD of the shape
    per lane, whose radial takes ``surface_projection``'s rank test and
    off-span rule and no angles; it equals ``surface_projection`` on
    ``_ellipsoid_euv(mats, path_u(s), path_v(s))`` up to roundoff, and the
    gap, radial - 1, comes back as an array.
    """
    bu, bv = path_u.trig_basis(), path_v.trig_basis()
    prods = bu[:, :, None, None] @ mats[:, None, :, None] @ bv[:, None, None]
    block = np.ascontiguousarray(_coeffs(prods).transpose(0, 2, 4, 1, 3))
    held = [None]

    def trig(theta, s):
        phase = s[:, None] * theta
        return np.concatenate((held[5], np.cos(phase), np.sin(phase)), axis=1)

    def gap(s, live):
        if live is not held[0]:  # the live lanes' rows, taken once per set of lanes
            held[:] = (live, block[live], path_u.theta[live], path_v.theta[live], y[live],
                       np.ones((len(live), 1)))
        shape = ((held[1] @ trig(held[3], s)[:, None, None, :, None])[..., 0]
                 @ trig(held[2], s)[:, None, :, None])[..., 0]
        w, sv, _ = np.linalg.svd(shape)
        return _span_radial(sv, (w.swapaxes(-1, -2) @ held[4][..., None])[..., 0])[0] - 1.0

    return gap


@dataclass(frozen=True)
class MembershipResult:
    """Classification of a query point against an ellipsoid curve.

    ``radial`` is the norm of the sphere preimage of the query (infinite when
    the point has a component off a degenerate span). Witness angles are set
    exactly when the point is realizable on the curve.
    """

    classification: str
    witness_angles: np.ndarray | None
    residual: float
    radial: float


def _span_radial(sv, d, floor=1e-300):
    """(radial, off, keep, pre) of shapes with singular values sv, queries d in their left bases.

    Lane by lane over the leading axes. ``keep`` marks the singular values
    above ``degenerate_rank`` times the largest, or times ``floor`` (a scale
    per lane, shape (..., 1)) where that is larger: a prefix whose length is
    the numerical rank. ``pre`` is the least-squares preimage d / sv there
    and 0 beyond. ``off`` is the norm of d beyond the rank; the radial is
    +inf when it exceeds ``off_span_tol``, and otherwise the norm of the
    preimage (0 at rank zero).
    """
    keep = sv > tolerances.degenerate_rank * np.maximum(sv[..., :1], floor)
    if np.count_nonzero(keep) == keep.size:  # every shape at full rank
        pre = d / sv
        return np.sqrt(_dots(pre, pre)), np.zeros(sv.shape[:-1]), keep, pre
    rest = d * ~keep
    off = np.sqrt(_dots(rest, rest))
    far = off > tolerances.off_span_tol
    pre = d / np.where(keep, sv, np.inf)
    radial = np.sqrt(_dots(pre, pre))
    return np.where(far, np.inf, radial), off, keep, pre


def _projections(shape, center, y, floor=1e-300):
    """``surface_projection`` for stacks of shapes, plus whether each is degenerate.

    Shapes (lanes, ell, ell), centers and queries (lanes, ell), one SVD for
    the whole stack. Returns (radial, off, angles, degenerate), one entry
    per lane; a lane's angles are NaN where its radial is infinite. A shape
    is degenerate when its smallest singular value is at most
    ``degenerate_rank`` times the largest, the test of
    ``EllipsoidCurve.is_degenerate``, or times the lane's ``floor`` (lanes,
    1) where that is larger: its numerical rank is below ell. For
    rank-deficient shapes the least-squares preimage is topped up with a
    null direction, so the angles land on the swept set when radial <= 1.
    """
    w, sv, zt = np.linalg.svd(shape)
    d = (w.swapaxes(-1, -2) @ (y - center)[..., None])[..., 0]
    radial, off, keep, pre = _span_radial(sv, d, floor)
    degenerate = ~keep[:, -1]
    plain = (radial > 0.0) > degenerate
    if np.count_nonzero(plain) == len(plain):
        z = (zt.swapaxes(-1, -2) @ pre[..., None])[..., 0]
        return radial, off, angles_from_unit(z / radial[:, None]), degenerate
    angles = np.full((len(radial), shape.shape[-1] - 1), np.nan)
    k = np.flatnonzero(np.isfinite(radial))  # the lanes whose preimage reaches the curve
    if k.size:
        rk, rank = radial[k], keep[k].sum(axis=1)
        zk = (zt[k].swapaxes(-1, -2) @ pre[k][..., None])[..., 0]
        topup = degenerate[k] & (rk <= 1.0)
        lift = np.sqrt(np.maximum(0.0, 1.0 - np.where(topup, rk, 0.0) ** 2))
        null = zt[k, np.minimum(rank, shape.shape[-1] - 1)]
        zk = np.where(topup[:, None], zk + lift[:, None] * null,
                      np.where((rk > 0.0)[:, None], zk / np.where(rk > 0.0, rk, 1.0)[:, None],
                               zt[k, -1]))
        # a zero shape is the single point `center`
        angles[k] = np.where((rank == 0)[:, None], 0.0, angles_from_unit(zk))
    return radial, off, angles, degenerate


def _project(curve: EllipsoidCurve, y):
    """``_projections`` of one curve: (radial, off, angles or None, degenerate)."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != curve.ell:
        raise DimensionError(f"query has dimension {y.size}, curve {curve.ell}")
    radial, off, angles, degenerate = _projections(curve.shape[None], curve.center[None], y[None])
    return (float(radial[0]), float(off[0]), angles[0] if np.isfinite(radial[0]) else None,
            bool(degenerate[0]))


def surface_projection(curve: EllipsoidCurve, y):
    """Radial coordinate of y and angles of its radial surface projection.

    Returns (radial, off_span, angles). ``radial`` is infinite when the
    off-span component exceeds the tolerance. For rank-deficient shapes the
    least-squares preimage is topped up with a null direction so the angles
    land exactly on the swept set whenever radial <= 1.
    """
    return _project(curve, y)[:3]


def _radial_2x2(s00, s01, s10, s11, d0, d1) -> float:
    """``surface_projection``'s radial for the 2x2 shape [[s00, s01], [s10, s11]].

    Takes Python floats, with (d0, d1) the query minus the center. The
    singular values are in closed form, the larger one
    ``(|(s00 + s11, s10 - s01)| + |(s00 - s11, s10 + s01)|) / 2`` and the
    smaller |det| over it, and the rank test is ``surface_projection``'s.
    At full rank the radial is |adj(S) d| / |det S|; at rank one it is the
    component along the leading left singular vector over the larger
    singular value, and +inf when the component across exceeds
    ``off_span_tol``.
    """
    smax = 0.5 * (math.hypot(s00 + s11, s10 - s01) + math.hypot(s00 - s11, s10 + s01))
    det = s00 * s11 - s01 * s10
    floor = tolerances.degenerate_rank * max(smax, 1e-300)
    if abs(det) > floor * smax:
        return math.hypot(s11 * d0 - s01 * d1, s00 * d1 - s10 * d0) / abs(det)
    if smax > floor:
        phi = 0.5 * math.atan2(2.0 * (s00 * s10 + s01 * s11),
                               s00 * s00 + s01 * s01 - s10 * s10 - s11 * s11)
        c, sn = math.cos(phi), math.sin(phi)
        along, off = abs(c * d0 + sn * d1) / smax, abs(c * d1 - sn * d0)
    else:
        along, off = 0.0, math.hypot(d0, d1)
    return math.inf if off > tolerances.off_span_tol else along


def _classes(radial, degenerate):
    """Masks (settled, inside) of ``membership``'s classes, lane by lane.

    Settled: "boundary" (|radial - 1| within ``boundary_band``) or
    "on-degenerate-span" (a finite radial at most 1 + band); inside: a
    non-degenerate radial below the band. Every other lane is "outside" or
    "off-degenerate-span".
    """
    band = tolerances.boundary_band
    settled = np.where(degenerate, radial <= 1.0 + band, np.abs(radial - 1.0) <= band)
    return settled, (radial < 1.0) > (settled | degenerate)


def membership(curve: EllipsoidCurve, y) -> MembershipResult:
    """Classify a point as inside/boundary/outside, or against a degenerate span."""
    y = np.asarray(y, dtype=float).reshape(-1)
    radial, off, angles, degenerate = _project(curve, y)
    settled, inside = _classes(radial, degenerate)
    if settled:
        residual = float(np.linalg.norm(curve.point(angles) - y))
        return MembershipResult("on-degenerate-span" if degenerate else "boundary",
                                angles, residual, radial)
    if inside:
        return MembershipResult("inside", None, float("nan"), radial)
    return MembershipResult("off-degenerate-span" if degenerate else "outside",
                            None, float("nan"), radial)


def _lockstep(search, f, *columns):
    """Run one search per lane in lockstep: (x, iterations, errors).

    Lane k runs the generator ``search(*row)`` on the floats of row k of the
    ``columns``: it yields its next point, is sent the value there, and
    returns (x, iterations). Each round evaluates the points of every lane
    still searching in one call ``f(x, live)`` (``live``: the lanes' indices,
    the same array object while no lane leaves), so the lanes share each
    stacked evaluation, while a lane's steps depend on its own values alone.
    A lane whose search returns leaves with its x and iterations; one that
    raises NumericalError leaves with the error, in ``errors`` (lane ->
    error), and reads NaN and 0.
    """
    rows = zip(*(np.asarray(column, dtype=float).tolist() for column in columns))
    searches = [search(*row) for row in rows]
    x, iterations = np.full(len(searches), np.nan), np.zeros(len(searches), dtype=int)
    errors, order, points = {}, [], []
    for k, lane in enumerate(searches):
        try:
            points.append(next(lane))
            order.append(k)
        except StopIteration as done:
            x[k], iterations[k] = done.value
    live = np.array(order, dtype=int)
    while order:
        values = f(np.array(points), live)
        if isinstance(values, np.ndarray):
            values = values.tolist()
        kept, points = [], []
        for k, value in zip(order, values):
            try:
                points.append(searches[k].send(value))
                kept.append(k)
            except StopIteration as done:
                x[k], iterations[k] = done.value
            except NumericalError as exc:
                errors[k] = exc
        if len(kept) < len(order):
            order, live = kept, np.array(kept, dtype=int)
    return x, iterations, errors


def _illinois(lo: float, hi: float, flo: float, fhi: float, ftol: float):
    """One lane of ``_bracket_root``: a generator of trial points, returning (x, iterations)."""
    max_iter = tolerances.max_bisection_iter
    best_x, best_f = (lo, flo) if abs(flo) <= abs(fhi) else (hi, fhi)
    if abs(best_f) <= ftol:
        return best_x, 0
    moved = None  # the end replaced by the last step: "lo" or "hi"
    widths = [math.inf] * 3  # bracket width before each step taken
    for it in range(1, max_iter + 1):
        x = 0.5 * (lo + hi)
        if not lo < x < hi:
            return best_x, it - 1
        if math.isfinite(fhi) and hi - lo <= 0.5 * widths[-3]:
            secant = lo - flo * (hi - lo) / (fhi - flo)
            if lo < secant < hi:
                x = secant
        fx = yield x
        if math.isfinite(fx) and abs(fx) < abs(best_f):
            best_x, best_f = x, fx
        if abs(fx) <= ftol:
            return best_x, it
        widths.append(hi - lo)
        if fx < 0.0:
            lo, flo = x, fx
            if moved == "lo":
                fhi *= 0.5
            moved = "lo"
        else:
            hi, fhi = x, fx
            if moved == "hi":
                flo *= 0.5
            moved = "hi"
    raise NumericalError(
        f"root search did not converge in {max_iter} iterations on [{lo}, {hi}]"
    )


def _bracket_root(f, lo, hi, flo, fhi, ftol: float):
    """Roots of f inside sign-change brackets, lane by lane: (x, iterations, errors).

    lo, hi, flo, fhi hold one entry per lane, and ``f(x, live)`` evaluates
    the lanes ``live`` (indices) at their points x, as an array. Each lane
    requires flo = f(lo) < 0 <= fhi = f(hi); fhi may be +inf, as the
    homotopy's radial gap is where the target leaves a degenerate span.
    Illinois false position (Dowell & Jarratt, BIT 11, 1971): the next point
    is the secant root of the bracket ends, and an end kept twice in a row
    has its value halved so that both ends converge. A bisection step is
    taken instead when an end value is +inf, when the secant point is not
    strictly inside the bracket, or when the last three steps have not halved
    the bracket. Three, not two: when one end is kept twice, the second step
    halves its value and only the third step uses it, so a two-step rule
    would bisect in place of every step the Illinois correction makes.

    A lane stops at a point with |f| <= ftol or when no float lies strictly
    inside its bracket, and returns the point with the smallest finite |f|
    among its bracket ends and every point it evaluated. Each evaluation
    counts as one iteration against ``tolerances.max_bisection_iter``; a
    lane that runs out gets a NumericalError in ``errors`` (lane -> error).
    The lanes run in lockstep (``_lockstep``): each round evaluates every
    searching lane at once, and each lane's bookkeeping is its own scalar
    arithmetic, so it takes exactly the steps it would take alone.
    """
    return _lockstep(lambda *lane: _illinois(*lane, ftol), f, lo, hi, flo, fhi)


def degenerate_u0(p, q) -> np.ndarray:
    """Frame U0 that makes the planar ellipse of (P, Q) rank-deficient.

    Builds orthonormal vectors u1, u2 killing the ellipse's first shape row:
    with rows p1, p2 of P the conditions are p1.u2 = p2.u1 = p1.u1 + p2.u2 = 0.
    After rotating p1 onto e1 and p2 into the (e1, e2) plane (and scaling both
    rows jointly, so that p2 = (a, b, 0, ...) with a^2 + b^2 <= 1 and b >= 0),
    the vectors come either from the explicit axis branch or from the angle
    theta in (0, pi/2) where f(t) = b cos t - b sin t / sqrt(b^2 sin^2 t + a^2)
    vanishes. With x = sin^2 theta that root solves b^2 x^2 + B x - a^2 = 0,
    B = 1 + a^2 - b^2 >= 2 a^2 > 0, whose one root in (0, 1) is taken in the
    cancellation-free form x = 2 a^2 / (B + sqrt(B^2 + 4 a^2 b^2)), so x <= 1/2.
    The conditions are symmetric under swapping the two rows along with the
    two vectors, so the larger row is normalized first. The result is that
    frame with its first three columns turned by the rotation
    [u1, u2, u1 x u2] of their span, so one orthonormal completion serves.

    Also takes stacks (..., n, n) of P and Q, one frame per pair; each pair
    takes its own branches.
    """
    p = require_square_stack(p, "P")
    q = require_square_stack(q, "Q")
    if q.shape != p.shape:
        raise DimensionError(f"P is {p.shape} but Q is {q.shape}")
    n = p.shape[-1]
    if n < 3:
        raise DimensionError("a degenerate planar frame needs size >= 3")
    rows = p.reshape(-1, n, n)[:, :2, :]
    norms = np.sqrt(_dots(rows, rows))
    swapped = norms[:, 1] > norms[:, 0]
    scale = norms.max(axis=1)
    zero = scale < 1e-300  # such a pair gets the identity
    pair = np.where(swapped[:, None, None], rows[:, ::-1], rows)
    pair /= np.where(zero, 1.0, scale)[:, None, None]
    q1, p2 = pair[:, 0], pair[:, 1]
    a = _dots(p2, q1)
    resid = p2 - a[:, None] * q1
    rnorm = np.sqrt(_dots(resid, resid))
    apart = rnorm > 1e-13
    q2 = resid / np.where(apart, rnorm, 1.0)[:, None]
    q2 = q2 - _dots(q2, q1)[:, None] * q1  # second pass for nearly parallel rows
    q2 = q2 / np.where(apart, np.sqrt(_dots(q2, q2)), 1.0)[:, None]
    # one orthonormal completion of (q1, q2), or of q1 alone for parallel rows
    pairs = np.concatenate((q1[..., None], q2[..., None]), axis=-1)
    frame = np.empty((len(rows), n, n))
    for lanes, cols in ((apart, pairs), (~apart, pairs[..., :1])):
        if np.count_nonzero(lanes):
            frame[lanes] = _completions(cols[lanes])
    b = _dots(p2, np.where(apart[:, None], q2, frame[:, :, 1]))
    # columns u1, u2 and u1 x u2, in the frame's first three coordinates
    g = np.array([_turn3(*lane) for lane in zip(a.tolist(), b.tolist(), swapped.tolist())])
    frame[:, :, :3] = frame[:, :, :3] @ g
    if np.count_nonzero(zero):
        frame[zero] = np.eye(n)
    return frame.reshape(p.shape)


def _turn3(a: float, b: float, swapped: bool) -> list:
    """``degenerate_u0``'s rotation [u1, u2, u1 x u2] of the span's first three coordinates."""
    tiny = 1e-13
    if abs(a) <= tiny or b <= tiny:
        c = math.sqrt(max(0.0, 1.0 - b * b))
        g = [[-b, 0.0, -c], [0.0, 1.0, 0.0], [c, 0.0, -b]]
    else:
        big = 1.0 + a * a - b * b
        x = 2.0 * a * a / (big + math.sqrt(big * big + 4.0 * a * a * b * b))
        st, ct = math.sqrt(x), math.sqrt(1.0 - x)
        norm = math.sqrt(b * b * x + a * a)
        g = [[-b * st / norm, 0.0, a / norm],
             [a * st / norm, ct, b * x / norm],
             [-a * ct / norm, st, -b * st * ct / norm]]
    if swapped:  # (u2, u1, u2 x u1) keeps the determinant +1
        g = [[row[1], row[0], -row[2]] for row in g]
    return g


def degenerate_uv(p1) -> tuple:
    """Frame pair (U, V) zeroing the first shape row of the centered ellipsoid.

    With U' @ P1 @ V' diagonal (signed SVD frames), right-multiplying V' by a
    block-diagonal stack of 2x2 quarter turns leaves U @ P1 @ V with zero
    off-diagonal half-blocks and traceless diagonal half-blocks, so the whole
    first coefficient vector of the swept ellipsoid vanishes. Also takes a
    stack (..., n, n), factored in one batched ``signed_svd`` call.
    """
    p1 = require_square_stack(p1, "P1")
    n = p1.shape[-1]
    if n < 4 or n % 2 != 0:
        raise DimensionError(
            f"the construction needs even size >= 4 (three or more map "
            f"coordinates), got {n}"
        )
    f = signed_svd(p1)
    u = np.swapaxes(f.u, -1, -2)
    # V' times the quarter turns [[0, -1], [1, 0]] on each column pair
    v = np.empty_like(f.v)
    v[..., :, 0::2] = f.v[..., :, 1::2]
    v[..., :, 1::2] = -f.v[..., :, 0::2]
    return u, v
