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
coordinate of a query is evaluated without building a frame
(``_ellipse_radial_along``, ``_ellipsoid_radial_along``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import tolerances
from .linalg import (
    DimensionError,
    NumericalError,
    complete_to_rotation,
    require_rotation,
    require_square,
)


def recursive_rotation(angles) -> np.ndarray:
    """Rotation of size 2^k built from angles (t_1, ..., t_k).

    Base: R(t_1) = [[cos t_1, sin t_1], [-sin t_1, cos t_1]]. Step: the next
    matrix has diagonal blocks cos(t_k) I and off-diagonal blocks
    +/- sin(t_k) times the previous matrix (transposed below the diagonal).
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if angles.size < 1:
        raise ValueError("at least one angle is required")
    c, s = np.cos(angles[0]), np.sin(angles[0])
    r = np.array([[c, s], [-s, c]])
    for theta in angles[1:]:
        c, s = np.cos(theta), np.sin(theta)
        n = r.shape[0]
        r = np.block([[c * np.eye(n), s * r], [-s * r.T, c * np.eye(n)]])
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
    """Angles (t_1, ..., t_{k}) with spherical_point(angles) equal to the unit vector u."""
    u = np.asarray(u, dtype=float).reshape(-1)
    ell = u.size
    if ell < 2:
        raise DimensionError("need at least a 2-vector to recover angles")
    angles = np.zeros(ell - 1)
    v = u
    for pos in range(ell - 1, 1, -1):
        r = float(np.linalg.norm(v[1:]))
        angles[pos - 1] = np.arctan2(r, v[0])
        if r < 1e-15:
            return angles
        v = v[1:] / r
    angles[0] = np.arctan2(v[1], v[0])
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
        if self.kind == "euv":
            u, v = self.frames
            return v @ recursive_rotation(angles) @ u
        u = self.frames[0]
        n = u.shape[0]
        t = np.eye(n)
        t[:2, :2] = recursive_rotation([np.atleast_1d(angles)[0]])
        return u @ t

    def is_degenerate(self) -> bool:
        sv = np.linalg.svd(self.shape, compute_uv=False)
        return bool(sv[-1] <= tolerances.degenerate_rank * max(sv[0], 1e-300))


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
    n = 2 ** (ell - 1)
    u = require_rotation(u, "U")
    v = require_rotation(v, "V")
    for i, p in enumerate(mats):
        if p.shape[0] != n:
            raise DimensionError(
                f"P[{i}] has shape {p.shape}, expected {(n, n)} for ell={ell}"
            )
    if u.shape[0] != n or v.shape[0] != n:
        raise DimensionError(
            f"frames must be {n}x{n}: U is {u.shape}, V is {v.shape}"
        )
    return _ellipsoid_euv(mats, u, v)


def _ellipsoid_euv(mats, u, v) -> EllipsoidCurve:
    """``ellipsoid_euv`` without input checks, for frames already validated."""
    t = _coeffs(u @ np.stack(mats) @ v)
    return EllipsoidCurve(shape=t, center=np.zeros(len(mats)), kind="euv", frames=(u, v))


def ellipse_eu(p, q, u) -> EllipsoidCurve:
    """Planar ellipse swept by the 2x2 rotation block acting on the first two rows.

    The locus of (tr(T_t P U), tr(T_t Q U)) with T_t = R(t) (+) I_{n-2}: the
    shape matrix mixes the first two rows of P, Q with the first two columns
    of U; the center collects the remaining rows' trace contribution.
    """
    p = require_square(p, "P")
    q = require_square(q, "Q")
    u = require_rotation(u, "U")
    n = p.shape[0]
    if q.shape[0] != n or u.shape[0] != n:
        raise DimensionError(
            f"sizes differ: P {p.shape}, Q {q.shape}, U {u.shape}"
        )
    if n < 2:
        raise DimensionError("the planar ellipse needs size >= 2")
    return _ellipse_eu(p, q, u)


def _ellipse_eu(p, q, u) -> EllipsoidCurve:
    """``ellipse_eu`` without input checks, for a frame already validated.

    Also takes a stack of frames (..., n, n); shape and center then carry the
    same leading axes. Row m of the shape is ``(g_00 + g_11, g_10 - g_01)``
    for ``g = M[:2] @ U[:, :2]`` with M = P, Q.
    """
    mats = np.stack((p, q))
    g = mats[:, :2, :] @ u[..., None, :, :2]
    shape = np.stack((g[..., 0, 0] + g[..., 1, 1], g[..., 1, 0] - g[..., 0, 1]), axis=-1)
    center = np.einsum("mrc,...cr->...m", mats[:, 2:, :], u[..., :, 2:])
    return EllipsoidCurve(shape=shape, center=center, kind="eu", frames=(u,))


def _ellipse_radial_along(p, q, path, y):
    """Radial coordinate of y against the planar ellipse of (P, Q) at path(s), as a function.

    The frame is linear in {1, cos s theta_k, sin s theta_k}
    (``RotationPath.trig_basis``), and the ellipse is linear in the frame, so
    the 2x2 shape and the center form a 6 x (2K+1) coefficient block, built
    once from one batched ``_ellipse_eu`` call. A trial point is then the
    trigonometric values, one small product and the closed-form radial of
    ``_radial_2x2``; it equals ``surface_projection`` on
    ``_ellipse_eu(p, q, path(s))`` up to roundoff.
    """
    curves = _ellipse_eu(p, q, path.trig_basis())
    coef = np.concatenate((curves.shape.reshape(-1, 4), curves.center), axis=1).T
    theta = path.theta
    y0, y1 = (float(v) for v in y)

    def radial(s):
        phase = s * theta
        s00, s01, s10, s11, c0, c1 = (
            coef @ np.concatenate(((1.0,), np.cos(phase), np.sin(phase)))
        ).tolist()
        return _radial_2x2(s00, s01, s10, s11, y0 - c0, y1 - c1)

    return radial


def _ellipsoid_radial_along(mats, path_u, path_v, y):
    """``_ellipse_radial_along`` for the centered ellipsoid of ``mats`` at (path_u(s), path_v(s)).

    U is linear in its Ku = 2K+1 trigonometric terms and V in its Kv terms
    (``RotationPath.trig_basis``), so U P_i V is bilinear in the two bases,
    and so is the ell x ell shape, as ``_coeffs`` is linear. Its coefficients
    form an (ell, ell, Ku, Kv) block, built once from one product and one
    batched ``_coeffs`` call. A trial point is then the two trigonometric
    vectors, two small products and one SVD of the shape, whose radial takes
    ``surface_projection``'s rank test and off-span rule and no angles; it
    equals ``surface_projection`` on ``_ellipsoid_euv(mats, path_u(s),
    path_v(s))`` up to roundoff.
    """
    prods = path_u.trig_basis()[:, None, None] @ np.stack(mats)[:, None] @ path_v.trig_basis()
    block = np.ascontiguousarray(_coeffs(prods).transpose(1, 3, 0, 2))
    y = np.asarray(y, dtype=float)

    def trig(path, s):
        phase = s * path.theta
        return np.concatenate(((1.0,), np.cos(phase), np.sin(phase)))

    def radial(s):
        w, sv, _ = np.linalg.svd((block @ trig(path_v, s)) @ trig(path_u, s))
        return _span_radial(sv, w.T @ y)[0]

    return radial


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


def _span_radial(sv, d):
    """(radial, off, rank) of a shape with singular values sv, d the query in its left basis.

    The numerical rank counts the singular values above ``degenerate_rank``
    times the largest. ``off`` is the norm of d beyond the rank; the radial is
    +inf when it exceeds ``off_span_tol``, 0 at rank zero, and otherwise the
    norm of the least-squares preimage d[:rank] / sv[:rank].
    """
    smax = sv[0] if sv.size else 0.0
    rank = int(np.sum(sv > tolerances.degenerate_rank * max(smax, 1e-300)))
    off = float(np.linalg.norm(d[rank:]))
    if off > tolerances.off_span_tol:
        return np.inf, off, rank
    if rank == 0:
        return 0.0, off, rank
    return float(np.linalg.norm(d[:rank] / sv[:rank])), off, rank


def _project(curve: EllipsoidCurve, y):
    """``surface_projection`` plus whether the shape is degenerate, from one SVD.

    The shape is degenerate when its smallest singular value is at most
    ``degenerate_rank`` times the largest, the test of
    ``EllipsoidCurve.is_degenerate``; that is when its numerical rank is
    below ``ell``.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != curve.ell:
        raise DimensionError(f"query has dimension {y.size}, curve {curve.ell}")
    w, sv, zt = np.linalg.svd(curve.shape)
    d = w.T @ (y - curve.center)
    radial, off, rank = _span_radial(sv, d)
    degenerate = rank < curve.ell
    if radial == np.inf:
        return np.inf, off, None, degenerate
    if rank == 0:
        # shape is numerically zero: the curve is the single point `center`
        angles = np.zeros(curve.ell - 1)
        return 0.0, off, angles, degenerate
    zcoef = d[:rank] / sv[:rank]
    z = zt[:rank].T @ zcoef
    if degenerate and radial <= 1.0:
        z = z + np.sqrt(max(0.0, 1.0 - radial**2)) * zt[rank]
    elif radial > 0:
        z = z / radial
    else:
        z = zt[-1]
    return radial, off, angles_from_unit(z), degenerate


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


def membership(curve: EllipsoidCurve, y) -> MembershipResult:
    """Classify a point as inside/boundary/outside, or against a degenerate span."""
    boundary_tol = tolerances.boundary_band
    y = np.asarray(y, dtype=float).reshape(-1)
    radial, off, angles, degenerate = _project(curve, y)
    if degenerate:
        if np.isfinite(radial) and radial <= 1.0 + boundary_tol:
            residual = float(np.linalg.norm(curve.point(angles) - y))
            return MembershipResult("on-degenerate-span", angles, residual, radial)
        return MembershipResult("off-degenerate-span", None, float("nan"), radial)
    if abs(radial - 1.0) <= boundary_tol:
        residual = float(np.linalg.norm(curve.point(angles) - y))
        return MembershipResult("boundary", angles, residual, radial)
    if radial < 1.0:
        return MembershipResult("inside", None, float("nan"), radial)
    return MembershipResult("outside", None, float("nan"), radial)


def _bracket_root(f, lo: float, hi: float, flo: float, fhi: float, ftol: float):
    """Root of f inside a sign-change bracket; returns (x, iterations).

    Requires flo = f(lo) < 0 <= fhi = f(hi); fhi may be +inf, as the
    homotopy's radial gap is where the target leaves a degenerate span.
    Illinois false position (Dowell & Jarratt, BIT 11, 1971): the next point
    is the secant root of the bracket ends, and an end kept twice in a row
    has its value halved so that both ends converge. A bisection step is
    taken instead when an end value is +inf, when the secant point is not
    strictly inside the bracket, or when the last three steps have not halved
    the bracket. Three, not two: when one end is kept twice, the second step
    halves its value and only the third step uses it, so a two-step rule
    would bisect in place of every step the Illinois correction makes.

    The search stops at a point with |f| <= ftol or when no float lies
    strictly inside the bracket, and returns the point with the smallest
    finite |f| among the bracket ends and every evaluated point. Each
    evaluation counts as one iteration against
    ``tolerances.max_bisection_iter``; running out raises NumericalError.
    """
    max_iter = tolerances.max_bisection_iter
    best_x, best_f = (lo, flo) if abs(flo) <= abs(fhi) else (hi, fhi)
    if abs(best_f) <= ftol:
        return best_x, 0
    moved = None  # the end replaced by the last step: "lo" or "hi"
    widths = [np.inf] * 3  # bracket width before each step taken
    for it in range(1, max_iter + 1):
        x = 0.5 * (lo + hi)
        if not lo < x < hi:
            return best_x, it - 1
        if np.isfinite(fhi) and hi - lo <= 0.5 * widths[-3]:
            secant = lo - flo * (hi - lo) / (fhi - flo)
            if lo < secant < hi:
                x = secant
        fx = f(x)
        if np.isfinite(fx) and abs(fx) < abs(best_f):
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


def bisect_root(f, lo: float, hi: float):
    """Root of a sign change of f on [lo, hi]; returns (root, iterations).

    Runs the package's one bracketing root-finder with no tolerance on |f|,
    so the bracket is narrowed until no representable number lies strictly
    between its ends, which pins the root to full relative precision (needed
    when the slope at the root is large).
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo, 0
    if fhi == 0.0:
        return hi, 0
    if np.sign(flo) == np.sign(fhi):
        raise ValueError(f"no sign change: f({lo}) = {flo:.3e}, f({hi}) = {fhi:.3e}")
    sign = 1.0 if flo < 0.0 else -1.0
    return _bracket_root(lambda x: sign * f(x), lo, hi, sign * flo, sign * fhi, 0.0)


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
    two vectors, so the larger row is normalized first.
    """
    p = require_square(p, "P")
    q = require_square(q, "Q")
    n = p.shape[0]
    if q.shape[0] != n:
        raise DimensionError(f"P is {p.shape} but Q is {q.shape}")
    if n < 3:
        raise DimensionError("a degenerate planar frame needs size >= 3")
    p1 = p[0].astype(float).copy()
    p2 = p[1].astype(float).copy()
    swapped = np.linalg.norm(p2) > np.linalg.norm(p1)
    if swapped:
        p1, p2 = p2, p1
    scale = np.linalg.norm(p1)
    if scale < 1e-300:
        return np.eye(n)
    p1 = p1 / scale
    p2 = p2 / scale
    q1 = p1
    resid = p2 - (p2 @ q1) * q1
    rnorm = np.linalg.norm(resid)
    if rnorm > 1e-13:
        q2 = resid / rnorm
        q2 = q2 - (q2 @ q1) * q1  # second pass for nearly parallel rows
        q2 = q2 / np.linalg.norm(q2)
        frame = complete_to_rotation([q1, q2])
    else:
        frame = complete_to_rotation([q1])
        q2 = frame[:, 1]
    a = float(p2 @ q1)
    b = float(p2 @ q2)
    tiny = 1e-13
    if abs(a) <= tiny or b <= tiny:
        u1 = np.zeros(n)
        u1[0] = -b
        u1[2] = np.sqrt(max(0.0, 1.0 - b * b))
        u2 = np.zeros(n)
        u2[1] = 1.0
    else:
        big = 1.0 + a * a - b * b
        x = 2.0 * a * a / (big + np.sqrt(big * big + 4.0 * a * a * b * b))
        st, ct = np.sqrt(x), np.sqrt(1.0 - x)
        norm = np.sqrt(b * b * x + a * a)
        u1 = np.zeros(n)
        u1[:3] = np.array([-b * st, a * st, -a * ct]) / norm
        u2 = np.zeros(n)
        u2[1] = ct
        u2[2] = st
    u1 = frame @ u1
    u2 = frame @ u2
    if swapped:
        u1, u2 = u2, u1
    return complete_to_rotation([u1, u2])


def degenerate_uv(p1) -> tuple:
    """Frame pair (U, V) zeroing the first shape row of the centered ellipsoid.

    With U' @ P1 @ V' diagonal (signed SVD frames), right-multiplying V' by a
    block-diagonal stack of 2x2 quarter turns leaves U @ P1 @ V with zero
    off-diagonal half-blocks and traceless diagonal half-blocks, so the whole
    first coefficient vector of the swept ellipsoid vanishes.
    """
    from .linalg import signed_svd

    p1 = require_square(p1, "P1")
    n = p1.shape[0]
    if n < 4 or n % 2 != 0:
        raise DimensionError(
            f"the construction needs even size >= 4 (three or more map "
            f"coordinates), got {n}"
        )
    f = signed_svd(p1)
    u = f.u.T
    # V' times the quarter turns [[0, -1], [1, 0]] on each column pair
    v = np.empty_like(f.v)
    v[:, 0::2] = f.v[:, 1::2]
    v[:, 1::2] = -f.v[:, 0::2]
    return u, v
