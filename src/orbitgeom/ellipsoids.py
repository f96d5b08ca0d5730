"""Rotation-frame ellipse and ellipsoid loci, and degenerate-frame searches.

The recursive rotation family R(t_1, ..., t_k) lives in the rotation group of
size 2^k and pairs with any square matrix through a trace identity: the trace
of R(t) @ A is a fixed coefficient vector dotted with the spherical direction
(cos t_{k}, sin t_{k} cos t_{k-1}, ..., sin t_{k} ... sin t_1). Sweeping the
angles therefore traces out a centered ellipsoid; with a planar 2x2 rotation
block embedded in a larger frame the locus is an ellipse with an offset.

Both loci admit frames that make the swept shape rank-deficient; the two
constructive searches below produce such frames explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
    if a.shape[0] == 1:
        return np.array([a[0, 0]])
    m = a.shape[0] // 2
    head = np.trace(a[:m, :m]) + np.trace(a[m:, m:])
    return np.concatenate(([head], _coeffs(a[m:, :m] - a[:m, m:].T)))


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
    t = np.vstack([spherical_coeffs(u @ p @ v) for p in mats])
    return EllipsoidCurve(shape=t, center=np.zeros(ell), kind="euv", frames=(u, v))


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
    u1, u2 = u[:, 0], u[:, 1]
    rows = []
    center = []
    for m in (p, q):
        m1, m2 = m[0], m[1]
        rows.append([m1 @ u1 + m2 @ u2, m2 @ u1 - m1 @ u2])
        center.append(np.einsum("rc,cr->", m[2:, :], u[:, 2:]))
    return EllipsoidCurve(
        shape=np.array(rows), center=np.array(center), kind="eu", frames=(u,)
    )


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


def surface_projection(curve: EllipsoidCurve, y):
    """Radial coordinate of y and angles of its radial surface projection.

    Returns (radial, off_span, angles). ``radial`` is infinite when the
    off-span component exceeds the tolerance. For rank-deficient shapes the
    least-squares preimage is topped up with a null direction so the angles
    land exactly on the swept set whenever radial <= 1.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != curve.ell:
        raise DimensionError(f"query has dimension {y.size}, curve {curve.ell}")
    w, sv, zt = np.linalg.svd(curve.shape)
    d = w.T @ (y - curve.center)
    smax = sv[0] if sv.size else 0.0
    rank = int(np.sum(sv > tolerances.degenerate_rank * max(smax, 1e-300)))
    off = float(np.linalg.norm(d[rank:]))
    if off > tolerances.off_span_tol:
        return np.inf, off, None
    if rank == 0:
        # shape is numerically zero: the curve is the single point `center`
        angles = np.zeros(curve.ell - 1)
        return 0.0, off, angles
    zcoef = d[:rank] / sv[:rank]
    radial = float(np.linalg.norm(zcoef))
    z = zt[:rank].T @ zcoef
    if rank < curve.ell and radial <= 1.0:
        z = z + np.sqrt(max(0.0, 1.0 - radial**2)) * zt[rank]
    elif radial > 0:
        z = z / radial
    else:
        z = zt[-1]
    return radial, off, angles_from_unit(z)


def membership(curve: EllipsoidCurve, y) -> MembershipResult:
    """Classify a point as inside/boundary/outside, or against a degenerate span."""
    boundary_tol = tolerances.boundary_band
    y = np.asarray(y, dtype=float).reshape(-1)
    radial, off, angles = surface_projection(curve, y)
    degenerate = curve.is_degenerate()
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


def bisect_root(f, lo: float, hi: float):
    """Plain bisection for a sign change of f on [lo, hi]; returns (root, iterations).

    The bracket is narrowed until no representable number lies strictly
    between its ends, which pins the root to full relative precision (needed
    when the slope at the root is large).
    """
    max_iter = tolerances.max_bisection_iter
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo, 0
    if fhi == 0.0:
        return hi, 0
    if np.sign(flo) == np.sign(fhi):
        raise ValueError(f"no sign change: f({lo}) = {flo:.3e}, f({hi}) = {fhi:.3e}")
    mid = 0.5 * (lo + hi)
    for it in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid, it
        fm = f(mid)
        if fm == 0.0:
            return mid, it
        if np.sign(fm) == np.sign(flo):
            lo, flo = mid, fm
        else:
            hi = mid
    raise NumericalError(
        f"bisection did not converge in {max_iter} iterations on [{lo}, {hi}]"
    )


def degenerate_u0(p, q) -> np.ndarray:
    """Frame U0 that makes the planar ellipse of (P, Q) rank-deficient.

    Builds orthonormal vectors u1, u2 killing the ellipse's first shape row:
    with rows p1, p2 of P the conditions are p1.u2 = p2.u1 = p1.u1 + p2.u2 = 0.
    After rotating p1 onto e1 and p2 into the (e1, e2) plane (and scaling both
    rows jointly), the vectors come either from the explicit axis branch or
    from a bisection on f(t) = b cos t - b sin t / sqrt(b^2 sin^2 t + a^2),
    which changes sign between f(0) = b and f(pi) = -b. The conditions are
    symmetric under swapping the two rows along with the two vectors, so the
    larger row is normalized first.
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
        def f(theta):
            st = np.sin(theta)
            return b * np.cos(theta) - b * st / np.sqrt(b * b * st * st + a * a)

        theta, _ = bisect_root(f, 0.0, np.pi)
        st, ct = np.sin(theta), np.cos(theta)
        norm = np.sqrt(b * b * st * st + a * a)
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
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    v = f.v @ scipy.linalg.block_diag(*([j] * (n // 2)))
    return u, v
