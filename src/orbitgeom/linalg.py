"""Dense linear algebra specialized to rotation groups.

Matrices are plain float64 numpy arrays throughout the package. A *rotation*
is an (n, n) array U with ``U @ U.T = I`` and ``det U = +1``; validation
helpers enforce this at API boundaries instead of wrapping arrays in a class.

Provides the signed SVD (both factors forced into the rotation group, the
determinant sign absorbed into the last diagonal entry), Haar sampling,
geodesic paths, and orthonormal completion to a full rotation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import tolerances


class DimensionError(ValueError):
    """Input shapes are incompatible with the requested operation."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge or validate."""


class PreconditionError(ValueError):
    """A documented precondition of an operation is violated."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def require_square(a, name: str = "matrix") -> np.ndarray:
    arr = as_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    return arr


def require_square_stack(a, name: str = "matrix") -> np.ndarray:
    """One square matrix, or a stack of them with shape (..., n, n)."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise DimensionError(
            f"{name} must be square or a stack of square matrices, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def rotation_defect(u) -> float:
    """Max-norm deviation of ``u`` from the special orthogonal group."""
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    ortho = float(np.max(np.abs(u @ u.T - np.eye(n))))
    return max(ortho, abs(float(np.linalg.det(u)) - 1.0))


def is_rotation(u) -> bool:
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return rotation_defect(u) <= tolerances.matrix_residual


def require_rotation(u, name: str = "rotation") -> np.ndarray:
    arr = require_square(u, name)
    tol = tolerances.matrix_residual
    defect = rotation_defect(arr)
    if defect > tol:
        raise ValueError(f"{name} is not a rotation (defect {defect:.3e} > {tol:.1e})")
    return arr


def ensure_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass(frozen=True)
class SignedSVD:
    """Factorization ``A = u @ diag(s) @ v.T`` with u, v rotations.

    The singular values satisfy ``s[0] >= ... >= s[-2] >= |s[-1]|`` and the
    sign of ``s[-1]`` equals the sign of ``det A`` whenever that is nonzero.
    For a stack of matrices every field carries the same leading axes.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s[..., None, :]) @ np.swapaxes(self.v, -1, -2)


def signed_svd(a) -> SignedSVD:
    """Rotation-group SVD with a deterministic sign-fix rule.

    After the standard SVD, a factor with determinant -1 has its last column
    negated and the sign is pushed onto the last singular value. Both fixes
    preserve the product, so the reconstruction is exact up to roundoff.
    Accepts one matrix or a stack (..., n, n); a stack is factored in one
    batched call, matrix for matrix equal to the single-matrix result.
    """
    a = require_square_stack(a, "A")
    u, s, vh = np.linalg.svd(a)
    v = np.swapaxes(vh, -1, -2).copy()
    flip_u = np.where(np.linalg.det(u) < 0, -1.0, 1.0)
    flip_v = np.where(np.linalg.det(v) < 0, -1.0, 1.0)
    u[..., :, -1] *= flip_u[..., None]
    v[..., :, -1] *= flip_v[..., None]
    s[..., -1] *= flip_u * flip_v
    return SignedSVD(u=u, s=s, v=v)


def haar_rotations(n: int, count: int, rng) -> np.ndarray:
    """Stack of ``count`` independent Haar-distributed rotations, shape (count, n, n).

    A Gaussian matrix G is orthogonalized by classical Gram-Schmidt with
    every column projected out twice ("twice is enough": Giraud, Langou and
    Rozloznik, 2005), vectorized over the stack. This is the QR factorization
    G = QR with a positive diagonal in R, which is unique, so Q is Haar on the
    full orthogonal group (Mezzadri, arXiv math-ph/0609050). Samples with
    determinant -1 get their last column negated, which maps that coset onto
    the rotation group measure-preservingly.

    For n = 2 and 3 that last column is fixed by the others: it is the unit
    vector orthogonal to them that makes the determinant +1, i.e. q1 rotated
    by a quarter turn (n = 2) or q1 x q2 (n = 3). It is set in closed form,
    with no projection and no determinant. Only the first n - 1 columns are
    copied into slabs, and the result is written back into the draw's buffer.
    The whole Gaussian matrix is still drawn, so the generator's stream after
    the call is the same for every n.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    rng = ensure_rng(rng)
    if count == 0:
        return np.empty((0, n, n))
    g = rng.standard_normal((count, n, n))
    closed_form = n in (2, 3)
    # cols[j, i, k] is entry (i, j) of sample k: each column is one (n, count)
    # slab; for n = 2, 3 only the first n - 1 columns are copied
    cols = np.ascontiguousarray(g[:, :, : n - 1 if closed_form else n].transpose(2, 1, 0))
    for j, col in enumerate(cols):
        if j:  # the first column has nothing to project out
            done = cols[:j]
            for _ in range(2):
                col -= np.einsum("jik,jk->ik", done, np.einsum("jik,ik->jk", done, col))
        col /= np.sqrt(np.einsum("ik,ik->k", col, col))
    if not closed_form:
        q = np.ascontiguousarray(cols.transpose(2, 1, 0))
        q[np.linalg.det(q) < 0, :, -1] *= -1.0
        return q
    # the orthonormal columns and the closed-form last one go back into the draw
    g[:, :, : n - 1] = cols.transpose(2, 1, 0)
    if n == 2:
        g[:, 0, 1], g[:, 1, 1] = -cols[0, 1], cols[0, 0]
    else:
        q1, q2 = cols  # np.cross gives the same bits five times slower
        g[:, 0, 2] = q1[1] * q2[2] - q1[2] * q2[1]
        g[:, 1, 2] = q1[2] * q2[0] - q1[0] * q2[2]
        g[:, 2, 2] = q1[0] * q2[1] - q1[1] * q2[0]
    return g


def haar_rotation(n: int, rng) -> np.ndarray:
    """One Haar-distributed rotation."""
    return haar_rotations(n, 1, rng)[0]


def _log_rotation_schur(r: np.ndarray):
    """Real Schur factors (Z, i, theta) of the principal logarithm of a rotation.

    In the real Schur form ``R = Z T Z^T`` of a rotation, T is block diagonal
    up to roundoff: its 1x1 blocks are the eigenvalues +1 and -1, and each 2x2
    block ``[[a, b], [c, d]]`` at rows ``(i_k, i_k + 1)`` turns its plane by
    the angle ``theta_k = atan2((c - b) / 2, (a + d) / 2)``, with eigenvalues
    ``(a + d) / 2 +- i (c - b) / 2``. The logarithm is ``Z L Z^T`` where L
    holds each angle times the quarter turn ``[[0, -1], [1, 0]]`` at its
    block. Returns None near an eigenvalue -1, where the log is ill-defined.
    """
    t, z = scipy.linalg.schur(r, output="real", check_finite=False)
    i = np.flatnonzero(np.diagonal(t, -1))
    j = i + 1
    re = 0.5 * (t[i, i] + t[j, j])
    im = 0.5 * (t[j, i] - t[i, j])
    single = np.ones(t.shape[0], dtype=bool)
    single[i] = single[j] = False
    near_minus_one = np.concatenate(
        (np.abs(np.diagonal(t)[single] + 1.0), np.hypot(re + 1.0, im))
    )
    if np.min(near_minus_one) < 1e-8:
        return None
    return z, i, np.arctan2(im, re)


@dataclass(frozen=True)
class RotationPath:
    """Continuous path of rotations on [0, 1], in per-segment real Schur factors.

    Each segment ``(base Z, Z^T, i, theta, s_lo, s_hi)`` turns its base frame
    along the one-parameter subgroup of the skew generator ``Z T Z^T``, where T
    holds the 2x2 blocks ``theta_k [[0, -1], [1, 0]]`` at rows
    ``(i_k, i_k + 1)``. At local time t in [0, 1] of its subinterval the path
    is ``(base Z) blockdiag(rot(t theta_k)) Z^T``: a few cosines and sines and
    two small products. A single-segment path is the geodesic from its base.
    """

    segments: tuple  # of (base @ Z, Z.T, i, theta, s_lo, s_hi)

    @property
    def generator(self) -> np.ndarray:
        """Skew generator K of a single-segment path: path(s) = path(0) expm(s K)."""
        if len(self.segments) != 1:
            raise ValueError("piecewise path has no single generator")
        _, z_t, i, theta, _, _ = self.segments[0]
        log_t = np.zeros(z_t.shape)
        log_t[i + 1, i] = theta
        log_t[i, i + 1] = -theta
        k = (z_t.T @ log_t) @ z_t
        return (k - k.T) / 2.0

    def locate(self, s: float) -> tuple:
        """(segment index, local time t in [0, 1]) of the path parameter s."""
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"path parameter must be in [0, 1], got {s}")
        for k, (*_, lo, hi) in enumerate(self.segments):
            if s <= hi:
                break
        return k, 0.0 if hi == lo else (s - lo) / (hi - lo)

    def __call__(self, s: float) -> np.ndarray:
        k, t = self.locate(s)
        base_z, z_t, i, theta, _, _ = self.segments[k]
        c, sn = np.cos(t * theta), np.sin(t * theta)
        turn = np.eye(z_t.shape[0])
        turn[i, i] = c
        turn[i + 1, i + 1] = c
        turn[i + 1, i] = sn
        turn[i, i + 1] = -sn
        return (base_z @ turn) @ z_t

    def trig_basis(self) -> list:
        """Each segment's rotation as a linear combination of trigonometric terms.

        Returns, per segment, ``(theta, basis)`` with basis of shape
        (2K+1, n, n) for the segment's K block angles theta, such that at local
        time t the path is ``basis[0] + sum_k cos(t theta_k) basis[1 + k]
        + sin(t theta_k) basis[1 + K + k]``: the frame's fixed columns, then
        each turning plane's cosine and sine parts.
        """
        out = []
        for base_z, z_t, i, theta, _, _ in self.segments:
            j = i + 1
            fixed = np.ones(z_t.shape[0], dtype=bool)
            fixed[i] = fixed[j] = False
            bi, bj = base_z[:, i].T[:, :, None], base_z[:, j].T[:, :, None]
            zi, zj = z_t[i][:, None, :], z_t[j][:, None, :]
            basis = np.concatenate(
                ((base_z[:, fixed] @ z_t[fixed])[None], bi * zi + bj * zj, bj * zi - bi * zj)
            )
            out.append((theta, basis))
        return out


def geodesic(u_start, u_end) -> RotationPath:
    """Path in the rotation group from ``u_start`` to ``u_end``.

    The generator is the principal logarithm of ``u_start.T @ u_end``, read
    in closed form from that rotation's real Schur form (one angle per 2x2
    block); the path keeps that factorization. When the rotation has an
    eigenvalue at -1 (log ill-defined) the path detours through an
    intermediate rotation and is returned as a two-segment piecewise path;
    any continuous path serves the downstream homotopies. The intermediate
    rotations are Haar draws from a fixed seed, so the same endpoints always
    give the same path.
    """
    u_start = require_rotation(u_start, "u_start")
    u_end = require_rotation(u_end, "u_end")
    if u_start.shape != u_end.shape:
        raise DimensionError(
            f"endpoint shapes differ: {u_start.shape} vs {u_end.shape}"
        )

    def segment(base, factors, lo, hi):
        z, i, theta = factors
        return base @ z, z.T, i, theta, lo, hi

    f = _log_rotation_schur(u_start.T @ u_end)
    if f is not None:
        return RotationPath((segment(u_start, f, 0.0, 1.0),))
    rng = np.random.default_rng(0)
    for _ in range(64):
        mid = haar_rotation(u_start.shape[0], rng)
        f1 = _log_rotation_schur(u_start.T @ mid)
        f2 = _log_rotation_schur(mid.T @ u_end)
        if f1 is not None and f2 is not None:
            return RotationPath((segment(u_start, f1, 0.0, 0.5), segment(mid, f2, 0.5, 1.0)))
    raise NumericalError("could not find an intermediate rotation for the path")


def complete_to_rotation(columns) -> np.ndarray:
    """Rotation whose leading columns are the given orthonormal vectors.

    The remaining columns come from an orthonormal completion; the determinant
    is fixed to +1 by negating the last free column. Requires at least one
    free column when the completion would otherwise have determinant -1.
    """
    cols = [np.asarray(c, dtype=float).reshape(-1) for c in columns]
    if not cols:
        raise ValueError("at least one column is required")
    c = np.column_stack(cols)
    n, k = c.shape
    if k > n:
        raise DimensionError(f"cannot place {k} columns in dimension {n}")
    gram = c.T @ c
    if np.max(np.abs(gram - np.eye(k))) > tolerances.matrix_residual:
        raise ValueError("supplied columns are not orthonormal")
    if k == n:
        if np.linalg.det(c) < 0:
            raise ValueError("full column set has determinant -1; no free column to fix")
        return c.copy()
    q = np.linalg.qr(c, mode="complete")[0]
    q[:, :k] = c
    if np.linalg.det(q) < 0:
        q[:, -1] *= -1.0
    return q
