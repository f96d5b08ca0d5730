"""Dense linear algebra specialized to rotation groups.

Matrices are plain float64 numpy arrays throughout the package. A *rotation*
is an (n, n) array U with ``U @ U.T = I`` and ``det U = +1``; validation
helpers enforce this at API boundaries instead of wrapping arrays in a class.

Provides the signed SVD (both factors forced into the rotation group, the
determinant sign absorbed into the last diagonal entry), Haar sampling,
one-segment geodesic paths, and orthonormal completion to a full rotation.
Only a geodesic needs scipy (``scipy.linalg.schur``), which is imported on
its first call; importing the package loads no scipy module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _haar_slabs(n: int, count: int, rng) -> np.ndarray:
    """``count`` independent Haar rotations in slab layout, shape (n, n, count).

    Entry (i, j) of sample k is ``r[i, j, k]``, so each entry slab ``r[i, j]``
    is a contiguous (count,) block: the Gaussian draw of ``_haar_normals``,
    finished into rotations by ``_haar_finish``.
    """
    return _haar_finish(n, _haar_normals(n, count, rng))


def _haar_normals(n: int, count: int, rng) -> np.ndarray:
    """The Gaussian draw behind ``count`` Haar rotations, sample index last.

    Shape (2, count) for n = 2, (4, count) for n = 3, and for other n the
    (count, n, n) draw of one Gaussian matrix per sample seen as (n, n, count).
    Any slice ``g[..., lo:hi]`` finishes into the rotations of those samples
    alone, so the rotations can be finished in blocks after one draw.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    rng = ensure_rng(rng)
    if n == 2:
        return rng.standard_normal((2, count))
    if n == 3:
        return rng.standard_normal((4, count))
    return rng.standard_normal((count, n, n)).transpose(1, 2, 0)


def _haar_finish(n: int, g) -> np.ndarray:
    """Haar rotations (n, n, count) from a slice of ``_haar_normals``; overwrites g.

    Every operation acts sample by sample, so a sample's rotation does not
    depend on which other samples share the slice. For n = 2 a Gaussian
    2-vector normalized to (c, s) is uniform on the circle, which gives
    ``[[c, -s], [s, c]]``. For n = 3 a Gaussian 4-vector normalized to a unit
    quaternion is uniform on S^3, and the double cover S^3 -> SO(3) carries it
    to Haar measure (Shoemake, "Uniform random rotations", Graphics Gems III,
    1992); the rotation is written out from products of its components.

    For n = 1 and n >= 4 a Gaussian matrix G is orthogonalized by classical
    Gram-Schmidt with every column projected out twice ("twice is enough":
    Giraud, Langou and Rozloznik, 2005), vectorized over the samples. This is
    the QR factorization G = QR with a positive diagonal in R, which is
    unique, so Q is Haar on the full orthogonal group (Mezzadri, arXiv
    math-ph/0609050). Samples with determinant -1 get their last column
    negated, which maps that coset onto the rotation group
    measure-preservingly.
    """
    if n == 2:
        c, s = g
        norm = np.sqrt(c * c + s * s)
        c /= norm
        s /= norm
        return np.stack((c, -s, s, c)).reshape(2, 2, len(c))
    if n == 3:
        return _quaternion_slabs(g)
    # cols[j, i, k] is entry (i, j) of sample k: each column is one (n, count) slab
    cols = np.ascontiguousarray(g.transpose(1, 0, 2))
    for j, col in enumerate(cols):
        if j:  # the first column has nothing to project out
            done = cols[:j]
            for _ in range(2):
                col -= np.einsum("jik,jk->ik", done, np.einsum("jik,ik->jk", done, col))
        col /= np.sqrt(np.einsum("ik,ik->k", col, col))
    r = np.ascontiguousarray(cols.transpose(1, 0, 2))
    r[:, -1, np.linalg.det(np.moveaxis(r, -1, 0)) < 0] *= -1.0
    return r


def _quaternion_slabs(q) -> np.ndarray:
    """Rotations (3, 3, count) of the quaternions (w, x, y, z) = q, any nonzero norm.

    q is scaled in place to norm sqrt(2), which makes each product q_a q_b
    twice that of the unit quaternion, so the entries are 1 - (yy + zz),
    xy - wz, ... directly. The entries (i, j) and (j, i) share one product
    and add or subtract another.
    """
    q *= np.sqrt(2.0 / np.einsum("ik,ik->k", q, q))
    w, x, y, z = q
    r = np.empty((3, 3, q.shape[1]))
    xx, yy, zz = x * x, y * y, z * z
    np.subtract(1.0, yy, out=r[0, 0])
    r[0, 0] -= zz
    np.subtract(1.0, xx, out=r[1, 1])
    r[1, 1] -= zz
    np.subtract(1.0, xx, out=r[2, 2])
    r[2, 2] -= yy
    shared, turn = yy, zz  # the squares are used up
    for i, j, a, b, c, d in ((0, 1, x, y, w, z), (2, 0, z, x, w, y), (1, 2, y, z, w, x)):
        np.multiply(a, b, out=shared)
        np.multiply(c, d, out=turn)
        np.subtract(shared, turn, out=r[i, j])
        np.add(shared, turn, out=r[j, i])
    return r


def haar_rotations(n: int, count: int, rng) -> np.ndarray:
    """Stack of ``count`` independent Haar-distributed rotations, shape (count, n, n).

    A contiguous copy of ``_haar_slabs``, which is what the samplers inside
    the package use: n = 2 rotations come from a uniform angle (2 normals per
    rotation), n = 3 from a uniform unit quaternion (4 normals; Shoemake,
    "Uniform random rotations", Graphics Gems III, 1992), and n = 1 and
    n >= 4 from sign-corrected Gram-Schmidt QR of a Gaussian matrix (n^2
    normals; Mezzadri, arXiv math-ph/0609050).
    """
    return np.ascontiguousarray(np.moveaxis(_haar_slabs(n, count, rng), -1, 0))


def haar_rotation(n: int, rng) -> np.ndarray:
    """One Haar-distributed rotation."""
    return haar_rotations(n, 1, rng)[0]


def _log_rotation_schur(r: np.ndarray):
    """Real Schur factors (Z, i, j, theta) of a real logarithm of a rotation.

    In the real Schur form ``R = Z T Z^T`` of a rotation, T is block diagonal
    up to roundoff: its 1x1 blocks are the eigenvalues +1 and -1, and each 2x2
    block ``[[a, b], [c, d]]`` at rows ``(i_k, j_k = i_k + 1)`` turns its plane
    by ``theta_k = atan2((c - b) / 2, (a + d) / 2)``. As det R = +1 the blocks
    -1 come in pairs, taken in order; each pair ``(i_k, j_k)`` is a turn by pi
    in the plane of its two Schur vectors (Gallier and Xu, Int. J. Robotics
    and Automation 17(4), 2002). The logarithm is ``Z L Z^T`` where L holds
    each angle times the quarter turn ``[[0, -1], [1, 0]]`` at rows and
    columns ``(i_k, j_k)``.
    """
    import scipy.linalg  # loaded on the first geodesic only

    t, z = scipy.linalg.schur(r, output="real", check_finite=False)
    i = np.flatnonzero(np.diagonal(t, -1))
    j = i + 1
    theta = np.arctan2(0.5 * (t[j, i] - t[i, j]), 0.5 * (t[i, i] + t[j, j]))
    single = np.ones(t.shape[0], dtype=bool)
    single[i] = single[j] = False
    hi, hj = np.flatnonzero(single & (np.diagonal(t) < 0.0)).reshape(-1, 2).T
    return (z, np.concatenate((i, hi)), np.concatenate((j, hj)),
            np.concatenate((theta, np.full(hi.size, np.pi))))


@dataclass(frozen=True)
class RotationPath:
    """Geodesic of rotations on [0, 1], kept as its real Schur factors.

    The path turns its start frame along the one-parameter subgroup of the
    skew generator ``Z L Z^T``, where L holds the 2x2 blocks
    ``theta_k [[0, -1], [1, 0]]`` at rows and columns ``(i_k, j_k)``. At s in
    [0, 1] the path is ``base_z turn(s) z_t``, where turn(s) rotates each
    plane ``(i_k, j_k)`` by s theta_k, ``base_z`` is the start frame times Z
    and ``z_t = Z^T``: a few cosines and sines and two small products.
    """

    base_z: np.ndarray
    z_t: np.ndarray
    i: np.ndarray
    j: np.ndarray
    theta: np.ndarray

    @property
    def segments(self) -> tuple:
        """``(self,)``: a geodesic is one segment. Read only by the benchmark's
        tracer (``bench/tracer.py``), which counts paths of more than one."""
        return (self,)

    @property
    def generator(self) -> np.ndarray:
        """Skew generator K of the path: path(s) = path(0) expm(s K)."""
        log_t = np.zeros(self.z_t.shape)
        log_t[self.j, self.i] = self.theta
        log_t[self.i, self.j] = -self.theta
        k = (self.z_t.T @ log_t) @ self.z_t
        return (k - k.T) / 2.0

    def __call__(self, s: float) -> np.ndarray:
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"path parameter must be in [0, 1], got {s}")
        i, j = self.i, self.j
        c, sn = np.cos(s * self.theta), np.sin(s * self.theta)
        turn = np.eye(self.z_t.shape[0])
        turn[i, i] = c
        turn[j, j] = c
        turn[j, i] = sn
        turn[i, j] = -sn
        return (self.base_z @ turn) @ self.z_t

    def trig_basis(self) -> np.ndarray:
        """The path as a linear combination of trigonometric terms.

        Returns the basis of shape (2K+1, n, n) for the K block angles theta,
        such that at s the path is ``basis[0] + sum_k cos(s theta_k)
        basis[1 + k] + sin(s theta_k) basis[1 + K + k]``: the frame's fixed
        columns, then each turning plane's cosine and sine parts.
        """
        base_z, z_t, i, j = self.base_z, self.z_t, self.i, self.j
        fixed = np.ones(z_t.shape[0], dtype=bool)
        fixed[i] = fixed[j] = False
        bi, bj = base_z[:, i].T[:, :, None], base_z[:, j].T[:, :, None]
        zi, zj = z_t[i][:, None, :], z_t[j][:, None, :]
        return np.concatenate(
            ((base_z[:, fixed] @ z_t[fixed])[None], bi * zi + bj * zj, bj * zi - bi * zj)
        )


def geodesic(u_start, u_end) -> RotationPath:
    """Geodesic path in the rotation group from ``u_start`` to ``u_end``.

    The generator is a logarithm of ``u_start.T @ u_end``, read in closed
    form from that rotation's real Schur form (one angle per 2x2 block, and a
    half turn per pair of eigenvalues -1), so every pair of endpoints gives
    one segment, deterministically; the path keeps that factorization.
    """
    u_start = require_rotation(u_start, "u_start")
    u_end = require_rotation(u_end, "u_end")
    if u_start.shape != u_end.shape:
        raise DimensionError(
            f"endpoint shapes differ: {u_start.shape} vs {u_end.shape}"
        )
    z, i, j, theta = _log_rotation_schur(u_start.T @ u_end)
    return RotationPath(u_start @ z, z.T, i, j, theta)


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
