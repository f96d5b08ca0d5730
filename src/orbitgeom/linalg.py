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
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def require_square(a, name: str = "matrix") -> np.ndarray:
    arr = as_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
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
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.v.T


def signed_svd(a) -> SignedSVD:
    """Rotation-group SVD with a deterministic sign-fix rule.

    After the standard SVD, a factor with determinant -1 has its last column
    negated and the sign is pushed onto the last singular value. Both fixes
    preserve the product, so the reconstruction is exact up to roundoff.
    """
    a = require_square(a, "A")
    u, s, vh = np.linalg.svd(a)
    u = u.copy()
    s = s.astype(float).copy()
    v = vh.T.copy()
    if np.linalg.det(u) < 0:
        u[:, -1] *= -1.0
        s[-1] *= -1.0
    if np.linalg.det(v) < 0:
        v[:, -1] *= -1.0
        s[-1] *= -1.0
    return SignedSVD(u=u, s=s, v=v)


def haar_rotations(n: int, count: int, rng) -> np.ndarray:
    """Stack of ``count`` independent Haar-distributed rotations, shape (count, n, n).

    A Gaussian matrix is orthogonalized by QR with the sign-corrected
    triangular factor (Haar on the full orthogonal group); samples with
    determinant -1 get one fixed column negated, which maps that coset onto
    the rotation group measure-preservingly.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    rng = ensure_rng(rng)
    if count == 0:
        return np.empty((0, n, n))
    g = rng.standard_normal((count, n, n))
    q, r = np.linalg.qr(g)
    d = np.sign(np.einsum("...ii->...i", r))
    d[d == 0] = 1.0
    q = q * d[:, None, :]
    det = np.linalg.det(q)
    q[det < 0, :, -1] *= -1.0
    return q


def haar_rotation(n: int, rng) -> np.ndarray:
    """One Haar-distributed rotation."""
    return haar_rotations(n, 1, rng)[0]


def _principal_log_rotation(r: np.ndarray) -> np.ndarray | None:
    """Skew-symmetric principal logarithm of a rotation, or None near eigenvalue -1."""
    eig = np.linalg.eigvals(r)
    if np.min(np.abs(eig + 1.0)) < 1e-8:
        return None
    k = np.real(scipy.linalg.logm(r))
    return (k - k.T) / 2.0


@dataclass(frozen=True)
class RotationPath:
    """Continuous path of rotations on [0, 1].

    Each segment evaluates as ``base @ expm(t * generator)`` on its subinterval;
    a single-segment path is the geodesic ``start @ expm(s * K)``.
    """

    segments: tuple  # of (base, generator, s_lo, s_hi)

    @property
    def start(self) -> np.ndarray:
        return self.segments[0][0]

    @property
    def generator(self) -> np.ndarray:
        if len(self.segments) != 1:
            raise ValueError("piecewise path has no single generator")
        return self.segments[0][1]

    def __call__(self, s: float) -> np.ndarray:
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"path parameter must be in [0, 1], got {s}")
        for base, gen, lo, hi in self.segments:
            if s <= hi:
                t = 0.0 if hi == lo else (s - lo) / (hi - lo)
                return base @ scipy.linalg.expm(t * gen)
        base, gen, lo, hi = self.segments[-1]  # pragma: no cover
        return base @ scipy.linalg.expm(gen)  # pragma: no cover

    @property
    def end(self) -> np.ndarray:
        return self(1.0)


def geodesic(u_start, u_end, rng=None) -> RotationPath:
    """Path in the rotation group from ``u_start`` to ``u_end``.

    Uses the principal logarithm of ``u_start.T @ u_end``. When that matrix
    has an eigenvalue at -1 (log ill-defined) the path detours through a
    Haar-sampled intermediate rotation and is returned as a two-segment
    piecewise path; any continuous path serves the downstream homotopies.
    """
    u_start = require_rotation(u_start, "u_start")
    u_end = require_rotation(u_end, "u_end")
    if u_start.shape != u_end.shape:
        raise DimensionError(
            f"endpoint shapes differ: {u_start.shape} vs {u_end.shape}"
        )
    n = u_start.shape[0]
    k = _principal_log_rotation(u_start.T @ u_end)
    if k is not None:
        return RotationPath(((u_start.copy(), k, 0.0, 1.0),))
    rng = np.random.default_rng(0) if rng is None else ensure_rng(rng)
    for _ in range(64):
        mid = haar_rotation(n, rng)
        k1 = _principal_log_rotation(u_start.T @ mid)
        k2 = _principal_log_rotation(mid.T @ u_end)
        if k1 is not None and k2 is not None:
            return RotationPath(
                ((u_start.copy(), k1, 0.0, 0.5), (mid, k2, 0.5, 1.0))
            )
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
