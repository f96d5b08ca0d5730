"""Orbits of a matrix under two-sided rotation, linear trace maps, and sampling.

The orbit of A collects all products U @ A @ V with U, V rotations; every
element shares A's singular values and determinant sign. An orbit is passed
as A itself. Orthogonal factors with det U = det V = -1 give no other set:
with D = diag(1, ..., 1, -1) and A = X S Y its signed SVD, (U D) A (V D) is
(U D X D X^T) A (Y^T D Y V D), both factors rotations. Linear maps into
R^ell are carried by coefficient matrices P_1, ..., P_ell acting through
traces, ``x -> (tr(P_1 x), ..., tr(P_ell x))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DimensionError,
    _haar_finish,
    _haar_normals,
    ensure_rng,
    require_rotation,  # unused; bench/selftest.py expects the tracer to wrap it here
    require_same_size,
    require_square,
)

# Samples per block of ``sample_image``: a block's rotations, orbit elements
# and points stay in cache, and every product on a block is small enough for
# BLAS to run on the calling thread.
_SAMPLE_BLOCK = 4096


@dataclass(frozen=True)
class LinearMapSpec:
    """Trace-linear map R^{n x n} -> R^ell given by coefficient matrices."""

    mats: tuple

    def __post_init__(self):
        mats = tuple(require_square(m, f"P[{i}]") for i, m in enumerate(self.mats))
        if not mats:
            raise ValueError("a linear map needs at least one coefficient matrix")
        require_same_size(**{f"P[{i}]": m for i, m in enumerate(mats)})
        object.__setattr__(self, "mats", mats)

    @property
    def ell(self) -> int:
        return len(self.mats)

    @property
    def n(self) -> int:
        return self.mats[0].shape[0]


@dataclass(frozen=True)
class JointOrbitSpec:
    """Joint orbit of several matrices sharing rotation factors.

    kind O1: (A_1 V, ..., A_m V); O2: (U A_1, ..., U A_m);
    O3: (U A_1 V, ..., U A_m V), with U and V in SO(n).
    """

    a_list: tuple
    kind: str

    def __post_init__(self):
        mats = tuple(require_square(a, f"A[{i}]") for i, a in enumerate(self.a_list))
        if not mats:
            raise ValueError("a joint orbit needs at least one matrix")
        require_same_size(**{f"A[{i}]": a for i, a in enumerate(mats)})
        object.__setattr__(self, "a_list", mats)
        if self.kind not in ("O1", "O2", "O3"):
            raise ValueError(f"kind must be one of O1, O2, O3, got {self.kind!r}")

    @property
    def n(self) -> int:
        return self.a_list[0].shape[0]

    @property
    def m(self) -> int:
        return len(self.a_list)


@dataclass(frozen=True)
class PointCloud:
    """Sampled points in R^ell."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise DimensionError(f"points must be (count, ell), got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite entries")
        object.__setattr__(self, "points", pts)

    @property
    def ell(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


def _as_map(lmap) -> LinearMapSpec:
    """A ``LinearMapSpec`` as it is, or one built from a sequence of matrices."""
    return lmap if isinstance(lmap, LinearMapSpec) else LinearMapSpec(tuple(lmap))


def _joint_rows(l_joint, a_mats) -> list:
    """A joint map's rows: one square coefficient matrix per orbit matrix, of its size."""
    rows = [[require_square(p, f"P[{j}][{i}]") for i, p in enumerate(coeffs)]
            for j, coeffs in enumerate(l_joint)]
    for j, coeffs in enumerate(rows):
        if len(coeffs) != len(a_mats):
            raise DimensionError(
                f"map row {j} has {len(coeffs)} coefficients for {len(a_mats)} orbit matrices")
    named = {f"P[{j}][{i}]": p for j, coeffs in enumerate(rows) for i, p in enumerate(coeffs)}
    require_same_size(**{f"A[{i}]": a for i, a in enumerate(a_mats)}, **named)
    return rows


def apply_map(lmap, x) -> np.ndarray:
    """Evaluate the trace map: component i is tr(P_i @ x)."""
    mats = _as_map(lmap).mats
    x = require_square(x, "X")
    require_same_size(P=mats[0], X=x)
    return np.array([np.einsum("ij,ji->", p, x) for p in mats])


def _orbit_slabs(u, a, v) -> np.ndarray:
    """U A V for slab stacks U, V of shape (n, n, count), written over U's buffer."""
    return np.einsum("ibk,bjk->ijk", np.matmul(a.T, u), v, out=u)


def sample_image(lmap, a, count: int, rng) -> PointCloud:
    """Monte Carlo sample of the image of A's orbit under the map.

    The factors U and V are Haar rotations in slab layout (``_haar_normals``
    and ``_haar_finish``: closed-form angles for n = 2, uniform unit
    quaternions for n = 3, Shoemake, "Uniform random rotations", Graphics
    Gems III, 1992; QR of Gaussian matrices otherwise). All of U's normals
    are drawn first, then all of V's. The samples are then finished in
    blocks of about 4096: the block's rotations, X = U A V slab by slab in two
    products, and the points as one (block, n^2) by (n^2, ell) product
    against the matrix whose column m is P_m^T flattened, since
    tr(P X) = sum_ij X_ij (P^T)_ij. Each sample's point is the same, bit for
    bit, as from one pass over all samples: a one-sample tail is folded into
    the block before it, since one column would take BLAS's matrix-vector
    path, which rounds differently.
    """
    mats = _as_map(lmap).mats
    a = require_square(a, "A")
    n = require_same_size(P=mats[0], A=a)
    rng = ensure_rng(rng)
    if count == 0:
        return PointCloud(points=np.empty((0, len(mats))))
    gu = _haar_normals(n, count, rng)
    gv = _haar_normals(n, count, rng)
    pt = np.stack([p.T.ravel() for p in mats], axis=1)
    pts = np.empty((count, len(mats)))
    edges = [*range(0, max(count - 1, 1), _SAMPLE_BLOCK), count]
    for lo, hi in zip(edges, edges[1:]):
        u = _haar_finish(n, gu[..., lo:hi])
        v = _haar_finish(n, gv[..., lo:hi])
        x = _orbit_slabs(u, a, v)
        pts[lo:hi] = x.reshape(n * n, hi - lo).T @ pt
    return PointCloud(points=pts)


def reduce_joint(l_joint, a_list, kind: str) -> LinearMapSpec:
    """Collapse a joint-orbit map over O1/O2 into a single-rotation trace map.

    For O1 the j-th reduced coefficient is sum_i P_i^{(j)} @ A_i, since the
    joint element evaluates as tr(sum_i P_i^{(j)} A_i V). For O2 the trace
    identity tr(P @ U @ A) = tr((A @ P) @ U) gives sum_i A_i @ P_i^{(j)}.
    """
    if kind == "O3":
        raise ValueError(
            "O3 admits no frame-free reduction; it is certified per target "
            "with the left frame frozen"
        )
    if kind not in ("O1", "O2"):
        raise ValueError(f"kind must be O1 or O2, got {kind!r}")
    a_mats = [require_square(a, f"A[{i}]") for i, a in enumerate(a_list)]
    reduced = []
    for coeffs in _joint_rows(l_joint, a_mats):
        if kind == "O1":
            q = sum(p @ a for p, a in zip(coeffs, a_mats))
        else:
            q = sum(a @ p for p, a in zip(coeffs, a_mats))
        reduced.append(q)
    return LinearMapSpec(tuple(reduced))
