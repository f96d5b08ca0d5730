"""Orbits of a matrix under two-sided rotation, linear trace maps, and sampling.

The orbit of A collects all products U @ A @ V with U, V rotations; every
element shares A's singular values and determinant sign. Linear maps into
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
    as_matrix,
    ensure_rng,
    require_rotation,
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
        n = mats[0].shape[0]
        for i, m in enumerate(mats):
            if m.shape[0] != n:
                raise DimensionError(
                    f"coefficient matrices differ in size: P[0] is {mats[0].shape}, "
                    f"P[{i}] is {m.shape}"
                )
        object.__setattr__(self, "mats", mats)

    @property
    def ell(self) -> int:
        return len(self.mats)

    @property
    def n(self) -> int:
        return self.mats[0].shape[0]


@dataclass(frozen=True)
class OrbitSpec:
    """Two-sided orbit of a square matrix under the chosen group (SO or O)."""

    a: np.ndarray
    group: str = "SO"

    def __post_init__(self):
        object.__setattr__(self, "a", require_square(self.a, "A"))
        if self.group not in ("SO", "O"):
            raise ValueError(f"group must be 'SO' or 'O', got {self.group!r}")

    @property
    def n(self) -> int:
        return self.a.shape[0]


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
        n = mats[0].shape[0]
        for i, m in enumerate(mats):
            if m.shape[0] != n:
                raise DimensionError(
                    f"joint-orbit matrices differ in size: A[0] is {mats[0].shape}, "
                    f"A[{i}] is {m.shape}"
                )
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


def _map_mats(lmap) -> tuple:
    if isinstance(lmap, LinearMapSpec):
        return lmap.mats
    return LinearMapSpec(tuple(lmap)).mats


def apply_map(lmap, x) -> np.ndarray:
    """Evaluate the trace map: component i is tr(P_i @ x)."""
    mats = _map_mats(lmap)
    x = require_square(x, "X")
    if x.shape[0] != mats[0].shape[0]:
        raise DimensionError(
            f"X has shape {x.shape} but coefficients are {mats[0].shape}"
        )
    return np.array([np.einsum("ij,ji->", p, x) for p in mats])


def orbit_point(a, u, v) -> np.ndarray:
    """One orbit element U @ A @ V; preserves singular values and det sign."""
    a = require_square(a, "A")
    u = require_rotation(u, "U")
    v = require_rotation(v, "V")
    if u.shape != a.shape or v.shape != a.shape:
        raise DimensionError(
            f"incompatible shapes: A {a.shape}, U {u.shape}, V {v.shape}"
        )
    return u @ a @ v


def _orbit_slabs(u, a, v) -> np.ndarray:
    """U A V for slab stacks U, V of shape (n, n, count), written over U's buffer."""
    return np.einsum("ibk,bjk->ijk", np.matmul(a.T, u), v, out=u)


def sample_image(lmap, orbit: OrbitSpec, count: int, rng) -> PointCloud:
    """Monte Carlo sample of the orbit image under the map.

    The factors U and V are Haar rotations in slab layout (``_haar_normals``
    and ``_haar_finish``: closed-form angles for n = 2, uniform unit
    quaternions for n = 3, Shoemake, "Uniform random rotations", Graphics
    Gems III, 1992; QR of Gaussian matrices otherwise). For the full
    orthogonal group they are drawn Haar on O_n with matching determinant
    signs: the last column of both is flipped with probability 1/2, which
    keeps each factor Haar on O_n. All of U's normals are drawn first, then
    all of V's, then the flips. The samples are then finished in blocks of
    about 4096: the block's rotations, X = U A V slab by slab in two
    products, and the points as one (block, n^2) by (n^2, ell) product
    against the matrix whose column m is P_m^T flattened, since
    tr(P X) = sum_ij X_ij (P^T)_ij. Each sample's point is the same, bit for
    bit, as from one pass over all samples: a one-sample tail is folded into
    the block before it, since one column would take BLAS's matrix-vector
    path, which rounds differently.
    """
    mats = _map_mats(lmap)
    n = orbit.n
    if mats[0].shape[0] != n:
        raise DimensionError(
            f"map coefficients are {mats[0].shape} but orbit matrix is {orbit.a.shape}"
        )
    rng = ensure_rng(rng)
    if count == 0:
        return PointCloud(points=np.empty((0, len(mats))))
    gu = _haar_normals(n, count, rng)
    gv = _haar_normals(n, count, rng)
    flip = rng.random(count) < 0.5 if orbit.group == "O" else None
    pt = np.stack([p.T.ravel() for p in mats], axis=1)
    pts = np.empty((count, len(mats)))
    edges = [*range(0, max(count - 1, 1), _SAMPLE_BLOCK), count]
    for lo, hi in zip(edges, edges[1:]):
        u = _haar_finish(n, gu[..., lo:hi])
        v = _haar_finish(n, gv[..., lo:hi])
        if flip is not None:
            u[:, -1, flip[lo:hi]] *= -1.0
            v[:, -1, flip[lo:hi]] *= -1.0
        x = _orbit_slabs(u, orbit.a, v)
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
    m = len(a_mats)
    reduced = []
    for j, coeffs in enumerate(l_joint):
        coeffs = [require_square(p, f"P[{j}][{i}]") for i, p in enumerate(coeffs)]
        if len(coeffs) != m:
            raise DimensionError(
                f"map row {j} has {len(coeffs)} coefficients for {m} orbit matrices"
            )
        if kind == "O1":
            q = sum(p @ a for p, a in zip(coeffs, a_mats))
        else:
            q = sum(a @ p for p, a in zip(coeffs, a_mats))
        reduced.append(q)
    return LinearMapSpec(tuple(reduced))
