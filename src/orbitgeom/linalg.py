"""Dense linear algebra specialized to rotation groups.

Matrices are plain float64 numpy arrays throughout the package. A *rotation*
is an (n, n) array U with ``U @ U.T = I`` and ``det U = +1``; validation
helpers enforce this at API boundaries instead of wrapping arrays in a class.

Provides the signed SVD (both factors forced into the rotation group, the
determinant sign absorbed into the last diagonal entry), Haar sampling,
one-segment geodesic paths, and, for the package's own frames, orthonormal
completion to a full rotation (``_completions``).
Everything here is numpy: a geodesic's logarithm comes from one Hermitian
eigendecomposition, so no path of the package loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import tolerances


class DimensionError(ValueError):
    """Input shapes are incompatible with the requested operation."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge or validate."""


class PreconditionError(ValueError):
    """A documented precondition of an operation is violated."""


def require_square(a, name: str = "matrix") -> np.ndarray:
    arr = require_square_stack(a, name)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be one square matrix, got shape {arr.shape}")
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


def require_same_size(**named) -> int:
    """The size n shared by the named square matrices or stacks (..., n, n).

    Raises one ``DimensionError`` naming every input's shape unless all sizes
    agree. The inputs are arrays already checked as square.
    """
    sizes = {x.shape[-1] for x in named.values()}
    if len(sizes) > 1:
        shapes = ", ".join(f"{name} {x.shape}" for name, x in named.items())
        raise DimensionError(f"sizes differ: {shapes}")
    return sizes.pop()


def rotation_defect(u):
    """Max-norm deviation of ``u`` from the special orthogonal group.

    A stack (..., n, n) gives one value per matrix, as an array.
    """
    u = np.asarray(u, dtype=float)
    gram = u @ np.swapaxes(u, -1, -2) - np.eye(u.shape[-1])
    ortho = np.abs(gram.reshape(gram.shape[:-2] + (gram.shape[-1] ** 2,))).max(axis=-1)
    defect = np.maximum(ortho, np.abs(np.linalg.det(u) - 1.0))
    return defect if defect.ndim else float(defect)


def _dots(x, y) -> np.ndarray:
    """Dot products along the last axis, lane by lane.

    Summed by numpy's own loops over contiguous copies, whose order does not
    depend on where a vector sits in memory; a BLAS dot may peel for
    alignment and round a lane differently when it shares a stack.
    """
    return np.einsum("...i,...i->...", np.ascontiguousarray(x), np.ascontiguousarray(y))


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


def _haar_normals(n: int, count: int, rng, factors: tuple = ()) -> np.ndarray:
    """The Gaussian draw behind ``count`` Haar rotations, sample index last.

    Shape (2, count) for n = 2, (4, count) for n = 3, and for other n the
    (count, n, n) draw of one Gaussian matrix per sample seen as (n, n, count).
    Any slice ``g[..., lo:hi]`` finishes into the rotations of those samples
    alone, so the rotations can be finished in blocks after one draw.

    ``factors`` puts leading axes in front, one draw of that many rotation
    stacks: ``factors=(2,)`` gives U's normals in ``g[0]`` and V's in ``g[1]``.
    The generator fills the array in C order, so these are the stream and the
    normals of two successive calls, bit for bit, in the same layout per
    factor. It is one allocation instead of two: 6.4 MB for 1e5 samples at
    n = 3, past the 4 MiB from which numpy advises huge pages. Measured
    under glibc, the convexity check faulted two 3.2 MB arrays in anew,
    4 KiB at a time, on every call, and reuses the one array without faults.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    rng = ensure_rng(rng)
    if n == 2:
        return rng.standard_normal((*factors, 2, count))
    if n == 3:
        return rng.standard_normal((*factors, 4, count))
    return np.moveaxis(rng.standard_normal((*factors, count, n, n)), -3, -1)


def _haar_finish(n: int, g) -> np.ndarray:
    """Haar rotations (n, n, count) from a slice of ``_haar_normals``; overwrites g.

    Every operation acts sample by sample, so a sample's rotation does not
    depend on which other samples share a slice of 2 or more. A one-sample
    slice (``haar_rotation``) can differ in the last bits at n >= 3: there
    ``np.einsum`` reduces along a contiguous axis and adds in another order.

    For n = 2 a Gaussian 2-vector normalized to (c, s) is uniform on the
    circle, which gives ``[[c, -s], [s, c]]``. For n = 3 a Gaussian 4-vector
    normalized to a unit quaternion is uniform on S^3, and the double cover
    S^3 -> SO(3) carries it to Haar measure (Shoemake, "Uniform random
    rotations", Graphics Gems III, 1992); the rotation is written out from
    products of its components.

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


# Angles this close to 0 or pi are read as exactly 0 or pi: their eigenvectors
# are taken together, as a cluster with a real basis.
_CLUSTER = 5e-13
# The Cayley transform of R itself serves while the sum of tan^2(theta / 2)
# over R's eigenvalue angles stays below this, i.e. no angle within ~0.03 of pi.
_CAYLEY_BOUND = 4096.0
# Eigenvectors whose real and imaginary parts are orthonormal to this need no polish.
_SLACK = 1e-14


def _widest_gap(r) -> np.ndarray:
    """Angle in [0, pi] at the middle of the widest gap between r's eigenvalue angles.

    The angles of a rotation come in pairs +-a_k, and the cosines cos a_k are
    the eigenvalues of its symmetric part. The gap around 0 is 2 min a_k, the
    one around pi is 2 (pi - max a_k), and between them the widest gap lies
    between two consecutive a_k (and again between their negatives); of equal
    gaps the one nearer pi wins. Takes a stack (k, n, n): one angle each.
    """
    a = np.arccos(np.clip(0.5 * np.linalg.eigvalsh(r + np.swapaxes(r, -1, -2)), -1.0, 1.0))
    ends = np.ones((len(a), 1))
    e = np.concatenate((math.pi * ends, a, 0.0 * ends), axis=1)  # descending
    gaps, mids = e[:, :-1] - e[:, 1:], 0.5 * (e[:, :-1] + e[:, 1:])
    gaps[:, [0, -1]] *= 2.0
    mids[:, 0], mids[:, -1] = math.pi, 0.0
    return mids[np.arange(len(a)), gaps.argmax(axis=1)]


def _real_basis(c) -> np.ndarray:
    """Real orthonormal basis of the span of the complex columns c, closed under conjugation."""
    return np.linalg.svd(np.hstack((c.real, c.imag)))[0][:, :c.shape[1]]


def _log_rotation_schur(r: np.ndarray):
    """Real Schur factors (Z, theta) of a real logarithm of a rotation.

    ``R = Z T Z^T`` with Z orthogonal and T block diagonal: plane k, the
    columns (2k, 2k + 1) of Z for k < n // 2, is turned by ``theta_k``, and
    the last column of odd n is fixed. A plane that R does not turn has
    theta = 0. Eigenvalues -1 pair up into half turns, in order (Gallier and
    Xu, Int. J. Robotics and Automation 17(4), 2002). The logarithm is
    ``Z L Z^T`` where L holds each angle times the quarter turn
    ``[[0, -1], [1, 0]]`` at rows and columns (2k, 2k + 1).

    The planes come from one Hermitian eigendecomposition. For a unit z with
    -conj(z) in the widest gap of R's eigenvalue angles (z = 1 while no angle
    is near pi), ``H = i (I + z R)^-1 (I - z R)`` has R's eigenvectors and the
    eigenvalues tan((theta + arg z) / 2), increasing in theta. Each eigenvector
    v of an angle in (-pi, 0) gives the plane (sqrt 2 Re v, sqrt 2 Im v); in
    ascending order those angles are one run of columns, and each conjugate
    angle mirrors one of them, so the clusters of angles within ``_CLUSTER``
    of pi and of 0 are the runs between the mirrors. A cluster gets a real
    basis from the SVD of its columns' real and imaginary parts, and then Z
    its nearest orthogonal matrix; so does a Z whose planes came out of
    ``eigh`` less orthonormal than ``_SLACK``. The lone eigenvalue +1 of odd
    n is read off its eigenvector, real up to a phase. The angles are read
    from ``Z^T R Z``; a half turn is exactly pi.

    Also takes a stack (..., n, n). Each rotation of it chooses its z, its
    clusters and its polish on its own, so it gets the factors of its own
    single call; Z and theta then carry the stack's leading axes.
    """
    n = r.shape[-1]
    rs = r.reshape(-1, n, n)
    count, eye, root2 = len(rs), np.eye(n), math.sqrt(2.0)
    try:
        s = np.linalg.solve(eye + rs, eye - rs)
        solved = True
    except np.linalg.LinAlgError:  # an eigenvalue exactly -1 somewhere: find where
        s, solved = np.zeros(rs.shape), np.zeros(count, dtype=bool)
        for k, rk in enumerate(rs):
            try:
                s[k], solved[k] = np.linalg.solve(eye + rk, eye - rk), True
            except np.linalg.LinAlgError:
                pass
    flat_s = s.reshape(count, n * n)
    cayley = solved & (_dots(flat_s, flat_s) <= _CAYLEY_BOUND)
    h = 1j * s
    if np.count_nonzero(cayley) < count:
        shift = ~cayley
        beta = np.full(count, math.pi)
        beta[shift] = _widest_gap(rs[shift])  # -conj(z) = exp(i beta)
        zr = np.exp(1j * (math.pi - beta[shift]))[:, None, None] * rs[shift]
        h[shift] = 1j * np.linalg.solve(eye + zr, eye - zr)
    mu, v = np.linalg.eigh(h)
    # theta < c exactly where mu < tan((c + pi - beta) / 2): counts of the
    # angles below -beta (the arc through pi), -pi + _CLUSTER and -_CLUSTER
    if np.count_nonzero(cayley) == count:
        # z = 1 (beta = pi) throughout: every |tan(theta / 2)| <= 64, so no
        # angle lies below -beta or -pi + _CLUSTER
        b0 = (mu < np.tan(0.5 * (math.pi - _CLUSTER) - math.pi * 0.5)).sum(axis=1).tolist()
        na = a0 = [0] * count
    else:
        edges = np.tan(np.array([0.5 * math.pi, 0.5 * _CLUSTER, 0.5 * (math.pi - _CLUSTER)])
                       - beta[:, None] * [1.0, 0.5, 0.5])
        na, a0, b0 = (mu[:, None, :] < edges[:, :, None]).sum(axis=2).T.tolist()
    # plain: no cluster at pi (columns na - a0 .. a0 would mirror no plane)
    # and at most the one eigenvalue +1 of odd n (columns b0 .. n + na - b0)
    plain = [2 * a == m and 2 * b >= n - 1 + m for m, a, b in zip(na, a0, b0)]
    # a plain rotation's planes are columns a0 .. a0 + n // 2, and then +1's:
    # rolled to the front (a0 is 0 unless z was shifted)
    odd = n % 2
    if any(a0):
        front = np.take_along_axis(v, (np.array(a0)[:, None, None] + np.arange(n)) % n, axis=2)
    else:  # the rotations with clusters read v as it is
        front = v if all(plain) else v.copy()
    sel = front[:, :, :n // 2 + odd]
    g = sel.swapaxes(-1, -2) @ sel  # zero for orthonormal planes, but for the phase of +1
    if odd:
        phase = [c.conjugate() ** 0.5 / root2 for c in g[:, -1, -1].tolist()]
        front[:, :, n // 2] *= np.array(phase)[:, None]
        g[:, -1, -1] = 0.0
    z = front.view(float)[:, :, :n] * root2  # Re v_0, Im v_0, Re v_1, ...
    flat_g = g.view(float).reshape(count, -1)
    polish = ~(_dots(flat_g, flat_g) <= _SLACK * _SLACK)
    clusters = []  # (lane, planes, half turns) of the rotations with clusters
    for k in [k for k, fine in enumerate(plain) if not fine]:
        planes, half, ones = b0[k] - a0[k], 2 * a0[k] - na[k], n + na[k] - 2 * b0[k]
        pairs, flat = 2 * planes + half, v[k].view(float)
        z[k, :, :2 * planes] = flat[:, 2 * a0[k]:2 * b0[k]] * root2
        z[k, :, 2 * planes:pairs] = _real_basis(v[k][:, na[k] - a0[k]:a0[k]])
        z[k, :, pairs:] = _real_basis(v[k][:, b0[k]:b0[k] + ones])
        polish[k] = True
        clusters.append((k, planes, pairs // 2))
    if np.count_nonzero(polish):
        u, _, vt = np.linalg.svd(z[polish])
        z[polish] = u @ vt
    t = z.swapaxes(-1, -2) @ (rs @ z)
    # plane m: t[2m, 2m] at 2m (n + 1) in the flat t, t[2m + 1, 2m] n later,
    # t[2m, 2m + 1] 1 later and t[2m + 1, 2m + 1] n + 1 later
    flat, step = t.reshape(count, n * n), 2 * (n + 1)
    end = n // 2 * step
    theta = np.arctan2(flat[:, n:end:step] - flat[:, 1:end:step],
                       flat[:, 0:end:step] + flat[:, n + 1:end:step])
    for k, planes, turning in clusters:
        theta[k, planes:turning] = np.pi
        theta[k, turning:] = 0.0
    return z.reshape(r.shape), theta.reshape(r.shape[:-2] + (n // 2,))


@dataclass(frozen=True)
class RotationPath:
    """Geodesic of rotations on [0, 1], kept as its real Schur factors.

    The path turns its start frame along the one-parameter subgroup of the
    skew generator ``Z L Z^T``, where L holds the 2x2 blocks
    ``theta_k [[0, -1], [1, 0]]`` at rows and columns (2k, 2k + 1), one per
    entry of the n // 2 angles ``theta``. At s in [0, 1] the path is
    ``base_z turn(s) z_t``, where turn(s) rotates plane k, the columns
    (2k, 2k + 1), by s theta_k, ``base_z`` is the start frame times Z and
    ``z_t = Z^T``: a few cosines and sines and two small products.

    A stack of paths carries leading axes on all three fields; it is
    evaluated at one s per path, and its ``trig_basis`` has the same axes.
    """

    base_z: np.ndarray
    z_t: np.ndarray
    theta: np.ndarray

    @property
    def segments(self) -> tuple:
        """``(self,)``: a geodesic is one segment. Read only by the benchmark's
        tracer (``bench/tracer.py``), which counts paths of more than one."""
        return (self,)

    @property
    def generator(self) -> np.ndarray:
        """Skew generator K of the path: path(s) = path(0) expm(s K)."""
        z, end = self.z_t.T, 2 * len(self.theta)
        zl = np.zeros(z.shape)  # Z L: each plane's columns turned a quarter, times theta
        zl[:, 0:end:2] = z[:, 1:end:2] * self.theta
        zl[:, 1:end:2] = -z[:, 0:end:2] * self.theta
        k = zl @ self.z_t
        return (k - k.T) / 2.0

    def __call__(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if not (s.min() >= 0.0 and s.max() <= 1.0):
            raise ValueError(f"path parameter must be in [0, 1], got {s}")
        return self._at(s)

    def _at(self, s) -> np.ndarray:
        """The path at s without the range check: one s per path of a stack."""
        phase = s[..., None, None] * self.theta[..., None, :]
        c, sn = np.cos(phase), np.sin(phase)
        end = 2 * self.theta.shape[-1]
        bi, bj = self.base_z[..., :, 0:end:2], self.base_z[..., :, 1:end:2]
        turned = self.base_z.copy()  # base_z turn(s): each plane's two columns turned
        turned[..., :, 0:end:2] = bi * c + bj * sn
        turned[..., :, 1:end:2] = bj * c - bi * sn
        return turned @ self.z_t

    def trig_basis(self) -> np.ndarray:
        """The path as a linear combination of trigonometric terms.

        Returns the basis of shape (..., 2K+1, n, n) for the K block angles
        theta, such that at s the path is ``basis[0] + sum_k cos(s theta_k)
        basis[1 + k] + sin(s theta_k) basis[1 + K + k]``: the columns past the
        planes, which stay fixed, then each plane's cosine and sine parts.
        """
        base_z, z_t, end = self.base_z, self.z_t, 2 * self.theta.shape[-1]
        bi = np.swapaxes(base_z[..., :, 0:end:2], -1, -2)[..., None]
        bj = np.swapaxes(base_z[..., :, 1:end:2], -1, -2)[..., None]
        zi, zj = z_t[..., 0:end:2, None, :], z_t[..., 1:end:2, None, :]
        return np.concatenate(
            ((base_z[..., :, end:] @ z_t[..., end:, :])[..., None, :, :],
             bi * zi + bj * zj, bj * zi - bi * zj), axis=-3)


def geodesic(u_start, u_end) -> RotationPath:
    """Geodesic path in the rotation group from ``u_start`` to ``u_end``.

    The generator is a logarithm of ``u_start.T @ u_end``, read in closed
    form from that rotation's real Schur form (``_log_rotation_schur``: one
    angle per leading column pair of Z, n // 2 of them, 0 on a plane that does
    not turn and pi per pair of eigenvalues -1), so every pair of endpoints
    gives one segment, deterministically; the path keeps that factorization.
    """
    u_start = require_rotation(u_start, "u_start")
    u_end = require_rotation(u_end, "u_end")
    require_same_size(u_start=u_start, u_end=u_end)
    return _geodesic(u_start, u_end)


def _geodesic(u_start, u_end) -> RotationPath:
    """``geodesic`` without input checks, for endpoints that are rotations by
    construction; also takes stacks (..., n, n), giving a stack of paths."""
    z, theta = _log_rotation_schur(np.swapaxes(u_start, -1, -2) @ u_end)
    return RotationPath(u_start @ z, np.swapaxes(z, -1, -2), theta)


def _completions(cols) -> np.ndarray:
    """The rotation whose leading columns are the given orthonormal columns
    (..., n, k), stacks too: a complete QR, the columns put back, the last
    column negated where det < 0. Unchecked; the columns must leave at least
    one free column or already have determinant +1."""
    q = np.linalg.qr(cols, mode="complete")[0]
    q[..., :cols.shape[-1]] = cols
    q[..., -1] *= np.where(np.linalg.det(q) < 0, -1.0, 1.0)[..., None]
    return q
