"""Planar boundary machinery for orbit images.

The maximum of tr(P U A V) over rotation pairs has a closed form in the
singular values of P and A with the sign of det(AP) attached to the last
product, and the maximizing frames come from aligning the two signed SVDs.
Sweeping directions in the plane turns this into exact support values whose
half-plane intersection reconstructs the convex boundary. The set of orbit
elements attaining the maximum for a grouped diagonal P is block-structured,
which this module samples, verifies, and decomposes. Hull membership of orbit
diagonals is decided by Thompson's inequalities. One multistart Givens search
checks the closed-form maximum and the two stock non-convexity instances.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import asdict, dataclass
import numpy as np

from .config import tolerances
from .linalg import (
    DimensionError,
    NumericalError,
    PreconditionError,
    _haar_finish,
    _haar_normals,
    _haar_slabs,
    ensure_rng,
    haar_rotations,
    require_rotation,
    require_same_size,
    require_square,
    require_square_stack,
    signed_svd,
)
from .orbits import LinearMapSpec, _orbit_slabs, sample_image

# Every band here is a tolerance times the scale of its own inputs, max|.|
# (sum(s) for Thompson's hull), so a zero input gets band 0. The bands of the
# maximizer-set checks: singular-value, last-signed-value and trace agreement,
# and the block structure (off-diagonal blocks and the reconstruction of block
# factors).
MAXIMIZER_VALUE_TOL = 1e-8
MAXIMIZER_BLOCK_TOL = 1e-6
# Stop rules of the multistart sweeps, and the distance the counterexample
# report's midpoint must keep from the image.
MAX_TRACE_SWEEP_TOL = 1e-7
MAX_TRACE_MAX_SWEEPS = 500
CLOSEST_IMAGE_SWEEP_TOL = 1e-9
CLOSEST_IMAGE_MAX_SWEEPS = 200
COUNTEREXAMPLE_DISTANCE_THRESHOLD = 1e-3
# Stop rule of Wolfe's minimum-norm point (a member's Thompson weights): the
# residual is within this of the distance from d to the hull, relative to
# sum(s). It sits a few times above the roundoff of one Wolfe step, and far
# below the membership band ``matrix_residual * sum(s)``.
WOLFE_GAP_TOL = 1e-14
# The two gates of ``ConvexityReport.passed``: the largest support violation
# of a sample (absolute), and the region-to-hull gap as a share of the
# region's diameter.
CONVEXITY_VIOLATION_TOL = 1e-8
CONVEXITY_GAP_SHARE = 0.01


def max_trace(p, a):
    """Exact maximum of tr(P U A V) over rotation pairs.

    tr(Sp Sa) of the signed SVDs, as in ``argmax_frames``: aligned
    singular-value products whose last values carry the sign of det(AP), so
    no determinant is formed. P and A may be stacks (..., n, n) that
    broadcast against each other; two matrices give a float, stacks an array
    of maxima, each equal to its single-matrix value.
    """
    p, a = require_square_stack(p, "P"), require_square_stack(a, "A")
    require_same_size(P=p, A=a)
    value = _aligned_frames(p, a)[0]
    return float(value) if value.ndim == 0 else value


def argmax_frames(p, a) -> tuple:
    """Rotation pair (U, V) attaining max_trace(P, A).

    With signed SVDs P = Up Sp Vp^T and A = Ua Sa Va^T, the pair
    U = Vp Ua^T, V = Va Up^T collapses the trace to tr(Sp Sa), which is
    ``max_trace``'s value. Stacks (..., n, n) broadcast as in max_trace.
    """
    p, a = require_square_stack(p, "P"), require_square_stack(a, "A")
    require_same_size(P=p, A=a)
    return _aligned_frames(p, a)[1:]


def _aligned_frames(p, a) -> tuple:
    """tr(Sp Sa) and the frames (U, V) of argmax_frames, from one signed SVD each."""
    fp = signed_svd(p)
    fa = signed_svd(a)
    value = (fp.s[..., None, :] @ fa.s[..., :, None])[..., 0, 0]
    return value, fp.v @ np.swapaxes(fa.u, -1, -2), fa.v @ np.swapaxes(fp.u, -1, -2)


def max_trace_bruteforce(p, a, starts: int = 2000, rng=None) -> float:
    """Monte Carlo oracle for max_trace: Haar multistarts + coordinate ascent.

    ``_multistart`` on the one-coordinate map tr(P U A V), in which every
    Givens angle update is exact (a sinusoid in one angle). The ascent stops
    once no start improves by ``MAX_TRACE_SWEEP_TOL`` in a full sweep, or
    after ``MAX_TRACE_MAX_SWEEPS`` sweeps.
    """
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts}")
    p, a = require_square(p, "P"), require_square(a, "A")
    require_same_size(P=p, A=a)
    return float(-np.min(_multistart([[p]], [a], None, starts, ensure_rng(rng), True,
                                     MAX_TRACE_SWEEP_TOL, MAX_TRACE_MAX_SWEEPS)))


# ---------------------------------------------------------------------------
# support boundary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportRegion:
    """Support values on a direction grid and the half-plane intersection polygon."""

    thetas: np.ndarray
    directions: np.ndarray     # (g, 2)
    values: np.ndarray         # (g,)
    touches: np.ndarray        # (g, 2)
    vertices: np.ndarray       # (m, 2) polygon of the half-plane intersection

    def violation(self, points) -> float:
        """Largest amount by which any point leaves any half-plane.

        That is the largest slack ``x cos(t) + y sin(t) - h(t)`` over points
        and directions. ``x cos(t) + y sin(t)`` is formed elementwise, so each
        point's values are the same numbers whichever points it is passed
        with; its largest value per direction is taken first, and h(t)
        subtracted after, which gives the same maximum because rounding a
        difference is monotone in it.
        """
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            return 0.0
        cos, sin = self.directions.T
        reach = np.full(cos.shape, -np.inf)
        # 128 points at a time: a (128, grid) block stays in cache
        for lo in range(0, pts.shape[0], 128):
            x, y = pts[lo : lo + 128].T
            along = np.multiply.outer(x, cos)
            along += np.multiply.outer(y, sin)
            np.maximum(reach, along.max(axis=0), out=reach)
        return float(np.max(reach - self.values))

    def diameter(self) -> float:
        """Largest distance between two vertices of the region polygon.

        The vertices are a convex polygon in counterclockwise order, so the
        farthest pair is antipodal, and one rotating-calipers sweep visits
        every antipodal pair in O(m) (Preparata and Shamos, *Computational
        Geometry: An Introduction*, 1985, section 4.2.3): for each edge i,
        the far vertex j moves on while edge j still turns toward edge i's
        opposite, and both ends of edge i are paired with it. Repeated
        vertices are dropped first, since an edge of length zero has no
        direction. Each pair's squared distance is the all-pairs expression,
        so the value is the all-pairs maximum itself.
        """
        v = self.vertices
        v = v[np.any(v != np.roll(v, 1, axis=0), axis=1)]
        m = len(v)
        if m < 2:
            return 0.0
        x, y = v.T
        ex, ey = np.roll(x, -1) - x, np.roll(y, -1) - y
        # the far vertex of edge 0 starts the sweep
        j = int(np.argmax(ex[0] * (y - y[0]) - ey[0] * (x - x[0])))
        ex, ey = ex.tolist(), ey.tolist()
        near, far = [], []
        for i in range(m):
            while ex[i] * ey[j] - ey[i] * ex[j] > 0.0:
                j = (j + 1) % m
            near += (i, (i + 1) % m)
            far += (j, j)
        return float(np.sqrt(np.max((x[near] - x[far]) ** 2 + (y[near] - y[far]) ** 2)))


def support_boundary(p, q, a, grid_size: int = 720) -> SupportRegion:
    """Exact support values of the planar image on a uniform direction grid.

    For each direction the rotated coefficient cos(t) P + sin(t) Q is paired
    with A through the closed-form maximum; the touching point evaluates the
    original map at the maximizing orbit element. All directions are factored
    as one (grid_size, n, n) stack by one signed SVD, which gives both the
    support value tr(Sp Sa) (the closed form of ``max_trace``, whose signed
    last product sits on the last entries) and the frames of
    ``argmax_frames``, matrix for matrix as one call per direction. The region
    polygon comes from consecutive support-line intersections (one batched
    2x2 solve), pruned to one copy of each run of repeated points, as where
    many support lines meet at a corner of the region. Each support line
    touches the image, so every such intersection is a region vertex.
    ``grid_size`` is an integer of at least 8; a float raises ``TypeError``.
    """
    p, q, a = require_square(p, "P"), require_square(q, "Q"), require_square(a, "A")
    require_same_size(P=p, Q=q, A=a)
    if operator.index(grid_size) < 8:
        raise ValueError(f"grid_size must be at least 8, got {grid_size}")
    thetas = 2.0 * np.pi * np.arange(grid_size) / grid_size
    dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    coeff = dirs[:, 0, None, None] * p + dirs[:, 1, None, None] * q
    values, u, v = _aligned_frames(coeff, a)
    w = u @ a @ v
    touches = np.stack(
        (np.einsum("ij,gji->g", p, w), np.einsum("ij,gji->g", q, w)), axis=1
    )
    scale = float(np.max(np.abs(values)))
    mats = np.stack((dirs, np.roll(dirs, -1, axis=0)), axis=1)
    rhs = np.stack((values, np.roll(values, -1)), axis=1)
    cand = np.linalg.solve(mats, rhs[:, :, None])[:, :, 0]
    keep = np.ones(len(cand), dtype=bool)
    keep[1:] = np.abs(np.diff(cand, axis=0)).max(axis=1) > 1e-12 * scale
    vertices = cand[keep]
    if len(vertices) > 1 and np.abs(vertices[0] - vertices[-1]).max() <= 1e-12 * scale:
        vertices = vertices[:-1]
    return SupportRegion(
        thetas=thetas, directions=dirs, values=values, touches=touches, vertices=vertices
    )


# ---------------------------------------------------------------------------
# maximizer structure
# ---------------------------------------------------------------------------


def diagonal_sum(b, k: int) -> float:
    """Sum of the first k diagonal entries."""
    b = require_square(b, "B")
    if not 0 <= k <= b.shape[0]:
        raise ValueError(f"k must be in [0, {b.shape[0]}], got {k}")
    return float(np.trace(b[:k, :k]))


def _check_signed_diagonal(a, name="A"):
    """Validate the signed-diagonal normal form with strictly separated values."""
    a = require_square(a, name)
    n = a.shape[0]
    scale = float(np.max(np.abs(a)))
    off = a - np.diag(np.diag(a))
    if np.max(np.abs(off)) > tolerances.matrix_residual * scale:
        raise PreconditionError(f"{name} must be diagonal (signed-diagonal form)")
    d = np.diag(a)
    mags = np.abs(d)
    if n > 1 and np.any(d[:-1] < 0):
        raise PreconditionError(
            f"{name} must carry its sign on the last entry only"
        )
    gaps = mags[:-1] - mags[1:]
    if n > 1 and np.min(gaps) <= tolerances.tie_gap * scale:
        raise PreconditionError(
            f"{name} has tied or unordered singular values (min gap "
            f"{np.min(gaps):.3e}); the maximizer structure is undefined there"
        )
    return a


@dataclass(frozen=True)
class MaximizerStructure:
    """Grouped diagonal coefficient P = p_1 I (+) ... (+) p_k I over a base A.

    Requires the base matrix in signed-diagonal form with strictly separated
    singular values and strictly decreasing nonnegative group values.
    """

    block_sizes: tuple
    values: tuple
    a: np.ndarray

    def __post_init__(self):
        a = _check_signed_diagonal(self.a)
        object.__setattr__(self, "a", a)
        sizes = tuple(int(s) for s in self.block_sizes)
        vals = tuple(float(v) for v in self.values)
        if len(sizes) != len(vals) or not sizes:
            raise ValueError("block sizes and values must align and be nonempty")
        if any(s < 1 for s in sizes):
            raise ValueError("block sizes must be positive")
        if sum(sizes) != a.shape[0]:
            raise DimensionError(
                f"block sizes sum to {sum(sizes)} but A is {a.shape[0]}x{a.shape[0]}"
            )
        if any(v < 0 for v in vals):
            raise ValueError("group values must be nonnegative")
        if any(vals[i] <= vals[i + 1] for i in range(len(vals) - 1)):
            raise ValueError("group values must be strictly decreasing")
        object.__setattr__(self, "block_sizes", sizes)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return sum(self.block_sizes)

    @property
    def zero_tail(self) -> bool:
        return self.values[-1] == 0.0

    @property
    def p_matrix(self) -> np.ndarray:
        return np.diag(
            np.concatenate(
                [np.full(s, v) for s, v in zip(self.block_sizes, self.values)]
            )
        )

    @property
    def offsets(self) -> list:
        out = [0]
        for s in self.block_sizes:
            out.append(out[-1] + s)
        return out

    @classmethod
    def from_diagonal_p(cls, p, a) -> "MaximizerStructure":
        p = require_square(p, "P")
        off = p - np.diag(np.diag(p))
        if np.max(np.abs(off)) > tolerances.matrix_residual * np.max(np.abs(p)):
            raise PreconditionError("P must be diagonal with grouped descending values")
        d = np.diag(p)
        sizes, vals = [], []
        for v in d:
            if vals and v == vals[-1]:
                sizes[-1] += 1
            else:
                vals.append(float(v))
                sizes.append(1)
        return cls(block_sizes=tuple(sizes), values=tuple(vals), a=a)


def _block_diag(blocks) -> np.ndarray:
    """Square blocks placed along the diagonal of a zero matrix."""
    size = sum(b.shape[0] for b in blocks)
    out = np.zeros((size, size))
    at = 0
    for b in blocks:
        out[at : at + b.shape[0], at : at + b.shape[0]] = b
        at += b.shape[0]
    return out


def gamma_value(structure: MaximizerStructure) -> float:
    """The attained maximum: diagonal of P dotted with diagonal of A."""
    return float(np.diag(structure.p_matrix) @ np.diag(structure.a))


def gamma_sample_factors(structure: MaximizerStructure, count: int, rng) -> list:
    """Random block factors generating maximizing orbit elements.

    With a positive last group value, the element is a blockwise conjugation;
    with a zero last group the final block carries independent left and right
    rotations (listed last in the factor tuple).
    """
    if count < 0:
        raise ValueError(f"count must be at least 0, got {count}")
    rng = ensure_rng(rng)
    out = []
    for _ in range(count):
        blocks = [haar_rotations(s, 1, rng)[0] for s in structure.block_sizes]
        if structure.zero_tail:
            blocks.append(haar_rotations(structure.block_sizes[-1], 1, rng)[0])
        out.append(tuple(blocks))
    return out


def gamma_build(structure: MaximizerStructure, factors) -> np.ndarray:
    """Assemble the maximizing orbit element from its block factors.

    The factors are one rotation per block, in block order; with a zero last
    group value one more rotation of the last block's size follows, the last
    block's right factor (as ``gamma_sample_factors`` lists them).
    """
    k = len(structure.block_sizes)
    sizes = structure.block_sizes + (structure.block_sizes[-1:] if structure.zero_tail else ())
    factors = [np.asarray(f, dtype=float) for f in factors]
    shapes = [f.shape for f in factors]
    if shapes != [(s, s) for s in sizes]:
        raise DimensionError(f"factors for block sizes {structure.block_sizes} must be "
                             f"square of sizes {sizes}, got shapes {shapes}")
    factors = [require_rotation(f, f"factor {i}") for i, f in enumerate(factors)]
    if structure.zero_tail:
        left = list(factors[:k])
        right = [f.T for f in factors[: k - 1]] + [factors[k]]
    else:
        left = list(factors)
        right = [f.T for f in factors]
    return _block_diag(left) @ structure.a @ _block_diag(right)


def gamma_sample(structure: MaximizerStructure, count: int, rng) -> list:
    """Random elements of the maximizing set."""
    return [gamma_build(structure, f) for f in gamma_sample_factors(structure, count, rng)]


@dataclass(frozen=True)
class GammaVerifyReport:
    in_orbit: bool
    sv_error: float
    det_sign_ok: bool
    trace_gap: float
    trace_ok: bool
    max_off_block: float
    blocks_ok: bool

    @property
    def passed(self) -> bool:
        return self.in_orbit and self.det_sign_ok and self.trace_ok and self.blocks_ok


def _sv_gap(sb, sa) -> float:
    """Largest difference of the singular values, given as signed values (``signed_svd``)."""
    return float(np.max(np.abs(np.abs(sb) - np.abs(sa))))


def gamma_verify(b, structure: MaximizerStructure) -> GammaVerifyReport:
    """Check membership in the maximizing set: orbit, trace value, block shape.

    The signed SVDs' magnitudes give ``sv_error``; their last values carry
    the determinant signs, which may differ only where the smaller last value
    is within the singular-value band.
    """
    b = require_square(b, "B")
    a = structure.a
    require_same_size(B=b, A=a)
    scale = float(np.max(np.abs(a)))
    sb, sa = signed_svd(b).s, signed_svd(a).s
    sv_error = _sv_gap(sb, sa)
    in_orbit = sv_error <= MAXIMIZER_VALUE_TOL * scale
    det_sign_ok = bool((sb[-1] < 0) == (sa[-1] < 0)
                       or min(abs(sb[-1]), abs(sa[-1])) <= MAXIMIZER_VALUE_TOL * scale)
    trace_gap = float(abs(np.einsum("ij,ji->", structure.p_matrix, b) - gamma_value(structure)))
    offs = structure.offsets
    max_off = 0.0
    for bi in range(len(structure.block_sizes)):
        for bj in range(len(structure.block_sizes)):
            if bi == bj:
                continue
            blk = b[offs[bi]:offs[bi + 1], offs[bj]:offs[bj + 1]]
            max_off = max(max_off, float(np.linalg.norm(blk)))
    return GammaVerifyReport(
        in_orbit=in_orbit,
        sv_error=sv_error,
        det_sign_ok=det_sign_ok,
        trace_gap=trace_gap,
        trace_ok=trace_gap <= MAXIMIZER_VALUE_TOL * scale,
        max_off_block=max_off,
        blocks_ok=max_off <= MAXIMIZER_BLOCK_TOL * scale,
    )


@dataclass(frozen=True)
class BlockDecomposition:
    w: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    residual: float


def block_decompose(b, a, k: int) -> BlockDecomposition:
    """Recover the block factors of an orbit element matching the leading trace.

    When the first k diagonal entries of B sum to those of A (with strictly
    separated singular values), B must equal (W (+) X1) A (W^T (+) X2): the
    leading block is a symmetric conjugation of the leading diagonal of A
    (recovered by eigendecomposition) and the trailing block factors come from
    its signed SVD. A reconstruction failure flags a structural violation.
    """
    b = require_square(b, "B")
    a = _check_signed_diagonal(a)
    n = require_same_size(B=b, A=a)
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    scale = float(np.max(np.abs(a)))
    tk_gap = abs(diagonal_sum(b, k) - diagonal_sum(a, k))
    if tk_gap > MAXIMIZER_VALUE_TOL * scale:
        raise PreconditionError(
            f"leading diagonal sums differ by {tk_gap:.3e}; the block structure "
            f"is only forced at equality"
        )
    sv_gap = _sv_gap(signed_svd(b).s, signed_svd(a).s)
    if sv_gap > MAXIMIZER_VALUE_TOL * scale:
        raise PreconditionError(f"B is not in the orbit of A (sv gap {sv_gap:.3e})")
    b11 = 0.5 * (b[:k, :k] + b[:k, :k].T)
    evals, evecs = np.linalg.eigh(b11)
    w = evecs[:, ::-1].copy()
    if np.linalg.det(w) < 0:
        w[:, -1] *= -1.0
    f22 = signed_svd(b[k:, k:])
    x1, x2 = f22.u, f22.v.T
    recon = _block_diag((w, x1)) @ a @ _block_diag((w.T, x2))
    residual = float(np.max(np.abs(recon - b)))
    if residual > MAXIMIZER_BLOCK_TOL * scale:
        raise NumericalError(
            f"block reconstruction residual {residual:.3e}; input violates the "
            f"forced block structure"
        )
    return BlockDecomposition(w=w, x1=x1, x2=x2, residual=residual)


# ---------------------------------------------------------------------------
# diagonal hull membership
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagonalHullQuery:
    d: np.ndarray
    s: np.ndarray
    det_sign: int

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float).reshape(-1)
        s = np.asarray(self.s, dtype=float).reshape(-1)
        if d.size != s.size:
            raise DimensionError(f"d has size {d.size}, s has size {s.size}")
        if d.size == 0:
            raise DimensionError("d and s must be nonempty")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(s))):
            raise ValueError("d and s must be finite")
        if np.any(s < 0) or np.any(np.diff(s) > 0):
            raise ValueError("singular values must be sorted descending and nonnegative")
        if self.det_sign not in (-1, 0, 1):
            raise ValueError(f"det_sign must be -1, 0, or +1, got {self.det_sign}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "s", s)


@dataclass(frozen=True)
class ThompsonResult:
    """Answer to a diagonal-hull query, with its evidence.

    ``member`` comes from Thompson's inequalities. A non-member carries the
    violated inequality's normal as ``functional`` (a sign vector, zero off
    the entries the inequality constrains) and its exact slack
    ``margin = d.g - max_v v.g`` over the hull's vertices v. The vertex list
    and a member's convex weights are computed on first access only:
    ``vertices`` is ``thompson_vertices(s, det_sign)`` (n <= 7), and
    ``weights`` (None for a non-member) is aligned with its rows. The weights
    come from Wolfe's minimum-norm point of the hull minus d
    (``_min_norm_point``): at most n + 1 of them are nonzero and they sum to
    1. A member lies within the membership band ``matrix_residual *
    sum(s)`` of the hull, and weights whose ``weights @ vertices``
    misses d by more than that raise ``NumericalError``. Any other convex
    combination would do as well; this one is sparse and needs no LP.
    """

    query: DiagonalHullQuery
    member: bool
    functional: np.ndarray | None
    margin: float | None

    @functools.cached_property
    def vertices(self) -> np.ndarray:
        return thompson_vertices(self.query.s, self.query.det_sign)

    @functools.cached_property
    def weights(self) -> np.ndarray | None:
        if not self.member:
            return None
        verts = self.vertices
        support, lam = _min_norm_point(self.query)
        w = np.zeros(len(verts))
        for row, weight in zip(support, lam):
            w[np.all(verts == row, axis=1)] = weight
        residual = float(np.max(np.abs(w @ verts - self.query.d)))
        if residual > tolerances.matrix_residual * self.query.s.sum():
            raise NumericalError(
                f"minimum-norm point misses a member query by {residual:.3g}"
            )
        return w


def _argmax_vertex(s, det_sign: int, g) -> np.ndarray:
    """The vertex v of ``thompson_vertices(s, det_sign)`` that maximizes v.g.

    s goes onto the entries of g by decreasing |g|, with the signs of g (+
    at a zero entry); when that sign vector has the parity the vertices
    lack, the entry of smallest |g| flips. Every value is +/- an entry of s
    and a zero is +0.0, so the row equals one of ``thompson_vertices``' rows
    bit for bit.
    """
    order = np.argsort(-np.abs(g), kind="stable")
    signs = np.where(g < 0, -1.0, 1.0)
    if det_sign != 0 and _odd(signs) != (det_sign < 0):
        signs[order[-1]] *= -1.0
    v = np.empty(s.size)
    v[order] = s
    return v * signs + 0.0


def _min_norm_point(query: DiagonalHullQuery) -> tuple:
    """Support vertices and convex weights of the hull point nearest d.

    Wolfe's algorithm ("Finding the nearest point in a polytope", Math.
    Programming 11, 1976) on the hull of the signed permutations minus d,
    with ``_argmax_vertex`` as its linear oracle. A major cycle adds the
    vertex q that minimizes x.(q - d) for the current residual x; minor
    cycles take the affine minimum-norm point of the support (one
    (k+1) x (k+1) solve) and step back to the support's hull, dropping
    vertices, while that point leaves it. The support stays affinely
    independent, so it never holds more than n + 1 vertices. The cycle stops
    when ``|x|`` is within ``WOLFE_GAP_TOL * sum(s)`` of the distance
    to the hull (``|x|**2 - min_q x.(q - d)`` bounds their difference times
    ``|x|``), or when a full simplex holds d, or at roundoff: the oracle
    offers a support vertex again, or ``|x|`` stops falling.
    """
    d, s, det_sign = query.d, query.s, query.det_sign
    tol = WOLFE_GAP_TOL * s.sum()
    support = _argmax_vertex(s, det_sign, d)[None, :]
    lam = np.ones(1)
    x = support[0] - d
    while len(support) <= d.size:
        q = _argmax_vertex(s, det_sign, -x)
        norm = np.sqrt(x @ x)
        if (norm <= tol or x @ x - x @ (q - d) <= tol * norm
                or np.any(np.all(support == q, axis=1))):
            break
        support = np.vstack((support, q))
        lam = np.append(lam, 0.0)
        while True:
            k = len(support)
            p = support - d
            kkt = np.ones((k + 1, k + 1))
            kkt[:k, :k] = p @ p.T
            kkt[k, k] = 0.0
            alpha = np.linalg.solve(kkt, np.eye(k + 1)[k])[:k]
            if alpha.min() >= 0.0:
                break
            out = np.flatnonzero(alpha < 0.0)
            ratio = lam[out] / (lam[out] - alpha[out])
            lam = lam + ratio.min() * (alpha - lam)
            lam[out[np.argmin(ratio)]] = 0.0
            support, lam = support[lam > 0.0], lam[lam > 0.0]
        support, lam = support[alpha > 0.0], alpha[alpha > 0.0]
        x_new = lam @ (support - d)
        if x_new @ x_new >= x @ x:
            break
        x = x_new
    return support, lam


def thompson_vertices(s, det_sign: int) -> np.ndarray:
    """Vertices (+/- s_sigma(1), ..., +/- s_sigma(n)) with sign parity from the determinant.

    An even number of minus signs for det >= 0, odd for det <= 0, both classes
    when the determinant vanishes. Rows are distinct and in lexicographic
    order; a zero coordinate is +0.0. Sizes beyond 7 (n! 2^(n-1)) are refused.
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    n = s.size
    if n > 7:
        raise ValueError(f"vertex enumeration is desk-scale only (n <= 7), got n={n}")
    parities = {0} if det_sign > 0 else {1} if det_sign < 0 else {0, 1}
    signs = [bits for bits in itertools.product((1.0, -1.0), repeat=n)
             if (bits.count(-1.0) % 2) in parities]
    signs = np.array(signs).reshape(len(signs), n)
    if n == 0:
        return signs  # the empty vertex, if its even parity is allowed
    perms = list(itertools.permutations(range(n)))
    perms = np.array(perms, dtype=int).reshape(len(perms), n)
    verts = signs[None, :, :] * s[perms][:, None, :]
    verts = verts.reshape(len(perms) * len(signs), n) + 0.0
    verts = verts[np.lexsort(verts.T[::-1])]
    distinct = np.ones(len(verts), dtype=bool)
    distinct[1:] = np.any(verts[1:] != verts[:-1], axis=1)
    return verts[distinct]


def _odd(signs) -> bool:
    return bool(np.count_nonzero(signs < 0) % 2)


def thompson_membership(query: DiagonalHullQuery) -> ThompsonResult:
    """Test hull membership of a diagonal vector by Thompson's inequalities.

    The hull of the signed permutations of s (sign parity fixed by the
    determinant) is, by R. C. Thompson (SIAM J. Appl. Math. 32, 1977), the
    set of d whose sorted magnitudes a are weakly majorized by s and, when
    ``det_sign`` is nonzero, satisfy one parity inequality: the largest
    value of e.d over sign vectors e of the parity the vertices lack
    (a.sum(), less 2 a[-1] when no such e matches d's signs, zeros counting
    either way) is at most ``s[:-1].sum() - s[-1]``. With ``det_sign = 0``
    both parities are vertices and only the majorization remains. Each
    inequality holds to a band of ``matrix_residual * s.sum()``. A
    violated one gives the separating functional and its exact margin. No
    vertex is listed here, so any size is answered; the result lists the
    ``vertices`` and finds a member's ``weights`` on first access.
    """
    d, s = query.d, query.s
    n = d.size
    band = tolerances.matrix_residual * s.sum()
    order = np.argsort(-np.abs(d), kind="stable")
    excess = np.cumsum(np.abs(d)[order]) - np.cumsum(s)
    k = int(np.argmax(excess))
    g = None
    if excess[k] > band:
        g = np.zeros(n)
        g[order[: k + 1]] = np.sign(d[order[: k + 1]])
    elif query.det_sign != 0:
        g = np.where(d < 0, -1.0, 1.0)
        if _odd(g) == (query.det_sign < 0):
            g[order[-1]] *= -1.0
        if d @ g <= s[:-1].sum() - s[-1] + band:
            g = None
    if g is None:
        return ThompsonResult(query=query, member=True, functional=None, margin=None)
    margin = float(d @ g - _argmax_vertex(s, query.det_sign, g) @ g)
    return ThompsonResult(query=query, member=False, functional=g, margin=margin)


# ---------------------------------------------------------------------------
# multistart Givens search and the stock counterexamples
# ---------------------------------------------------------------------------


# the scan grid of _affine_theta_argmin, the two-harmonic basis on it, and the
# grid's angles with their cosines and sines
_THETA_GRID = np.linspace(0.0, 2.0 * np.pi, 257)[:-1]
_THETA_BASIS = np.stack((
    np.cos(_THETA_GRID), np.sin(_THETA_GRID),
    np.cos(2 * _THETA_GRID), np.sin(2 * _THETA_GRID),
))
_THETA_TABLE = np.vstack((_THETA_GRID, _THETA_BASIS[:2]))
# p1..p4 as maps of the Gram products g_ab = sum_m x_am x_bm of
# x = (alpha, bcos, bsin), flattened row-major (g_01 at 1, g_11 at 4, ...)
_POLY_FROM_GRAM = np.zeros((4, 9))
_POLY_FROM_GRAM[0, 1] = _POLY_FROM_GRAM[1, 2] = 2.0
_POLY_FROM_GRAM[2, [4, 8]] = 0.5, -0.5
_POLY_FROM_GRAM[3, 5] = 1.0
# the rows of f' and of f'' from p1..p4; f, f' and f'' are each a row dotted
# with (cos t, sin t, cos 2t, sin 2t)
_THETA_FROM_GRAM = np.vstack((_POLY_FROM_GRAM, np.array([
    [0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0],
    [-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -4, 0], [0, 0, 0, -4],
]) @ _POLY_FROM_GRAM))


def _affine_theta_argmin(x):
    """Angle minimizing sum_m (alpha_m + bcos_m cos t + bsin_m sin t)^2.

    ``x`` stacks (alpha, bcos, bsin) as a (3, ell, starts) array, one column
    per start. The sum expands (up to a constant) to the two-harmonic
    polynomial p1 cos t + p2 sin t + p3 cos 2t + p4 sin 2t, whose
    coefficients, and those of its first two derivatives, are linear in the
    Gram products of x. Every start's polynomial is scanned on a fixed
    256-angle grid by one (starts, 4) @ (4, 256) product, which also gives
    the value at the grid minimum. That minimum is polished by three Newton
    steps, each clipped to one grid spacing and taken only where the
    curvature is positive, and the polished angle is kept only if it is
    lower. Each step, and the final comparison, takes one cosine and sine of
    the angle; the double-angle terms come from that pair. Returns a
    (3, starts) array: the angle, its cosine and its sine.
    """
    starts = x.shape[-1]
    gram = np.einsum("ams,bms->abs", x, x).reshape(9, starts)
    poly = (_THETA_FROM_GRAM @ gram).reshape(3, 4, starts)
    coef, derivs = poly[0], poly[1:]
    spacing = _THETA_GRID[1] - _THETA_GRID[0]
    fg = coef.T @ _THETA_BASIS
    grid = np.argmin(fg, axis=1)
    base = fg[np.arange(starts), grid]
    at = np.empty((5, starts))  # t, cos t, sin t, cos 2t, sin 2t
    at[0] = _THETA_GRID[grid]
    step = np.empty(starts)

    def harmonics():
        t, c, s, c2, s2 = at
        np.cos(t, out=c)
        np.sin(t, out=s)
        np.subtract(c * c, s * s, out=c2)
        np.multiply(s, c, out=s2)
        s2 *= 2.0
        return at[1:]

    for _ in range(3):
        fp, fpp = np.einsum("dks,ks->ds", derivs, harmonics())
        step.fill(0.0)
        np.divide(fp, fpp, out=step, where=fpp > 1e-18)
        np.maximum(step, -spacing, out=step)
        np.minimum(step, spacing, out=step)
        at[0] -= step
    better = np.einsum("ks,ks->s", coef, harmonics()) < base
    return np.where(better, at[:3], _THETA_TABLE[:, grid])


def _turn(x, i, j, c, s):
    """Givens turn of slabs i, j of x in place: x_i, x_j <- c x_i - s x_j, s x_i + c x_j.

    ``x`` is a slab stack, start index last, so ``x[i]`` is a contiguous
    (..., starts) block and ``c``, ``s`` (one angle per start) broadcast
    along it. Rows of an (n, n, ..., starts) stack turn with x itself,
    columns with the view ``np.swapaxes(x, 0, 1)``.
    """
    xi, xj = x[i], x[j]
    t = s * xi
    xi *= c
    xi -= s * xj
    xj *= c
    xj += t


def _sweep(rows, w, y, right: bool) -> tuple:
    """One pass over every Givens pair of U, or of V, turning ``w`` in place.

    Coordinate j of the map is sum_i tr(P_ji U A_i V), ``rows[j][i]`` = P_ji,
    and ``w`` stacks W_i = U A_i V as slabs (n, n, m, starts), start index
    last. K (n, n, ell, starts) is built once, one product per P_ji: K_j =
    sum_i W_i P_ji on the left, sum_i P_ji W_i on the right, so tr K_j is
    coordinate j, and each turn moves rows (left) or columns (right) of K and
    W together. With ``y`` None the angle maximizes the one coordinate, else
    it minimizes the squared distance to ``y`` (``_affine_theta_argmin``).
    Returns K as the pass leaves it, and the coordinates it started from.
    """
    n, starts = w.shape[0], w.shape[-1]
    k = np.zeros((n, n, len(rows), starts))
    for j, row in enumerate(rows):
        for i, p in enumerate(row):
            x = w[:, :, i]
            k[:, :, j] += (p @ x.reshape(n, -1)).reshape(x.shape) if right else np.matmul(p.T, x)
    turned = (np.swapaxes(k, 0, 1), np.swapaxes(w, 0, 1)) if right else (k, w)
    before = np.trace(k)
    affine = np.empty((3, len(rows), starts))
    alpha, bcos, bsin = affine
    for i in range(n):
        for j in range(i + 1, n):
            np.add(k[i, i], k[j, j], out=bcos)
            np.subtract(k[i, j], k[j, i], out=bsin)
            if y is None:  # the coordinate moves by bcos (cos t - 1) + bsin sin t
                theta = np.arctan2(bsin, bcos)
                c, s = np.cos(theta), np.sin(theta)
            else:
                np.subtract(np.trace(k), bcos, out=alpha)
                alpha -= y[:, None]
                _, c, s = _affine_theta_argmin(affine)
            if right:
                s = -s
            for x in turned:
                _turn(x, i, j, c, s)
    return k, before


def _multistart(rows, a_list, y, starts, rng, two_sided, tol, max_sweeps):
    """Multistart Givens search of the map of ``_sweep``, over U, V when two-sided.

    Draws U, then V (V = I when one-sided), as ``starts`` Haar slabs and
    sweeps them together, U's pairs before V's, until no start's objective
    falls by ``tol`` in a full sweep, or for ``max_sweeps`` sweeps. Returns
    the objective per start: minus the one coordinate when ``y`` is None
    (the maximum is sought), else the squared distance to ``y``.
    """
    n = a_list[0].shape[0]
    if two_sided:  # U's normals, then V's, in one draw
        u, v = (_haar_finish(n, g) for g in _haar_normals(n, starts, rng, factors=(2,)))
        w = np.stack([_orbit_slabs(u.copy(), a, v) for a in a_list], axis=2)
    else:  # U A in slab layout
        u = _haar_slabs(n, starts, rng)
        w = np.stack([np.matmul(a.T, u) for a in a_list], axis=2)

    def objective(coords):
        if y is None:
            return -coords[0]
        diff = coords - y[:, None]
        return np.sum(diff * diff, axis=0)

    prev = None
    for _ in range(max_sweeps):
        for right in (False, True) if two_sided else (False,):
            k, before = _sweep(rows, w, y, right)
            if prev is None:
                prev = objective(before)
        prev, last = objective(np.trace(k)), prev
        if np.max(last - prev) < tol:
            break
    return prev


def _closest_image_distance(rows, a_list, y, starts, rng, two_sided):
    """Multistart estimate of dist(y, image of the map sum_i tr(P_ji U A_i V)).

    ``_multistart`` at the ``CLOSEST_IMAGE_*`` stop rule; each coordinate is
    affine in the cosine and sine of one angle, so each update minimizes a
    two-harmonic polynomial.
    """
    sq = _multistart(rows, a_list, np.asarray(y, dtype=float), starts, rng, two_sided,
                     CLOSEST_IMAGE_SWEEP_TOL, CLOSEST_IMAGE_MAX_SWEEPS)
    return float(np.sqrt(np.min(sq)))


def nonconvex_planar_map(n: int, ell: int) -> LinearMapSpec:
    """The stock map whose image of the rotation group is non-convex (ell >= 3)."""
    if n < 2 or ell < 3:
        raise PreconditionError(f"need n >= 2 and ell >= 3, got n={n}, ell={ell}")
    p1 = np.eye(n)
    p1[n - 2 :, n - 2 :] = 0.0
    p2 = p1.copy()
    p2[n - 2, n - 2] = 1.0
    p3 = p1.copy()
    p3[n - 2, n - 1] = 1.0
    mats = [p1, p2, p3] + [np.zeros((n, n)) for _ in range(ell - 3)]
    return LinearMapSpec(tuple(mats))


def nonconvex_joint_instance(n: int, m: int) -> tuple:
    """Matrices and coefficient rows of the stock non-convex joint-orbit example."""
    if n < 3 or m < 2:
        raise PreconditionError(f"need n >= 3 and m >= 2, got n={n}, m={m}")
    a1 = np.zeros((n, n))
    a1[0, 0] = 1.0
    a2 = np.zeros((n, n))
    a2[1, 1] = 1.0
    a_list = [a1, a2] + [np.zeros((n, n)) for _ in range(m - 2)]
    zero = np.zeros((n, n))
    row1 = [a1, a2] + [zero] * (m - 2)
    row2 = [a2, -a1] + [zero] * (m - 2)
    return a_list, [row1, row2]


def counterexample_report(
    kind: str,
    n: int = 3,
    m: int | None = None,
    ell: int = 3,
    rng=None,
    starts: int = 256,
) -> dict:
    """Verify a stock non-convexity instance numerically.

    Each instance is a map of orbit matrices A_i: coordinate j is
    sum_i tr(P_ji U A_i V) over its coefficient rows (ell3:
    ``nonconvex_planar_map(n, 3)``, one-sided on the one A = I; joint:
    ``nonconvex_joint_instance(n, 2)``). Zero coordinates up to ``ell`` and
    zero orbit matrices up to ``m`` add nothing, so ``ell`` only pads the
    endpoints. The two endpoints evaluate it at the instance's closed-form
    frame pairs, from 0 up, so they equal the expected integers exactly. The
    distance from their midpoint to the image is estimated by multistart
    local minimization of the same map (``_closest_image_distance``); the
    midpoint must stay at least ``COUNTEREXAMPLE_DISTANCE_THRESHOLD`` away
    for the instance to count as verified. The report records the threshold
    as ``distance_threshold``. Only the joint instance has an ``m`` (2 when
    None); the ell3 instance refuses one.
    """
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts}")
    rng = ensure_rng(rng)
    eye = np.eye(n)
    expected = np.zeros((2, ell))
    if kind == "ell3":
        if m is not None:
            raise ValueError(f"the ell3 instance has no m, got m={m}")
        lmap = nonconvex_planar_map(n, min(ell, 3))  # which refuses ell < 3
        x2 = np.eye(n)
        x2[n - 2 :, n - 2 :] = np.array([[0.0, -1.0], [1.0, 0.0]])
        rows, a_list = [[p] for p in lmap.mats], [eye]
        frames = ((eye, eye), (x2, eye))
        expected[:, :3] = (n - 2, n - 1, n - 2), (n - 2, n - 2, n - 1)
    elif kind == "joint":
        if ell < 2:
            raise PreconditionError(f"need ell >= 2, got {ell}")
        m = 2 if m is None else m
        a_list, rows = nonconvex_joint_instance(n, min(m, 2))  # which refuses m < 2
        u2 = np.eye(n)
        u2[:3, :3] = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        v2 = np.eye(n)
        v2[:3, :3] = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        frames = ((eye, eye), (u2, v2))
        expected[0, 0] = expected[1, 1] = 2.0
    else:
        raise ValueError(f"kind must be 'ell3' or 'joint', got {kind!r}")

    # each endpoint is the map at its frame pair, zero beyond the rows
    ends = np.zeros((2, ell))
    for end, (u, v) in zip(ends, frames):
        for coord, row in enumerate(rows):
            for p, a in zip(row, a_list):
                end[coord] += np.einsum("ij,ji->", p, u @ a @ v)
    midpoint = 0.5 * (ends[0] + ends[1])
    distance = _closest_image_distance(
        rows, a_list, midpoint[: len(rows)], starts, rng, two_sided=kind == "joint"
    )
    endpoints_exact = bool(np.array_equal(ends, expected))
    return {
        "kind": kind,
        "n": n,
        "m": m,
        "ell": ell,
        "endpoints": ends.tolist(),
        "expected_endpoints": expected.tolist(),
        "endpoints_exact": endpoints_exact,
        "midpoint": midpoint.tolist(),
        "midpoint_distance_estimate": distance,
        "distance_threshold": COUNTEREXAMPLE_DISTANCE_THRESHOLD,
        "starts": starts,
        "passed": endpoints_exact and distance >= COUNTEREXAMPLE_DISTANCE_THRESHOLD,
    }


# ---------------------------------------------------------------------------
# convexity report
# ---------------------------------------------------------------------------


def _point_polygon_distance(points, poly) -> float:
    """Largest distance from any query point to the boundary of a convex polygon.

    For points outside the polygon, as the region vertices are for a sampled
    hull, this is the distance to the polygon as a set. Each coordinate is a
    (point, edge) array, and every sum of two products is written out as
    ``np.sum`` and ``np.linalg.norm`` form it over a length-2 axis.
    """
    px, py = np.asarray(points, dtype=float).T[:, :, None]
    ax, ay = np.asarray(poly, dtype=float).T
    abx, aby = np.roll(ax, -1) - ax, np.roll(ay, -1) - ay
    denom = abx * abx + aby * aby
    denom[denom == 0] = 1.0
    # axes: (point, edge)
    t = np.clip(((px - ax) * abx + (py - ay) * aby) / denom, 0.0, 1.0)
    dx, dy = ax + t * abx - px, ay + t * aby - py
    dist = np.min(np.sqrt(dx * dx + dy * dy), axis=1)
    return float(np.max(dist, initial=0.0))


@dataclass(frozen=True)
class ConvexityReport:
    support_violation: float
    gap_hull_to_region: float
    gap_region_to_hull: float
    diameter: float
    samples: int
    grid: int
    tie_probe: dict | None

    @property
    def passed(self) -> bool:
        """Whether both gates hold.

        No sample leaves a support half-plane by more than
        ``CONVEXITY_VIOLATION_TOL``, and every region vertex is within
        ``CONVEXITY_GAP_SHARE`` times the diameter of the sampled hull; the
        second gate is skipped when the diameter is zero.
        """
        ok = self.support_violation <= CONVEXITY_VIOLATION_TOL
        if self.diameter > 0:
            ok = ok and self.gap_region_to_hull <= CONVEXITY_GAP_SHARE * self.diameter
        return ok

    def to_json(self) -> dict:
        return {**asdict(self), "passed": self.passed, "tolerances": tolerances.as_dict()}


def _convex_hull(points) -> np.ndarray:
    """Vertices of the convex hull of a 2-D cloud, counterclockwise.

    Quickhull (Eddy, "A new convex hull algorithm for planar sets", ACM TOMS
    3(4), 1977), driven by an explicit stack. The chord between the
    lexicographically first and last points splits the cloud, and its cross
    products serve both halves. A segment a->b keeps the points strictly
    right of it, ``(b - a) x (p - a) < 0``, and splits at the farthest of
    them (the one nearest a among exact ties), which is a hull vertex; a
    segment that keeps no point is a hull edge. Points on a hull edge are
    dropped: a collinear cloud gives its two end points, and a cloud of one
    distinct point gives that point. The output starts at the first point.
    """

    def cross(a, b, x, y):  # (b - a) x (p - a) of each point p = (x, y)
        return (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0])

    x, y = points.T
    tied = np.flatnonzero(x == x.min())
    first = tied[np.argmin(y[tied])]
    tied = np.flatnonzero(x == x.max())
    last = tied[np.argmax(y[tied])]
    if first == last:
        return points[[first]]
    first, last = points[first], points[last]
    side = cross(first, last, x, y)
    hull, stack = [], [(last, first, x, y, -side), (first, last, x, y, side)]
    while stack:
        a, b, x, y, side = stack.pop()
        keep = np.flatnonzero(side < 0.0)
        if not len(keep):
            hull.append(a)
            continue
        x, y, side = x[keep], y[keep], side[keep]
        far = np.flatnonzero(side == side.min())
        k = far[np.argmin((b[0] - a[0]) * x[far] + (b[1] - a[1]) * y[far])]
        c = np.array([x[k], y[k]])
        stack += [(c, b, x, y, cross(c, b, x, y)), (a, c, x, y, cross(a, c, x, y))]
    return np.array(hull)


def convexity_check(
    p, q, a, samples: int = 100000, rng=None, grid: int = 720
) -> ConvexityReport:
    """Compare the exact support region with the hull of a sampled image.

    Reports the worst support violation of the samples and both one-sided
    gaps between the sampled hull and the region polygon. One quickhull of
    every sample (``_convex_hull``) gives a few dozen to a few hundred
    vertices of 1e5 samples. A linear functional is largest over the cloud
    at a hull vertex, so one violation pass over the vertices gives the
    support violation of the whole cloud, and its positive part is the
    hull-to-region gap. A flat (collinear) image has the segment between its
    end points for hull; the hull of one or two samples is the samples
    themselves. When the base
    matrix has tied singular values, a small perturbation to distinct values
    probes the image drift (stability of the convexity statement under
    perturbation): the largest norm in a small ``sample_image`` of the
    orbit of A - A_delta, drawn after the main samples. The drift is bounded
    by trace linearity.
    """
    samples, grid = operator.index(samples), operator.index(grid)  # the report's ints
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    p, q, a = require_square(p, "P"), require_square(q, "Q"), require_square(a, "A")
    if require_same_size(P=p, Q=q, A=a) < 3:
        raise PreconditionError("convexity holds for n >= 3 only")
    rng = ensure_rng(rng)
    region = support_boundary(p, q, a, grid)
    lmap = LinearMapSpec((p, q))
    pts = sample_image(lmap, a, samples, rng).points
    hull_poly = _convex_hull(pts)
    violation = region.violation(hull_poly)
    gap_region_to_hull = _point_polygon_distance(region.vertices, hull_poly)

    sv = np.linalg.svd(a, compute_uv=False)
    scale = sv[0]
    tie_probe = None
    if a.shape[0] > 1 and np.min(sv[:-1] - sv[1:]) <= tolerances.tie_gap * scale:
        delta = 1e-6
        f = signed_svd(a)
        bump = delta * np.arange(a.shape[0] - 1, -1, -1, dtype=float)
        s_new = f.s + np.sign(f.s + (f.s == 0)) * bump
        a_delta = (f.u * s_new) @ f.v.T
        probes = min(200, max(1, samples // 100))
        diff = sample_image(lmap, a - a_delta, probes, rng).points
        drift = float(np.max(np.hypot(diff[:, 0], diff[:, 1])))
        bound = 10.0 * delta * (np.linalg.norm(p) + np.linalg.norm(q))
        tie_probe = {"delta": delta, "drift": drift, "bound": float(bound)}
    return ConvexityReport(
        support_violation=violation,
        gap_hull_to_region=max(0.0, violation),
        gap_region_to_hull=gap_region_to_hull,
        diameter=region.diameter(),
        samples=samples,
        grid=grid,
        tie_probe=tie_probe,
    )
