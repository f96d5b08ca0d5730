"""Planar boundary machinery for orbit images.

The maximum of tr(P U A V) over rotation pairs has a closed form in the
singular values of P and A with the sign of det(AP) attached to the last
product, and the maximizing frames come from aligning the two signed SVDs.
Sweeping directions in the plane turns this into exact support values whose
half-plane intersection reconstructs the convex boundary. The set of orbit
elements attaining the maximum for a grouped diagonal P is block-structured,
which this module samples, verifies, and decomposes. Hull membership of orbit
diagonals and the two stock non-convexity instances are checked numerically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
import numpy as np
import scipy.linalg
import scipy.optimize

from .config import tolerances
from .linalg import (
    DimensionError,
    NumericalError,
    PreconditionError,
    ensure_rng,
    haar_rotations,
    require_square,
    signed_svd,
)
from .orbits import LinearMapSpec, OrbitSpec, sample_image


def _require_same_square(p, a, names=("P", "A")):
    p = require_square(p, names[0])
    a = require_square(a, names[1])
    if p.shape != a.shape:
        raise DimensionError(
            f"{names[0]} is {p.shape} but {names[1]} is {a.shape}"
        )
    return p, a


def max_trace(p, a) -> float:
    """Exact maximum of tr(P U A V) over rotation pairs.

    Sum of aligned singular-value products, with the last product signed by
    det(AP). When either determinant vanishes the last singular value is zero
    and the sign is immaterial (taken as +1).
    """
    p, a = _require_same_square(p, a)
    sp = np.linalg.svd(p, compute_uv=False)
    sa = np.linalg.svd(a, compute_uv=False)
    sgn = -1.0 if np.linalg.det(a) * np.linalg.det(p) < 0 else 1.0
    return float(sp[:-1] @ sa[:-1] + sgn * sp[-1] * sa[-1])


def argmax_frames(p, a) -> tuple:
    """Rotation pair (U, V) attaining max_trace(P, A).

    With signed SVDs P = Up Sp Vp^T and A = Ua Sa Va^T, the pair
    U = Vp Ua^T, V = Va Up^T collapses the trace to tr(Sp Sa), which equals
    the closed form because both sign conventions put the determinant sign on
    the last diagonal entry.
    """
    p, a = _require_same_square(p, a)
    fp = signed_svd(p)
    fa = signed_svd(a)
    return fp.v @ fa.u.T, fa.v @ fp.u.T


def _givens_rows(x, i, j, c, s):
    """Rotate rows i, j of every matrix in the batch x in place, by angles (c, s).

    Columns i, j turn by the same call on ``x.transpose(0, 2, 1)`` with ``-s``.
    """
    ri = x[:, i, :].copy()
    rj = x[:, j, :]
    x[:, i, :] = c[:, None] * ri - s[:, None] * rj
    x[:, j, :] = s[:, None] * ri + c[:, None] * rj


def max_trace_bruteforce(
    p, a, starts: int = 2000, rng=None, tol: float = 1e-7, max_sweeps: int = 500
) -> float:
    """Monte Carlo oracle for max_trace: Haar multistarts + coordinate ascent.

    Each Givens angle update is exact (the objective is a sinusoid in one
    angle), alternating sweeps over the left and right factor. All starts are
    advanced simultaneously with batched array operations; the ascent stops
    once no start improves by more than ``tol`` in a full sweep.
    """
    p, a = _require_same_square(p, a)
    rng = ensure_rng(rng)
    n = p.shape[0]
    if n == 1:
        return float(abs(p[0, 0] * a[0, 0]))
    u = haar_rotations(n, starts, rng)
    v = haar_rotations(n, starts, rng)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    vals = None
    for _ in range(max_sweeps):
        # a left turn moves rows of U and of K = U A V P; a right turn moves
        # columns of V and of K = P U A V
        for right in (False, True):
            k = (p @ u @ a) @ v if right else u @ (a @ v @ p)
            turned = (k.transpose(0, 2, 1), v.transpose(0, 2, 1)) if right else (k, u)
            for i, j in pairs:
                theta = np.arctan2(k[:, i, j] - k[:, j, i], k[:, i, i] + k[:, j, j])
                c = np.cos(theta)
                s = -np.sin(theta) if right else np.sin(theta)
                for x in turned:
                    _givens_rows(x, i, j, c, s)
        new_vals = np.einsum("sii->s", k)
        if vals is not None and np.max(new_vals - vals) < tol:
            vals = new_vals
            break
        vals = new_vals
    return float(np.max(vals))


# ---------------------------------------------------------------------------
# support boundary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportSample:
    theta: float
    direction: np.ndarray
    value: float
    touch: np.ndarray


@dataclass(frozen=True)
class SupportRegion:
    """Support values on a direction grid and the half-plane intersection polygon."""

    thetas: np.ndarray
    directions: np.ndarray     # (g, 2)
    values: np.ndarray         # (g,)
    touches: np.ndarray        # (g, 2)
    vertices: np.ndarray       # (m, 2) polygon of the half-plane intersection

    @property
    def samples(self) -> list:
        return [
            SupportSample(float(t), d.copy(), float(r), x.copy())
            for t, d, r, x in zip(self.thetas, self.directions, self.values, self.touches)
        ]

    def violation(self, points) -> float:
        """Largest amount by which any point leaves any half-plane."""
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            return 0.0
        worst = -np.inf
        for lo in range(0, pts.shape[0], 8192):
            chunk = pts[lo : lo + 8192]
            worst = max(worst, float(np.max(chunk @ self.directions.T - self.values)))
        return worst

    def diameter(self) -> float:
        if self.vertices.shape[0] < 2:
            return 0.0
        vs = self.vertices
        d2 = np.sum((vs[:, None, :] - vs[None, :, :]) ** 2, axis=2)
        return float(np.sqrt(np.max(d2)))


def support_boundary(p, q, a, grid_size: int = 720) -> SupportRegion:
    """Exact support values of the planar image on a uniform direction grid.

    For each direction the rotated coefficient cos(t) P + sin(t) Q is paired
    with A through the closed-form maximum; the touching point evaluates the
    original map at the maximizing orbit element. The region polygon comes
    from consecutive support-line intersections, pruned to feasibility.
    """
    p, q = _require_same_square(p, q, ("P", "Q"))
    a = require_square(a, "A")
    if a.shape != p.shape:
        raise DimensionError(f"A is {a.shape} but coefficients are {p.shape}")
    if grid_size < 8:
        raise ValueError(f"grid_size must be at least 8, got {grid_size}")
    thetas = 2.0 * np.pi * np.arange(grid_size) / grid_size
    dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    values = np.empty(grid_size)
    touches = np.empty((grid_size, 2))
    for k, (c, s) in enumerate(dirs):
        coeff = c * p + s * q
        values[k] = max_trace(coeff, a)
        u, v = argmax_frames(coeff, a)
        w = u @ a @ v
        touches[k] = (np.einsum("ij,ji->", p, w), np.einsum("ij,ji->", q, w))
    scale = float(np.max(np.abs(values))) + 1.0
    raw = []
    for k in range(grid_size):
        k2 = (k + 1) % grid_size
        mat = np.array([dirs[k], dirs[k2]])
        det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
        if abs(det) < 1e-12:
            continue
        raw.append(np.linalg.solve(mat, values[[k, k2]]))
    verts = []
    for x in raw:
        if np.max(dirs @ x - values) <= 1e-8 * scale:
            if not verts or np.max(np.abs(x - verts[-1])) > 1e-12 * scale:
                verts.append(x)
    if len(verts) > 1 and np.max(np.abs(verts[0] - verts[-1])) <= 1e-12 * scale:
        verts.pop()
    vertices = np.array(verts) if verts else np.empty((0, 2))
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
    scale = float(np.max(np.abs(a))) + 1.0
    off = a - np.diag(np.diag(a))
    if np.max(np.abs(off)) > tolerances.matrix_residual * scale:
        raise PreconditionError(f"{name} must be diagonal (signed-diagonal form)")
    d = np.diag(a).copy()
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
    return a, d


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
        a, _ = _check_signed_diagonal(self.a)
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
        if np.max(np.abs(off)) > tolerances.matrix_residual * (np.max(np.abs(p)) + 1.0):
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


def gamma_value(structure: MaximizerStructure) -> float:
    """The attained maximum: diagonal of P dotted with diagonal of A."""
    return float(np.diag(structure.p_matrix) @ np.diag(structure.a))


def gamma_sample_factors(structure: MaximizerStructure, count: int, rng) -> list:
    """Random block factors generating maximizing orbit elements.

    With a positive last group value, the element is a blockwise conjugation;
    with a zero last group the final block carries independent left and right
    rotations (listed last in the factor tuple).
    """
    rng = ensure_rng(rng)
    out = []
    for _ in range(count):
        blocks = [haar_rotations(s, 1, rng)[0] for s in structure.block_sizes]
        if structure.zero_tail:
            blocks.append(haar_rotations(structure.block_sizes[-1], 1, rng)[0])
        out.append(tuple(blocks))
    return out


def gamma_build(structure: MaximizerStructure, factors) -> np.ndarray:
    """Assemble the maximizing orbit element from its block factors."""
    k = len(structure.block_sizes)
    if structure.zero_tail:
        left = list(factors[:k])
        right = [f.T for f in factors[: k - 1]] + [factors[k]]
    else:
        left = list(factors)
        right = [f.T for f in factors]
    lmat = scipy.linalg.block_diag(*left)
    rmat = scipy.linalg.block_diag(*right)
    return lmat @ structure.a @ rmat


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


def gamma_verify(b, p, a, structure: MaximizerStructure | None = None,
                 sv_tol: float = 1e-8, trace_tol: float = 1e-8,
                 block_tol: float = 1e-6) -> GammaVerifyReport:
    """Check membership in the maximizing set: orbit, trace value, block shape."""
    b = require_square(b, "B")
    if structure is None:
        structure = MaximizerStructure.from_diagonal_p(p, a)
    a = structure.a
    if b.shape != a.shape:
        raise DimensionError(f"B is {b.shape} but A is {a.shape}")
    scale = float(np.max(np.abs(a))) + 1.0
    sv_b = np.linalg.svd(b, compute_uv=False)
    sv_a = np.linalg.svd(a, compute_uv=False)
    sv_error = float(np.max(np.abs(sv_b - sv_a)))
    in_orbit = sv_error <= sv_tol * scale
    det_a, det_b = np.linalg.det(a), np.linalg.det(b)
    det_sign_ok = bool(det_a * det_b >= -((sv_tol * scale) ** b.shape[0]))
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
        trace_ok=trace_gap <= trace_tol * scale,
        max_off_block=max_off,
        blocks_ok=max_off <= block_tol * scale,
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
    a, d = _check_signed_diagonal(a)
    n = a.shape[0]
    if b.shape != a.shape:
        raise DimensionError(f"B is {b.shape} but A is {a.shape}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    scale = float(np.max(np.abs(a))) + 1.0
    tk_gap = abs(diagonal_sum(b, k) - diagonal_sum(a, k))
    if tk_gap > 1e-8 * scale:
        raise PreconditionError(
            f"leading diagonal sums differ by {tk_gap:.3e}; the block structure "
            f"is only forced at equality"
        )
    sv_gap = float(
        np.max(
            np.abs(
                np.linalg.svd(b, compute_uv=False) - np.linalg.svd(a, compute_uv=False)
            )
        )
    )
    if sv_gap > 1e-8 * scale:
        raise PreconditionError(f"B is not in the orbit of A (sv gap {sv_gap:.3e})")
    b11 = 0.5 * (b[:k, :k] + b[:k, :k].T)
    evals, evecs = np.linalg.eigh(b11)
    w = evecs[:, ::-1].copy()
    if np.linalg.det(w) < 0:
        w[:, -1] *= -1.0
    f22 = signed_svd(b[k:, k:])
    x1, x2 = f22.u, f22.v.T
    recon = scipy.linalg.block_diag(w, x1) @ a @ scipy.linalg.block_diag(w.T, x2)
    residual = float(np.max(np.abs(recon - b)))
    if residual > 1e-6 * scale:
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
        if np.any(s < 0) or np.any(np.diff(s) > 0):
            raise ValueError("singular values must be sorted descending and nonnegative")
        if self.det_sign not in (-1, 0, 1):
            raise ValueError(f"det_sign must be -1, 0, or +1, got {self.det_sign}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "s", s)


@dataclass(frozen=True)
class ThompsonResult:
    member: bool
    weights: np.ndarray | None
    vertices: np.ndarray
    functional: np.ndarray | None
    margin: float | None


def thompson_vertices(s, det_sign: int) -> np.ndarray:
    """Vertices (+/- s_sigma(1), ..., +/- s_sigma(n)) with sign parity from the determinant.

    An even number of minus signs for det >= 0, odd for det <= 0, both classes
    when the determinant vanishes.
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    n = s.size
    parities = {0} if det_sign > 0 else {1} if det_sign < 0 else {0, 1}
    signs = [
        np.array(bits)
        for bits in itertools.product((1.0, -1.0), repeat=n)
        if (bits.count(-1.0) % 2) in parities
    ]
    verts = [
        sign * s[list(perm)]
        for perm in itertools.permutations(range(n))
        for sign in signs
    ]
    return np.unique(np.array(verts), axis=0)


def thompson_membership(query: DiagonalHullQuery) -> ThompsonResult:
    """Test hull membership of a diagonal vector by linear feasibility.

    Returns convex-combination weights on success, or a separating functional
    (max-margin over the unit box) on failure. The vertex count is n! 2^(n-1),
    so sizes beyond 7 are refused rather than silently slow.
    """
    n = query.d.size
    if n > 7:
        raise ValueError(f"vertex enumeration is desk-scale only (n <= 7), got n={n}")
    verts = thompson_vertices(query.s, query.det_sign)
    m = verts.shape[0]
    a_eq = np.vstack([verts.T, np.ones((1, m))])
    b_eq = np.concatenate([query.d, [1.0]])
    res = scipy.optimize.linprog(
        c=np.zeros(m), A_eq=a_eq, b_eq=b_eq, bounds=[(0.0, None)] * m, method="highs"
    )
    if res.status == 0:
        return ThompsonResult(
            member=True, weights=res.x, vertices=verts, functional=None, margin=None
        )
    c = np.concatenate([-query.d, [1.0]])
    a_ub = np.hstack([verts, -np.ones((m, 1))])
    res2 = scipy.optimize.linprog(
        c=c,
        A_ub=a_ub,
        b_ub=np.zeros(m),
        bounds=[(-1.0, 1.0)] * n + [(None, None)],
        method="highs",
    )
    if res2.status != 0:
        raise NumericalError("separation LP failed on a non-member query")
    g = res2.x[:n]
    margin = float(query.d @ g - np.max(verts @ g))
    return ThompsonResult(
        member=False, weights=None, vertices=verts, functional=g, margin=margin
    )


# ---------------------------------------------------------------------------
# multistart closest-point oracle and the stock counterexamples
# ---------------------------------------------------------------------------


def _affine_theta_argmin(const, bcos, bsin, y):
    """Angle minimizing sum_m (const_m - y_m + bcos_m cos t + bsin_m sin t)^2.

    Expands to a two-harmonic trigonometric polynomial, scanned on a dense
    grid and polished with guarded Newton steps; fully batched over starts.
    """
    alpha = const - y[None, :]
    p1 = 2.0 * np.sum(alpha * bcos, axis=1)
    p2 = 2.0 * np.sum(alpha * bsin, axis=1)
    p3 = 0.5 * np.sum(bcos * bcos - bsin * bsin, axis=1)
    p4 = np.sum(bcos * bsin, axis=1)

    grid = np.linspace(0.0, 2.0 * np.pi, 257)[:-1]
    spacing = grid[1] - grid[0]

    def f(theta):
        return (
            p1 * np.cos(theta)
            + p2 * np.sin(theta)
            + p3 * np.cos(2 * theta)
            + p4 * np.sin(2 * theta)
        )

    fg = (
        p1[:, None] * np.cos(grid)[None, :]
        + p2[:, None] * np.sin(grid)[None, :]
        + p3[:, None] * np.cos(2 * grid)[None, :]
        + p4[:, None] * np.sin(2 * grid)[None, :]
    )
    theta = grid[np.argmin(fg, axis=1)]
    base = f(theta)
    cand = theta.copy()
    for _ in range(3):
        fp = (
            -p1 * np.sin(cand)
            + p2 * np.cos(cand)
            - 2 * p3 * np.sin(2 * cand)
            + 2 * p4 * np.cos(2 * cand)
        )
        fpp = (
            -p1 * np.cos(cand)
            - p2 * np.sin(cand)
            - 4 * p3 * np.cos(2 * cand)
            - 4 * p4 * np.sin(2 * cand)
        )
        step = np.where(np.abs(fpp) > 1e-18, fp / np.where(fpp == 0, 1.0, fpp), 0.0)
        step = np.clip(step, -spacing, spacing)
        cand = cand - np.where(fpp > 0, step, 0.0)
    better = f(cand) < base
    return np.where(better, cand, theta)


def _closest_image_distance(
    coord_terms, n, y, starts, rng, two_sided, tol=1e-9, max_sweeps=200
):
    """Multistart coordinate-descent estimate of dist(y, image of the term map).

    ``coord_terms[m]`` lists (coef, P, A) triples with coordinate m evaluating
    to sum coef * tr(P U A V) (V fixed to identity when one-sided). Since each
    coordinate is affine in the sine and cosine of any single Givens angle,
    every coordinate update is a two-harmonic minimization.
    """
    rng = ensure_rng(rng)
    y = np.asarray(y, dtype=float)
    u = haar_rotations(n, starts, rng)
    v = haar_rotations(n, starts, rng) if two_sided else np.broadcast_to(
        np.eye(n), (starts, n, n)
    ).copy()
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ell = len(coord_terms)

    def coords(u, v):
        out = np.empty((u.shape[0], ell))
        for m, terms in enumerate(coord_terms):
            acc = np.zeros(u.shape[0])
            for coef, pm, am in terms:
                acc += coef * np.einsum("sii->s", (pm @ u @ am) @ v)
            out[:, m] = acc
        return out

    def objective(u, v):
        diff = coords(u, v) - y[None, :]
        return np.sum(diff * diff, axis=1)

    prev = objective(u, v)
    for _ in range(max_sweeps):
        # left turns move rows of U, right turns columns of V; K puts the
        # turned factor first: U A V P on the left, P U A V on the right
        for right in (False, True) if two_sided else (False,):
            for i, j in pairs:
                const = np.empty((starts, ell))
                bcos = np.empty((starts, ell))
                bsin = np.empty((starts, ell))
                for m, terms in enumerate(coord_terms):
                    k = np.zeros((starts, n, n))
                    for coef, pm, am in terms:
                        k += coef * (((pm @ u) @ am) @ v if right else u @ ((am @ v) @ pm))
                    tr = np.einsum("sii->s", k)
                    bcos[:, m] = k[:, i, i] + k[:, j, j]
                    bsin[:, m] = k[:, i, j] - k[:, j, i]
                    const[:, m] = tr - bcos[:, m]
                theta = _affine_theta_argmin(const, bcos, bsin, y)
                c, s = np.cos(theta), np.sin(theta)
                if right:
                    _givens_rows(v.transpose(0, 2, 1), i, j, c, -s)
                else:
                    _givens_rows(u, i, j, c, s)
        cur = objective(u, v)
        if np.max(prev - cur) < tol:
            prev = cur
            break
        prev = cur
    return float(np.sqrt(np.min(prev)))


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
    m: int = 2,
    ell: int = 3,
    rng=None,
    starts: int = 256,
    distance_threshold: float = 1e-3,
) -> dict:
    """Verify a stock non-convexity instance numerically.

    Reproduces the two endpoint values from their closed-form frames and
    estimates the distance from their midpoint to the image by multistart
    local minimization; the midpoint must stay at least ``distance_threshold``
    away for the instance to count as verified.
    """
    rng = ensure_rng(rng)
    if kind == "ell3":
        lmap = nonconvex_planar_map(n, ell)
        x2 = np.eye(n)
        x2[n - 2 :, n - 2 :] = np.array([[0.0, -1.0], [1.0, 0.0]])
        end1 = np.array([np.einsum("ij,ji->", p, np.eye(n)) for p in lmap.mats])
        end2 = np.array([np.einsum("ij,ji->", p, x2) for p in lmap.mats])
        expected1 = np.zeros(ell)
        expected1[:3] = (n - 2, n - 1, n - 2)
        expected2 = np.zeros(ell)
        expected2[:3] = (n - 2, n - 2, n - 1)
        midpoint = 0.5 * (end1 + end2)
        terms = [[(1.0, p, np.eye(n))] for p in lmap.mats]
        distance = _closest_image_distance(
            terms, n, midpoint, starts, rng, two_sided=False
        )
    elif kind == "joint":
        if ell < 2:
            raise PreconditionError(f"need ell >= 2, got {ell}")
        a_list, rows = nonconvex_joint_instance(n, m)
        a1, a2 = a_list[0], a_list[1]
        u2 = np.eye(n)
        u2[:3, :3] = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        v2 = np.eye(n)
        v2[:3, :3] = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

        def joint_point(u, v):
            x1, x2m = u @ a1 @ v, u @ a2 @ v
            out = np.zeros(ell)
            out[0] = np.einsum("ij,ji->", a1, x1) + np.einsum("ij,ji->", a2, x2m)
            out[1] = np.einsum("ij,ji->", a2, x1) - np.einsum("ij,ji->", a1, x2m)
            return out

        end1 = joint_point(np.eye(n), np.eye(n))
        end2 = joint_point(u2, v2)
        expected1 = np.zeros(ell)
        expected1[0] = 2.0
        expected2 = np.zeros(ell)
        expected2[1] = 2.0
        midpoint = 0.5 * (end1 + end2)
        terms = [
            [(1.0, a1, a1), (1.0, a2, a2)],
            [(1.0, a2, a1), (-1.0, a1, a2)],
        ]
        distance = _closest_image_distance(
            terms, n, midpoint[:2], starts, rng, two_sided=True
        )
    else:
        raise ValueError(f"kind must be 'ell3' or 'joint', got {kind!r}")

    endpoints_exact = bool(
        np.array_equal(end1, expected1) and np.array_equal(end2, expected2)
    )
    return {
        "kind": kind,
        "n": n,
        "m": m if kind == "joint" else None,
        "ell": ell,
        "endpoints": [end1.tolist(), end2.tolist()],
        "expected_endpoints": [expected1.tolist(), expected2.tolist()],
        "endpoints_exact": endpoints_exact,
        "midpoint": midpoint.tolist(),
        "midpoint_distance_estimate": distance,
        "distance_threshold": distance_threshold,
        "starts": starts,
        "passed": endpoints_exact and distance >= distance_threshold,
    }


# ---------------------------------------------------------------------------
# convexity report
# ---------------------------------------------------------------------------


def _point_polygon_distance(points, poly) -> float:
    """Largest distance from any query point to a convex polygon (as a set)."""
    points = np.asarray(points, dtype=float)
    poly = np.asarray(poly, dtype=float)
    if poly.shape[0] == 0:
        return float("inf")
    if poly.shape[0] == 1:
        return float(np.max(np.linalg.norm(points - poly[0], axis=1)))
    seg_a = poly
    seg_b = np.roll(poly, -1, axis=0)
    ab = seg_b - seg_a
    denom = np.sum(ab * ab, axis=1)
    denom[denom == 0] = 1.0
    worst = 0.0
    for x in points:
        t = np.clip(np.sum((x - seg_a) * ab, axis=1) / denom, 0.0, 1.0)
        proj = seg_a + t[:, None] * ab
        worst = max(worst, float(np.min(np.linalg.norm(proj - x, axis=1))))
    return worst


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
        ok = self.support_violation <= 1e-8
        if self.diameter > 0:
            ok = ok and self.gap_region_to_hull <= 0.01 * self.diameter
        return ok

    def to_json(self) -> dict:
        return {
            "support_violation": self.support_violation,
            "gap_hull_to_region": self.gap_hull_to_region,
            "gap_region_to_hull": self.gap_region_to_hull,
            "diameter": self.diameter,
            "samples": self.samples,
            "grid": self.grid,
            "tie_probe": self.tie_probe,
            "passed": self.passed,
            "tolerances": tolerances.as_dict(),
        }


def convexity_check(
    p, q, a, samples: int = 100000, rng=None, grid: int = 720
) -> ConvexityReport:
    """Compare the exact support region with the hull of a sampled image.

    Reports the worst support violation of the samples and both one-sided
    gaps between the sampled hull and the region polygon. When the base
    matrix has tied singular values, a small perturbation to distinct values
    probes the image drift (stability of the convexity statement under
    perturbation); the drift is bounded by trace linearity.
    """
    p, q = _require_same_square(p, q, ("P", "Q"))
    a = require_square(a, "A")
    if a.shape[0] < 3:
        raise PreconditionError("convexity holds for n >= 3 only")
    rng = ensure_rng(rng)
    region = support_boundary(p, q, a, grid)
    lmap = LinearMapSpec((p, q))
    cloud = sample_image(lmap, OrbitSpec(a), samples, rng)
    violation = region.violation(cloud.points)
    spread = float(np.max(cloud.points) - np.min(cloud.points)) if len(cloud) else 0.0
    if spread > 1e-12 and cloud.points.shape[0] >= 3:
        from scipy.spatial import ConvexHull

        hull = ConvexHull(cloud.points)
        hull_poly = cloud.points[hull.vertices]
    else:
        hull_poly = cloud.points[:1] if len(cloud) else np.zeros((1, 2))
    gap_hull_to_region = max(0.0, region.violation(hull_poly))
    if region.vertices.shape[0]:
        gap_region_to_hull = _point_polygon_distance(region.vertices, hull_poly)
    else:
        gap_region_to_hull = 0.0

    sv = np.linalg.svd(a, compute_uv=False)
    scale = sv[0] + 1.0
    tie_probe = None
    if a.shape[0] > 1 and np.min(sv[:-1] - sv[1:]) <= tolerances.tie_gap * scale:
        delta = 1e-6
        f = signed_svd(a)
        bump = delta * np.arange(a.shape[0] - 1, -1, -1, dtype=float)
        s_new = f.s + np.sign(f.s + (f.s == 0)) * bump
        a_delta = (f.u * s_new) @ f.v.T
        probes = min(200, max(1, samples // 100))
        u = haar_rotations(a.shape[0], probes, rng)
        v = haar_rotations(a.shape[0], probes, rng)
        diff = u @ (a - a_delta) @ v
        drift = float(
            np.max(
                np.hypot(
                    np.einsum("ij,sji->s", p, diff), np.einsum("ij,sji->s", q, diff)
                )
            )
        )
        bound = 10.0 * delta * (np.linalg.norm(p) + np.linalg.norm(q))
        tie_probe = {"delta": delta, "drift": drift, "bound": float(bound)}
    return ConvexityReport(
        support_violation=violation,
        gap_hull_to_region=gap_hull_to_region,
        gap_region_to_hull=gap_region_to_hull,
        diameter=region.diameter(),
        samples=samples,
        grid=grid,
        tie_probe=tie_probe,
    )
