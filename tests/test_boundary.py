import itertools
import json
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.spatial

import orbitgeom as og
from orbitgeom import boundary as bd
from orbitgeom import serialize
from orbitgeom.boundary import (
    _block_diag,
    _convex_hull,
    _point_polygon_distance,
)
from orbitgeom.linalg import _haar_slabs


def _e(i, j, n=2):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


class TestMaxTrace:
    def test_identity(self):
        assert og.max_trace(np.eye(3), np.eye(3)) == 3.0

    def test_signed_diagonal(self):
        # 3*1 + 2*1 + sign(det)*1*1 with det(AP) < 0
        assert og.max_trace(np.diag([1.0, 1.0, -1.0]), np.diag([3.0, 2.0, 1.0])) == 4.0

    def test_against_bruteforce(self):
        rng = np.random.default_rng(0)
        for k in range(5):
            p = rng.standard_normal((3, 3))
            a = rng.standard_normal((3, 3))
            oracle = og.max_trace_bruteforce(p, a, starts=500, rng=np.random.default_rng(k))
            assert abs(og.max_trace(p, a) - oracle) <= 1e-6

    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    @pytest.mark.parametrize("det_sign", [1.0, -1.0])
    def test_against_bruteforce_other_sizes(self, n, det_sign):
        rng = np.random.default_rng(10 * n + (det_sign > 0))
        p, a = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        if np.linalg.det(a) * np.linalg.det(p) * det_sign < 0:
            a[0] *= -1.0
        oracle = og.max_trace_bruteforce(p, a, starts=500, rng=np.random.default_rng(n))
        assert abs(og.max_trace(p, a) - oracle) <= 1e-6

    @pytest.mark.parametrize("starts", [0, -1])
    def test_bruteforce_needs_a_start(self, starts):
        with pytest.raises(ValueError, match=f"starts must be at least 1, got {starts}"):
            og.max_trace_bruteforce(np.eye(3), np.eye(3), starts=starts,
                                    rng=np.random.default_rng(0))

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(1)
        p, a = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
        assert np.isclose(og.max_trace(3.5 * p, a), 3.5 * og.max_trace(p, a), rtol=1e-14)

    def test_frame_invariance(self):
        rng = np.random.default_rng(2)
        p, a = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        u, v, x, y = (og.haar_rotation(3, rng) for _ in range(4))
        assert abs(og.max_trace(u @ p @ v, x @ a @ y) - og.max_trace(p, a)) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_stack_equals_per_matrix_calls(self, n):
        rng = np.random.default_rng(30 + n)
        p = rng.standard_normal((9, n, n))
        p[0] = 0.0
        a = rng.standard_normal((n, n))
        values = og.max_trace(p, a)
        u, v = og.argmax_frames(p, a)
        sa = np.linalg.svd(a, compute_uv=False)
        for k in range(len(p)):
            # the signed SVDs' values as a 1-D dot, bit for bit
            assert values[k] == float(og.signed_svd(p[k]).s @ og.signed_svd(a).s)
            # and the determinant form of the closed form, at unit scale
            sp = np.linalg.svd(p[k], compute_uv=False)
            sgn = -1.0 if np.linalg.det(a) * np.linalg.det(p[k]) < 0 else 1.0
            det_form = float(sp[:-1] @ sa[:-1] + sgn * sp[-1] * sa[-1])
            assert abs(values[k] - det_form) <= 1e-14 * max(abs(det_form), 1.0)
            assert values[k] == og.max_trace(p[k], a)
            uk, vk = og.argmax_frames(p[k], a)
            assert np.array_equal(u[k], uk)
            assert np.array_equal(v[k], vk)
        assert isinstance(og.max_trace(p[1], a), float)

    @staticmethod
    def _signed_pair(seed, n, det_sign):
        rng = np.random.default_rng(seed)
        p, a = rng.standard_normal((2, n, n))
        if np.linalg.det(p) * np.linalg.det(a) * det_sign < 0:
            a[0] *= -1.0
        return p, a

    @pytest.mark.parametrize("det_sign", [1.0, -1.0])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_power_of_two_scaling_is_exact(self, n, det_sign):
        # the signed SVD of 2^k A is 2^k times that of A, bit for bit
        p, a = self._signed_pair(60 + n, n, det_sign)
        value = og.max_trace(p, a)
        for k in (20, -20, 100, -100, 400, -400):
            assert og.max_trace(p, 2.0 ** k * a) == 2.0 ** k * value
            assert og.max_trace(2.0 ** k * p, a) == 2.0 ** k * value

    @pytest.mark.parametrize("det_sign", [1.0, -1.0])
    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("c", [1e-300, 1e-120, 1e-110, 1e150, 1e300])
    def test_scaling_far_from_unit(self, c, n, det_sign):
        # det(c A) underflows or overflows at these c; the signed SVD's last
        # values keep the sign, and no warning is raised (warnings are errors)
        p, a = self._signed_pair(70 + n, n, det_sign)
        expected = c * og.max_trace(p, a)
        assert abs(og.max_trace(p, c * a) - expected) <= 1e-14 * abs(expected)

    def test_upper_bound_property(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4, 5):
            p, a = rng.standard_normal((n, n)), rng.standard_normal((n, n))
            r = og.max_trace(p, a)
            u = og.haar_rotations(n, 2500, rng)
            v = og.haar_rotations(n, 2500, rng)
            vals = np.einsum("sii->s", (p @ u @ a) @ v)
            assert np.max(vals) <= r + 1e-10


class TestArgmaxFrames:
    def test_identity(self):
        u, v = og.argmax_frames(np.eye(3), np.eye(3))
        assert np.isclose(np.trace(np.eye(3) @ u @ np.eye(3) @ v), 3.0)

    def test_signed_diagonal_attained(self):
        p, a = np.diag([1.0, 1.0, -1.0]), np.diag([3.0, 2.0, 1.0])
        u, v = og.argmax_frames(p, a)
        assert abs(np.trace(p @ u @ a @ v) - 4.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_attainment_random(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            p, a = rng.standard_normal((n, n)), rng.standard_normal((n, n))
            u, v = og.argmax_frames(p, a)
            assert og.rotation_defect(u) < 1e-10
            assert og.rotation_defect(v) < 1e-10
            assert abs(np.trace(p @ u @ a @ v) - og.max_trace(p, a)) <= 1e-10


def _support_boundary_per_direction(p, q, a, grid_size):
    """Loop form of support_boundary: one signed SVD and argmax_frames call per direction."""
    thetas = 2.0 * np.pi * np.arange(grid_size) / grid_size
    dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    values = np.empty(grid_size)
    touches = np.empty((grid_size, 2))
    for k, (c, s) in enumerate(dirs):
        coeff = c * p + s * q
        # tr(Sp Sa): the closed form of max_trace, signed last product included
        values[k] = og.signed_svd(coeff).s @ og.signed_svd(a).s
        u, v = og.argmax_frames(coeff, a)
        w = u @ a @ v
        touches[k] = (np.einsum("ij,ji->", p, w), np.einsum("ij,ji->", q, w))
    scale = float(np.max(np.abs(values))) + 1.0
    verts = []
    for k in range(grid_size):
        k2 = (k + 1) % grid_size
        x = np.linalg.solve(np.array([dirs[k], dirs[k2]]), values[[k, k2]])
        if np.max(dirs @ x - values) <= 1e-8 * scale:
            if not verts or np.max(np.abs(x - verts[-1])) > 1e-12 * scale:
                verts.append(x)
    if len(verts) > 1 and np.max(np.abs(verts[0] - verts[-1])) <= 1e-12 * scale:
        verts.pop()
    return values, touches, np.array(verts) if verts else np.empty((0, 2))


_DEGENERATE_KINDS = ["generic", "tied", "zero", "rank-deficient",
                     "Q=2P", "Q=0", "P=Q=0", "x1e6", "x1e-9"]


def _degenerate_map(n, kind) -> tuple:
    """(P, Q, A) of one of ``_DEGENERATE_KINDS``, seeded by n."""
    rng = np.random.default_rng(70 + n)
    p, q = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    g = rng.standard_normal((n, n))
    a = {
        "tied": np.diag(np.r_[2.0, np.ones(n - 1)]),
        "zero": np.zeros((n, n)),
        "rank-deficient": g[:, :1] @ g[:1, :],
    }.get(kind, g)
    if kind == "Q=2P":
        q = 2.0 * p
    elif kind in ("Q=0", "P=Q=0"):
        p, q = (p if kind == "Q=0" else 0.0 * p), 0.0 * q
    elif kind in ("x1e6", "x1e-9"):
        factor = float(kind[1:])
        p, q, a = factor * p, factor * q, factor * a
    return p, q, a


def _all_pairs_diameter(vertices) -> float:
    """Largest vertex distance over all pairs (the reference)."""
    x, y = np.asarray(vertices, dtype=float).reshape(-1, 2).T
    return float(np.sqrt(np.max((x[:, None] - x) ** 2 + (y[:, None] - y) ** 2, initial=0.0)))


def _region_with_vertices(vertices):
    return og.SupportRegion(
        thetas=np.zeros(0), directions=np.zeros((0, 2)), values=np.zeros(0),
        touches=np.zeros((0, 2)), vertices=np.asarray(vertices, dtype=float).reshape(-1, 2),
    )


class TestSupportBoundary:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", _DEGENERATE_KINDS)
    def test_equals_per_direction_reference(self, n, kind):
        # every intersection of consecutive support lines is a region vertex,
        # degenerate maps included: each meets every half-plane, and the loop
        # form, which drops an infeasible one, drops none
        p, q, a = _degenerate_map(n, kind)
        for grid in (8, 360, 2048):
            region = og.support_boundary(p, q, a, grid)
            scale = np.max(np.abs(region.values)) + 1.0
            assert region.violation(region.vertices) <= 1e-12 * scale
            if grid == 2048:
                continue  # the loop form's signed SVD per direction is slow here
            values, touches, vertices = _support_boundary_per_direction(p, q, a, grid)
            assert np.array_equal(region.values, values)
            assert np.array_equal(region.touches, touches)
            assert np.array_equal(region.vertices, vertices)

    @pytest.mark.parametrize("case", ["corner", 0, 1, 2, 3])
    def test_vertices_equal_the_loop_dedupe(self, case):
        # diagonal pairs (W11, W22) of SO(3) fill the square [-1, 1]^2: at each
        # corner about 180 consecutive support lines meet in one point
        if case == "corner":
            p, q, a = _e(0, 0, 3), _e(1, 1, 3), np.eye(3)
        else:
            p, q, a = np.random.default_rng(130 + case).standard_normal((3, 3, 3))
        region = og.support_boundary(p, q, a, 720)
        vertices = _support_boundary_per_direction(p, q, a, 720)[2]
        assert np.array_equal(region.vertices, vertices)
        if case == "corner":
            corners = [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]
            assert np.max(np.abs(region.vertices - corners)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kind", ["positive", "negative", "singular"])
    def test_values_equal_max_trace(self, n, kind):
        # the support values come from the signed SVDs that give the frames
        rng = np.random.default_rng(90 + n)
        p, q = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        a = np.diag(rng.uniform(0.5, 2.0, n))
        if kind == "negative":
            a[-1, -1] *= -1.0
        elif kind == "singular":
            a[-1, -1] = 0.0
        a = og.haar_rotation(n, rng) @ a @ og.haar_rotation(n, rng)
        region = og.support_boundary(p, q, a, 360)
        coeff = region.directions[:, 0, None, None] * p + region.directions[:, 1, None, None] * q
        assert np.array_equal(region.values, og.max_trace(coeff, a))

    def test_diameter_is_largest_vertex_distance(self):
        # convex polygons in counterclockwise order, as region vertices are:
        # hulls of Gaussian clouds, and 720 points on random ellipses
        rng = np.random.default_rng(23)
        for _ in range(20):
            hull = _convex_hull(3.0 * rng.standard_normal((720, 2)))
            shape = rng.standard_normal((2, 2))
            shape[:, 0] *= np.sign(np.linalg.det(shape))  # keeps the turn counterclockwise
            t = np.sort(rng.uniform(0.0, 2.0 * np.pi, 720))
            ellipse = np.column_stack((np.cos(t), np.sin(t))) @ shape.T + rng.standard_normal(2)
            for verts in (hull, ellipse):
                assert _region_with_vertices(verts).diameter() == _all_pairs_diameter(verts)

    @pytest.mark.parametrize("maps", ["acceptance", "degenerate", "convexity workload"])
    def test_diameter_of_region_polygons(self, maps):
        # the calipers sweep gives the all-pairs value itself, to the bit
        if maps == "acceptance":
            rng = np.random.default_rng(107)  # the map of test_07
            cases = [(*rng.standard_normal((2, 3, 3)), np.diag([3.0, 2.0, 1.0]))]
            cases += [(_e(0, 0, 3), _e(1, 1, 3), np.eye(3))]  # a square, many lines per corner
            cases += [  # the seeded maps of test_vertices_equal_the_loop_dedupe
                np.random.default_rng(130 + k).standard_normal((3, 3, 3)) for k in range(4)
            ]
            grids = (720,)
        elif maps == "degenerate":
            cases = [_degenerate_map(n, kind) for n in (2, 3, 4, 5) for kind in _DEGENERATE_KINDS]
            grids = (8, 720)
        else:
            # the six n = 3 maps that the convexity workload draws at seeds 7919 and 1
            cases = []
            for seed in (7919, 1):
                rng = np.random.default_rng(seed)
                for _ in range(6):
                    cases.append([rng.standard_normal((3, 3)) for _ in range(3)])
                    rng.integers(2**31 - 1)  # the op's sampling seed
            grids = (720,)
        for p, q, a in cases:
            for grid in grids:
                region = og.support_boundary(p, q, a, grid)
                assert region.diameter() == _all_pairs_diameter(region.vertices)

    @pytest.mark.parametrize("verts", [
        [[1.0, 2.0]],                                              # one vertex
        [[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]],                      # one, repeated
        [[0.0, 0.0], [3.0, 4.0]],                                  # two vertices
        [[0.0, 0.0], [0.0, 0.0], [3.0, 4.0], [3.0, 4.0]],          # two, repeated
        [[0.0, 0.0], [2.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0], [0.0, 0.0]],
    ])
    def test_diameter_of_degenerate_polygons(self, verts):
        assert _region_with_vertices(verts).diameter() == _all_pairs_diameter(verts)

    def test_unit_circle(self):
        region = og.support_boundary(_e(0, 0), _e(1, 0), np.eye(2), 64)
        assert np.max(np.abs(region.values - 1.0)) < 1e-12
        touch_norms = np.linalg.norm(region.touches, axis=1)
        assert np.max(np.abs(touch_norms - 1.0)) < 1e-10

    def test_zero_matrix_region_is_origin(self):
        region = og.support_boundary(_e(0, 0), _e(1, 0), np.zeros((2, 2)), 16)
        assert np.allclose(region.values, 0.0)
        assert region.vertices.shape[0] == 1
        assert np.allclose(region.vertices[0], [0.0, 0.0])

    def test_sample_containment(self):
        rng = np.random.default_rng(4)
        a = np.diag([3.0, 2.0, 1.0])
        p, q = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        region = og.support_boundary(p, q, a, 360)
        cloud = og.sample_image(og.LinearMapSpec((p, q)), a, 10000, rng)
        assert region.violation(cloud.points) <= 1e-8

    def test_touch_points_on_their_support_line(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3))
        p, q = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        region = og.support_boundary(p, q, a, 90)
        proj = np.einsum("gk,gk->g", region.directions, region.touches)
        assert np.max(np.abs(proj - region.values)) < 1e-10

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            og.support_boundary(_e(0, 0), _e(1, 0), np.eye(2), 4)

    @pytest.mark.parametrize("grid", [8.5, 10.5, 720.0])
    def test_grid_must_be_an_integer(self, grid):
        # 8.5 once gave 9 directions spaced 2 pi / 8.5, and convexity_check
        # reported a grid of 10.5
        p, q, a = np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([3.0, 2.0, 1.0])
        with pytest.raises(TypeError):
            og.support_boundary(p, q, a, grid)
        with pytest.raises(TypeError):
            og.convexity_check(p, q, a, samples=10, rng=np.random.default_rng(0), grid=grid)
        assert len(og.support_boundary(p, q, a, np.int64(10)).thetas) == 10


class TestGamma:
    def _structure(self):
        return og.MaximizerStructure.from_diagonal_p(
            np.diag([3.0, 3.0, 1.0, 0.0]), np.diag([4.0, 3.0, 2.0, 1.0])
        )

    def test_negative_count_rejected(self):
        st = self._structure()
        with pytest.raises(ValueError, match="count must be at least 0, got -3"):
            og.gamma_sample_factors(st, -3, np.random.default_rng(0))
        assert og.gamma_sample_factors(st, 0, np.random.default_rng(0)) == []

    @pytest.mark.parametrize("factors, message", [
        # swapped factors once built an element that fails gamma_verify
        ((np.array([[0.0, -1.0], [1.0, 0.0]]), np.eye(1)), r"got shapes \[\(2, 2\), \(1, 1\)\]"),
        # a short tuple once died in matmul
        ((np.eye(1),), r"got shapes \[\(1, 1\)\]"),
    ], ids=["swapped", "short"])
    def test_build_checks_factor_sizes(self, factors, message):
        st = og.MaximizerStructure((1, 2), (2.0, 1.0), np.diag([3.0, 2.0, 1.0]))
        message = r"block sizes \(1, 2\) .* sizes \(1, 2\), " + message
        with pytest.raises(og.DimensionError, match=message):
            og.gamma_build(st, factors)

    def test_build_needs_the_zero_tail_factor(self):
        # the last block's right factor once went missing as an IndexError
        st = self._structure()
        factors = og.gamma_sample_factors(st, 1, np.random.default_rng(0))[0]
        with pytest.raises(og.DimensionError, match=r"sizes \(2, 1, 1, 1\), got shapes"):
            og.gamma_build(st, factors[:-1])
        assert og.gamma_verify(og.gamma_build(st, factors), st).passed

    def test_build_needs_rotations(self):
        # 2 I was once accepted as a factor
        st = og.MaximizerStructure((1, 2), (2.0, 1.0), np.diag([3.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match="factor 1 is not a rotation"):
            og.gamma_build(st, (np.eye(1), 2.0 * np.eye(2)))

    def test_grouping(self):
        st = self._structure()
        assert st.block_sizes == (2, 1, 1)
        assert st.values == (3.0, 1.0, 0.0)
        assert st.zero_tail

    def test_full_conjugation_preserves_trace(self):
        a = np.diag([4.0, 2.0, 1.0])
        st = og.MaximizerStructure.from_diagonal_p(np.diag([2.0, 2.0, 2.0]), a)
        rng = np.random.default_rng(6)
        for b in og.gamma_sample(st, 10, rng):
            assert abs(np.trace(b) - np.trace(a)) < 1e-10

    def test_distinct_values_pin_the_sample(self):
        # all blocks 1x1 with positive values: the only element is A itself
        a = np.diag([4.0, 2.0, 1.0])
        st = og.MaximizerStructure.from_diagonal_p(np.diag([3.0, 2.0, 1.0]), a)
        rng = np.random.default_rng(7)
        for b in og.gamma_sample(st, 5, rng):
            assert np.max(np.abs(b - a)) < 1e-14

    def test_zero_tail_frees_last_block(self):
        a = np.diag([4.0, 3.0, 2.0, 1.0])
        st = og.MaximizerStructure.from_diagonal_p(np.diag([2.0, 2.0, 0.0, 0.0]), a)
        rng = np.random.default_rng(8)
        mats = og.gamma_sample(st, 20, rng)
        r = og.gamma_value(st)
        p = st.p_matrix
        last_blocks = np.array([b[2:, 2:] for b in mats])
        assert np.std(np.einsum("sii->s", last_blocks)) > 1e-3
        for b in mats:
            assert abs(np.trace(p @ b) - r) < 1e-10

    def test_verify_passes_samples(self):
        st = self._structure()
        rng = np.random.default_rng(9)
        for b in og.gamma_sample(st, 20, rng):
            rep = og.gamma_verify(b, st)
            assert rep.passed
            assert rep.trace_gap <= 1e-10
            assert rep.max_off_block <= 1e-10

    def test_verify_rejects_generic_orbit_element(self):
        st = self._structure()
        rng = np.random.default_rng(10)
        b = og.haar_rotation(4, rng) @ st.a @ og.haar_rotation(4, rng)
        rep = og.gamma_verify(b, st)
        assert not rep.trace_ok

    def test_verify_rejects_perturbed_sample(self):
        st = self._structure()
        rng = np.random.default_rng(11)
        b = og.gamma_sample(st, 1, rng)[0]
        b[0, 3] += 1e-3
        rep = og.gamma_verify(b, st)
        assert not (rep.in_orbit and rep.blocks_ok)

    def test_tied_base_rejected(self):
        with pytest.raises(og.PreconditionError):
            og.MaximizerStructure.from_diagonal_p(np.diag([2.0, 1.0]), np.eye(2))

    @pytest.mark.parametrize("last", [1.0, -1.0])
    @pytest.mark.parametrize("scale", [1e100, 1e120, 1e150])
    def test_verify_far_from_unit_scale(self, scale, last):
        # det(A) overflows at these scales; the signs come from the signed
        # SVDs' last values. Negating B's last column flips its determinant
        # sign and nothing else the report reads
        st = og.MaximizerStructure.from_diagonal_p(
            np.diag([3.0, 3.0, 1.0, 0.0]), scale * np.diag([4.0, 3.0, 2.0, last]))
        for b in og.gamma_sample(st, 5, np.random.default_rng(16)):
            assert og.gamma_verify(b, st).passed
            b[:, -1] *= -1.0
            rep = og.gamma_verify(b, st)
            assert rep.in_orbit and rep.trace_ok and rep.blocks_ok
            assert not rep.det_sign_ok

    def test_transport_identity(self):
        # moving the coefficient by frames transports the maximizer set exactly
        st = self._structure()
        rng = np.random.default_rng(12)
        p = st.p_matrix
        u, v = og.haar_rotation(4, rng), og.haar_rotation(4, rng)
        r = og.max_trace(u @ p @ v, st.a)
        for b in og.gamma_sample(st, 10, rng):
            transported = v.T @ b @ u.T
            assert abs(np.trace((u @ p @ v) @ transported) - r) < 1e-10


class TestBlockDecompose:
    def test_round_trip(self):
        a = np.diag([4.0, 3.0, 2.0, 1.0])
        rng = np.random.default_rng(13)
        w = og.haar_rotation(2, rng)
        x1, x2 = og.haar_rotation(2, rng), og.haar_rotation(2, rng)
        b = scipy.linalg.block_diag(w, x1) @ a @ scipy.linalg.block_diag(w.T, x2)
        dec = og.block_decompose(b, a, 2)
        assert dec.residual <= 1e-10
        recon = scipy.linalg.block_diag(dec.w, dec.x1) @ a @ scipy.linalg.block_diag(
            dec.w.T, dec.x2
        )
        assert np.max(np.abs(recon - b)) <= 1e-10

    def test_base_matrix_itself(self):
        a = np.diag([4.0, 3.0, 2.0, -1.0])
        dec = og.block_decompose(a, a, 2)
        assert dec.residual <= 1e-12

    def test_block_diag_equals_scipy(self):
        # the numpy helper places the same entries, so the products that use
        # it (gamma_build, block_decompose) are the same bit for bit
        rng = np.random.default_rng(15)
        blocks = [og.haar_rotation(k, rng) for k in (2, 1, 3)]
        for group in (blocks, [b.T for b in blocks], blocks[:1]):
            assert np.array_equal(_block_diag(group), scipy.linalg.block_diag(*group))
        a = np.diag([4.0, 3.0, 2.0, 1.0])
        st = og.MaximizerStructure.from_diagonal_p(np.diag([2.0, 2.0, 0.0, 0.0]), a)
        factors = og.gamma_sample_factors(st, 1, rng)[0]
        left = scipy.linalg.block_diag(*factors[:2])
        right = scipy.linalg.block_diag(factors[0].T, factors[2])
        assert np.array_equal(og.gamma_build(st, factors), left @ a @ right)
        w, x1, x2 = (og.haar_rotation(2, rng) for _ in range(3))
        b = scipy.linalg.block_diag(w, x1) @ a @ scipy.linalg.block_diag(w.T, x2)
        dec = og.block_decompose(b, a, 2)
        recon = scipy.linalg.block_diag(dec.w, dec.x1) @ a @ scipy.linalg.block_diag(
            dec.w.T, dec.x2
        )
        assert dec.residual == float(np.max(np.abs(recon - b)))

    def test_trace_mismatch_rejected(self):
        a = np.diag([4.0, 3.0, 2.0, 1.0])
        rng = np.random.default_rng(14)
        b = og.haar_rotation(4, rng) @ a @ og.haar_rotation(4, rng)
        assert og.diagonal_sum(b, 2) < og.diagonal_sum(a, 2) - 0.1
        with pytest.raises(og.PreconditionError):
            og.block_decompose(b, a, 2)


class TestThompson:
    def test_vertex_is_member(self):
        res = og.thompson_membership(
            og.DiagonalHullQuery(d=[3.0, 2.0, 1.0], s=[3.0, 2.0, 1.0], det_sign=1)
        )
        assert res.member
        verts = res.vertices
        recon = res.weights @ verts
        assert np.max(np.abs(recon - [3, 2, 1])) < 1e-9

    def test_orbit_diagonals_are_members(self):
        rng = np.random.default_rng(15)
        a = np.diag([3.0, 2.0, 1.0])
        s = [3.0, 2.0, 1.0]
        for _ in range(100):
            u, v = og.haar_rotation(3, rng), og.haar_rotation(3, rng)
            d = np.diag(u @ a @ v)
            assert og.thompson_membership(
                og.DiagonalHullQuery(d=d, s=s, det_sign=1)
            ).member

    def test_inflated_first_coordinate_rejected(self):
        res = og.thompson_membership(
            og.DiagonalHullQuery(d=[3.03, 2.0, 1.0], s=[3.0, 2.0, 1.0], det_sign=1)
        )
        assert not res.member
        assert res.margin > 0
        # the first coordinate functional also separates this query
        assert 3.03 > np.max(res.vertices[:, 0])

    def test_odd_parity_for_negative_determinant(self):
        verts = og.thompson_vertices([2.0, 1.0], det_sign=-1)
        signs = np.sum(verts < 0, axis=1)
        assert np.all(signs % 2 == 1)

    def test_zero_determinant_merges_classes(self):
        verts_zero = og.thompson_vertices([2.0, 1.0], det_sign=0)
        verts_pos = og.thompson_vertices([2.0, 1.0], det_sign=1)
        assert verts_zero.shape[0] > verts_pos.shape[0]

    @pytest.mark.parametrize("s", [
        [3.0, 2.0, 1.0, 0.5], [2.0, 2.0, 1.0, 1.0], [3.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0],
    ])
    @pytest.mark.parametrize("det_sign", [-1, 0, 1])
    def test_vertices_match_enumeration(self, s, det_sign):
        parities = {0} if det_sign > 0 else {1} if det_sign < 0 else {0, 1}
        expected = sorted({
            tuple(e * s[i] + 0.0 for e, i in zip(signs, perm))
            for perm in itertools.permutations(range(len(s)))
            for signs in itertools.product((1.0, -1.0), repeat=len(s))
            if signs.count(-1.0) % 2 in parities
        })
        verts = og.thompson_vertices(s, det_sign)
        assert [tuple(v) for v in verts] == expected
        assert not np.any(np.signbit(verts[verts == 0]))  # zeros come out as +0.0

    def test_size_cap(self):
        # the cap guards the vertex enumeration, which .vertices and .weights run
        res = og.thompson_membership(
            og.DiagonalHullQuery(d=np.zeros(8), s=np.arange(8.0)[::-1], det_sign=1)
        )
        assert res.member
        with pytest.raises(ValueError, match="n <= 7"):
            res.vertices

    @pytest.mark.parametrize("det_sign", [-1, 0, 1])
    def test_verdicts_beyond_the_enumeration_cap(self, det_sign):
        # membership reads only the closed-form inequalities, at any size
        rng = np.random.default_rng(170 + det_sign)
        s = np.sort(rng.uniform(0.5, 3.0, 10))[::-1]
        a = np.diag(s * np.r_[np.ones(9), det_sign or 1.0])
        if det_sign == 0:
            s[-1] = a[-1, -1] = 0.0
        d = np.diag(og.haar_rotation(10, rng) @ a @ og.haar_rotation(10, rng))
        member = og.thompson_membership(og.DiagonalHullQuery(d=d, s=s, det_sign=det_sign))
        assert member.member
        far = 1.05 * s.sum() / np.abs(d).sum() * d  # outside the l1 ball of radius sum(s)
        outside = og.thompson_membership(og.DiagonalHullQuery(d=far, s=s, det_sign=det_sign))
        assert not outside.member and outside.margin > 0

    def test_empty_query_rejected(self):
        with pytest.raises(og.DimensionError):
            og.DiagonalHullQuery(d=[], s=[], det_sign=1)

    @pytest.mark.parametrize("d, s", [
        ([np.nan, 1.0], [2.0, 1.0]),
        ([1.0, 0.5], [np.inf, 1.0]),
        ([1.0, 0.5], [2.0, np.nan]),
    ])
    def test_nonfinite_query_rejected(self, d, s):
        with pytest.raises(ValueError, match="finite"):
            og.DiagonalHullQuery(d=d, s=s, det_sign=1)


def _hull_lp_member(d, verts) -> bool:
    """Feasibility of d as a convex combination of the vertices (the reference)."""
    m = verts.shape[0]
    res = scipy.optimize.linprog(
        np.zeros(m), A_eq=np.vstack([verts.T, np.ones((1, m))]),
        b_eq=np.concatenate([d, [1.0]]), bounds=[(0.0, None)] * m, method="highs",
    )
    return res.status == 0


def _thompson_queries(rng, s, verts) -> list:
    """A member, scaled and sign-flipped queries, and vertices perturbed by 3%."""
    n = s.size
    picks = verts[rng.choice(len(verts), size=min(4, len(verts)), replace=False)]
    inside = rng.dirichlet(np.ones(len(picks))) @ picks
    vertex = verts[rng.integers(len(verts))]
    return [
        inside,
        inside * (1.05 * s.sum() / np.abs(inside).sum()),
        vertex * np.concatenate([np.ones(n - 1), [-1.0]]),
        vertex * (1.0 + 0.03 * rng.choice((-1.0, 1.0), n)),
        vertex * (1.0 + 0.03 * rng.choice((-1.0, 1.0), n)),
    ]


def _check_weights(res):
    """A member's weights: convex, at most n + 1 of them, and reproducing d."""
    d, s = res.query.d, res.query.s
    w = res.weights
    assert w.shape == (len(res.vertices),)
    assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-12
    assert np.count_nonzero(w) <= d.size + 1
    assert np.max(np.abs(w @ res.vertices - d)) <= 1e-13 * (1.0 + np.sum(s))


def _check_thompson_against_lp(d, s, det_sign, verts) -> bool:
    res = og.thompson_membership(og.DiagonalHullQuery(d=d, s=s, det_sign=det_sign))
    assert res.member == _hull_lp_member(np.asarray(d, dtype=float), verts)
    if res.member:
        _check_weights(res)
    else:
        g = res.functional
        exact = float(d @ g - np.max(verts @ g))
        assert abs(res.margin - exact) <= 1e-12 * (1.0 + np.sum(s))
        assert res.margin > 0
    return res.member


class TestThompsonInequalities:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_agrees_with_lp(self, n):
        rng = np.random.default_rng(30 + n)
        outcomes = set()
        for det_sign in (-1, 0, 1):
            # an n = 6 LP has 23040 or 46080 vertices: one spectrum each
            for _ in range(1 if n == 6 else 3):
                s = np.sort(rng.uniform(0.5, 3.0, n))[::-1]
                verts = og.thompson_vertices(s, det_sign)
                for d in _thompson_queries(rng, s, verts):
                    outcomes.add(_check_thompson_against_lp(d, s, det_sign, verts))
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "d, s, det_sign, member",
        [
            ([3.0, 2.0, 1.0], [3.0, 2.0, 1.0], 1, True),      # d = s
            ([3.0, 2.0, 1.0], [3.0, 2.0, 1.0], 0, True),
            ([3.0, 2.0, 1.0], [3.0, 2.0, 1.0], -1, False),
            ([3.0, 2.0, -1.0], [3.0, 2.0, 1.0], -1, True),
            ([2.0, 2.0, 1.0], [2.0, 2.0, 1.0], 1, True),      # tied s
            ([2.0, -2.0, 1.0], [2.0, 2.0, 1.0], 1, False),
            ([1.0, -1.0, -1.0], [1.0, 1.0, 1.0], 1, True),
            ([1.0, 1.0, -1.0], [1.0, 1.0, 1.0], 1, False),
            ([1.0, 1.0, 0.0], [1.0, 1.0, 1.0], 1, False),
            ([2.0, 0.0, 1.0], [3.0, 2.0, 1.0], 1, True),      # a zero entry in d
            ([3.0, 0.0, 2.0], [3.0, 2.0, 1.0], 1, False),
            ([2.0, 0.0, -1.0], [2.0, 1.0, 0.0], 1, True),
            ([3.0, 2.0, 0.0], [3.0, 2.0, 1.0], 0, True),      # (s_1..s_{n-1}, 0)
            ([4.0, 3.0, 2.0, 0.0], [4.0, 3.0, 2.0, 1.0], 0, True),
            ([3.0, 2.0, 0.0], [3.0, 2.0, 1.0], 1, False),
            ([3.0, 2.0, 0.0], [3.0, 2.0, 0.0], -1, True),
            ([3.0, 1.0, 0.0, 0.0], [3.0, 1.0, 0.0, 0.0], 1, True),   # zeros in s
            ([2.0, -1.0, 0.5, 0.0], [3.0, 1.0, 0.0, 0.0], 0, True),
            ([0.5, 0.5, -0.5, 0.5], [3.0, 1.0, 0.0, 0.0], -1, True),
            ([3.0, 1.0, 0.5, 0.0], [3.0, 1.0, 0.0, 0.0], 0, False),
        ],
    )
    def test_boundary_cases(self, d, s, det_sign, member):
        verts = og.thompson_vertices(s, det_sign)
        assert _check_thompson_against_lp(np.array(d), np.array(s), det_sign, verts) == member

    def test_lazy_vertices_and_weights(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("membership must not enumerate vertices or solve an LP")

        # no LP is solved for the weights either, so linprog stays refused
        monkeypatch.setattr(scipy.optimize, "linprog", refuse)
        with monkeypatch.context() as patch:
            patch.setattr(bd, "thompson_vertices", refuse)
            s, d = [3.0, 2.0, 1.0], np.array([2.0, 1.0, 0.5])
            inside = og.thompson_membership(og.DiagonalHullQuery(d=d, s=s, det_sign=1))
            outside = og.thompson_membership(og.DiagonalHullQuery(d=2 * d, s=s, det_sign=1))
            assert inside.member and inside.functional is None
            assert not outside.member and outside.functional is not None
        w = inside.weights
        assert w.min() >= -1e-9 and abs(w.sum() - 1.0) <= 1e-7
        assert np.max(np.abs(w @ inside.vertices - d)) <= 1e-7
        assert outside.weights is None
        assert np.array_equal(inside.vertices, og.thompson_vertices(s, 1))
        assert np.array_equal(outside.vertices, og.thompson_vertices(s, 1))

    @pytest.mark.parametrize("det_sign", [-1, 0, 1])
    def test_weights_of_faces_and_vertices(self, det_sign):
        # d between two vertices, on the facet x.(1, ..., 1) = sum(s), and at a
        # vertex, which takes all of the weight
        rng = np.random.default_rng(180 + det_sign)
        s = np.array([4.0, 2.5, 2.5, 1.0, 0.0])
        verts = og.thompson_vertices(s, det_sign)
        facet = verts[np.all(verts >= 0.0, axis=1)]
        picks = facet[rng.choice(len(facet), size=5, replace=False)]
        for d in (picks[:2].mean(axis=0), rng.dirichlet(np.ones(5)) @ picks, picks[0]):
            res = og.thompson_membership(og.DiagonalHullQuery(d=d, s=s, det_sign=det_sign))
            _check_weights(res)
        assert res.weights.max() == 1.0

    def test_weights_of_a_member_just_outside(self):
        # d is 0.5 band beyond the facet x_1 <= 3: a member by the band, whose
        # weights give the hull point nearest d, 0.5 band away
        s = np.array([3.0, 2.0, 1.0])
        band = og.tolerances.matrix_residual * (1.0 + s.sum())
        d = np.array([3.0 + 0.5 * band, 1.5, 0.5])
        res = og.thompson_membership(og.DiagonalHullQuery(d=d, s=s, det_sign=1))
        assert res.member
        w = res.weights
        assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-12
        miss = w @ res.vertices - d
        assert np.max(np.abs(miss - [-0.5 * band, 0.0, 0.0])) <= 1e-13 * (1.0 + s.sum())

    def test_weights_at_n7(self):
        rng = np.random.default_rng(187)
        a = rng.standard_normal((7, 7))
        s = np.linalg.svd(a, compute_uv=False)
        d = np.diag(og.haar_rotation(7, rng) @ a @ og.haar_rotation(7, rng))
        res = og.thompson_membership(
            og.DiagonalHullQuery(d=d, s=s, det_sign=int(np.sign(np.linalg.det(a))))
        )
        assert res.member
        _check_weights(res)

    def test_weights_that_miss_raise(self):
        # a result marked member for a point outside the hull: the nearest
        # hull point misses d by far more than the band
        query = og.DiagonalHullQuery(d=[3.5, 2.0, 1.0], s=[3.0, 2.0, 1.0], det_sign=1)
        res = bd.ThompsonResult(query=query, member=True, functional=None, margin=None)
        with pytest.raises(og.NumericalError, match="misses a member query by 0.5"):
            res.weights


def _two_harmonic_objective(const, bcos, bsin, y, theta):
    """sum_m (const_m - y_m + bcos_m cos t + bsin_m sin t)^2 for one start."""
    res = (const - y)[:, None] + np.outer(bcos, np.cos(theta)) + np.outer(bsin, np.sin(theta))
    return np.sum(res * res, axis=0)


class TestOracleKernels:
    @pytest.mark.parametrize("case", ["random", "first_harmonic_only", "zero"])
    def test_theta_argmin_beats_dense_grid(self, case):
        rng = np.random.default_rng(40)
        starts, ell = 64, 3
        const, bcos, bsin = rng.standard_normal((3, starts, ell))
        y = rng.standard_normal(ell)
        if case == "first_harmonic_only":
            # orthogonal bcos, bsin of one norm: p3 = p4 = 0
            q = np.linalg.qr(rng.standard_normal((starts, ell, 2)))[0]
            radius = rng.uniform(0.1, 3.0, (starts, 1))
            bcos, bsin = radius * q[:, :, 0], radius * q[:, :, 1]
        elif case == "zero":
            bcos, bsin = np.zeros((starts, ell)), np.zeros((starts, ell))
        theta, c, s = bd._affine_theta_argmin(np.stack(((const - y).T, bcos.T, bsin.T)))
        assert np.max(np.abs(c - np.cos(theta))) <= 1e-15
        assert np.max(np.abs(s - np.sin(theta))) <= 1e-15
        dense = np.linspace(0.0, 2.0 * np.pi, 100_000, endpoint=False)
        for k in range(starts):
            args = (const[k], bcos[k], bsin[k], y)
            best = _two_harmonic_objective(*args, np.array([theta[k]]))[0]
            assert best <= np.min(_two_harmonic_objective(*args, dense)) + 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_slab_turn_is_a_givens_product(self, n):
        rng = np.random.default_rng(42 + n)
        starts = 7
        x = rng.standard_normal((n, n, starts))
        theta = rng.uniform(-np.pi, np.pi, starts)
        c, s = np.cos(theta), np.sin(theta)
        for i, j in itertools.combinations(range(n), 2):
            g = np.broadcast_to(np.eye(n), (starts, n, n)).copy()
            g[:, i, i], g[:, i, j], g[:, j, i], g[:, j, j] = c, -s, s, c
            stack = np.moveaxis(x, -1, 0)
            rows = x.copy()
            bd._turn(rows, i, j, c, s)
            assert np.max(np.abs(np.moveaxis(rows, -1, 0) - g @ stack)) <= 1e-15
            # columns turn on the transposed view, by the same rotation
            cols = x.copy()
            bd._turn(np.swapaxes(cols, 0, 1), i, j, c, s)
            gt = np.swapaxes(g, -1, -2)
            assert np.max(np.abs(np.moveaxis(cols, -1, 0) - stack @ gt)) <= 1e-15

    @staticmethod
    def _search(rng, n, starts, ell, m, two_sided):
        """Random rows P_ji (ell x m), orbit matrices A_i, U, V and W_i = U A_i V in slabs."""
        rows = [[rng.standard_normal((n, n)) for _ in range(m)] for _ in range(ell)]
        a_list = [rng.standard_normal((n, n)) + 3.0 * np.eye(n) for _ in range(m)]
        u = np.moveaxis(_haar_slabs(n, starts, rng), -1, 0)
        v = np.moveaxis(_haar_slabs(n, starts, rng), -1, 0) if two_sided else np.eye(n)
        w = np.stack([np.moveaxis(u @ a @ v, 0, -1) for a in a_list], axis=2)
        return rows, a_list, v, w

    @staticmethod
    def _rebuilt(rows, w, right):
        """K_j = sum_i W_i P_ji (left) or sum_i P_ji W_i (right), from the stack form."""
        ws = np.moveaxis(w, -1, 0)  # (starts, n, n, m)
        return np.stack([
            np.moveaxis(sum((p @ ws[..., i] if right else ws[..., i] @ p)
                            for i, p in enumerate(row)), 0, -1)
            for row in rows
        ], axis=2)

    def _assert_pass(self, rows, a_list, w, y, right, other):
        """One _sweep pass: K as turned in place, the coordinates it started from, and
        one turned factor for every W_i. That factor is U = W_i V^T A_i^-1 after a
        left pass and V = A_i^-1 U^T W_i after a right one, given the other factor;
        it is returned."""
        start = np.einsum("iijs->js", self._rebuilt(rows, w, right))
        k, before = bd._sweep(rows, w, y, right)
        assert np.max(np.abs(before - start)) <= 1e-12
        assert np.max(np.abs(k - self._rebuilt(rows, w, right))) <= 1e-12
        ws, ot = np.moveaxis(w, -1, 0), np.swapaxes(other, -1, -2)
        frames = [np.linalg.inv(a) @ ot @ ws[..., i] if right
                  else ws[..., i] @ ot @ np.linalg.inv(a) for i, a in enumerate(a_list)]
        for f in frames:
            assert np.max(np.abs(f - frames[0])) <= 1e-12
        gram = np.swapaxes(frames[0], -1, -2) @ frames[0]
        assert np.max(np.abs(gram - np.eye(w.shape[0]))) <= 1e-12
        return frames[0]

    def test_in_place_k_matches_rebuilt(self):
        # two orbit matrices, two coordinates of two coefficient matrices each
        rng = np.random.default_rng(41)
        rows, a_list, v, w = self._search(rng, 4, 16, 2, 2, two_sided=True)
        y = rng.standard_normal(2)
        u = self._assert_pass(rows, a_list, w, y, False, v)
        self._assert_pass(rows, a_list, w, y, True, u)

    def test_in_place_k_matches_rebuilt_one_sided(self):
        rng = np.random.default_rng(43)
        rows, a_list, v, w = self._search(rng, 3, 16, 3, 1, two_sided=False)
        self._assert_pass(rows, a_list, w, rng.standard_normal(3), False, v)

    def test_max_rule_never_lowers_a_start(self):
        rng = np.random.default_rng(44)
        rows, _, _, w = self._search(rng, 4, 64, 1, 1, two_sided=True)
        for right in (False, True, False, True):
            k, before = bd._sweep(rows, w, None, right)
            assert np.min(np.einsum("iijs->js", k) - before) >= -1e-12


def _reference_closest_image_distance(coord_terms, n, y, starts, rng, two_sided,
                                      tol=1e-9, max_sweeps=200):
    """Stack-layout loop form of the multistart descent: (starts, n, n) factors,
    K rebuilt from U and V for every sweep, every trigonometric term evaluated
    directly and the coordinates recomputed from U and V."""
    grid = np.linspace(0.0, 2.0 * np.pi, 257)[:-1]
    spacing = grid[1] - grid[0]

    def argmin(const, bcos, bsin):
        alpha = const - y[None, :]
        p1 = 2.0 * np.sum(alpha * bcos, axis=1)
        p2 = 2.0 * np.sum(alpha * bsin, axis=1)
        p3 = 0.5 * np.sum(bcos * bcos - bsin * bsin, axis=1)
        p4 = np.sum(bcos * bsin, axis=1)

        def f(t):
            return p1 * np.cos(t) + p2 * np.sin(t) + p3 * np.cos(2 * t) + p4 * np.sin(2 * t)

        theta = grid[np.argmin(f(grid[:, None]), axis=0)]
        cand = theta.copy()
        for _ in range(3):
            fp = (-p1 * np.sin(cand) + p2 * np.cos(cand)
                  - 2 * p3 * np.sin(2 * cand) + 2 * p4 * np.cos(2 * cand))
            fpp = (-p1 * np.cos(cand) - p2 * np.sin(cand)
                   - 4 * p3 * np.cos(2 * cand) - 4 * p4 * np.sin(2 * cand))
            step = np.where(np.abs(fpp) > 1e-18, fp / np.where(fpp == 0, 1.0, fpp), 0.0)
            cand = cand - np.where(fpp > 0, np.clip(step, -spacing, spacing), 0.0)
        return np.where(f(cand) < f(theta), cand, theta)

    def turn_rows(x, i, j, c, s):
        ri, rj = x[..., i, :].copy(), x[..., j, :].copy()
        x[..., i, :] = c[:, None] * ri - s[:, None] * rj
        x[..., j, :] = s[:, None] * ri + c[:, None] * rj

    def coords(u, v):
        return np.stack([
            sum(coef * np.einsum("sii->s", pm @ u @ am @ v) for coef, pm, am in terms)
            for terms in coord_terms
        ], axis=1)

    u = og.haar_rotations(n, starts, rng)
    v = og.haar_rotations(n, starts, rng) if two_sided else np.tile(np.eye(n), (starts, 1, 1))
    prev = np.sum((coords(u, v) - y) ** 2, axis=1)
    for _ in range(max_sweeps):
        for right in (False, True) if two_sided else (False,):
            k = np.stack([
                sum(coef * (pm @ u @ am @ v if right else u @ am @ v @ pm)
                    for coef, pm, am in terms)
                for terms in coord_terms
            ])
            turned = (np.swapaxes(k, -1, -2), np.swapaxes(v, -1, -2)) if right else (k, u)
            for i, j in itertools.combinations(range(n), 2):
                bcos = (k[:, :, i, i] + k[:, :, j, j]).T
                bsin = (k[:, :, i, j] - k[:, :, j, i]).T
                theta = argmin(np.einsum("msii->sm", k) - bcos, bcos, bsin)
                sin = -np.sin(theta) if right else np.sin(theta)
                for x in turned:
                    turn_rows(x, i, j, np.cos(theta), sin)
        cur = np.sum((coords(u, v) - y) ** 2, axis=1)
        done = np.max(prev - cur) < tol
        prev = cur
        if done:
            break
    return float(np.sqrt(np.min(prev)))


def _two_draw_multistart(rows, a_list, y, starts, rng, two_sided, tol, max_sweeps):
    """The two-sided ``_multistart`` with U's and V's starts drawn by two
    ``_haar_slabs`` calls, and the same sweeps and stop rule."""
    assert two_sided
    n = a_list[0].shape[0]
    u = _haar_slabs(n, starts, rng)
    v = _haar_slabs(n, starts, rng)
    w = np.stack([bd._orbit_slabs(u.copy(), a, v) for a in a_list], axis=2)

    def objective(coords):
        if y is None:
            return -coords[0]
        diff = coords - y[:, None]
        return np.sum(diff * diff, axis=0)

    prev = None
    for _ in range(max_sweeps):
        for right in (False, True):
            k, before = bd._sweep(rows, w, y, right)
            if prev is None:
                prev = objective(before)
        prev, last = objective(np.trace(k)), prev
        if np.max(last - prev) < tol:
            break
    return prev


class TestOneDrawStarts:
    # the two-sided search draws U's and V's normals in one call; its starts,
    # and so the oracles' results and the generator's state after them, are
    # those of two successive draws, bit for bit
    @staticmethod
    def _both(monkeypatch, call, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        out = call(rng)
        with monkeypatch.context() as m:
            m.setattr(bd, "_multistart", _two_draw_multistart)
            ref = call(ref_rng)
        assert rng.random() == ref_rng.random()
        return out, ref

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_max_trace_bruteforce(self, monkeypatch, n):
        p, a = np.random.default_rng(60 + n).standard_normal((2, n, n))
        for starts in (1, 7, 500):
            out, ref = self._both(
                monkeypatch, lambda rng: og.max_trace_bruteforce(p, a, starts=starts, rng=rng),
                starts)
            assert out == ref

    @pytest.mark.parametrize("n, m", [(3, 2), (3, 3), (4, 2)])
    def test_joint_counterexample(self, monkeypatch, n, m):
        for seed in (0, 1):
            out, ref = self._both(
                monkeypatch,
                lambda rng: og.counterexample_report("joint", n=n, m=m, rng=rng, starts=65),
                seed)
            assert json.dumps(out) == json.dumps(ref)


class TestCounterexamples:
    @pytest.mark.parametrize("kind, n", [("ell3", 2), ("ell3", 3), ("ell3", 4), ("joint", 3)])
    def test_distance_matches_stack_reference(self, kind, n, monkeypatch):
        # the slab-layout search moves the seeded distances only at roundoff
        def reference(rows, a_list, y, starts, rng, two_sided):
            # the rows as (1.0, P_ji, A_i) terms of the loop-form reference
            terms = [[(1.0, p, a) for p, a in zip(row, a_list)] for row in rows]
            return _reference_closest_image_distance(terms, len(a_list[0]), y, starts, rng,
                                                     two_sided)

        for seed in (0, 1, 2):
            rep = og.counterexample_report(kind, n=n, ell=3 if kind == "ell3" else 2,
                                           rng=np.random.default_rng(seed), starts=128)
            monkeypatch.setattr(bd, "_closest_image_distance", reference)
            ref = og.counterexample_report(kind, n=n, ell=3 if kind == "ell3" else 2,
                                           rng=np.random.default_rng(seed), starts=128)
            monkeypatch.undo()
            assert rep["passed"] and ref["passed"]
            assert abs(rep["midpoint_distance_estimate"]
                       - ref["midpoint_distance_estimate"]) <= 1e-10

    @pytest.mark.parametrize("n, ell", [
        pytest.param(n, ell, id=str(n) if ell == 3 else f"{n}-ell{ell}")
        for ell in (3, 4) for n in (2, 3, 4)
    ])
    def test_planar_endpoints(self, n, ell):
        rep = og.counterexample_report("ell3", n=n, ell=ell, rng=np.random.default_rng(16),
                                       starts=32)
        assert rep["endpoints_exact"]
        pad = [0.0] * (ell - 3)
        exp1 = [n - 2, n - 1, n - 2, *pad]
        exp2 = [n - 2, n - 2, n - 1, *pad]
        assert rep["endpoints"][0] == exp1
        assert rep["endpoints"][1] == exp2
        assert rep["expected_endpoints"] == [exp1, exp2]

    def test_planar_midpoint_distance(self):
        rep = og.counterexample_report("ell3", n=3, rng=np.random.default_rng(17), starts=64)
        assert rep["midpoint_distance_estimate"] >= 1e-3
        assert rep["passed"]

    def test_joint_endpoints_and_distance(self):
        rep = og.counterexample_report(
            "joint", n=3, m=2, ell=2, rng=np.random.default_rng(18), starts=64
        )
        assert rep["endpoints"][0] == [2.0, 0.0]
        assert rep["endpoints"][1] == [0.0, 2.0]
        assert rep["endpoints_exact"]
        assert rep["midpoint_distance_estimate"] >= 1e-3

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            og.counterexample_report("nope", rng=np.random.default_rng(0))

    def test_zero_orbit_matrices_add_nothing(self):
        # the joint instance's A_i beyond the second are zero, as are their rows
        reps = [og.counterexample_report("joint", n=3, m=m, rng=np.random.default_rng(20),
                                         starts=64) for m in (2, 3)]
        assert reps[1]["endpoints"] == reps[0]["endpoints"]
        assert reps[1]["endpoints_exact"] and reps[1]["passed"]
        assert abs(reps[1]["midpoint_distance_estimate"]
                   - reps[0]["midpoint_distance_estimate"]) <= 1e-12

    def test_only_the_joint_instance_has_an_m(self):
        rng = np.random.default_rng(19)
        assert og.counterexample_report("joint", rng=rng, starts=4)["m"] == 2
        assert og.counterexample_report("ell3", rng=rng, starts=4)["m"] is None
        for m in (2, 9):
            with pytest.raises(ValueError, match="the ell3 instance has no m, got m="):
                og.counterexample_report("ell3", m=m, rng=rng, starts=4)

    @pytest.mark.parametrize("kind, ell", [("ell3", 3), ("joint", 2)])
    def test_starts_must_be_positive(self, kind, ell):
        with pytest.raises(ValueError, match="starts must be at least 1, got 0"):
            og.counterexample_report(kind, ell=ell, rng=np.random.default_rng(0), starts=0)


class TestSupportConsistency:
    def test_scaled_targets_strictly_inside_region(self):
        # certified targets with alpha < 1 keep a positive margin to the boundary
        rng = np.random.default_rng(22)
        a = np.diag([3.0, 2.0, 1.0])
        p, q = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        region = og.support_boundary(p, q, a, 360)
        for alpha in (0.0, 0.25, 0.5, 0.75):
            u, v = og.haar_rotation(3, rng), og.haar_rotation(3, rng)
            cert = og.certify_scaled_point([p, q], a, u, v, alpha)
            margin = float(np.min(region.values - region.directions @ cert.target))
            assert margin > 0.0


def _point_polygon_distance_loop(points, poly):
    seg_a = poly
    ab = np.roll(poly, -1, axis=0) - seg_a
    denom = np.sum(ab * ab, axis=1)
    denom[denom == 0] = 1.0
    worst = 0.0
    for x in points:
        t = np.clip(np.sum((x - seg_a) * ab, axis=1) / denom, 0.0, 1.0)
        proj = seg_a + t[:, None] * ab
        worst = max(worst, float(np.min(np.linalg.norm(proj - x, axis=1))))
    return worst


class TestPointPolygonDistance:
    def test_broadcast_equals_loop_form(self):
        rng = np.random.default_rng(24)
        for count in (2, 3, 40, 5000):
            pts = 2.0 * rng.standard_normal((count, 2))
            poly = pts if count == 2 else pts[scipy.spatial.ConvexHull(pts).vertices]
            queries = 3.0 * rng.standard_normal((150, 2))
            assert _point_polygon_distance(queries, poly) == _point_polygon_distance_loop(
                queries, poly
            )

    @pytest.mark.parametrize("poly", [
        pytest.param([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                     id="repeated-vertex"),
        pytest.param([[0.5, -0.25]], id="one-vertex"),
        pytest.param([[0.0, 0.0], [1.0, 0.5]], id="two-vertex"),
        pytest.param([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0], [2.0, 0.0]], id="doubled-segment"),
    ])
    def test_degenerate_polygons_equal_loop_form(self, poly):
        # a zero-length edge (denominator 0) projects every query onto its vertex
        poly = np.array(poly)
        rng = np.random.default_rng(25)
        inside = [[0.5, 0.5], [0.25, 0.75]]
        on_edge = [[0.5, 0.0], [1.0, 0.3], [0.5, 0.25]]
        at_vertex = list(poly)
        outside = 3.0 * rng.standard_normal((50, 2))
        for queries in (inside, on_edge, at_vertex, outside):
            queries = np.array(queries)
            got = _point_polygon_distance(queries, poly)
            assert got == _point_polygon_distance_loop(queries, poly)
        assert _point_polygon_distance(poly, poly) == 0.0

    def test_distance_to_the_polygon_boundary(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert _point_polygon_distance([[2.0, 0.5], [1.5, 1.0]], square) == 1.0
        assert _point_polygon_distance([[0.5, 0.75]], square) == 0.25


class TestHullReducedViolation:
    # the ids name the sampled orbit's group, SO(n)
    @pytest.mark.parametrize("n", [3, 4, 5], ids=lambda n: f"SO-{n}")
    def test_hull_points_carry_the_cloud_maximum(self, n):
        # the support violation over hull vertices and Qc-coplanar points, and
        # over the vertices of _convex_hull, is the brute-force maximum over
        # every sample, bit for bit
        for seed, count in ((0, 10000), (1, 50000)):
            rng = np.random.default_rng(80 + 10 * n + seed)
            p, q, a = (rng.standard_normal((n, n)) for _ in range(3))
            region = og.support_boundary(p, q, a, 720)
            pts = og.sample_image(og.LinearMapSpec((p, q)), a, count, rng).points
            hull = scipy.spatial.ConvexHull(pts)
            extreme = np.union1d(hull.vertices, hull.coplanar[:, 0])
            assert region.violation(pts[extreme]) == region.violation(pts)
            assert region.violation(_convex_hull(pts)) == region.violation(pts)

    @pytest.mark.parametrize("shape", ["generic", "Q=2P", "Q=0"])
    def test_one_violation_pass_over_the_hull(self, monkeypatch, shape):
        # one violation pass per report, over the hull vertices only: a flat
        # image's hull is two points, not its whole cloud
        p, q, a, _ = _cloud(3, shape, 0, 85)
        sizes = []
        violation = bd.SupportRegion.violation

        def recording(region, points):
            sizes.append(len(points))
            return violation(region, points)

        monkeypatch.setattr(bd.SupportRegion, "violation", recording)
        og.convexity_check(p, q, a, samples=20000, rng=np.random.default_rng(86), grid=360)
        pts = og.sample_image(og.LinearMapSpec((p, q)), a, 20000,
                              np.random.default_rng(86)).points
        assert len(sizes) == 1 and sizes[0] <= len(_convex_hull(pts))
        if shape != "generic":
            assert sizes == [2]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_report_equals_brute_force_over_the_cloud(self, n):
        rng = np.random.default_rng(90 + n)
        p, q, a = (rng.standard_normal((n, n)) for _ in range(3))
        rep = og.convexity_check(p, q, a, samples=30000, rng=np.random.default_rng(5), grid=720)
        region = og.support_boundary(p, q, a, 720)
        pts = og.sample_image(
            og.LinearMapSpec((p, q)), a, 30000, np.random.default_rng(5)
        ).points
        assert rep.support_violation == region.violation(pts)


class TestViolation:
    def _region_and_cloud(self, count):
        rng = np.random.default_rng(32)
        p, q, a = (rng.standard_normal((3, 3)) for _ in range(3))
        region = og.support_boundary(p, q, a, 720)
        pts = og.sample_image(og.LinearMapSpec((p, q)), a, count, rng).points
        return region, 1.3 * pts

    def test_each_row_is_independent_of_the_others(self):
        region, pts = self._region_and_cloud(300)
        rows = [region.violation(pts[i : i + 1]) for i in range(len(pts))]
        assert region.violation(pts) == max(rows)
        assert max(rows) > 0.0

    def test_cloud_across_the_chunk_boundary_equals_its_halves(self):
        # the halves split 10000 rows at 5000, off the 128-row chunk grid;
        # the worst point sits in the second half
        region, pts = self._region_and_cloud(10000)
        pts[9000] = 1.5 * pts[np.argmax(np.hypot(*pts.T))]
        whole = region.violation(pts)
        assert whole == max(region.violation(pts[:5000]), region.violation(pts[5000:]))
        assert whole == region.violation(pts[8192:])


def _cloud(n, shape, count, seed):
    rng = np.random.default_rng(seed)
    p, q, a = (rng.standard_normal((n, n)) for _ in range(3))
    if shape == "Q=2P":
        q = 2.0 * p
    elif shape == "Q=0":
        q = np.zeros((n, n))
    elif shape == "near-collinear":
        q = 2.0 * p + 1e-9 * q
    elif shape == "ultra-thin":
        q = 2.0 * p + 1e-13 * q
    pts = og.sample_image(og.LinearMapSpec((p, q)), a, count, rng).points
    return p, q, a, pts


def _assert_same_hull(poly, qhull_poly):
    # the same vertices in the same counterclockwise cycle as qhull's, from
    # any start
    start = np.flatnonzero((qhull_poly == poly[0]).all(axis=1))
    assert len(poly) == len(qhull_poly) and len(start) == 1
    assert np.array_equal(np.roll(qhull_poly, -start[0], axis=0), poly)


def _unfiltered_gaps(region, pts):
    # both gaps from the hull of every sample, with the flat image's segment
    # along the direction of spread when qhull finds no 2-D hull
    try:
        hull_poly = pts[scipy.spatial.ConvexHull(pts).vertices]
    except scipy.spatial.QhullError:
        centered = pts - pts.mean(axis=0)
        along = pts @ np.linalg.eigh(centered.T @ centered)[1][:, -1]
        hull_poly = pts[[np.argmin(along), np.argmax(along)]]
    to_hull = _point_polygon_distance(region.vertices, hull_poly) if len(region.vertices) else 0.0
    return max(0.0, region.violation(hull_poly)), to_hull


class TestHullCandidates:
    # the ids name the sampled orbit's group, SO(n)
    @pytest.mark.parametrize("count", [3, 5, 8, 15, 20000])
    @pytest.mark.parametrize("n", [3, 4, 5], ids=lambda n: f"{n}-SO")
    def test_candidates_keep_the_hull(self, n, count):
        _, _, _, pts = _cloud(n, "generic", count, 40 + 10 * n + count)
        _assert_same_hull(_convex_hull(pts), pts[scipy.spatial.ConvexHull(pts).vertices])

    def test_chain_drops_edge_points_and_repeats(self):
        # a unit square's corners, repeated, with its edge midpoints, centre
        # and lexicographic ties at both ends of the chord
        corners = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
        others = [[0.5, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 0.5], [0.5, 0.5]]
        pts = np.random.default_rng(41).permutation(np.array(corners * 2 + others))
        assert np.array_equal(_convex_hull(pts), corners)

    def test_exact_ties_split_nearest_the_segment_start(self):
        # three points tie as farthest below the chord (0, 0)-(4, 0); the
        # middle one lies on the hull edge between the other two, in any order
        for order in itertools.permutations([[1.0, -1.0], [2.0, -1.0], [3.0, -1.0]]):
            pts = np.array([[4.0, 0.0], *order, [0.0, 0.0], [2.0, -0.5]])
            assert _convex_hull(pts).tolist() == [[0.0, 0.0], [1.0, -1.0], [3.0, -1.0],
                                                  [4.0, 0.0]]

    @pytest.mark.parametrize("shape", ["Q=2P", "Q=0", "near-collinear"])
    def test_flat_and_near_flat_clouds(self, shape):
        _, _, _, pts = _cloud(3, shape, 20000, 50)
        if shape == "near-collinear":
            # a thin cloud is a 2-D hull: qhull's vertices in qhull's order,
            # and any other vertex (the turn tests keep one that qhull merges
            # into an edge) within roundoff of qhull's polygon
            hull = _convex_hull(pts)
            qhull_poly = pts[scipy.spatial.ConvexHull(pts).vertices]
            on_qhull = np.array([(qhull_poly == v).all(axis=1).any() for v in hull])
            _assert_same_hull(hull[on_qhull], qhull_poly)
            off = _point_polygon_distance(hull[~on_qhull], qhull_poly)
            assert off <= 1e-14 * np.abs(pts).max()
        else:
            # a segment: its lexicographically first and last points
            ends = pts[np.lexsort(pts.T[::-1])[[0, -1]]]
            assert np.array_equal(_convex_hull(pts), ends)

    @pytest.mark.parametrize("count", [4, 15, 20000])
    @pytest.mark.parametrize("shape", ["n=3", "n=4", "n=5", "Q=2P", "Q=0", "near-collinear",
                                       "ultra-thin"])
    def test_report_equals_the_unfiltered_computation(self, shape, count):
        n = int(shape[2]) if shape.startswith("n=") else 3
        p, q, a, _ = _cloud(n, shape, 0, 60 + n)
        rep = og.convexity_check(p, q, a, samples=count, rng=np.random.default_rng(count),
                                 grid=360)
        region = og.support_boundary(p, q, a, 360)
        pts = og.sample_image(og.LinearMapSpec((p, q)), a, count,
                              np.random.default_rng(count)).points
        gaps = (rep.gap_hull_to_region, rep.gap_region_to_hull)
        if shape == "ultra-thin":
            # a cloud of relative width 1e-13 is within roundoff of flat:
            # where qhull finds no 2-D hull the reference takes the segment
            # along the spread and quickhull keeps a sliver, which moves a
            # gap by far less than 1e-15 of the diameter
            assert np.allclose(gaps, _unfiltered_gaps(region, pts), rtol=0.0,
                               atol=1e-15 * rep.diameter)
        else:
            assert gaps == _unfiltered_gaps(region, pts)
        assert rep.support_violation == region.violation(pts)


class TestConvexityCheck:
    def test_distinct_values_report(self):
        rng = np.random.default_rng(19)
        p, q = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        rep = og.convexity_check(p, q, np.diag([3.0, 2.0, 1.0]), samples=20000, rng=rng, grid=360)
        assert rep.support_violation <= 1e-8
        assert rep.gap_hull_to_region <= 1e-8
        # 2e4 Haar samples land a few percent short of the exact boundary
        assert rep.gap_region_to_hull <= 0.05 * rep.diameter
        assert rep.tie_probe is None

    def test_tied_values_probe(self):
        rng = np.random.default_rng(20)
        p = np.diag([1.0, 0.0, 0.0])
        q = np.diag([0.0, 1.0, 0.0])
        rep = og.convexity_check(p, q, np.eye(3), samples=5000, rng=rng, grid=180)
        assert rep.tie_probe is not None
        assert rep.tie_probe["drift"] <= rep.tie_probe["bound"]
        assert rep.tie_probe["drift"] <= 10 * 1e-6 * (np.linalg.norm(p) + np.linalg.norm(q))

    @pytest.mark.parametrize("a", [np.eye(3), np.diag([2.0, 2.0, 1.0]),
                                   np.diag([1.0, 1.0, 1.0, 0.5])])
    def test_tie_probe_drift_matches_the_stack_reference(self, a):
        # the probe samples the image of A - A_delta; the reference draws the
        # same frames as two haar_rotations stacks and takes the traces itself
        n = a.shape[0]
        rng = np.random.default_rng(24)
        p, q = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        rep = og.convexity_check(p, q, a, samples=3000, rng=np.random.default_rng(25), grid=90)

        ref_rng = np.random.default_rng(25)
        og.sample_image(og.LinearMapSpec((p, q)), a, 3000, ref_rng)
        f = og.signed_svd(a)
        bump = 1e-6 * np.arange(n - 1, -1, -1, dtype=float)
        a_delta = (f.u * (f.s + np.sign(f.s + (f.s == 0)) * bump)) @ f.v.T
        u = og.haar_rotations(n, 30, ref_rng)
        v = og.haar_rotations(n, 30, ref_rng)
        diff = u @ (a - a_delta) @ v
        drift = np.max(np.hypot(np.einsum("ij,sji->s", p, diff),
                                np.einsum("ij,sji->s", q, diff)))
        assert abs(rep.tie_probe["drift"] - drift) <= 1e-12 * drift

    def test_numpy_integer_counts_give_a_json_report(self):
        # a numpy grid or sample count once went into the report as is, and
        # the JSON dump refused it
        p, q, a = np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([3.0, 2.0, 1.0])
        rep = og.convexity_check(p, q, a, samples=np.int64(50), rng=np.random.default_rng(0),
                                 grid=np.int32(90))
        payload = json.loads(serialize.dump_json(rep.to_json()))
        assert (payload["samples"], payload["grid"]) == (50, 90)

    def test_zero_matrix(self):
        rng = np.random.default_rng(21)
        rep = og.convexity_check(
            np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.zeros((3, 3)),
            samples=500, rng=rng, grid=90,
        )
        assert rep.diameter == 0.0
        assert rep.gap_region_to_hull <= 1e-12
        assert rep.support_violation <= 1e-12

    @pytest.mark.parametrize("flat", ["Q=2P", "Q=0"])
    def test_flat_image_gives_a_report(self, flat):
        # the sampled image is a segment: qhull has no 2-D hull to build
        rng = np.random.default_rng(25)
        p = rng.standard_normal((3, 3))
        q = 2.0 * p if flat == "Q=2P" else np.zeros((3, 3))
        rep = og.convexity_check(p, q, np.diag([3.0, 2.0, 1.0]), samples=5000, rng=rng, grid=180)
        assert rep.support_violation <= 1e-8
        assert rep.gap_hull_to_region <= 1e-8
        assert rep.diameter > 0

    def test_near_collinear_image_is_filtered_and_keeps_its_hull(self):
        # a cloud of relative width 1e-9 is a thin 2-D hull, not a segment
        _, _, _, pts = _cloud(3, "near-collinear", 5000, 26)
        _assert_same_hull(_convex_hull(pts), pts[scipy.spatial.ConvexHull(pts).vertices])

    @pytest.mark.parametrize("count", [1, 2])
    def test_one_or_two_samples_are_their_own_hull(self, count):
        rng = np.random.default_rng(27)
        p, q = rng.standard_normal((2, 3, 3))
        a = np.diag([3.0, 2.0, 1.0])
        rep = og.convexity_check(p, q, a, samples=count, rng=np.random.default_rng(count),
                                 grid=180)
        region = og.support_boundary(p, q, a, 180)
        pts = og.sample_image(og.LinearMapSpec((p, q)), a, count,
                              np.random.default_rng(count)).points
        hull = _convex_hull(pts)
        assert len(hull) == count and {*map(tuple, hull)} == {*map(tuple, pts)}
        assert rep.gap_region_to_hull == _point_polygon_distance(region.vertices, pts)
        assert rep.gap_hull_to_region == max(0.0, region.violation(pts))

    @pytest.mark.parametrize("count", [0, -1])
    def test_no_samples_is_rejected(self, count):
        with pytest.raises(ValueError, match="samples"):
            og.convexity_check(np.eye(3), np.eye(3), np.eye(3), samples=count)


def _off_block_orbit_element():
    """diag(3, 2, 1) turned by 1e-5 in the plane of rows 0 and 1: its leading
    entry misses 3 by ~1e-10, inside the value gate, while its off-block
    entries (~1e-5) break the block structure."""
    c, s = np.cos(1e-5), np.sin(1e-5)
    r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return r @ np.diag([3.0, 2.0, 1.0]) @ r.T


_A3 = np.diag([3.0, 2.0, 1.0])


@pytest.mark.parametrize("call,cls,message", [
    pytest.param(lambda: og.diagonal_sum(np.eye(3), 5), ValueError,
                 "k must be in [0, 3], got 5", id="diagonal-sum-k"),
    pytest.param(lambda: og.MaximizerStructure((3,), (1.0,), np.ones((3, 3))),
                 og.PreconditionError, "A must be diagonal (signed-diagonal form)",
                 id="not-diagonal"),
    pytest.param(lambda: og.MaximizerStructure((3,), (1.0,), np.diag([-3.0, 2.0, 1.0])),
                 og.PreconditionError, "A must carry its sign on the last entry only",
                 id="sign-not-last"),
    pytest.param(lambda: og.MaximizerStructure((1, 2), (1.0,), _A3), ValueError,
                 "block sizes and values must align and be nonempty", id="unaligned-blocks"),
    pytest.param(lambda: og.MaximizerStructure((3, 0), (1.0, 0.5), _A3), ValueError,
                 "block sizes must be positive", id="empty-block"),
    pytest.param(lambda: og.MaximizerStructure((1, 1), (1.0, 0.5), _A3), og.DimensionError,
                 "block sizes sum to 2 but A is 3x3", id="block-sum"),
    pytest.param(lambda: og.MaximizerStructure((1, 2), (1.0, -0.5), _A3), ValueError,
                 "group values must be nonnegative", id="negative-value"),
    pytest.param(lambda: og.MaximizerStructure((1, 2), (1.0, 2.0), _A3), ValueError,
                 "group values must be strictly decreasing", id="rising-values"),
    pytest.param(lambda: og.MaximizerStructure.from_diagonal_p(np.ones((3, 3)), _A3),
                 og.PreconditionError, "P must be diagonal with grouped descending values",
                 id="p-not-diagonal"),
    pytest.param(lambda: og.block_decompose(_A3, _A3, 0), ValueError,
                 "k must be in [1, 2], got 0", id="block-decompose-k"),
    pytest.param(lambda: og.block_decompose(np.diag([3.0, 5.0, 1.0]), _A3, 1),
                 og.PreconditionError, "B is not in the orbit of A (sv gap 2.000e+00)",
                 id="not-in-orbit"),
    pytest.param(lambda: og.block_decompose(_off_block_orbit_element(), _A3, 1),
                 og.NumericalError, "input violates the forced block structure",
                 id="off-block"),
    pytest.param(lambda: og.DiagonalHullQuery(d=[1.0, 2.0], s=[3.0, 2.0, 1.0], det_sign=1),
                 og.DimensionError, "d has size 2, s has size 3", id="hull-sizes"),
    pytest.param(lambda: og.DiagonalHullQuery(d=[1.0, 2.0, 3.0], s=[1.0, 2.0, 3.0],
                                              det_sign=1),
                 ValueError, "singular values must be sorted descending and nonnegative",
                 id="unsorted-s"),
    pytest.param(lambda: og.nonconvex_planar_map(1, 3), og.PreconditionError,
                 "need n >= 2 and ell >= 3, got n=1, ell=3", id="planar-instance"),
    pytest.param(lambda: og.nonconvex_joint_instance(2, 2), og.PreconditionError,
                 "need n >= 3 and m >= 2, got n=2, m=2", id="joint-instance"),
    pytest.param(lambda: og.counterexample_report("joint", ell=1), og.PreconditionError,
                 "need ell >= 2, got 1", id="joint-report-ell"),
    pytest.param(lambda: og.convexity_check(np.eye(2), np.eye(2), np.eye(2), samples=10,
                                            rng=0),
                 og.PreconditionError, "convexity holds for n >= 3 only", id="convexity-n"),
])
def test_input_checks(call, cls, message):
    """Each check raises its class with its message (checks no other test reaches)."""
    with pytest.raises(cls, match=re.escape(message)) as info:
        call()
    assert type(info.value) is cls
