import dataclasses
from fractions import Fraction
import re

import numpy as np
import pytest

import orbitgeom as og
from orbitgeom import ellipsoids
from orbitgeom.ellipsoids import (
    _bracket_root,
    _coeffs,
    _ellipse_eu,
    _ellipse_radial_along,
    _ellipsoid_euv,
    _ellipsoid_radial_along,
    _radial_2x2,
    surface_projection,
)


def _e(i, j, n=2):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


class TestRecursiveRotation:
    def test_zero_angle(self):
        assert np.allclose(og.recursive_rotation([0.0]), np.eye(2))

    def test_quarter_turn(self):
        assert np.allclose(og.recursive_rotation([np.pi / 2]), [[0, 1], [-1, 0]], atol=1e-15)

    def test_two_level_is_rotation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            r = og.recursive_rotation(rng.uniform(0, 2 * np.pi, 2))
            assert r.shape == (4, 4)
            assert og.rotation_defect(r) < 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            og.recursive_rotation([])


class TestSphericalCoeffs:
    def test_identity(self):
        assert np.allclose(og.spherical_coeffs(np.eye(2)), [2.0, 0.0])

    def test_skew(self):
        assert np.allclose(og.spherical_coeffs([[0.0, -1.0], [1.0, 0.0]]), [0.0, 2.0])

    def test_trace_identity_on_grid(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        c = og.spherical_coeffs(a)
        worst = 0.0
        for t1 in np.linspace(0, 2 * np.pi, 33):
            for t2 in np.linspace(0, 2 * np.pi, 33):
                lhs = np.trace(og.recursive_rotation([t1, t2]) @ a)
                rhs = c @ og.spherical_point([t1, t2])
                worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-10

    def test_rejects_bad_size(self):
        with pytest.raises(og.DimensionError):
            og.spherical_coeffs(np.eye(3))

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_batched_matches_single(self, n):
        stack = np.random.default_rng(n).standard_normal((3, 2, n, n))
        coeffs = _coeffs(stack)
        assert coeffs.shape == (3, 2, n.bit_length())
        for idx in np.ndindex(3, 2):
            assert np.allclose(coeffs[idx], og.spherical_coeffs(stack[idx]), rtol=0, atol=1e-14)


class TestAnglesFromUnit:
    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_round_trip(self, ell):
        rng = np.random.default_rng(ell)
        for _ in range(50):
            u = rng.standard_normal(ell)
            u /= np.linalg.norm(u)
            angles = og.angles_from_unit(u)
            assert np.max(np.abs(og.spherical_point(angles) - u)) < 1e-12

    def test_pole(self):
        angles = og.angles_from_unit([1.0, 0.0, 0.0])
        assert np.max(np.abs(og.spherical_point(angles) - [1, 0, 0])) < 1e-15


class TestEllipsoidEUV:
    def test_unit_circle_pair(self):
        curve = og.ellipsoid_euv([_e(0, 0), _e(1, 0)], np.eye(2), np.eye(2))
        assert np.allclose(curve.shape, np.eye(2))
        assert np.allclose(curve.center, 0.0)
        assert not curve.is_degenerate()

    def test_unit_circle_pair_never_degenerates(self):
        # the stock planar pair stays non-degenerate for every frame choice
        rng = np.random.default_rng(2)
        mats = [_e(0, 0), _e(1, 0)]
        for _ in range(100):
            u = og.haar_rotation(2, rng)
            v = og.haar_rotation(2, rng)
            curve = og.ellipsoid_euv(mats, u, v)
            assert abs(np.linalg.det(curve.shape)) >= 1e-6

    def test_zero_map_collapses_to_origin(self):
        curve = og.ellipsoid_euv([np.zeros((2, 2))] * 2, np.eye(2), np.eye(2))
        assert np.allclose(curve.shape, 0.0)
        assert curve.is_degenerate()

    def test_witness_soundness(self):
        rng = np.random.default_rng(3)
        mats = [rng.standard_normal((4, 4)) for _ in range(3)]
        u = og.haar_rotation(4, rng)
        v = og.haar_rotation(4, rng)
        curve = og.ellipsoid_euv(mats, u, v)
        for _ in range(100):
            angles = rng.uniform(0, 2 * np.pi, 2)
            point = curve.point(angles)
            witness = curve.witness(angles)
            assert og.rotation_defect(witness) < 1e-10
            assert np.max(np.abs(og.apply_map(mats, witness) - point)) < 1e-10


class TestEllipseEU:
    def test_unit_circle(self):
        curve = og.ellipse_eu(_e(0, 0), _e(1, 0), np.eye(2))
        assert np.allclose(curve.shape, np.eye(2))
        assert np.allclose(curve.center, [0.0, 0.0])

    def test_zero_coefficients(self):
        curve = og.ellipse_eu(np.zeros((3, 3)), np.zeros((3, 3)), np.eye(3))
        assert np.allclose(curve.shape, 0.0)
        assert np.allclose(curve.center, 0.0)
        assert curve.is_degenerate()

    def test_grid_matches_direct_traces(self):
        rng = np.random.default_rng(4)
        p, q = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
        u = og.haar_rotation(4, rng)
        curve = og.ellipse_eu(p, q, u)
        worst = 0.0
        for theta in np.linspace(0, 2 * np.pi, 360):
            t = np.eye(4)
            t[:2, :2] = og.recursive_rotation([theta])
            direct = [np.trace(t @ p @ u), np.trace(t @ q @ u)]
            worst = max(worst, np.max(np.abs(curve.point([theta]) - direct)))
        assert worst < 1e-12

    @pytest.mark.parametrize("n", [3, 5])
    def test_stack_equals_per_frame_calls(self, n):
        rng = np.random.default_rng(40 + n)
        p, q = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        frames = og.haar_rotations(n, 6, rng).reshape(2, 3, n, n)
        stacked = _ellipse_eu(p, q, frames)
        assert stacked.shape.shape == (2, 3, 2, 2)
        assert stacked.center.shape == (2, 3, 2)
        for idx in np.ndindex(2, 3):
            single = _ellipse_eu(p, q, frames[idx])
            assert np.max(np.abs(stacked.shape[idx] - single.shape)) < 1e-14
            assert np.max(np.abs(stacked.center[idx] - single.center)) < 1e-14

    def test_witness_soundness(self):
        rng = np.random.default_rng(5)
        p, q = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        u = og.haar_rotation(3, rng)
        curve = og.ellipse_eu(p, q, u)
        for theta in rng.uniform(0, 2 * np.pi, 50):
            point = curve.point([theta])
            witness = curve.witness([theta])
            assert np.max(np.abs(og.apply_map([p, q], witness) - point)) < 1e-12


def _exact_planar_radial(p, q, path, s, y):
    """Radial of y against the ellipse of (P, Q) at path(s), exact in the float inputs.

    The frame ``base_z rot(s theta) z_t`` is formed in rationals from the
    path's float factors and the float cosines and sines of ``RotationPath``;
    the shape and center follow ``_ellipse_eu``, and the radial is
    ``|adj(S) d| / |det S|`` for d = y - center. Only the final square root
    rounds.
    """
    bt = [[Fraction(x) for x in row] for row in path.base_z]
    for k, (c, sn) in enumerate(zip(np.cos(s * path.theta), np.sin(s * path.theta))):
        c, sn, i, j = Fraction(c), Fraction(sn), 2 * k, 2 * k + 1
        for row in bt:
            row[i], row[j] = c * row[i] + sn * row[j], c * row[j] - sn * row[i]
    z_t = [[Fraction(x) for x in row] for row in path.z_t]
    n = len(z_t)
    u = [[sum(bt[r][k] * z_t[k][c] for k in range(n)) for c in range(n)] for r in range(n)]
    shape, center = [], []
    for m in (p, q):
        m = [[Fraction(x) for x in row] for row in m]
        g = [[sum(m[r][k] * u[k][c] for k in range(n)) for c in range(2)] for r in range(2)]
        shape.append((g[0][0] + g[1][1], g[1][0] - g[0][1]))
        center.append(sum(m[r][k] * u[k][r] for r in range(2, n) for k in range(n)))
    (s00, s01), (s10, s11) = shape
    d0, d1 = Fraction(float(y[0])) - center[0], Fraction(float(y[1])) - center[1]
    r2 = ((s11 * d0 - s01 * d1) ** 2 + (s00 * d1 - s10 * d0) ** 2) / (s00 * s11 - s01 * s10) ** 2
    return float(r2) ** 0.5


def _root(f, lo, hi, flo, fhi, ftol):
    """``_bracket_root`` on one lane of a scalar function, its error raised."""
    x, iterations, errors = _bracket_root(lambda s, live: np.array([f(v) for v in s]),
                                          [lo], [hi], [flo], [fhi], ftol)
    if errors:
        raise errors[0]
    return x[0], iterations[0]


def _lane(path):
    """The path as a stack of one."""
    return og.RotationPath(path.base_z[None], path.z_t[None], path.theta[None])


def _one_lane(gap):
    """The radial of one lane of a lane-wise trial gap evaluator, as a function of s."""
    return lambda s: gap(np.array([s]), np.array([0]))[0] + 1.0


class TestCoefficientForm:
    S_GRID = np.linspace(0.0, 1.0, 41)

    @staticmethod
    def _half_turn(n, rng):
        q = og.haar_rotation(n, rng)
        t = np.eye(n)
        t[:2, :2] = -np.eye(2)
        return q @ t @ q.T

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("half_turn", [False, True])
    def test_radial_matches_surface_projection(self, n, half_turn):
        rng = np.random.default_rng(60 + n + 10 * half_turn)
        p, q = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        u_deg = og.degenerate_u0(p, q)
        start = u_deg @ self._half_turn(n, rng).T if half_turn else og.haar_rotation(n, rng)
        path = og.geodesic(start, u_deg)
        curve = og.ellipse_eu(p, q, start)
        t = rng.uniform(0, 2 * np.pi)
        y = curve.shape @ (0.6 * np.array([np.cos(t), np.sin(t)])) + curve.center
        radial = _one_lane(_ellipse_radial_along(p[None], q[None], _lane(path), y[None]))
        for s in self.S_GRID:
            expected = surface_projection(_ellipse_eu(p, q, path(s)), y)[0]
            if s == 1.0:
                assert expected == np.inf and radial(s) == np.inf
            elif half_turn:
                # the half turn's path passes shapes of condition number ~5e3
                # (n = 5), where the two evaluators round to opposite sides
                # of the true radial: each is held to the exact one
                exact = _exact_planar_radial(p, q, path, s, y)
                assert abs(radial(s) - exact) <= 1e-12 * exact
                assert abs(expected - exact) <= 1e-12 * exact
            else:
                assert abs(radial(s) - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("ell", [3, 4])
    @pytest.mark.parametrize("half_turn", [False, True])
    def test_ellipsoid_radial_matches_surface_projection(self, ell, half_turn):
        n = 2 ** (ell - 1)
        rng = np.random.default_rng(70 + ell + 10 * half_turn)
        mats = list(rng.standard_normal((ell, n, n)))
        u_deg, v_deg = og.degenerate_uv(mats[0])
        # a half turn takes U's path through a pair of eigenvalues -1
        u0 = u_deg @ self._half_turn(n, rng).T if half_turn else og.haar_rotation(n, rng)
        v0 = og.haar_rotation(n, rng)
        path_u, path_v = og.geodesic(u0, u_deg), og.geodesic(v0, v_deg)
        start = _ellipsoid_euv(mats, u0, v0)
        z = rng.standard_normal(ell)
        y = start.shape @ (0.6 * z / np.linalg.norm(z))
        radial = _one_lane(_ellipsoid_radial_along(np.stack(mats)[None], _lane(path_u),
                                                   _lane(path_v), y[None]))
        for s in self.S_GRID:
            expected = surface_projection(_ellipsoid_euv(mats, path_u(s), path_v(s)), y)[0]
            if s == 1.0:
                # the degenerate end frame: y is off the span that its shape keeps
                assert expected == np.inf and radial(s) == np.inf
            else:
                assert abs(radial(s) - expected) <= 1e-12 * expected

    def test_rank_deficient_shapes(self):
        # rank one: the span's direction w, off it by more or less than off_span_tol
        w = np.array([np.cos(0.3), np.sin(0.3)])
        across = np.array([-w[1], w[0]])
        shape = 2.5 * np.outer(w, [np.cos(1.1), np.sin(1.1)])
        shape[1, 1] += 1e-12  # below degenerate_rank relative to the larger value
        curve = og.EllipsoidCurve(shape, np.zeros(2), "euv", (np.eye(2), np.eye(2)))
        for d in (0.7 * w, 0.7 * w + 5e-9 * across, 0.7 * w + 1e-6 * across, 3.0 * w):
            assert _radial_2x2(*shape.ravel(), *d) == pytest.approx(
                surface_projection(curve, d)[0], rel=1e-12)
        assert _radial_2x2(*shape.ravel(), *(0.7 * w + 1e-6 * across)) == np.inf
        # rank zero: the curve is its center
        assert _radial_2x2(0.0, 0.0, 0.0, 0.0, 5e-9, 0.0) == 0.0
        assert _radial_2x2(0.0, 0.0, 0.0, 0.0, 1e-6, 0.0) == np.inf


class TestMembership:
    def _circle(self):
        return og.ellipsoid_euv([_e(0, 0), _e(1, 0)], np.eye(2), np.eye(2))

    def _segment(self):
        return og.EllipsoidCurve(
            shape=np.array([[1.0, 0.0], [0.0, 0.0]]),
            center=np.zeros(2),
            kind="euv",
            frames=(np.eye(2), np.eye(2)),
        )

    def test_inside(self):
        assert og.membership(self._circle(), [0.5, 0.0]).classification == "inside"

    def test_boundary_with_witness(self):
        res = og.membership(self._circle(), [1.0, 0.0])
        assert res.classification == "boundary"
        assert np.allclose(res.witness_angles, [0.0])
        assert res.residual < 1e-12

    def test_outside(self):
        assert og.membership(self._circle(), [1.5, 0.0]).classification == "outside"

    def test_degenerate_span(self):
        seg = self._segment()
        res = og.membership(seg, [0.5, 0.0])
        assert res.classification == "on-degenerate-span"
        assert res.residual < 1e-12
        off = og.membership(seg, [0.5, 0.3])
        assert off.classification == "off-degenerate-span"

    def test_one_factorization(self, monkeypatch):
        # degeneracy is read from the projection's singular values
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        for curve, y in ((self._segment(), [0.5, 0.0]), (self._circle(), [0.5, 0.0])):
            calls.clear()
            og.membership(curve, y)
            assert len(calls) == 1

    def test_boundary_band_comes_from_tolerances(self, monkeypatch):
        y = [1.0 + 5e-9, 0.0]
        assert og.membership(self._circle(), y).classification == "boundary"
        monkeypatch.setattr(ellipsoids, "tolerances",
                            dataclasses.replace(og.tolerances, boundary_band=1e-9))
        assert og.membership(self._circle(), y).classification == "outside"

    def test_off_span_tol_comes_from_tolerances(self, monkeypatch):
        seg = self._segment()
        y = [0.5, 5e-9]
        assert surface_projection(seg, y)[0] == pytest.approx(0.5)
        monkeypatch.setattr(ellipsoids, "tolerances",
                            dataclasses.replace(og.tolerances, off_span_tol=1e-9))
        assert surface_projection(seg, y)[0] == np.inf


def _pair_before_completion(p):
    """The vectors (u1, u2) of ``degenerate_u0``, built column by column in the row frame."""
    p1, p2 = p[0], p[1]
    swapped = np.linalg.norm(p2) > np.linalg.norm(p1)
    if swapped:
        p1, p2 = p2, p1
    p1, p2 = p1 / np.linalg.norm(p1), p2 / np.linalg.norm(p1)
    resid = p2 - (p2 @ p1) * p1
    if np.linalg.norm(resid) > 1e-13:
        q2 = resid / np.linalg.norm(resid)
        q2 = q2 - (q2 @ p1) * p1
        frame = og.complete_to_rotation([p1, q2 / np.linalg.norm(q2)])
    else:
        frame = og.complete_to_rotation([p1])
    a, b = p2 @ frame[:, 0], p2 @ frame[:, 1]
    if abs(a) <= 1e-13 or b <= 1e-13:
        u1, u2 = np.array([-b, 0.0, np.sqrt(max(0.0, 1.0 - b * b))]), np.array([0.0, 1.0, 0.0])
    else:
        big = 1.0 + a * a - b * b
        x = 2.0 * a * a / (big + np.sqrt(big * big + 4.0 * a * a * b * b))
        st, ct = np.sqrt(x), np.sqrt(1.0 - x)
        u1 = np.array([-b * st, a * st, -a * ct]) / np.sqrt(b * b * x + a * a)
        u2 = np.array([0.0, ct, st])
    u1, u2 = frame[:, :3] @ u1, frame[:, :3] @ u2
    return (u2, u1) if swapped else (u1, u2)


class TestDegenerateU0:
    def test_axis_branch(self):
        # rows e1 and a scaled e2 exercise the explicit-vector branch
        p = np.zeros((4, 4))
        p[0, 0] = 1.0
        p[1, 1] = 2.0
        q = np.arange(16.0).reshape(4, 4)
        u0 = og.degenerate_u0(p, q)
        curve = og.ellipse_eu(p, q, u0)
        assert abs(np.linalg.det(curve.shape)) <= 1e-10

    def test_zero_rows_return_identity(self):
        p = np.zeros((3, 3))
        p[2, :] = 1.0  # only the first two rows enter the construction
        u0 = og.degenerate_u0(p, np.ones((3, 3)))
        assert np.array_equal(u0, np.eye(3))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_random_instances(self, n):
        rng = np.random.default_rng(n)
        for _ in range(40):
            p = rng.standard_normal((n, n))
            q = rng.standard_normal((n, n))
            u0 = og.degenerate_u0(p, q)
            assert og.rotation_defect(u0) < 1e-10
            curve = og.ellipse_eu(p, q, u0)
            assert abs(np.linalg.det(curve.shape)) <= 1e-10

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_closed_form_zeroes_first_row(self, n):
        rng = np.random.default_rng(80 + n)
        cases = [rng.standard_normal((n, n)) for _ in range(20)]
        for noise in (1e-10, 1e-15):  # nearly parallel rows: root branch, then axis branch
            p = rng.standard_normal((n, n))
            p[1] = 0.7 * p[0] + noise * rng.standard_normal(n)
            cases += [p, p[[1, 0] + list(range(2, n))]]
        axis = np.zeros((n, n))
        axis[0, 0], axis[1, 1] = 1.0, 2.0
        cases.append(axis)
        for p in cases:
            u0 = og.degenerate_u0(p, rng.standard_normal((n, n)))
            assert og.rotation_defect(u0) < 1e-12
            row = _ellipse_eu(p, p, u0).shape[0]
            assert np.max(np.abs(row)) <= 1e-13 * np.linalg.norm(p)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_one_completion_keeps_the_pair(self, n):
        # the frame's first two columns are the pair (u1, u2) as a second
        # orthonormal completion of it had them, and at n = 3 the whole frame
        rng = np.random.default_rng(90 + n)
        cases = []
        for _ in range(10):
            p = rng.standard_normal((n, n))
            swapped = p.copy()
            swapped[1] *= 3.0 * np.linalg.norm(p[0]) / np.linalg.norm(p[1])
            cases += [p, swapped]
        for c in (0.5, 2.0):  # parallel rows: rnorm <= 1e-13, plain and swapped
            p = rng.standard_normal((n, n))
            p[1] = c * p[0]
            cases.append(p)
        for p in cases:
            q = rng.standard_normal((n, n))
            u0 = og.degenerate_u0(p, q)
            u1, u2 = _pair_before_completion(p)
            assert np.max(np.abs(u0[:, :2] - np.column_stack((u1, u2)))) <= 1e-14
            assert og.rotation_defect(u0) <= 1e-13
            if n == 3:
                assert np.max(np.abs(u0 - og.complete_to_rotation([u1, u2]))) <= 1e-14
            row = _ellipse_eu(p, q, u0).shape[0]
            assert np.max(np.abs(row)) <= 1e-13 * np.linalg.norm(p)

    def test_rejects_small_dimension(self):
        with pytest.raises(og.DimensionError):
            og.degenerate_u0(np.eye(2), np.eye(2))

    def test_bisection_iteration_budget(self):
        # the root bracket is [0, pi], where f falls through 0; with no
        # tolerance on |f| the bracket closes within 60 steps
        f = lambda t: 0.8 * np.cos(t) - 0.8 * np.sin(t) / np.sqrt(0.64 * np.sin(t) ** 2 + 0.09)
        root, iters = _root(lambda t: -f(t), 0.0, np.pi, -f(0.0), -f(np.pi), 0.0)
        assert iters <= 60
        assert abs(f(root)) < 1e-11


class TestBracketRoot:
    def test_infinite_part_of_bracket(self):
        # +inf beyond 0.8, as a target off a degenerate span reads near s = 1
        root = 0.3141592653589793
        f = lambda s: np.inf if s > 0.8 else np.expm1(4.0 * (s - root))
        x, iters = _root(f, 0.0, 1.0, f(0.0), np.inf, 1e-12)
        assert abs(f(x)) <= 1e-12
        assert abs(x - root) < 1e-12
        assert iters <= 20

    def test_exhausted_budget_raises(self, monkeypatch):
        f = lambda s: np.tanh(50.0 * (s - 0.3))
        with monkeypatch.context() as patch:
            patch.setattr(ellipsoids, "tolerances",
                          dataclasses.replace(og.tolerances, max_bisection_iter=4))
            with pytest.raises(og.NumericalError):
                _root(f, 0.0, 1.0, f(0.0), f(1.0), 1e-12)
            with pytest.raises(og.NumericalError):
                _root(f, 0.0, 1.0, f(0.0), f(1.0), 0.0)
        x, _ = _root(f, 0.0, 1.0, f(0.0), f(1.0), 1e-12)
        assert abs(f(x)) <= 1e-12

    def test_lanes_take_their_own_steps(self, monkeypatch):
        # lanes of one search stop at different steps, one on the budget;
        # each returns what it returns alone, and the stopped ones are not
        # evaluated again
        monkeypatch.setattr(ellipsoids, "tolerances",
                            dataclasses.replace(og.tolerances, max_bisection_iter=10))
        fs = [lambda s: np.expm1(4.0 * (s - 0.31)), lambda s: np.tanh(50.0 * (s - 0.3)),
              lambda s: np.inf if s > 0.8 else s ** 3 - 0.1, lambda s: s - 0.5,
              lambda s: np.tanh(50.0 * (s - 0.77))]
        lo, hi = np.zeros(len(fs)), np.ones(len(fs))
        flo = np.array([f(0.0) for f in fs])
        fhi = np.array([f(1.0) for f in fs])
        seen = []

        def lanes(x, live):
            seen.append(live.copy())
            return np.array([fs[k](v) for k, v in zip(live, x)])

        for ftol in (0.0, 1e-12):
            seen.clear()
            x, iterations, errors = _bracket_root(lanes, lo, hi, flo, fhi, ftol)
            for k, f in enumerate(fs):
                try:
                    alone = _root(f, 0.0, 1.0, flo[k], fhi[k], ftol)
                except og.NumericalError as exc:
                    assert str(errors[k]) == str(exc)
                else:
                    assert k not in errors
                    assert (x[k], iterations[k]) == alone
                    assert sum(k in live for live in seen) == alone[1]
            assert errors


class TestDegenerateUV:
    def test_identity_input(self):
        u, v = og.degenerate_uv(np.eye(4))
        j = np.array([[0.0, -1.0], [1.0, 0.0]])
        expected = np.zeros((4, 4))
        expected[:2, :2] = j
        expected[2:, 2:] = j
        assert np.allclose(u @ np.eye(4) @ v, expected)

    def test_zero_input(self):
        u, v = og.degenerate_uv(np.zeros((4, 4)))
        assert np.allclose(og.spherical_coeffs(u @ np.zeros((4, 4)) @ v), 0.0)

    def test_random_first_row_vanishes(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            p1 = rng.standard_normal((4, 4))
            u, v = og.degenerate_uv(p1)
            assert og.rotation_defect(u) < 1e-10
            assert og.rotation_defect(v) < 1e-10
            mats = [p1] + [rng.standard_normal((4, 4)) for _ in range(2)]
            curve = og.ellipsoid_euv(mats, u, v)
            assert np.linalg.norm(curve.shape[0]) <= 1e-10

    @pytest.mark.parametrize("n", [4, 8])
    def test_quarter_turns_on_signed_svd_frames(self, n):
        # V is the signed SVD's V times a block-diagonal stack of quarter turns
        p1 = np.random.default_rng(n).standard_normal((n, n))
        f = og.signed_svd(p1)
        turns = np.kron(np.eye(n // 2), [[0.0, -1.0], [1.0, 0.0]])
        u, v = og.degenerate_uv(p1)
        assert np.array_equal(u, f.u.T)
        assert np.array_equal(v, f.v @ turns)

    def test_rejects_planar(self):
        with pytest.raises(og.DimensionError):
            og.degenerate_uv(np.eye(2))


@pytest.mark.parametrize("call,cls,message", [
    pytest.param(lambda: og.angles_from_unit([1.0]), og.DimensionError,
                 "need at least a 2-vector to recover angles", id="angles-of-a-scalar"),
    pytest.param(lambda: og.ellipsoid_euv([np.eye(2)], np.eye(2), np.eye(2)),
                 og.DimensionError, "need at least two coefficient matrices", id="euv-one-map"),
    pytest.param(lambda: og.ellipsoid_euv([np.eye(3)] * 3, np.eye(3), np.eye(3)),
                 og.DimensionError, "ell=3 needs size 4, got 3", id="euv-size"),
    pytest.param(lambda: og.ellipse_eu(np.eye(1), np.eye(1), np.eye(1)), og.DimensionError,
                 "the planar ellipse needs size >= 2", id="eu-size"),
    pytest.param(lambda: og.membership(og.ellipse_eu(np.eye(3), np.eye(3), np.eye(3)),
                                       [1.0, 2.0, 3.0]),
                 og.DimensionError, "query has dimension 3, curve 2", id="query-dimension"),
])
def test_input_checks(call, cls, message):
    """Each check raises its class with its message (checks no other test reaches)."""
    with pytest.raises(cls, match=re.escape(message)) as info:
        call()
    assert type(info.value) is cls
