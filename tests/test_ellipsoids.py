import numpy as np
import pytest

import orbitgeom as og
from orbitgeom.ellipsoids import bisect_root, surface_projection


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

    def test_witness_soundness(self):
        rng = np.random.default_rng(5)
        p, q = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        u = og.haar_rotation(3, rng)
        curve = og.ellipse_eu(p, q, u)
        for theta in rng.uniform(0, 2 * np.pi, 50):
            point = curve.point([theta])
            witness = curve.witness([theta])
            assert np.max(np.abs(og.apply_map([p, q], witness) - point)) < 1e-12


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

    def test_boundary_band_comes_from_tolerances(self):
        y = [1.0 + 5e-9, 0.0]
        assert og.membership(self._circle(), y).classification == "boundary"
        saved = og.tolerances.boundary_band
        og.tolerances.boundary_band = 1e-9
        try:
            assert og.membership(self._circle(), y).classification == "outside"
        finally:
            og.tolerances.boundary_band = saved

    def test_off_span_tol_comes_from_tolerances(self):
        seg = self._segment()
        y = [0.5, 5e-9]
        assert surface_projection(seg, y)[0] == pytest.approx(0.5)
        saved = og.tolerances.off_span_tol
        og.tolerances.off_span_tol = 1e-9
        try:
            assert surface_projection(seg, y)[0] == np.inf
        finally:
            og.tolerances.off_span_tol = saved


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

    def test_rejects_small_dimension(self):
        with pytest.raises(og.DimensionError):
            og.degenerate_u0(np.eye(2), np.eye(2))

    def test_bisection_iteration_budget(self):
        # the root bracket is [0, pi]; the angle tolerance lands within 60 halvings
        f = lambda t: 0.8 * np.cos(t) - 0.8 * np.sin(t) / np.sqrt(0.64 * np.sin(t) ** 2 + 0.09)
        root, iters = bisect_root(f, 0.0, np.pi)
        assert iters <= 60
        assert abs(f(root)) < 1e-11


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

    def test_rejects_planar(self):
        with pytest.raises(og.DimensionError):
            og.degenerate_uv(np.eye(2))
