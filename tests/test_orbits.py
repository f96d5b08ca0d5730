import re

import numpy as np
import pytest

import orbitgeom as og
from orbitgeom.linalg import _haar_slabs
from orbitgeom.orbits import (
    _SAMPLE_BLOCK,
    LinearMapSpec,
    OrbitSpec,
    _orbit_slabs,
    apply_map,
    orbit_point,
)


def _e(i, j, n=2):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


class TestApplyMap:
    def test_identity(self):
        assert np.allclose(apply_map([np.eye(3)], np.eye(3)), [3.0])

    def test_planar_rotation_picks_entries(self):
        # tr(E11 R) is the (1,1) entry, tr(E21 R) the (1,2) entry
        theta = 0.7
        x = og.recursive_rotation([theta])
        out = apply_map([_e(0, 0), _e(1, 0)], x)
        assert np.allclose(out, [np.cos(theta), np.sin(theta)], atol=1e-14)

    def test_zero_map(self):
        out = apply_map([np.zeros((3, 3))] * 4, np.ones((3, 3)))
        assert np.allclose(out, 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(og.DimensionError):
            apply_map([np.eye(2)], np.eye(3))


class TestOrbitPoint:
    def test_identity_frames(self):
        a = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(orbit_point(a, np.eye(3), np.eye(3)), a)

    def test_singular_values_preserved(self):
        r = og.recursive_rotation([np.pi / 2])
        b = orbit_point(np.diag([2.0, 1.0]), r, r.T)
        assert np.allclose(np.linalg.svd(b, compute_uv=False), [2.0, 1.0])

    def test_det_sign_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            u = og.haar_rotation(3, rng)
            v = og.haar_rotation(3, rng)
            b = orbit_point(a, u, v)
            assert np.sign(np.linalg.det(b)) == np.sign(np.linalg.det(a))


class TestSampleImage:
    def test_empty(self):
        cloud = og.sample_image([_e(0, 0)], OrbitSpec(np.eye(2)), 0, np.random.default_rng(0))
        assert len(cloud) == 0

    def test_unit_circle(self):
        lmap = LinearMapSpec((_e(0, 0), _e(1, 0)))
        cloud = og.sample_image(lmap, OrbitSpec(np.eye(2)), 10000, np.random.default_rng(2))
        radii = np.linalg.norm(cloud.points, axis=1)
        assert np.max(np.abs(radii - 1.0)) < 1e-9

    def test_ball_bound(self):
        rng = np.random.default_rng(3)
        mats = [rng.standard_normal((3, 3)) for _ in range(2)]
        a = rng.standard_normal((3, 3))
        cloud = og.sample_image(LinearMapSpec(tuple(mats)), OrbitSpec(a), 2000, rng)
        bound = sum(np.linalg.norm(m) for m in mats) * np.linalg.norm(a)
        assert np.max(np.linalg.norm(cloud.points, axis=1)) <= bound + 1e-9

    @pytest.mark.parametrize("group", ["SO", "O"])
    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_points_are_the_trace_map_of_the_sampled_frames(self, n, ell, group):
        rng = np.random.default_rng(100 * n + 10 * ell)
        a = 3.0 * rng.standard_normal((n, n))
        mats = [rng.standard_normal((n, n)) for _ in range(ell)]
        count = 300
        pts = og.sample_image(LinearMapSpec(tuple(mats)), OrbitSpec(a, group), count,
                              np.random.default_rng(7)).points
        rng = np.random.default_rng(7)
        u = og.haar_rotations(n, count, rng)
        v = og.haar_rotations(n, count, rng)
        if group == "O":
            flip = rng.random(count) < 0.5
            u[flip, :, -1] *= -1.0
            v[flip, :, -1] *= -1.0
        x = u @ a @ v
        ref = np.stack([np.einsum("ij,sji->s", p, x) for p in mats], axis=1)
        assert pts.shape == (count, ell)
        assert np.max(np.abs(pts - ref)) <= 1e-12 * (np.max(np.abs(ref)) + 1.0)

    def test_full_group_flips_both_factors(self):
        # det U = det V always; both signs must occur
        rng = np.random.default_rng(4)
        n, count = 3, 400
        u = og.haar_rotations(n, count, rng)
        v = og.haar_rotations(n, count, rng)
        flip = rng.random(count) < 0.5
        u[flip, :, -1] *= -1.0
        v[flip, :, -1] *= -1.0
        du, dv = np.linalg.det(u), np.linalg.det(v)
        assert np.allclose(du, dv, atol=1e-9)
        assert (du < 0).any() and (du > 0).any()

    def test_full_group_sampling_stays_in_orbit_image(self):
        # det-matched full-group pairs keep the signed normal form, so the
        # sampled points never leave the rotation-orbit support region
        a = np.array([[2.0, 1.0], [0.0, 1.0]])
        lmap = LinearMapSpec((_e(0, 0), _e(1, 0)))
        region = og.support_boundary(*lmap.mats, a, 180)
        cloud = og.sample_image(lmap, OrbitSpec(a, group="O"), 4000,
                                np.random.default_rng(30))
        assert region.violation(cloud.points) <= 1e-8

    def test_orbit_invariance_witnesses(self):
        # moving every input by rotations is absorbed into explicit witnesses
        rng = np.random.default_rng(5)
        n = 3
        a = rng.standard_normal((n, n))
        ps = [rng.standard_normal((n, n)) for _ in range(2)]
        u, v, x, y, w1, w2 = (og.haar_rotation(n, rng) for _ in range(6))
        lhs = apply_map([u @ p @ v for p in ps], w1 @ (x @ a @ y) @ w2)
        rhs = apply_map(ps, (v @ w1 @ x) @ a @ (y @ w2 @ u))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_orbit_frame_independence_hausdorff(self):
        # images of A and X A Y agree as sets; weak two-sided sample check
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(6)
        n, count = 3, 100000
        a = rng.standard_normal((n, n))
        x = og.haar_rotation(n, rng)
        y = og.haar_rotation(n, rng)
        lmap = LinearMapSpec(tuple(rng.standard_normal((n, n)) for _ in range(2)))
        c1 = og.sample_image(lmap, OrbitSpec(a), count, rng).points
        c2 = og.sample_image(lmap, OrbitSpec(x @ a @ y), count, rng).points
        d1 = np.max(cKDTree(c2).query(c1)[0])
        d2 = np.max(cKDTree(c1).query(c2)[0])
        diameter = np.max(np.linalg.norm(c1 - c1.mean(axis=0), axis=1)) * 2
        assert max(d1, d2) <= 0.05 * diameter


def _whole_slab_sample(mats, a, group, count, rng):
    # every sample in one pass: both Haar stacks, the flips, one orbit product
    # and one projection
    n = a.shape[0]
    u = _haar_slabs(n, count, rng)
    v = _haar_slabs(n, count, rng)
    if group == "O":
        flip = rng.random(count) < 0.5
        u[:, -1, flip] *= -1.0
        v[:, -1, flip] *= -1.0
    x = _orbit_slabs(u, a, v)
    pt = np.stack([p.T.ravel() for p in mats], axis=1)
    return x.reshape(n * n, count).T @ pt


class TestBlockedSampling:
    @pytest.mark.parametrize("group", ["SO", "O"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_blocks_equal_the_whole_slab_sample(self, n, group):
        # the draws, the points and the generator's state after the call are
        # those of one pass over all samples, bit for bit; B + 1 and 2B + 1
        # leave a one-sample tail, which must not be a block of its own.
        # The map has 2 and 3 coordinates on alternate counts.
        b = _SAMPLE_BLOCK
        rng = np.random.default_rng(300 + n)
        a = rng.standard_normal((n, n))
        maps = [tuple(rng.standard_normal((n, n)) for _ in range(ell)) for ell in (2, 3)]
        counts = (0, 1, 7, b - 1, b, b + 1, 2 * b + 1, 30000, 100000)
        for k, count in enumerate(counts):
            mats = maps[k % 2]
            blocked, whole = np.random.default_rng(count), np.random.default_rng(count)
            pts = og.sample_image(LinearMapSpec(mats), OrbitSpec(a, group), count,
                                  blocked).points
            ref = _whole_slab_sample(mats, a, group, count, whole)
            assert pts.shape == (count, len(mats))
            assert np.array_equal(pts, ref), count
            assert blocked.random() == whole.random()


class TestReduceJoint:
    def test_single_identity_matrix_is_noop(self):
        rng = np.random.default_rng(7)
        ps = [rng.standard_normal((3, 3)) for _ in range(2)]
        reduced = og.reduce_joint([[p] for p in ps], [np.eye(3)], "O1")
        for q, p in zip(reduced.mats, ps):
            assert np.max(np.abs(q - p)) < 1e-14

    def test_zero_matrix_drops_coefficient(self):
        rng = np.random.default_rng(8)
        p1, p2 = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        a1 = rng.standard_normal((3, 3))
        reduced = og.reduce_joint([[p1, p2]], [a1, np.zeros((3, 3))], "O1")
        assert np.max(np.abs(reduced.mats[0] - p1 @ a1)) < 1e-14

    @pytest.mark.parametrize("kind", ["O1", "O2"])
    def test_pointwise_witness(self, kind):
        rng = np.random.default_rng(9)
        n, m, ell = 3, 2, 2
        a_list = [rng.standard_normal((n, n)) for _ in range(m)]
        rows = [[rng.standard_normal((n, n)) for _ in range(m)] for _ in range(ell)]
        reduced = og.reduce_joint(rows, a_list, kind)
        for _ in range(100):
            w = og.haar_rotation(n, rng)
            if kind == "O1":
                joint = [sum(np.trace(p @ (a @ w)) for p, a in zip(r, a_list)) for r in rows]
            else:
                joint = [sum(np.trace(p @ (w @ a)) for p, a in zip(r, a_list)) for r in rows]
            direct = apply_map(reduced, w)
            assert np.max(np.abs(np.array(joint) - direct)) < 1e-12

    def test_o3_unsupported(self):
        with pytest.raises(ValueError):
            og.reduce_joint([[np.eye(2)]], [np.eye(2)], "O3")


@pytest.mark.parametrize("call,cls,message", [
    pytest.param(lambda: og.LinearMapSpec(()), ValueError,
                 "a linear map needs at least one coefficient matrix", id="empty-map"),
    pytest.param(lambda: og.OrbitSpec(np.eye(2), "U"), ValueError,
                 "group must be 'SO' or 'O', got 'U'", id="group"),
    pytest.param(lambda: og.JointOrbitSpec((), "O1"), ValueError,
                 "a joint orbit needs at least one matrix", id="empty-joint"),
    pytest.param(lambda: og.JointOrbitSpec((np.eye(2),), "O4"), ValueError,
                 "kind must be one of O1, O2, O3, got 'O4'", id="joint-kind"),
    pytest.param(lambda: og.PointCloud(np.zeros(3)), og.DimensionError,
                 "points must be (count, ell), got shape (3,)", id="cloud-shape"),
    pytest.param(lambda: og.PointCloud([[np.nan]]), ValueError,
                 "point cloud contains non-finite entries", id="cloud-non-finite"),
    pytest.param(lambda: og.reduce_joint([[np.eye(2)]], [np.eye(2)] * 2, "O1"),
                 og.DimensionError, "map row 0 has 1 coefficients for 2 orbit matrices",
                 id="joint-row-length"),
    pytest.param(lambda: og.reduce_joint([[np.eye(2)]], [np.eye(2)], "O4"), ValueError,
                 "kind must be O1 or O2, got 'O4'", id="reduce-kind"),
])
def test_input_checks(call, cls, message):
    """Each check raises its class with its message (checks no other test reaches)."""
    with pytest.raises(cls, match=re.escape(message)) as info:
        call()
    assert type(info.value) is cls
