import itertools
import re

import numpy as np
import pytest

import orbitgeom as og
from orbitgeom.linalg import _haar_slabs
from orbitgeom.orbits import (
    _SAMPLE_BLOCK,
    LinearMapSpec,
    _orbit_slabs,
    apply_map,
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


class TestSampleImage:
    def test_empty(self):
        cloud = og.sample_image([_e(0, 0)], np.eye(2), 0, np.random.default_rng(0))
        assert len(cloud) == 0

    def test_unit_circle(self):
        lmap = LinearMapSpec((_e(0, 0), _e(1, 0)))
        cloud = og.sample_image(lmap, np.eye(2), 10000, np.random.default_rng(2))
        radii = np.linalg.norm(cloud.points, axis=1)
        assert np.max(np.abs(radii - 1.0)) < 1e-9

    def test_ball_bound(self):
        rng = np.random.default_rng(3)
        mats = [rng.standard_normal((3, 3)) for _ in range(2)]
        a = rng.standard_normal((3, 3))
        cloud = og.sample_image(LinearMapSpec(tuple(mats)), a, 2000, rng)
        bound = sum(np.linalg.norm(m) for m in mats) * np.linalg.norm(a)
        assert np.max(np.linalg.norm(cloud.points, axis=1)) <= bound + 1e-9

    # the ids name the sampled orbit's group, SO(n)
    @pytest.mark.parametrize("ell", [1, 2, 3, 4], ids=lambda ell: f"{ell}-SO")
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_points_are_the_trace_map_of_the_sampled_frames(self, n, ell):
        rng = np.random.default_rng(100 * n + 10 * ell)
        a = 3.0 * rng.standard_normal((n, n))
        mats = [rng.standard_normal((n, n)) for _ in range(ell)]
        count = 300
        pts = og.sample_image(LinearMapSpec(tuple(mats)), a, count,
                              np.random.default_rng(7)).points
        rng = np.random.default_rng(7)
        u = og.haar_rotations(n, count, rng)
        v = og.haar_rotations(n, count, rng)
        x = u @ a @ v
        ref = np.stack([np.einsum("ij,sji->s", p, x) for p in mats], axis=1)
        assert pts.shape == (count, ell)
        assert np.max(np.abs(pts - ref)) <= 1e-12 * (np.max(np.abs(ref)) + 1.0)

    def test_det_matched_reflections_stay_in_the_rotation_orbit(self):
        # with D = diag(1, ..., 1, -1) and A = X S Y its signed SVD,
        # (U D) A (V D) = U' A V' for the rotations U' = U D X D X^T and
        # V' = Y^T D Y V D: orthogonal factors with det U = det V = -1 add no
        # orbit element, so the rotation orbit is the only one to sample
        for n, seed in itertools.product([2, 3, 4, 5], range(4)):
            d = np.diag([1.0] * (n - 1) + [-1.0])
            rng = np.random.default_rng(10 * n + seed)
            a = rng.standard_normal((n, n))
            u, v = og.haar_rotation(n, rng), og.haar_rotation(n, rng)
            f = og.signed_svd(a)
            u2 = u @ d @ f.u @ d @ f.u.T
            v2 = f.v @ d @ f.v.T @ v @ d
            assert max(og.rotation_defect(u2), og.rotation_defect(v2)) <= 1e-12
            diff = (u @ d) @ a @ (v @ d) - u2 @ a @ v2
            assert np.max(np.abs(diff)) <= 1e-12 * (1.0 + np.max(np.abs(a)))

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
        c1 = og.sample_image(lmap, a, count, rng).points
        c2 = og.sample_image(lmap, x @ a @ y, count, rng).points
        d1 = np.max(cKDTree(c2).query(c1)[0])
        d2 = np.max(cKDTree(c1).query(c2)[0])
        diameter = np.max(np.linalg.norm(c1 - c1.mean(axis=0), axis=1)) * 2
        assert max(d1, d2) <= 0.05 * diameter


def _whole_slab_sample(mats, a, count, rng):
    # every sample in one pass: both Haar stacks, one orbit product and one
    # projection
    n = a.shape[0]
    u = _haar_slabs(n, count, rng)
    v = _haar_slabs(n, count, rng)
    x = _orbit_slabs(u, a, v)
    pt = np.stack([p.T.ravel() for p in mats], axis=1)
    return x.reshape(n * n, count).T @ pt


class TestBlockedSampling:
    # the ids name the sampled orbit's group, SO(n)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6], ids=lambda n: f"{n}-SO")
    def test_blocks_equal_the_whole_slab_sample(self, n):
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
            pts = og.sample_image(LinearMapSpec(mats), a, count, blocked).points
            ref = _whole_slab_sample(mats, a, count, whole)
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
    # sample_image checks A itself, with the class and message of require_square
    pytest.param(lambda: og.sample_image([np.eye(3)], np.ones((3, 2)), 1, 0),
                 og.DimensionError,
                 "A must be square or a stack of square matrices, got shape (3, 2)",
                 id="sample-a-not-square"),
    pytest.param(lambda: og.sample_image([np.eye(3)], np.full((3, 3), np.nan), 1, 0),
                 ValueError, "A contains non-finite entries", id="sample-a-non-finite"),
    pytest.param(lambda: og.sample_image([np.eye(3)], np.eye(4), 1, 0),
                 og.DimensionError, "sizes differ: P (3, 3), A (4, 4)", id="sample-a-size"),
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
