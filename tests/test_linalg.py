import re

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from scipy.spatial.transform import Rotation

import orbitgeom as og
from orbitgeom.linalg import _completions, _haar_slabs, _log_rotation_schur


def _plane_turn(n, angles, rng):
    """Rotation turning consecutive coordinate planes by the given angles, in a Haar frame."""
    t = np.eye(n)
    for k, theta in enumerate(angles):
        c, s = np.cos(theta), np.sin(theta)
        t[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[c, -s], [s, c]]
    q = og.haar_rotation(n, rng)
    return q @ t @ q.T


# (n, block angles) of rotations with an eigenvalue -1 or near it: one plane
# at pi, -I for n = 2, 4 and 6, and planes inside the old 1e-8 band around pi
HALF_TURNS = [
    pytest.param(2, [np.pi], id="n2-pi"),
    pytest.param(3, [np.pi], id="n3-pi"),
    pytest.param(4, [np.pi, 0.7], id="n4-pi-0.7"),
    pytest.param(4, [np.pi, np.pi], id="n4-pi-pi"),
    pytest.param(5, [np.pi, np.pi - 1e-10], id="n5-pi-near1e-10"),
    pytest.param(5, [np.pi - 5e-9, 0.4], id="n5-near5e-9-0.4"),
    pytest.param(6, [np.pi, np.pi, np.pi], id="n6-pi-pi-pi"),
]


def _logm_oracle(r):
    k = np.real(scipy.linalg.logm(r))
    return (k - k.T) / 2.0


class TestSignedSVD:
    def test_identity(self):
        f = og.signed_svd(np.eye(3))
        assert np.allclose(f.s, [1.0, 1.0, 1.0])
        assert np.allclose(f.u, np.eye(3))
        assert np.allclose(f.v, np.eye(3))

    def test_sign_lands_on_last_value(self):
        a = np.diag([3.0, 2.0, -1.0])
        f = og.signed_svd(a)
        assert np.allclose(f.s, [3.0, 2.0, -1.0])
        assert og.rotation_defect(f.u) < 1e-12
        assert og.rotation_defect(f.v) < 1e-12
        assert np.max(np.abs(f.reconstruct() - a)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_reconstruction_random(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4))
        f = og.signed_svd(a)
        tol = 1e-10 * (1 + np.max(np.abs(a)))
        assert np.max(np.abs(f.reconstruct() - a)) <= tol
        assert abs(np.linalg.det(f.u) - 1.0) < 1e-10
        assert abs(np.linalg.det(f.v) - 1.0) < 1e-10
        assert np.all(f.s[:-1] >= abs(f.s[-1]))
        assert np.all(np.diff(f.s[:-1]) <= 1e-14)
        if abs(np.linalg.det(a)) > 1e-12:
            assert np.sign(f.s[-1]) == np.sign(np.linalg.det(a))

    def test_singular_values_match_gram_eigenvalues(self):
        # oracle: sqrt of the eigenvalues of A^T A
        rng = np.random.default_rng(3)
        for n in (2, 3, 5):
            a = rng.standard_normal((n, n))
            f = og.signed_svd(a)
            expected = np.sqrt(np.maximum(np.linalg.eigvalsh(a.T @ a), 0.0))[::-1]
            assert np.max(np.abs(np.abs(f.s) - expected)) < 1e-10

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 3))
        fa = og.signed_svd(a)
        fc = og.signed_svd(2.5 * a)
        assert np.allclose(fc.s, 2.5 * fa.s, atol=1e-10)
        assert np.max(np.abs(fc.reconstruct() - 2.5 * a)) < 1e-9

    def test_rejects_nonsquare(self):
        with pytest.raises(og.DimensionError):
            og.signed_svd(np.ones((2, 3)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_stack_equals_per_matrix_calls(self, n):
        rng = np.random.default_rng(40 + n)
        stack = rng.standard_normal((2, 7, n, n))
        stack[0, 0] = np.diag(np.arange(n, 0, -1.0))
        stack[0, 1] = -np.eye(n)
        stack[0, 2] = 0.0
        f = og.signed_svd(stack)
        for idx in np.ndindex(stack.shape[:2]):
            one = og.signed_svd(stack[idx])
            assert np.array_equal(f.u[idx], one.u)
            assert np.array_equal(f.s[idx], one.s)
            assert np.array_equal(f.v[idx], one.v)
            assert np.array_equal(f.reconstruct()[idx], one.reconstruct())


def _slab_haar_reference(n, count, rng):
    """Haar sampler written out entry by entry from the same draws.

    n = 2: the normalized Gaussian 2-vector (c, s) is the angle's cosine and
    sine. n = 3: the Gaussian 4-vector scaled to norm sqrt(2) is a unit
    quaternion (w, x, y, z) times sqrt(2), so each product below is twice the
    unit quaternion's. Otherwise: the whole Gaussian matrix is copied into
    column slabs, orthonormalized by Gram-Schmidt twice, and sign-corrected.
    """
    if n == 2:
        c, s = rng.standard_normal((2, count))
        norm = np.sqrt(c * c + s * s)
        c, s = c / norm, s / norm
        return np.stack([np.array([[c[k], -s[k]], [s[k], c[k]]]) for k in range(count)])
    if n == 3:
        q = rng.standard_normal((4, count))
        w, x, y, z = q * np.sqrt(2.0 / np.einsum("ik,ik->k", q, q))
        return np.stack([np.array([
            [1.0 - y[k] * y[k] - z[k] * z[k], x[k] * y[k] - w[k] * z[k], z[k] * x[k] + w[k] * y[k]],
            [x[k] * y[k] + w[k] * z[k], 1.0 - x[k] * x[k] - z[k] * z[k], y[k] * z[k] - w[k] * x[k]],
            [z[k] * x[k] - w[k] * y[k], y[k] * z[k] + w[k] * x[k], 1.0 - x[k] * x[k] - y[k] * y[k]],
        ]) for k in range(count)])
    g = rng.standard_normal((count, n, n))
    cols = np.ascontiguousarray(g.transpose(2, 1, 0))
    for j, col in enumerate(cols):
        done = cols[:j]
        for _ in range(2):
            col -= np.einsum("jik,jk->ik", done, np.einsum("jik,ik->jk", done, col))
        col /= np.sqrt(np.einsum("ik,ik->k", col, col))
    q = np.ascontiguousarray(cols.transpose(2, 1, 0))
    q[np.linalg.det(q) < 0, :, -1] *= -1.0
    return q


def _rotation_angles(u):
    """Rotation angle of each rotation in a stack, in [0, pi] (n = 3) or (-pi, pi] (n = 2)."""
    if u.shape[-1] == 2:
        return np.arctan2(u[:, 1, 0], u[:, 0, 0])
    return np.arccos(np.clip((np.einsum("sii->s", u) - 1.0) / 2.0, -1.0, 1.0))


class TestHaar:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("count", [1, 7, 1000, 20000])
    def test_bit_equal_to_whole_draw_slab_reference(self, n, count):
        rng, ref = np.random.default_rng(90 + n), np.random.default_rng(90 + n)
        u = og.haar_rotations(n, count, rng)
        expected = _slab_haar_reference(n, count, ref)
        assert u.flags.c_contiguous and u.shape == (count, n, n)
        assert np.array_equal(u, expected)
        assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_stack_is_the_slabs_moved(self, n):
        slabs = _haar_slabs(n, 300, np.random.default_rng(95 + n))
        assert slabs.flags.c_contiguous and slabs.shape == (n, n, 300)
        u = og.haar_rotations(n, 300, np.random.default_rng(95 + n))
        assert np.array_equal(u, np.moveaxis(slabs, -1, 0))
        assert _haar_slabs(n, 0, np.random.default_rng(0)).shape == (n, n, 0)

    def test_quaternion_rotation_matches_scipy(self):
        # scipy takes quaternions scalar-last and normalizes them itself
        q = np.random.default_rng(97).standard_normal((4, 1000))
        expected = Rotation.from_quat(np.roll(q, -1, axis=0).T).as_matrix()
        u = og.haar_rotations(3, 1000, np.random.default_rng(97))
        assert np.max(np.abs(u - expected)) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3])
    def test_draws_two_or_four_normals_per_rotation(self, n):
        k = 257
        rng = np.random.default_rng(85 + n)
        og.haar_rotations(n, k, rng)
        ref = np.random.default_rng(85 + n)
        ref.standard_normal({2: 2, 3: 4}[n] * k)
        assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5))

    @pytest.mark.parametrize("n", [2, 3])
    def test_rotation_angle_distribution(self, n):
        # Haar on SO(2): a uniform angle; on SO(3): the angle has density
        # (1 - cos t) / pi on [0, pi], so CDF (t - sin t) / pi
        theta = _rotation_angles(og.haar_rotations(n, 20000, np.random.default_rng(98 + n)))
        if n == 2:
            cdf = scipy.stats.uniform(loc=-np.pi, scale=2.0 * np.pi).cdf
        else:
            def cdf(t):
                return (t - np.sin(t)) / np.pi
        assert scipy.stats.kstest(theta, cdf).pvalue > 0.01

    def test_deterministic_under_seed(self):
        u1 = og.haar_rotation(3, np.random.default_rng(42))
        u2 = og.haar_rotation(3, np.random.default_rng(42))
        assert np.array_equal(u1, u2)

    def test_invariants_across_sizes(self):
        rng = np.random.default_rng(0)
        for n in range(2, 9):
            q = og.haar_rotations(n, 1500, rng)
            eye = np.eye(n)
            defect = np.max(np.abs(q @ np.swapaxes(q, 1, 2) - eye))
            assert defect < 1e-12
            assert np.max(np.abs(np.linalg.det(q) - 1.0)) < 1e-10

    def test_entry_mean_near_zero(self):
        rng = np.random.default_rng(1)
        q = og.haar_rotations(3, 10000, rng)
        assert np.max(np.abs(q.mean(axis=0))) < 0.05

    @pytest.mark.parametrize("n", [1, 4, 5, 6, 7, 8])
    def test_matches_sign_corrected_qr_of_the_same_draws(self, n):
        # the positive-diagonal QR factor is unique, so any method computing it
        # agrees with Householder QR up to roundoff
        g = np.random.default_rng(50 + n).standard_normal((2000, n, n))
        q, r = np.linalg.qr(g)
        d = np.sign(np.einsum("sii->si", r))
        q = q * d[:, None, :]
        q[np.linalg.det(q) < 0, :, -1] *= -1.0
        u = og.haar_rotations(n, 2000, np.random.default_rng(50 + n))
        assert np.max(np.abs(u - q)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_form_last_column_needs_no_determinant(self, n, monkeypatch):
        # n = 2, 3 write the whole rotation in closed form
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.det called")

        monkeypatch.setattr(np.linalg, "det", refuse)
        u = og.haar_rotations(n, 500, np.random.default_rng(70 + n))
        monkeypatch.undo()
        assert np.max(np.abs(u @ np.swapaxes(u, 1, 2) - np.eye(n))) < 1e-14
        assert np.max(np.abs(np.linalg.det(u) - 1.0)) < 1e-14

    @pytest.mark.parametrize("n", [1, 4])
    def test_draws_the_whole_gaussian_matrix(self, n):
        k = 257
        rng = np.random.default_rng(80 + n)
        og.haar_rotations(n, k, rng)
        ref = np.random.default_rng(80 + n)
        ref.standard_normal((k, n, n))
        assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_haar_moments(self, n):
        # E[U] = 0 and E[U_ij^2] = 1/n for Haar measure on SO(n), n >= 2
        u = og.haar_rotations(n, 10000, np.random.default_rng(60 + n))
        assert np.max(np.abs(u.mean(axis=0))) < 0.05
        assert np.max(np.abs((u**2).mean(axis=0) - 1.0 / n)) < 0.02


class TestGeodesic:
    def test_constant_path(self):
        u = og.haar_rotation(4, np.random.default_rng(5))
        path = og.geodesic(u, u)
        assert np.max(np.abs(path.generator)) < 1e-12
        assert np.max(np.abs(path(0.7) - u)) < 1e-12

    def test_planar_quarter_turn_midpoint(self):
        r = lambda t: np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        path = og.geodesic(np.eye(2), r(np.pi / 2))
        assert np.max(np.abs(path(0.5) - r(np.pi / 4))) < 1e-12

    def test_random_pair_grid(self):
        rng = np.random.default_rng(6)
        u0 = og.haar_rotation(4, rng)
        u1 = og.haar_rotation(4, rng)
        path = og.geodesic(u0, u1)
        assert np.max(np.abs(path(1.0) - u1)) < 1e-10
        for s in np.linspace(0, 1, 100):
            assert og.rotation_defect(path(s)) < 1e-10

    @pytest.mark.parametrize("n, angles", HALF_TURNS)
    def test_half_turn_is_one_segment(self, n, angles):
        rng = np.random.default_rng(17)
        u0 = og.haar_rotation(n, rng)
        u1 = u0 @ _plane_turn(n, angles, rng)
        path = og.geodesic(u0, u1)
        assert path.segments == (path,)
        assert np.max(np.abs(path(1.0) - u1)) < 1e-12
        for s in np.linspace(0, 1, 50):
            assert og.rotation_defect(path(s)) < 1e-12

    def test_half_turn_is_reproducible(self, monkeypatch):
        # the path is read from one Schur form: no random draw, same bits
        def no_draw(*args, **kwargs):
            raise AssertionError("geodesic drew a random rotation")

        u1 = _plane_turn(4, [np.pi, 0.7], np.random.default_rng(18))
        monkeypatch.setattr(og.linalg, "haar_rotation", no_draw)
        monkeypatch.setattr(og.linalg, "haar_rotations", no_draw)
        first, second = og.geodesic(np.eye(4), u1), og.geodesic(np.eye(4), u1)
        for s in np.linspace(0, 1, 21):
            assert np.array_equal(first(s), second(s))

    def test_dimension_mismatch(self):
        with pytest.raises(og.DimensionError):
            og.geodesic(np.eye(2), np.eye(3))


class TestClosedFormLog:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_logm_on_haar_rotations(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            r = og.haar_rotation(n, rng)
            k = og.geodesic(np.eye(n), r).generator
            assert np.max(np.abs(k + k.T)) == 0.0
            assert np.max(np.abs(k - _logm_oracle(r))) < 1e-12

    def test_matches_logm_near_half_turn(self):
        r = _plane_turn(5, [np.pi - 1e-6, 0.4], np.random.default_rng(11))
        k = og.geodesic(np.eye(5), r).generator
        assert np.max(np.abs(k - _logm_oracle(r))) < 1e-12

    @pytest.mark.parametrize("gap", [0.0, 1e-10, 5e-9])
    def test_factors_at_and_near_minus_one(self, gap):
        # exp of the factors' generator gives back the rotation, and the
        # eigenvalues -1 of the exact half turns pair into planes at pi
        r = _plane_turn(4, [np.pi - gap, 1.0], np.random.default_rng(12))
        for rot in (r, -np.eye(2), np.diag([1.0, -1.0, -1.0]), -np.eye(4)):
            z, theta = _log_rotation_schur(rot)
            i, j = _planes(theta)
            log_t = np.zeros(rot.shape)
            log_t[j, i], log_t[i, j] = theta, -theta
            assert np.max(np.abs(z @ scipy.linalg.expm(log_t) @ z.T - rot)) < 1e-12
            assert np.max(np.abs(theta)) <= np.pi
        assert sorted(np.abs(theta)) == [np.pi, np.pi]


def _planes(theta):
    """Index arrays of the planes of ``_log_rotation_schur``: the leading column pairs."""
    i = np.arange(0, 2 * theta.shape[-1], 2)
    return i, i + 1


def _kernel_cases(n, rng):
    """(rotation, whether scipy's logm is an accurate reference there)."""
    cases = [(og.haar_rotation(n, rng), True) for _ in range(10)]
    for e in range(3, 16):  # near the identity, 1e-3 down to 1e-15
        cases.append((_plane_turn(n, [10.0 ** -e, 1.3 * 10.0 ** -e][:n // 2], rng), True))
    cases.append((_plane_turn(n, [0.9] * (n // 2), rng), True))  # tied angles
    cases.append((_plane_turn(n, [1e-7], rng), True))  # a single 1e-7 plane
    if n >= 4:  # a tiny plane beside a wide one: eigh mixes the tiny pair
        cases.append((_plane_turn(n, [2.5, 1e-9], rng), True))
    cases.append((_plane_turn(n, [np.pi] * (n // 2), rng), False))  # all half turns
    if n >= 4:
        cases.append((_plane_turn(n, [np.pi, 0.7], rng), False))  # a half turn beside a plane
    for e in range(6, 14):  # 1e-6 to 1e-13 short of a half turn
        cases.append((_plane_turn(n, [np.pi - 10.0 ** -e], rng), e == 6))
    return cases


class TestRotationLogKernel:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
    def test_factors_reconstruct_the_rotation(self, n):
        for r, reference in _kernel_cases(n, np.random.default_rng(400 + n)):
            z, theta = _log_rotation_schur(r)
            i, j = _planes(theta)
            turn, log_t = np.eye(n), np.zeros((n, n))
            turn[i, i] = turn[j, j] = np.cos(theta)
            turn[j, i], turn[i, j] = np.sin(theta), -np.sin(theta)
            log_t[j, i], log_t[i, j] = theta, -theta
            assert np.max(np.abs(z @ turn @ z.T - r)) <= 1e-12
            assert np.max(np.abs(z.T @ z - np.eye(n))) <= 1e-12
            assert np.max(np.abs(theta), initial=0.0) <= np.pi
            if reference:  # the principal logarithm is unique there
                assert np.max(np.abs(z @ log_t @ z.T - _logm_oracle(r))) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_stack_equals_single_calls(self, n, monkeypatch):
        # one mixed stack: Haar draws, near the identity, tied angles, all
        # half turns, just short of a half turn and a lone 1e-7 plane; each
        # rotation chooses its own shift, clusters and polish
        def no_draw(*args, **kwargs):
            raise AssertionError("the logarithm drew a random number")

        cases = [r for r, _ in _kernel_cases(n, np.random.default_rng(600 + n))]
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        stack = np.stack(cases).reshape(-1, 2, n, n)
        z, theta = _log_rotation_schur(stack)
        assert z.shape == stack.shape and theta.shape == stack.shape[:2] + (n // 2,)
        i, j = _planes(theta)
        for idx in np.ndindex(stack.shape[:2]):
            z1, theta1 = _log_rotation_schur(stack[idx])
            assert np.max(np.abs(z[idx] - z1)) <= 1e-14
            assert theta1.shape == (n // 2,)
            assert np.max(np.abs(theta[idx] - theta1), initial=0.0) <= 1e-14
            turn = np.eye(n)
            turn[i, i] = turn[j, j] = np.cos(theta[idx])
            turn[j, i], turn[i, j] = np.sin(theta[idx]), -np.sin(theta[idx])
            assert np.max(np.abs(z[idx] @ turn @ z[idx].T - stack[idx])) <= 1e-12

    def test_same_bits_and_no_random_draw(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("the logarithm drew a random number")

        cases = [r for n in (3, 4, 5, 6, 8)
                 for r, _ in _kernel_cases(n, np.random.default_rng(500 + n))]
        for name in ("haar_rotation", "haar_rotations", "ensure_rng"):
            monkeypatch.setattr(og.linalg, name, no_draw)
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        for r in cases:
            first, second = _log_rotation_schur(r), _log_rotation_schur(r)
            assert all(np.array_equal(a, b) for a, b in zip(first, second))


class TestPathEvaluation:
    S_GRID = np.linspace(0.0, 1.0, 41)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_single_segment_matches_expm(self, n):
        rng = np.random.default_rng(200 + n)
        u0, u1 = og.haar_rotation(n, rng), og.haar_rotation(n, rng)
        path = og.geodesic(u0, u1)
        k = path.generator
        for s in self.S_GRID:
            assert np.max(np.abs(path(s) - u0 @ scipy.linalg.expm(s * k))) < 1e-12

    @pytest.mark.parametrize("n, angles", HALF_TURNS)
    def test_half_turn_matches_expm(self, n, angles):
        rng = np.random.default_rng(13)
        u0 = og.haar_rotation(n, rng)
        path = og.geodesic(u0, u0 @ _plane_turn(n, angles, rng))
        k = path.generator
        for s in self.S_GRID:
            assert np.max(np.abs(path(s) - u0 @ scipy.linalg.expm(s * k))) < 1e-12

    def test_geodesic_factors_once(self, monkeypatch):
        # the log's eigendecomposition is the path's: one factorization
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda *a, **k: calls.append(1) or eigh(*a, **k))
        rng = np.random.default_rng(16)
        og.geodesic(og.haar_rotation(5, rng), og.haar_rotation(5, rng))
        assert len(calls) == 1

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_trig_basis_reconstructs_path(self, n):
        rng = np.random.default_rng(300 + n)
        half_turn = _plane_turn(n, [np.pi] + [0.7] * (n // 2 - 1), rng)
        paths = [og.geodesic(og.haar_rotation(n, rng), og.haar_rotation(n, rng)),
                 og.geodesic(np.eye(n), half_turn)]
        for path in paths:
            basis = path.trig_basis()
            for s in self.S_GRID:
                w = np.concatenate(([1.0], np.cos(s * path.theta), np.sin(s * path.theta)))
                assert np.max(np.abs(np.tensordot(w, basis, 1) - path(s))) < 1e-12


class TestCompleteToRotation:
    def test_single_axis(self):
        w = _completions(np.array([[1.0], [0.0], [0.0]]))
        assert np.allclose(w[:, 0], [1, 0, 0])
        assert og.rotation_defect(w) < 1e-12

    def test_swapped_axes_force_negated_third(self):
        w = _completions(np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]]))
        assert np.allclose(w[:, 0], [0, 1, 0])
        assert np.allclose(w[:, 1], [1, 0, 0])
        assert np.allclose(w[:, 2], [0, 0, -1])

    def test_random_orthonormal_pair(self):
        rng = np.random.default_rng(7)
        q = og.haar_rotation(5, rng)
        w = _completions(q[:, :2])
        assert og.rotation_defect(w) < 1e-10
        assert np.allclose(w[:, 0], q[:, 0])
        assert np.allclose(w[:, 1], q[:, 1])

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_stack_matches_each_matrix(self, k):
        # a stack of completions, some of whose QR factors have determinant -1,
        # is each matrix's own completion bit for bit
        cols = og.haar_rotations(4, 12, np.random.default_rng(k))[..., :k]
        stacked = _completions(cols)
        for c, w in zip(cols, stacked):
            assert w.tobytes() == _completions(c).tobytes()
        assert np.max(og.rotation_defect(stacked)) < 1e-12
        assert np.array_equal(stacked[..., :k], cols)


_M3 = np.random.default_rng(3).standard_normal((3, 3))
_M4 = np.random.default_rng(4).standard_normal((4, 4))
_I3, _I4 = np.eye(3), np.eye(4)
_STRUCTURE = og.MaximizerStructure((1, 2), (2.0, 1.0), np.diag([3.0, 2.0, 1.0]))
# every public entry point taking two or more matrices, given one 3x3 and one 4x4
SIZE_MISMATCHES = {
    "geodesic": lambda: og.geodesic(_I3, _I4),
    "LinearMapSpec": lambda: og.LinearMapSpec((_M3, _M4)),
    "JointOrbitSpec": lambda: og.JointOrbitSpec((_M3, _M4), "O1"),
    "apply_map": lambda: og.apply_map([_M3, _M3], _M4),
    "sample_image": lambda: og.sample_image([_M3, _M3], _M4, 5, 0),
    "reduce_joint": lambda: og.reduce_joint([[_M3]], [_M4], "O1"),
    "ellipse_eu": lambda: og.ellipse_eu(_M3, _M3, _I4),
    "ellipsoid_euv": lambda: og.ellipsoid_euv([_M4, _M4, _M4], _I4, _I3),
    "degenerate_u0": lambda: og.degenerate_u0(_M3, _M4),
    "homotopy_realize-planar": lambda: og.homotopy_realize([_M3, _M3], [0.0, 0.0], _I4),
    "homotopy_realize-ell3": lambda: og.homotopy_realize([_M4] * 3, np.zeros(3), (_I4, _I3)),
    "certify_scaled_point": lambda: og.certify_scaled_point([_M3, _M3], _M3, _I3, _I4, 0.5),
    "star_check": lambda: og.star_check([_M3, _M3], _M4, 1, [0.5], 0),
    "star_check_joint": lambda: og.star_check_joint(
        [[_M4]], og.JointOrbitSpec((_M3,), "O3"), 1, [0.5], 0),
    "max_trace": lambda: og.max_trace(_M3, _M4),
    "argmax_frames": lambda: og.argmax_frames(_M3, _M4),
    "max_trace_bruteforce": lambda: og.max_trace_bruteforce(_M3, _M4, starts=2, rng=0),
    "support_boundary": lambda: og.support_boundary(_M3, _M3, _M4),
    "convexity_check": lambda: og.convexity_check(_M3, _M3, _M4, samples=10, rng=0),
    "gamma_verify": lambda: og.gamma_verify(_M4, _STRUCTURE),
    "block_decompose": lambda: og.block_decompose(_M4, np.diag([3.0, 2.0, 1.0]), 1),
}


@pytest.mark.parametrize("call", SIZE_MISMATCHES.values(), ids=SIZE_MISMATCHES.keys())
def test_size_mismatch_names_every_shape(call):
    with pytest.raises(og.DimensionError) as info:
        call()
    assert "(3, 3)" in str(info.value) and "(4, 4)" in str(info.value)


def test_all_is_the_public_imports():
    # __all__ is derived from the package's imports: no submodule and no
    # private name, and a star import binds exactly it
    assert len(og.__all__) == len(set(og.__all__)) > 0
    for name in og.__all__:
        assert not name.startswith("_") and not isinstance(getattr(og, name), type(og))
    scope = {}
    exec("from orbitgeom import *", scope)
    assert sorted(k for k in scope if k != "__builtins__") == sorted(og.__all__)


# the public names, module by module: a name added to or removed from the API
# shows in this table
_PUBLIC = {
    "config": "Tolerances tolerances",
    "linalg": "DimensionError NumericalError PreconditionError RotationPath SignedSVD "
              "geodesic haar_rotation haar_rotations require_rotation rotation_defect "
              "signed_svd",
    "orbits": "JointOrbitSpec LinearMapSpec PointCloud apply_map reduce_joint sample_image",
    "ellipsoids": "EllipsoidCurve MembershipResult angles_from_unit degenerate_u0 "
                  "degenerate_uv ellipse_eu ellipsoid_euv membership recursive_rotation "
                  "spherical_coeffs spherical_point",
    "certify": "Certificate StarReport certify_scaled_point homotopy_realize star_check "
               "star_check_joint",
    "boundary": "BlockDecomposition ConvexityReport DiagonalHullQuery GammaVerifyReport "
                "MaximizerStructure SupportRegion ThompsonResult argmax_frames "
                "block_decompose convexity_check counterexample_report diagonal_sum "
                "gamma_build gamma_sample gamma_sample_factors gamma_value gamma_verify "
                "max_trace max_trace_bruteforce nonconvex_joint_instance "
                "nonconvex_planar_map support_boundary thompson_membership "
                "thompson_vertices",
}


def test_public_surface():
    surface = {name: f"orbitgeom.{module}" for module, names in _PUBLIC.items()
               for name in names.split()}
    assert sorted(og.__all__) == sorted(surface)
    assert {name: getattr(og, name).__module__ for name in og.__all__} == surface


@pytest.mark.parametrize("call,cls,message", [
    pytest.param(lambda: og.require_rotation([[np.nan]], "U"), ValueError,
                 "U contains non-finite entries", id="non-finite"),
    pytest.param(lambda: og.haar_rotation(0, 0), ValueError, "n must be positive, got 0",
                 id="haar-size"),
    pytest.param(lambda: og.haar_rotations(3, -1, 0), ValueError,
                 "count must be nonnegative, got -1", id="haar-count"),
    pytest.param(lambda: og.geodesic(np.eye(3), np.eye(3))(1.5), ValueError,
                 "path parameter must be in [0, 1], got 1.5", id="path-parameter"),
])
def test_input_checks(call, cls, message):
    """Each check raises its class with its message (checks no other test reaches)."""
    with pytest.raises(cls, match=re.escape(message)) as info:
        call()
    assert type(info.value) is cls
