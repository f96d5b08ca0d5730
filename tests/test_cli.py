import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import orbitgeom
from orbitgeom import certify
from orbitgeom import serialize as ser
from orbitgeom.cli import build_parser, main


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(ser.dump_json(payload) if isinstance(payload, dict) else payload)
    return str(path)


def _mat(m):
    return ser.matrix_to_json(np.asarray(m, dtype=float))


def _e(i, j, n=2):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


@pytest.fixture
def circle_input(tmp_path):
    return _write(
        tmp_path,
        "circle.json",
        {"A": _mat(np.eye(2)), "map": {"P": [_mat(_e(0, 0)), _mat(_e(1, 0))]}},
    )


class TestSample:
    def test_csv_unit_circle(self, tmp_path, circle_input, capsys):
        out = tmp_path / "cloud.csv"
        rc = main(["sample", "--input", circle_input, "--seed", "1",
                   "--samples", "100", "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x1,x2"
        pts = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        assert pts.shape == (100, 2)
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-9

    def test_json_is_the_sampled_cloud(self, tmp_path, circle_input):
        out = tmp_path / "cloud.json"
        rc = main(["sample", "--input", circle_input, "--seed", "1",
                   "--samples", "100", "--format", "json", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert (payload["count"], payload["seed"]) == (100, 1)
        assert payload["tolerances"] == orbitgeom.tolerances.as_dict()
        cloud = orbitgeom.sample_image([_e(0, 0), _e(1, 0)], np.eye(2), 100,
                                       np.random.default_rng(1))
        assert np.array_equal(payload["points"], cloud.points)

    def test_group_key_is_ignored(self, tmp_path):
        # sample reads no "group" key: the orbit under det-matched orthogonal
        # factors is the rotation orbit, so the key is ignored like any other
        # key the command does not read
        payload = {"A": _mat([[2.0, 1.0], [0.0, -1.0]]),
                   "map": {"P": [_mat(_e(0, 0)), _mat(_e(1, 0))]}}
        texts = []
        for name, extra in (("plain.json", {}), ("group.json", {"group": "O"})):
            path = _write(tmp_path, name, {**payload, **extra})
            out = tmp_path / "out.json"
            assert main(["sample", "--input", path, "--seed", "4", "--samples", "50",
                         "--out", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_svg_draws_every_point(self, tmp_path, circle_input):
        out = tmp_path / "cloud.svg"
        rc = main(["sample", "--input", circle_input, "--seed", "1",
                   "--samples", "100", "--format", "svg", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("<svg") and text.count("<circle") == 100
        assert "<polyline" not in text and "<polygon" not in text

    @pytest.mark.parametrize("samples", ["10", "11"])
    def test_svg_refuses_one_coordinate(self, tmp_path, capsys, samples):
        # a (count, 1) cloud has no second coordinate to plot; it used to be
        # reshaped into fake pairs (even counts) or crash (odd counts)
        path = _write(tmp_path, "line.json",
                      {"A": _mat(np.eye(2)), "map": {"P": [_mat(_e(0, 0))]}})
        out = tmp_path / "line.svg"
        rc = main(["sample", "--input", path, "--seed", "1", "--samples", samples,
                   "--format", "svg", "--out", str(out)])
        assert rc == 2
        assert "two map coordinates" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_required(self, circle_input, capsys):
        rc = main(["sample", "--input", circle_input, "--samples", "10"])
        assert rc == 2
        assert "--seed" in capsys.readouterr().err


class TestInputErrors:
    def test_malformed_json_reports_position(self, tmp_path, capsys):
        bad = _write(tmp_path, "bad.json", '{"A": [1, 2,\n  }')
        rc = main(["sample", "--input", bad, "--seed", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_dimension_mismatch_names_shapes(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            "mismatch.json",
            {"A": _mat(np.eye(3)), "map": {"P": [_mat(np.eye(2)), _mat(np.eye(2))]}},
        )
        rc = main(["sample", "--input", path, "--seed", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "(2, 2)" in err and "(3, 3)" in err

    def test_missing_file(self, capsys):
        rc = main(["sample", "--input", "/nonexistent.json", "--seed", "1"])
        assert rc == 2


class TestStarCheckCommand:
    def test_report_and_exit_zero(self, tmp_path, circle_input):
        path = _write(
            tmp_path,
            "star.json",
            {
                "A": _mat(np.eye(3)),
                "map": {"P": [_mat(np.diag([1.0, 0, 0])), _mat(np.diag([0, 1.0, 0]))]},
            },
        )
        out = tmp_path / "report.json"
        rc = main(["star-check", "--input", path, "--seed", "7", "--samples", "3",
                   "--alpha", "0,0.5,1", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["num_failures"] == 0
        assert payload["max_residual"] <= 1e-8
        assert payload["seed"] == 7
        assert "tolerances" in payload


    def test_failed_targets_write_strict_json(self, tmp_path, monkeypatch):
        # an unreachable residual bound fails every target; their residuals and
        # the maximum over no passing target are null, never a bare NaN
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        rng = np.random.default_rng(23)
        star = _write(tmp_path, "star.json", {
            "A": _mat(rng.standard_normal((3, 3))),
            "map": {"P": [_mat(rng.standard_normal((3, 3))) for _ in range(2)]},
        })
        joint = _write(tmp_path, "joint.json", {
            "A_list": [_mat(rng.standard_normal((3, 3))) for _ in range(2)],
            "maps": [[_mat(rng.standard_normal((3, 3))) for _ in range(2)] for _ in range(2)],
            "kind": "O3",
        })
        monkeypatch.setattr(certify, "tolerances",
                            dataclasses.replace(orbitgeom.tolerances, certificate_residual=1e-300))
        for sub, path in (("star-check", star), ("joint", joint)):
            out = tmp_path / f"{sub}.json"
            rc = main([sub, "--input", path, "--seed", "3", "--samples", "2",
                       "--alpha", "0.5", "--out", str(out)])
            assert rc == 1
            payload = json.loads(out.read_text(), parse_constant=refuse)
            assert payload["num_failures"] == 2
            assert payload["max_residual"] is None
            assert all(r["residual"] is None for r in payload["results"])


    def test_negative_samples_is_an_input_error(self, tmp_path, capsys):
        path = _write(tmp_path, "star.json", {
            "A": _mat(np.eye(3)),
            "map": {"P": [_mat(np.diag([1.0, 0, 0])), _mat(np.diag([0, 1.0, 0]))]},
        })
        out = tmp_path / "report.json"
        assert main(["star-check", "--input", path, "--seed", "7", "--samples", "-1",
                     "--out", str(out)]) == 2
        assert "num_targets must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestCertifyCommand:
    def test_fixed_frames(self, tmp_path):
        rng = np.random.default_rng(0)
        from orbitgeom import haar_rotation

        u, v = haar_rotation(3, rng), haar_rotation(3, rng)
        path = _write(
            tmp_path,
            "cert.json",
            {
                "A": _mat(np.diag([3.0, 2.0, 1.0])),
                "map": {"P": [_mat(rng.standard_normal((3, 3))) for _ in range(2)]},
                "U": _mat(u),
                "V": _mat(v),
                "alpha": 0.5,
            },
        )
        out = tmp_path / "cert_out.json"
        rc = main(["certify", "--input", path, "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["ok"]
        assert payload["residual"] <= 1e-8
        assert {"target", "achieved", "witness", "iterations"} <= set(payload)

    @pytest.mark.parametrize("alpha", [[0.5], {}, "0.5", True],
                             ids=["list", "object", "string", "bool"])
    def test_alpha_must_be_a_json_number(self, tmp_path, capsys, alpha):
        # a list or an object once crashed with a TypeError traceback (exit 1),
        # and a string or a bool was silently read as a number
        path = _write(tmp_path, "cert.json", {
            "A": _mat(np.eye(3)),
            "map": {"P": [_mat(np.diag([1.0, 0, 0])), _mat(np.diag([0, 1.0, 0]))]},
            "alpha": alpha,
        })
        out = tmp_path / "cert_out.json"
        assert main(["certify", "--input", path, "--out", str(out), "--seed", "1"]) == 2
        assert f"'alpha' must be a number, got {alpha!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("given, missing", [("U", "V"), ("V", "U")])
    @pytest.mark.parametrize("seed", [None, "3"])
    def test_a_lone_frame_is_an_input_error(self, tmp_path, capsys, given, missing, seed):
        # a lone frame was once dropped and both frames drawn from --seed, so
        # even a non-rotation exited 0 unchecked
        path = _write(tmp_path, "cert.json", {
            "A": _mat(np.eye(3)),
            "map": {"P": [_mat(np.diag([1.0, 0, 0])), _mat(np.diag([0, 1.0, 0]))]},
            given: _mat(2.0 * np.eye(3)),
            "alpha": 0.5,
        })
        out = tmp_path / "cert_out.json"
        argv = ["certify", "--input", path, "--out", str(out)]
        assert main(argv + (["--seed", seed] if seed else [])) == 2
        assert f"missing key '{missing}'" in capsys.readouterr().err
        assert not out.exists()


class TestGeometryCommands:
    def test_ellipse(self, tmp_path):
        path = _write(
            tmp_path,
            "ellipse.json",
            {"P": _mat(_e(0, 0)), "Q": _mat(_e(1, 0)), "U": _mat(np.eye(2))},
        )
        out = tmp_path / "ellipse_out.json"
        rc = main(["ellipse", "--input", path, "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["degenerate"] is False
        assert payload["shape"]["data"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_ellipse_svg_is_one_polyline_of_360_points(self, tmp_path):
        path = _write(
            tmp_path,
            "ellipse.json",
            {"P": _mat(_e(0, 0)), "Q": _mat(_e(1, 0)), "U": _mat(np.eye(2))},
        )
        runs = []
        for k in range(2):
            out = tmp_path / f"ellipse{k}.svg"
            assert main(["ellipse", "--input", path, "--format", "svg", "--out", str(out)]) == 0
            runs.append(out.read_bytes())
        assert runs[0] == runs[1]
        text = runs[0].decode()
        assert text.count("<polyline") == 1
        assert "<polygon" not in text and "<circle" not in text
        coords = re.search(r'<polyline points="([^"]*)"', text).group(1).split()
        xy = np.array([[float(c) for c in pair.split(",")] for pair in coords])
        assert xy.shape == (360, 2)
        # mapped back through the recorded transform, every point is on the unit circle
        meta = json.loads(re.search(r"<metadata>(.*)</metadata>", text).group(1))
        data = (xy - 400.0) * [1.0, -1.0] / meta["scale"] + meta["center"]
        assert np.allclose(np.hypot(*data.T), 1.0, rtol=0, atol=1e-6)
        assert np.array_equal(xy[0], xy[-1])

    def test_degenerate_planar(self, tmp_path):
        rng = np.random.default_rng(1)
        path = _write(
            tmp_path,
            "degen.json",
            {"P": _mat(rng.standard_normal((3, 3))), "Q": _mat(rng.standard_normal((3, 3)))},
        )
        out = tmp_path / "degen_out.json"
        rc = main(["degenerate", "--input", path, "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert abs(payload["shape_det"]) <= 1e-10

    def test_degenerate_two_sided(self, tmp_path):
        rng = np.random.default_rng(2)
        path = _write(tmp_path, "degen2.json", {"P1": _mat(rng.standard_normal((4, 4)))})
        out = tmp_path / "degen2_out.json"
        rc = main(["degenerate", "--input", path, "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["first_row_norm"] <= 1e-10

    def test_maxtrace(self, tmp_path):
        path = _write(
            tmp_path,
            "mt.json",
            {"P": _mat(np.diag([1.0, 1.0, -1.0])), "A": _mat(np.diag([3.0, 2.0, 1.0]))},
        )
        out = tmp_path / "mt_out.json"
        rc = main(["maxtrace", "--input", path, "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["value"] == 4.0
        assert abs(payload["achieved"] - 4.0) < 1e-10

    def test_thompson(self, tmp_path):
        path = _write(
            tmp_path,
            "th.json",
            {"A": _mat(np.diag([3.0, 2.0, 1.0])), "d": [3.0, 2.0, 1.0]},
        )
        out = tmp_path / "th_out.json"
        rc = main(["thompson", "--input", path, "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["member"] is True

    def test_gamma(self, tmp_path):
        path = _write(
            tmp_path,
            "gamma.json",
            {"P": _mat(np.diag([3.0, 3.0, 1.0, 0.0])), "A": _mat(np.diag([4.0, 3.0, 2.0, 1.0]))},
        )
        out = tmp_path / "gamma_out.json"
        rc = main(["gamma", "--input", path, "--seed", "3", "--samples", "10",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["all_verified"]
        assert payload["r"] == 23.0

    def test_gamma_without_samples_is_an_input_error(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            "gamma.json",
            {"P": _mat(np.diag([3.0, 3.0, 1.0, 0.0])), "A": _mat(np.diag([4.0, 3.0, 2.0, 1.0]))},
        )
        assert main(["gamma", "--input", path, "--seed", "3", "--samples", "0"]) == 2
        assert "samples must be at least 1, got 0" in capsys.readouterr().err

    def test_gamma_far_from_unit_scale(self, tmp_path):
        # det(A) and its band once overflowed here and the command crashed
        path = _write(tmp_path, "gamma.json", {"P": _mat(np.diag([2.0, 1.0, 0.0])),
                                               "A": _mat(1e120 * np.diag([3.0, 2.0, -1.0]))})
        out = tmp_path / "gamma_out.json"
        assert main(["gamma", "--input", path, "--seed", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["all_verified"] is True

    def test_boundary_csv(self, tmp_path):
        path = _write(
            tmp_path,
            "bd.json",
            {"A": _mat(np.eye(2)), "P": _mat(_e(0, 0)), "Q": _mat(_e(1, 0))},
        )
        out = tmp_path / "bd.csv"
        rc = main(["boundary", "--input", path, "--grid", "16", "--format", "csv",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "theta,r,touch_x,touch_y"
        assert len(lines) == 17

    def test_boundary_svg(self, tmp_path):
        path = _write(
            tmp_path,
            "bd2.json",
            {"A": _mat(np.eye(2)), "P": _mat(_e(0, 0)), "Q": _mat(_e(1, 0))},
        )
        out = tmp_path / "bd.svg"
        rc = main(["boundary", "--input", path, "--grid", "16", "--format", "svg",
                   "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("<svg")
        assert 'viewBox="0 0 800 800"' in text


class TestMoreGeometryCommands:
    def test_ellipse_two_sided(self, tmp_path):
        rng = np.random.default_rng(9)
        path = _write(
            tmp_path,
            "euv.json",
            {
                "map": {"P": [_mat(rng.standard_normal((4, 4))) for _ in range(3)]},
                "U": _mat(np.eye(4)),
                "V": _mat(np.eye(4)),
            },
        )
        out = tmp_path / "euv_out.json"
        rc = main(["ellipse", "--input", path, "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "euv"
        assert payload["center"] == [0.0, 0.0, 0.0]

    def test_convexity(self, tmp_path):
        rng = np.random.default_rng(10)
        path = _write(
            tmp_path,
            "cvx.json",
            {
                "A": _mat(np.diag([3.0, 2.0, 1.0])),
                "P": _mat(rng.standard_normal((3, 3))),
                "Q": _mat(rng.standard_normal((3, 3))),
            },
        )
        out = tmp_path / "cvx_out.json"
        rc = main(["convexity", "--input", path, "--seed", "4", "--samples", "2000",
                   "--grid", "180", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["support_violation"] <= 1e-8
        assert rc in (0, 1)  # the hull under-fills at tiny sample counts

    def test_convexity_without_samples_is_an_input_error(self, tmp_path, capsys):
        path = _write(tmp_path, "cvx.json", {"A": _mat(np.eye(3)), "P": _mat(np.eye(3)),
                                             "Q": _mat(np.eye(3))})
        assert main(["convexity", "--input", path, "--seed", "4", "--samples", "0"]) == 2
        assert "samples must be at least 1" in capsys.readouterr().err

    def test_joint_o3(self, tmp_path):
        a1 = np.zeros((3, 3)); a1[0, 0] = 1.0
        a2 = np.zeros((3, 3)); a2[1, 1] = 1.0
        path = _write(
            tmp_path,
            "joint3.json",
            {
                "A_list": [_mat(a1), _mat(a2)],
                "maps": [[_mat(a1), _mat(a2)], [_mat(a2), _mat(-a1)]],
                "kind": "O3",
            },
        )
        out = tmp_path / "joint3_out.json"
        rc = main(["joint", "--input", path, "--seed", "12", "--samples", "3",
                   "--alpha", "0,1", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert "reduced_map" not in payload
        assert payload["num_failures"] == 0

    def test_thompson_reject(self, tmp_path):
        path = _write(
            tmp_path,
            "th2.json",
            {"s": [3.0, 2.0, 1.0], "det_sign": 1, "d": [6.5, 0.0, 0.0]},
        )
        out = tmp_path / "th2_out.json"
        rc = main(["thompson", "--input", path, "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["member"] is False
        assert payload["margin"] > 0

    @pytest.mark.parametrize("d", [[3.0, 2.0, -1.0], [6.5, 0.0, 0.0]])
    def test_thompson_a_alone_is_its_s_and_det_sign(self, tmp_path, d):
        # A and the s + det_sign it gives write the same bytes, member or not
        a = np.array([[0.0, 3.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        texts = []
        for name, keys in (("a.json", {"A": _mat(a)}),
                           ("s.json", {"s": [3.0, 2.0, 1.0], "det_sign": -1})):
            out = tmp_path / f"{name}.out"
            path = _write(tmp_path, name, {"d": d, **keys})
            assert main(["thompson", "--input", path, "--out", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_thompson_refuses_fractional_det_sign(self, tmp_path, capsys):
        # 0.5 is no determinant sign; it used to be truncated to 0
        path = _write(tmp_path, "th3.json", {"d": [1, 2, 3], "s": [3, 2, 1], "det_sign": 0.5})
        out = tmp_path / "th3_out.json"
        assert main(["thompson", "--input", path, "--out", str(out)]) == 2
        assert "det_sign must be -1, 0, or +1, got 0.5" in capsys.readouterr().err
        assert not out.exists()

    def test_thompson_a_keeps_its_sign_at_small_scale(self, tmp_path):
        # det(1e-9 A) underflows to -0.0 at n = 40, which once dropped the
        # parity inequality and called the wrong-parity vertex d = s a member
        a = np.random.default_rng(40).standard_normal((40, 40))
        if np.linalg.det(a) > 0:
            a[0] *= -1.0
        margins = []
        for c in (1.0, 1e-9):
            s = np.linalg.svd(c * a, compute_uv=False)
            path = _write(tmp_path, "th40.json", {"A": _mat(c * a), "d": s.tolist()})
            out = tmp_path / "th40_out.json"
            assert main(["thompson", "--input", path, "--out", str(out)]) == 0
            payload = json.loads(out.read_text())
            assert payload["member"] is False
            margins.append(payload["margin"])
        assert margins[1] == pytest.approx(1e-9 * margins[0], rel=1e-12)

    def test_thompson_a_with_zero_pivot_spans_both_parities(self, tmp_path):
        # LU meets a zero pivot, so det_sign is 0 and the vertices of both
        # parities count, though the last signed singular value is 3.3e-16
        a = np.arange(1.0, 10.0).reshape(3, 3)
        s = np.linalg.svd(a, compute_uv=False)
        texts = []
        for name, keys in (("a.json", {"A": _mat(a)}),
                           ("s.json", {"s": s.tolist(), "det_sign": 0})):
            out = tmp_path / f"{name}.out"
            path = _write(tmp_path, name, {"d": [1.0, 1.0, 0.0], **keys})
            assert main(["thompson", "--input", path, "--out", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
        weights = np.array(json.loads(texts[0])["weights"])
        parity = np.sum(orbitgeom.thompson_vertices(s, 0) < 0, axis=1) % 2
        assert len(weights) == 48
        assert set(parity[weights > 0]) == {0, 1}


class TestCounterexampleCommand:
    def test_ell3(self, tmp_path):
        out = tmp_path / "ce.json"
        rc = main(["counterexample", "ell3", "--n", "3", "--seed", "5",
                   "--starts", "32", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["endpoints"] == [[1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]
        assert payload["midpoint_distance_estimate"] >= 1e-3

    def test_joint_reads_m(self, tmp_path):
        # m = 2 unless --m is given; only the joint instance has an m
        for extra, m in (([], 2), (["--m", "3"], 3)):
            out = tmp_path / f"ce{m}.json"
            assert main(["counterexample", "joint", "--seed", "5", "--starts", "8", *extra,
                         "--out", str(out)]) == 0
            assert json.loads(out.read_text())["m"] == m


class TestJointCommand:
    def test_o1_includes_reduced_map(self, tmp_path):
        rng = np.random.default_rng(6)
        path = _write(
            tmp_path,
            "joint.json",
            {
                "A_list": [_mat(np.eye(3))],
                "maps": [[_mat(rng.standard_normal((3, 3)))] for _ in range(2)],
                "kind": "O1",
            },
        )
        out = tmp_path / "joint_out.json"
        rc = main(["joint", "--input", path, "--seed", "8", "--samples", "3",
                   "--alpha", "0.5,1", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert "reduced_map" in payload
        assert payload["num_failures"] == 0


_SCIPY_FREE_CALLS = """
import importlib.abc, json, os, sys, tempfile


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"refused import of {name}")
        return None


sys.meta_path.insert(0, RefuseScipy())
import numpy as np
import orbitgeom as og, orbitgeom.cli, orbitgeom.serialize
rng = np.random.default_rng(3)
for n in (3, 4, 5):
    p, q = rng.standard_normal((2, n, n))
    u, v = og.haar_rotation(n, rng), og.haar_rotation(n, rng)
    assert og.certify_scaled_point([p, q], np.diag(np.arange(n, 0, -1.0)), u, v,
                                   0.5).residual <= 1e-8
rep = og.star_check(list(rng.standard_normal((3, 4, 4))), np.eye(4), 2, [0.5, 1.0], rng)
assert rep.results and not rep.failures
p, q = rng.standard_normal((2, 3, 3))
og.convexity_check(p, q, np.diag([3.0, 2.0, 1.0]), samples=2000, rng=rng, grid=90)
og.max_trace_bruteforce(p, np.eye(3), starts=4, rng=rng)
og.counterexample_report("ell3", n=3, rng=rng, starts=4)
assert not og.thompson_membership(og.DiagonalHullQuery([3.0, 0, 0], [1.0, 1, 1], 1)).member
s = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
assert og.thompson_membership(og.DiagonalHullQuery(0.5 * s, s, 1)).weights.max() > 0.0
a1, a2 = np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0])
mat = og.serialize.matrix_to_json
inputs = {
    "star-check": {"A": mat(np.diag([3.0, 2.0, 1.0])), "map": {"P": [mat(a1), mat(a2)]}},
    "joint": {"A_list": [mat(a1), mat(a2)], "kind": "O3",
              "maps": [[mat(a1), mat(a2)], [mat(a2), mat(-a1)]]},
}
with tempfile.TemporaryDirectory() as tmp:
    member = os.path.join(tmp, "member.json")
    with open(member, "w") as f:
        json.dump({"d": [2.0, 1.0, 0.5], "s": [3.0, 2.0, 1.0], "det_sign": 1}, f)
    out = os.path.join(tmp, "out.json")
    assert orbitgeom.cli.main(["thompson", "--input", member, "--out", out]) == 0
    with open(out) as f:
        assert json.load(f)["member"]
    for sub, payload in inputs.items():
        path, out = os.path.join(tmp, sub + ".json"), os.path.join(tmp, sub + "_out.json")
        with open(path, "w") as f:
            json.dump(payload, f)
        assert orbitgeom.cli.main([sub, "--input", path, "--seed", "5", "--samples", "2",
                                   "--alpha", "0.5,1", "--out", out]) == 0
        with open(out) as f:
            assert json.load(f)["num_failures"] == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_no_scipy_module_loads():
    # a fresh interpreter that refuses every scipy import: planar
    # certificates at n = 3, 4 and 5 (each builds geodesics), an ell = 3
    # star check, `orbitgeom star-check` and `joint` O3, the sampled
    # convexity check, the oracles and a member's Thompson weights (by call
    # and by `orbitgeom thompson`)
    src = os.path.dirname(os.path.dirname(orbitgeom.__file__))
    out = subprocess.run([sys.executable, "-c", _SCIPY_FREE_CALLS], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split("\n")[:1] == ["[]"]


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, circle_input):
        star_input = _write(
            tmp_path,
            "star.json",
            {
                "A": _mat(np.diag([3.0, 2.0, 1.0])),
                "map": {"P": [_mat(np.diag([1.0, 0, 0])), _mat(np.diag([0, 1.0, 0]))]},
            },
        )
        runs = [
            ["sample", "--input", circle_input, "--seed", "11", "--samples", "50",
             "--format", "csv"],
            ["star-check", "--input", star_input, "--seed", "11", "--samples", "2",
             "--alpha", "0.5,1"],
            ["counterexample", "ell3", "--n", "3", "--seed", "11", "--starts", "16"],
        ]
        for k, argv in enumerate(runs):
            out1 = tmp_path / f"out{k}_1"
            out2 = tmp_path / f"out{k}_2"
            assert main(argv + ["--out", str(out1)]) == 0
            assert main(argv + ["--out", str(out2)]) == 0
            assert out1.read_bytes() == out2.read_bytes()

    def test_threads_flag_is_accepted_and_ignored(self, tmp_path):
        star_input = _write(
            tmp_path,
            "star.json",
            {
                "A": _mat(np.diag([3.0, 2.0, 1.0])),
                "map": {"P": [_mat(np.diag([1.0, 0, 0])), _mat(np.diag([0, 1.0, 0]))]},
            },
        )
        a1 = np.zeros((3, 3)); a1[0, 0] = 1.0
        a2 = np.zeros((3, 3)); a2[1, 1] = 1.0
        joint_input = _write(
            tmp_path,
            "joint3.json",
            {
                "A_list": [_mat(a1), _mat(a2)],
                "maps": [[_mat(a1), _mat(a2)], [_mat(a2), _mat(-a1)]],
                "kind": "O3",
            },
        )
        for sub, path in (("star-check", star_input), ("joint", joint_input)):
            outs = []
            for threads in ("1", "3"):
                out = tmp_path / f"{sub}_{threads}.json"
                assert main([sub, "--input", path, "--seed", "5", "--samples", "3",
                             "--alpha", "0,0.5,1", "--threads", threads,
                             "--out", str(out)]) == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1]


# Each subcommand's options, as README's CLI table lists them
_SURFACE = {
    "sample": "--input --seed --out --format --samples",
    "boundary": "--input --out --format --grid",
    "ellipse": "--input --out --format",
    "star-check": "--input --seed --out --samples --alpha --threads",
    "joint": "--input --seed --out --samples --alpha --threads",
    "certify": "--input --seed --out --alpha --no-witness",
    "degenerate": "--input --out",
    "maxtrace": "--input --out",
    "thompson": "--input --out",
    "gamma": "--input --seed --out --samples",
    "counterexample": "kind --n --m --ell --starts --seed --out",
    "convexity": "--input --seed --out --samples --grid",
}


class TestSurface:
    @staticmethod
    def _subparsers():
        parser = build_parser()
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_each_subcommand_parses_only_the_options_it_reads(self):
        options = {
            name: {a.option_strings[0] if a.option_strings else a.dest
                   for a in sp._actions if not isinstance(a, argparse._HelpAction)}
            for name, sp in self._subparsers().items()
        }
        assert options == {name: set(opts.split()) for name, opts in _SURFACE.items()}
        assert sum(len(opts) for opts in options.values()) == 51

    def test_format_choices(self):
        subparsers = self._subparsers()
        for name, choices in (("sample", ("json", "csv", "svg")),
                              ("boundary", ("json", "csv", "svg")), ("ellipse", ("json", "svg"))):
            fmt = next(a for a in subparsers[name]._actions if "--format" in a.option_strings)
            assert (fmt.choices, fmt.default) == (choices, "json")

    @pytest.mark.parametrize("argv", [
        ["star-check", "--input", "star.json", "--seed", "1", "--format", "csv"],
        ["ellipse", "--input", "ellipse.json", "--format", "csv"],
        ["boundary", "--input", "planar.json", "--seed", "1"],
        ["boundary", "--input", "planar.json", "--tol", "1e-3"],
        ["maxtrace", "--input", "planar.json", "--threads", "2"],
        ["counterexample", "ell3", "--seed", "1", "--starts", "4", "--input", "x.json"],
        ["certify", "--input", "star.json", "--alpha", "0.5", "--seed", "1", "--threads", "2"],
        ["convexity", "--input", "planar.json", "--seed", "1", "--samples", "50",
         "--format", "svg"],
        ["thompson", "--input", "thompson.json", "--format", "csv"],
        ["star-check", "--input", "star.json", "--seed", "1", "--samples", "1",
         "--tol", "1e-3"],
        ["joint", "--input", "joint.json", "--seed", "1", "--samples", "1", "--tol", "1e-3"],
        ["certify", "--input", "star.json", "--alpha", "0.5", "--seed", "1", "--tol", "1e-3"],
        ["ellipse", "--input", "ellipse.json", "--format", "svg", "--grid", "16"],
        ["counterexample", "ell3", "--seed", "1", "--starts", "4", "--m", "2"],
    ], ids=lambda argv: " ".join(a for a in argv if a.startswith("-") or a == argv[0]))
    def test_unread_flag_exits_2_and_writes_nothing(self, tmp_path, capsys, argv):
        # each call is valid without its last flag, which the subcommand does not read
        inputs = {
            "star.json": {"A": _mat(np.eye(3)), "map": {"P": [_mat(np.diag([1.0, 0, 0])),
                                                              _mat(np.diag([0, 1.0, 0]))]}},
            "ellipse.json": {"P": _mat(_e(0, 0)), "Q": _mat(_e(1, 0)), "U": _mat(np.eye(2))},
            "planar.json": {"A": _mat(np.eye(3)), "P": _mat(np.eye(3)), "Q": _mat(np.eye(3))},
            "thompson.json": {"A": _mat(np.diag([3.0, 2.0, 1.0])), "d": [3.0, 2.0, 1.0]},
            "joint.json": {"A_list": [_mat(np.eye(3))], "kind": "O3",
                           "maps": [[_mat(np.diag([1.0, 0, 0]))], [_mat(np.diag([0, 1.0, 0]))]]},
        }
        argv = [_write(tmp_path, a, inputs[a]) if a in inputs else a for a in argv]
        assert main(argv[:-2] + ["--out", str(tmp_path / "valid")]) in (0, 1)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "invalid choice" in err
        assert not out.exists()


_STAR = {"A": _mat(np.eye(3)), "map": {"P": [_mat(np.diag([1.0, 0, 0])),
                                          _mat(np.diag([0, 1.0, 0]))]}}
_PLANAR = {"A": _mat(np.eye(3)), "P": _mat(np.eye(3)), "Q": _mat(np.eye(3))}
_JOINT = {"A_list": [_mat(np.eye(3))], "kind": "O3",
          "maps": [[_mat(np.diag([1.0, 0, 0]))], [_mat(np.diag([0, 1.0, 0]))]]}
_STRINGS = {"rows": 2, "cols": 2, "data": [["1", "0"], ["0", "1"]]}
# the flags a subcommand needs besides --input and --out
_NEEDS = {"joint": ["--seed", "1"], "certify": ["--seed", "1", "--alpha", "0.5"]}


def _refused(tmp_path, capsys, argv, payload, message):
    """Run argv on the input file holding payload: exit 2, one error line, no output."""
    path = _write(tmp_path, "in.json", payload if isinstance(payload, dict)
                  else json.dumps(payload))
    out = tmp_path / "out"
    rc = main([argv[0], "--input", path, *argv[1:], "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("argv,payload,message", [
    *[pytest.param([sub, *_NEEDS.get(sub, [])], top, "expected a JSON object at the top level",
                   id=f"{sub}-top-{kind}")
      for sub in ("maxtrace", "boundary", "joint", "certify")
      for top, kind in ((5, "number"), (None, "null"), ("ABC", "string"))],
    pytest.param(["maxtrace"], {**_PLANAR, "P": {"rows": None, "cols": 3, "data": []}},
                 "P: rows and cols must be integers, got (None, 3)", id="rows-null"),
    pytest.param(["maxtrace"], {**_PLANAR, "P": {"rows": 1, "cols": 1, "data": {}}},
                 "P: data must be a list of rows of numbers", id="data-object"),
    pytest.param(["star-check", "--seed", "1"], {**_STAR, "map": {"P": 5}},
                 "map: expected an object with a 'P' list", id="map-p-number"),
    pytest.param(["thompson"], {"d": {"x": 1}, "s": [1.0]}, "'d' must be a list of numbers",
                 id="thompson-d-object"),
    pytest.param(["thompson"], {"d": [1.0], "s": [{}]}, "'s' must be a list of numbers",
                 id="thompson-s-object"),
    pytest.param(["joint", "--seed", "1"], {**_JOINT, "A_list": 5},
                 "joint input needs 'A_list' (matrices) and 'maps'", id="joint-a-list-number"),
    pytest.param(["joint", "--seed", "1"], {**_JOINT, "maps": [5, 6]},
                 "joint input needs 'A_list' (matrices) and 'maps'", id="joint-maps-numbers"),
    # a number is a JSON int or float, never a bool or a numeric string
    pytest.param(["thompson"], {"d": [1.0, 0.5], "s": [2.0, 1.0], "det_sign": True},
                 "'det_sign' must be a number, got True", id="thompson-det-sign-true"),
    pytest.param(["thompson"], {"d": [1.0, 0.5], "s": [2.0, 1.0], "det_sign": "1"},
                 "'det_sign' must be a number, got '1'", id="thompson-det-sign-string"),
    pytest.param(["maxtrace"], {"P": _STRINGS, "A": _STRINGS},
                 "P: data must be a list of rows of numbers", id="maxtrace-data-strings"),
    pytest.param(["maxtrace"], {"P": _mat(np.eye(2)),
                                "A": {"rows": 2, "cols": 2, "data": [[1.0, True], [0, 1]]}},
                 "A: data must be a list of rows of numbers", id="maxtrace-data-bool"),
    pytest.param(["thompson"], {"d": ["1.0", 0.5], "s": [2.0, 1.0]},
                 "'d' must be a list of numbers", id="thompson-d-string"),
    pytest.param(["thompson"], {"d": [1.0, 0.5], "s": [2.0, False]},
                 "'s' must be a list of numbers", id="thompson-s-bool"),
    pytest.param(["thompson"], {"d": [1.0, 10 ** 400], "s": [2.0, 1.0]},
                 "'d' must be a list of numbers", id="thompson-d-int-beyond-float"),
    pytest.param(["certify", "--seed", "1"], {**_STAR, "alpha": 10 ** 400},
                 "'alpha' is an integer beyond the float range", id="certify-alpha-beyond-float"),
])
def test_malformed_json_shapes_are_input_errors(tmp_path, capsys, argv, payload, message):
    # each of these once crashed with a TypeError traceback and exit 1, which
    # is reserved for reports that record failures, or (a bool or a numeric
    # string read as a number) exited 0: det_sign true answered member: true
    _refused(tmp_path, capsys, argv, payload, message)


@pytest.mark.parametrize("argv,payload,message", [
    pytest.param(["star-check", "--seed", "1"], {"A": _mat(np.eye(3))},
                 "missing key 'map'", id="no-map"),
    pytest.param(["star-check", "--seed", "1", "--alpha", "a,b"], _STAR,
                 "cannot parse --alpha list: 'a,b'", id="alpha-text"),
    pytest.param(["star-check", "--seed", "1", "--alpha", ","], _STAR,
                 "--alpha needs at least one value", id="alpha-empty"),
    pytest.param(["star-check", "--seed", "1", "--alpha", "2"], _STAR,
                 "alpha must be in [0, 1], got 2.0", id="star-alpha-range"),
    pytest.param(["joint", "--seed", "1", "--alpha", "nan"], _JOINT,
                 "alpha must be in [0, 1], got nan", id="joint-alpha-range"),
    pytest.param(["certify", "--seed", "1", "--alpha", "2"], _STAR,
                 "alpha must be in [0, 1], got 2.0", id="certify-alpha-range"),
    pytest.param(["certify", "--seed", "1", "--alpha", "0.1,0.2"], _STAR,
                 "certify takes a single --alpha value", id="certify-two-alphas"),
    pytest.param(["certify", "--seed", "1"], _STAR,
                 "certify needs 'alpha' in the input or --alpha", id="certify-no-alpha"),
    pytest.param(["ellipse", "--format", "svg"],
                 {"map": {"P": [_mat(np.eye(4))] * 3}, "U": _mat(np.eye(4)),
                  "V": _mat(np.eye(4))},
                 "svg rendering of curves is planar only", id="ellipsoid-svg"),
    pytest.param(["thompson"], {"s": [1.0]}, "missing key 'd' (diagonal vector)",
                 id="thompson-no-d"),
    # a non-square A once stopped with numpy's message, which names no key
    pytest.param(["thompson"], {"d": [1.0, 0.5], "A": {"rows": 2, "cols": 3,
                                                       "data": [[1.0, 0, 0], [0, 1.0, 0]]}},
                 "A must be square", id="thompson-a-not-square"),
    pytest.param(["joint", "--seed", "1"], {"maps": _JOINT["maps"]},
                 "joint input needs 'A_list' (matrices) and 'maps'", id="joint-no-a-list"),
    # A gives s and det_sign itself; either key beside it was once ignored
    pytest.param(["thompson"], {"d": [1.0, 0.5], "A": _mat(np.eye(2)), "det_sign": 5},
                 "give either 'A' or 's' and 'det_sign', not both", id="thompson-a-and-det-sign"),
    pytest.param(["thompson"], {"d": [1.0, 0.5], "A": _mat(np.eye(2)), "s": [1.0, 1.0]},
                 "give either 'A' or 's' and 'det_sign', not both", id="thompson-a-and-s"),
])
def test_input_checks(tmp_path, capsys, argv, payload, message):
    """Each input check exits 2 with its message (checks no other test reaches)."""
    _refused(tmp_path, capsys, argv, payload, message)


def test_missing_input_flag(capsys):
    assert main(["maxtrace"]) == 2
    assert "this subcommand requires --input <json-file>" in capsys.readouterr().err


def test_certify_failure_is_a_report(tmp_path):
    # a one-coordinate map has no certificate: a report with ok false, exit 1
    path = _write(tmp_path, "line.json", {"A": _mat(np.eye(3)),
                                          "map": {"P": [_mat(np.eye(3))]}, "alpha": 0.5})
    out = tmp_path / "out.json"
    assert main(["certify", "--input", path, "--seed", "1", "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert {k: payload[k] for k in ("ok", "alpha", "error", "seed")} == {
        "ok": False, "alpha": 0.5, "error": "need at least two map coordinates", "seed": 1}


def test_output_goes_to_stdout_without_out(tmp_path, capsys):
    path = _write(tmp_path, "planar.json", _PLANAR)
    out = tmp_path / "out.json"
    assert main(["maxtrace", "--input", path, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["maxtrace", "--input", path]) == 0
    assert capsys.readouterr().out == out.read_text()
