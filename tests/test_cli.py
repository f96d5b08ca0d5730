import json

import numpy as np
import pytest

from orbitgeom import serialize as ser
from orbitgeom.cli import main


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


class TestCounterexampleCommand:
    def test_ell3(self, tmp_path):
        out = tmp_path / "ce.json"
        rc = main(["counterexample", "ell3", "--n", "3", "--seed", "5",
                   "--starts", "32", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["endpoints"] == [[1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]
        assert payload["midpoint_distance_estimate"] >= 1e-3


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
