import re

import numpy as np
import pytest

import orbitgeom as og
from orbitgeom import serialize as ser
from orbitgeom.orbits import LinearMapSpec, PointCloud


class TestMatrixJSON:
    def test_round_trip(self):
        m = np.arange(6.0).reshape(2, 3)
        obj = ser.matrix_to_json(m)
        assert obj == {"rows": 2, "cols": 3, "data": [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]}
        assert np.array_equal(ser.matrix_from_json(obj), m)

    def test_shape_header_mismatch(self):
        with pytest.raises(og.DimensionError):
            ser.matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 2.0]]})

    def test_missing_keys(self):
        with pytest.raises(ValueError):
            ser.matrix_from_json({"data": [[1.0]]})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ser.matrix_from_json(
                {"rows": 1, "cols": 1, "data": [[float("nan")]]}
            )


class TestMapJSON:
    def test_round_trip(self):
        lmap = LinearMapSpec((np.eye(2), np.diag([2.0, 3.0])))
        obj = ser.map_to_json(lmap)
        back = ser.map_from_json(obj)
        assert back.ell == 2
        for m1, m2 in zip(back.mats, lmap.mats):
            assert np.array_equal(m1, m2)


class TestCloudCSV:
    def test_header_and_round_trip(self):
        cloud = PointCloud(points=np.array([[1.0, 2.5], [-0.25, 0.0]]))
        text = ser.cloud_to_csv(cloud)
        lines = text.split("\n")
        assert lines[0] == "x1,x2"
        assert text.endswith("\n")
        back = ser.cloud_from_csv(text)
        assert np.array_equal(back.points, cloud.points)

    def test_empty_cloud(self):
        cloud = PointCloud(points=np.empty((0, 3)))
        text = ser.cloud_to_csv(cloud)
        assert text == "x1,x2,x3\n"


class TestSupportCSV:
    def test_header(self):
        region = og.support_boundary(
            np.diag([1.0, 0.0]), np.array([[0.0, 0.0], [1.0, 0.0]]), np.eye(2), 16
        )
        text = ser.support_samples_to_csv(region)
        assert text.split("\n")[0] == "theta,r,touch_x,touch_y"
        assert len([ln for ln in text.split("\n") if ln]) == 17


class TestDumpJSON:
    def test_deterministic(self):
        payload = {"b": 1.5, "a": [1, 2], "nested": {"y": 0.1, "x": None}}
        assert ser.dump_json(payload) == ser.dump_json(dict(reversed(payload.items())))
        assert ser.dump_json(payload).endswith("\n")


@pytest.mark.parametrize("call,cls,message", [
    pytest.param(lambda: ser.map_from_json({"Q": []}), ValueError,
                 "map: expected an object with a 'P' list", id="no-p"),
    pytest.param(lambda: ser.map_from_json({"P": 5}), ValueError,
                 "map: expected an object with a 'P' list", id="p-not-a-list"),
    pytest.param(lambda: ser.matrix_from_json({"rows": None, "cols": 1, "data": [[1.0]]}),
                 ValueError, "matrix: rows and cols must be integers, got (None, 1)",
                 id="rows-not-an-integer"),
    pytest.param(lambda: ser.matrix_from_json({"rows": True, "cols": 1, "data": [[1.0]]}),
                 ValueError, "matrix: rows and cols must be integers, got (True, 1)",
                 id="rows-a-boolean"),
    pytest.param(lambda: ser.matrix_from_json({"rows": 1, "cols": 1, "data": [{}]}),
                 ValueError, "matrix: data must be a list of rows of numbers",
                 id="data-not-numbers"),
    pytest.param(lambda: ser.cloud_from_csv(""), ValueError, "empty CSV", id="empty-csv"),
])
def test_input_checks(call, cls, message):
    """Each check raises its class with its message (checks no other test reaches)."""
    with pytest.raises(cls, match=re.escape(message)) as info:
        call()
    assert type(info.value) is cls
