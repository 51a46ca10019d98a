"""Window arithmetic, serialization helpers, and polyline utilities."""

import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onephase.common import (Window, clip_polyline_to_window,
                             densify_polyline, format_float,
                             points_in_polygon, polyline_length,
                             smoothstep5, write_csv_atomic,
                             write_json_atomic, write_text_atomic)
from onephase.errors import InvalidInputError

finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e300, max_value=1e300)


class TestWindow:
    def test_degenerate_raises(self):
        with pytest.raises(InvalidInputError):
            Window(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(InvalidInputError):
            Window(1.0, 0.0, 0.0, 1.0)

    def test_grid_exact_division(self):
        w = Window(-1.0, -1.0, 1.0, 1.0)
        xs, ys = w.grid(0.25)
        assert len(xs) == 9 and len(ys) == 9
        assert xs[0] == -1.0 and xs[-1] == 1.0

    def test_grid_rejects_nondivisor(self):
        w = Window(-1.0, -1.0, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            w.grid(0.3)

    def test_contains(self):
        w = Window(0.0, 0.0, 2.0, 1.0)
        pts = np.array([[1.0, 0.5], [3.0, 0.5], [1.0, -0.1], [0.0, 0.0]])
        assert list(w.contains(pts)) == [True, False, False, True]


class TestFormatFloat:
    @given(finite_floats)
    @settings(max_examples=200)
    def test_round_trip(self, x):
        assert float(format_float(x)) == x

    def test_short_values_stay_short(self):
        assert format_float(0.5) == "0.5"
        assert format_float(1.0) == "1"


class TestAtomicWriters:
    def test_csv_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        rows = [[1, 0.1, "x"], [2, 1.0 / 3.0, "y"]]
        write_csv_atomic(str(p1), ["i", "v", "s"], rows)
        write_csv_atomic(str(p2), ["i", "v", "s"], rows)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "i,v,s"
        assert float(lines[2].split(",")[1]) == 1.0 / 3.0

    def test_json_sorted_and_round_trip(self, tmp_path):
        p = tmp_path / "r.json"
        write_json_atomic(str(p), {"b": 2.0, "a": [1.0 / 3.0]})
        text = p.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text)["a"][0] == 1.0 / 3.0

    def test_no_temp_residue(self, tmp_path):
        p = tmp_path / "t.txt"
        write_text_atomic(str(p), "payload")
        assert p.read_text() == "payload"
        assert os.listdir(tmp_path) == ["t.txt"]


class TestPointsInPolygon:
    def test_square_oracle(self):
        sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        pts = np.array([[0.5, 0.5], [1.5, 0.5], [-0.1, 0.5], [0.5, 1.5]])
        assert list(points_in_polygon(pts, sq)) == [True, False, False, False]

    @given(st.tuples(finite_floats, finite_floats).map(np.array))
    @settings(max_examples=50)
    def test_far_points_outside(self, p):
        sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        if np.max(np.abs(p)) > 2.0:
            assert not points_in_polygon(p[None, :], sq)[0]

    def test_concave(self):
        # L-shape: (2,2) is carved out
        L = np.array([[0, 0], [3, 0], [3, 1], [1, 1], [1, 3], [0, 3]],
                     dtype=float)
        assert points_in_polygon(np.array([[0.5, 2.5]]), L)[0]
        assert not points_in_polygon(np.array([[2.0, 2.0]]), L)[0]


class TestPolylines:
    def test_length(self):
        tri = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])
        assert polyline_length(tri) == pytest.approx(7.0)

    def test_densify_preserves_endpoints_and_length(self):
        seg = np.array([[0.0, 0.0], [1.0, 0.0]])
        d = densify_polyline(seg, 0.09)
        assert np.allclose(d[0], seg[0]) and np.allclose(d[-1], seg[1])
        assert polyline_length(d) == pytest.approx(1.0)
        steps = np.hypot(*np.diff(d, axis=0).T)
        assert np.max(steps) <= 0.09 + 1e-12

    def test_clip_to_window(self):
        w = Window(0.0, -1.0, 1.0, 1.0)
        poly = np.array([[-1.0, 0.0], [2.0, 0.0]])
        pieces = clip_polyline_to_window(poly, w)
        assert len(pieces) == 1
        piece = pieces[0]
        assert piece[:, 0].min() >= -1e-12
        assert piece[:, 0].max() <= 1.0 + 1e-12
        assert polyline_length(piece) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("x0, dx, expect", [
        (-1.0, 5e-324, [[[0.0, -1.0], [0.0, 1.0]]]),
        (-1.0, -5e-324, [[[0.0, -1.0], [0.0, 1.0]]]),
        (-1.0, 1e-310, [[[0.0, -1.0], [0.0, 1.0]]]),
        (0.5, 5e-324, []),
        (0.5, -5e-324, []),
    ])
    def test_clip_subnormal_direction(self, x0, dx, expect):
        # the x sides' crossing −q/dx overflows for a subnormal dx
        w = Window(x0, -1.0, 1.0, 1.0)
        poly = np.array([[0.0, -2.0], [dx, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pieces = clip_polyline_to_window(poly, w)
        assert len(pieces) == len(expect)
        for piece, ref in zip(pieces, expect):
            assert np.allclose(piece, ref, rtol=0.0, atol=1e-300)


class TestSmoothstep5:
    def test_clipped_ends_and_midpoint(self):
        t = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
        assert list(smoothstep5(t)) == [0.0, 0.0, 0.5, 1.0, 1.0]

    def test_flat_to_second_order_at_the_ends(self):
        h = 1e-3
        assert smoothstep5(h) < 11.0 * h**3
        assert 1.0 - smoothstep5(1.0 - h) < 11.0 * h**3
