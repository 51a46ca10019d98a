"""Window arithmetic, serialization helpers, and polyline utilities."""

import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onephase.common import (Window, clip_polyline_to_window,
                             densify_polyline, format_float,
                             points_in_polygon, smoothstep5,
                             write_csv_atomic, write_json_atomic,
                             write_text_atomic)
from onephase.errors import InvalidInputError

finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e300, max_value=1e300)


def _clip_oracle(poly, window):
    """Per-segment clip, joined segment by segment: the loop that
    `clip_polyline_to_window` replaces by one array pass."""
    pieces = []
    current = []

    def flush():
        nonlocal current
        if len(current) >= 2:
            pieces.append(np.asarray(current))
        current = []

    for a, b in zip(poly[:-1], poly[1:]):
        seg = _clip_segment_oracle(a, b, window)
        if seg is None:
            flush()
            continue
        pa, pb = seg
        if current and np.allclose(current[-1], pa, atol=1e-14):
            current.append(pb)
        else:
            flush()
            current = [pa, pb]
    flush()
    return pieces


def _clip_segment_oracle(a, b, w):
    """Liang–Barsky: the portion of segment [a,b] inside w, or None."""
    d = b - a
    t0, t1 = 0.0, 1.0
    for q, dq in (
        (a[0] - w.x0, d[0]),
        (w.x1 - a[0], -d[0]),
        (a[1] - w.y0, d[1]),
        (w.y1 - a[1], -d[1]),
    ):
        if dq == 0.0:
            if q < 0:
                return None
        elif dq > 0:
            if -q > t1 * dq:
                return None
            if -q > t0 * dq:
                t0 = -q / dq
        else:
            if q < -t0 * dq:
                return None
            if q < -t1 * dq:
                t1 = -q / dq
        if t0 > t1:
            return None
    return a + t0 * d, a + t1 * d


# window sides, zero and subnormals, so that vertices land exactly on a side,
# segments run parallel to an axis and direction components are subnormal
clip_coords = st.one_of(
    st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5e-324, -5e-324,
                     1e-310, -1e-310]),
    st.floats(min_value=-3.0, max_value=3.0))
clip_windows = st.sampled_from([Window(-1.0, -1.0, 1.0, 1.0),
                                Window(0.0, -1.0, 1.0, 1.0),
                                Window(-0.5, 0.0, 2.0, 0.5),
                                Window(5e-324, -1e-310, 1.0, 2.0)])


class TestWindow:
    def test_degenerate_raises(self):
        with pytest.raises(InvalidInputError):
            Window(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(InvalidInputError):
            Window(1.0, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("i", range(4))
    def test_non_finite_bounds_raise(self, i, bad):
        bounds = [-1.0, -1.0, 1.0, 1.0]
        bounds[i] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            Window(*bounds)

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


def _densify_oracle(poly, step):
    """One np.linalg.norm and one np.linspace per segment: the loop that
    `densify_polyline` replaces by one array pass."""
    poly = np.asarray(poly, dtype=float)
    out = [poly[:1]]
    for a, b in zip(poly[:-1], poly[1:]):
        seg = np.linalg.norm(b - a)
        n = max(1, int(np.ceil(seg / step)))
        ts = np.linspace(0.0, 1.0, n + 1)[1:, None]
        out.append(a[None, :] * (1 - ts) + b[None, :] * ts)
    return np.concatenate(out, axis=0)


@st.composite
def _densify_cases(draw):
    """Polylines of 2 to 8 vertices, some repeated (zero-length segments),
    on integer or general coordinates, with a free step, a dyadic one
    (dividing the axis-parallel and 3-4-5 integer segments) or a segment's
    length over a whole number."""
    coord = st.one_of(st.integers(-4, 4).map(float),
                      st.floats(-10.0, 10.0, allow_subnormal=False))
    pts = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=8))
    repeat = draw(st.lists(st.integers(0, len(pts) - 1), max_size=2))
    poly = np.array(pts)
    poly = np.insert(poly, repeat, poly[repeat], axis=0)
    lengths = np.hypot(*np.diff(poly, axis=0).T)
    kind = draw(st.sampled_from(["free", "dyadic", "divides"]))
    if kind == "divides" and lengths.max() > 0.0:
        # a segment not much shorter than the longest, so that no segment
        # gets more than 12,000 points
        long = np.flatnonzero(lengths >= 1e-3 * lengths.max())
        seg = draw(st.sampled_from(long.tolist()))
        step = float(lengths[seg]) / draw(st.integers(1, 12))
    elif kind == "dyadic":
        step = 2.0 ** draw(st.integers(-4, 2))
    else:
        step = draw(st.floats(1e-2, 20.0))
    return poly, step


class TestPolylines:
    def test_densify_preserves_endpoints_and_length(self):
        seg = np.array([[0.0, 0.0], [1.0, 0.0]])
        d = densify_polyline(seg, 0.09)
        assert np.allclose(d[0], seg[0]) and np.allclose(d[-1], seg[1])
        assert np.linalg.norm(np.diff(d, axis=0), axis=1).sum() == \
            pytest.approx(1.0)
        steps = np.hypot(*np.diff(d, axis=0).T)
        assert np.max(steps) <= 0.09 + 1e-12

    @given(case=_densify_cases())
    @example(case=(np.array([[0.0, 0.0], [3.0, 4.0]]), 0.5))
    @example(case=(np.array([[1.0, 1.0], [1.0, 1.0]]), 0.25))
    @settings(max_examples=300, deadline=None)
    def test_densify_bit_equal_to_per_segment_loop(self, case):
        poly, step = case
        got = densify_polyline(poly, step)
        assert got.tobytes() == _densify_oracle(poly, step).tobytes()
        # the original vertices appear in order, the last one last
        assert np.array_equal(got[0], poly[0])
        at = 0
        for v in poly[1:]:
            at += 1
            while not np.array_equal(got[at], v):
                at += 1
        assert at == len(got) - 1

    @pytest.mark.parametrize("step", [float("nan"), 0.0, -1.0])
    def test_densify_bad_step(self, step):
        with pytest.raises(InvalidInputError):
            densify_polyline(np.array([[0.0, 0.0], [1.0, 1.0]]), step)

    @pytest.mark.parametrize("poly, step", [
        ([[0.0, 0.0], [float("nan"), 1.0]], 0.1),
        ([[0.0, 0.0], [float("inf"), 1.0]], 0.1),
        ([[0.0, 0.0], [1e300, 1.0]], 1e-300)])
    def test_densify_non_finite_counts(self, poly, step):
        with pytest.raises(InvalidInputError):
            densify_polyline(np.array(poly), step)

    def test_densify_infinite_step_keeps_the_polyline(self):
        poly = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [3.0, -2.0]])
        assert np.array_equal(densify_polyline(poly, float("inf")), poly)

    def test_clip_to_window(self):
        w = Window(0.0, -1.0, 1.0, 1.0)
        poly = np.array([[-1.0, 0.0], [2.0, 0.0]])
        pieces = clip_polyline_to_window(poly, w)
        assert len(pieces) == 1
        piece = pieces[0]
        assert piece[:, 0].min() >= -1e-12
        assert piece[:, 0].max() <= 1.0 + 1e-12
        assert np.linalg.norm(np.diff(piece, axis=0), axis=1).sum() == \
            pytest.approx(1.0, abs=1e-9)

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


    @given(st.lists(st.tuples(st.tuples(clip_coords, clip_coords),
                              st.integers(1, 3)), max_size=30),
           clip_windows)
    @settings(max_examples=300, deadline=None)
    def test_clip_matches_per_segment_oracle(self, verts, w):
        # each vertex is repeated 1–3 times
        poly = np.array([p for p, k in verts for _ in range(k)],
                        dtype=float).reshape(-1, 2)
        pieces = clip_polyline_to_window(poly, w)
        ref = _clip_oracle(poly, w)
        assert len(pieces) == len(ref)
        for piece, r in zip(pieces, ref):
            assert np.array_equal(piece, r)

    def test_clip_matches_oracle_on_long_walks(self, rng):
        w = Window(-1.0, -1.0, 1.0, 1.0)
        for _ in range(20):
            step = rng.normal(scale=0.05, size=(1500, 2))
            poly = np.cumsum(step, axis=0) + rng.uniform(-1.0, 1.0, 2)
            pieces = clip_polyline_to_window(poly, w)
            ref = _clip_oracle(poly, w)
            assert len(pieces) == len(ref) > 0
            for piece, r in zip(pieces, ref):
                assert np.array_equal(piece, r)


class TestSmoothstep5:
    def test_clipped_ends_and_midpoint(self):
        t = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
        assert list(smoothstep5(t)) == [0.0, 0.0, 0.5, 1.0, 1.0]

    def test_flat_to_second_order_at_the_ends(self):
        h = 1e-3
        assert smoothstep5(h) < 11.0 * h**3
        assert 1.0 - smoothstep5(1.0 - h) < 11.0 * h**3
