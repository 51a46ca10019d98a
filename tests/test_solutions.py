"""Exact-family evaluation oracles, rigid-motion equivariance, and
serialization round-trips."""

import json
import re
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onephase.common import Window, write_json_atomic
from onephase.conformal import scherk_loop_gradient, scherk_loop_point
from onephase.errors import InvalidInputError, NoSaddleError
from onephase.solutions import (KINDS, DiskComplement, Hairpin, HalfPlane,
                                OneSidedPlane, RigidMotion, Scherk, TwoPlane,
                                Wedge, _padded, solution_from_dict)
from onephase.solutions import BOUNDARY_TOL

from helpers import FAMILY_MEMBERS, traced_peak


def load_solution(path):
    """The solution that `Solution.save` wrote to path."""
    return solution_from_dict(json.loads(Path(path).read_text()))


ALL = [HalfPlane(), TwoPlane(0.5), Wedge(0.7), Hairpin(1.0),
       DiskComplement(1.0), Scherk(0.5, 1.0)]
#: one member of every registered kind, by kind
SAMPLES = {sol.kind: sol for sol in ALL + [OneSidedPlane(0.5)]}
#: lengths below the boundary step of a (−2, 2)² window, 4e-3, each with
#: a tenth of it
TINY = [(TwoPlane(1e-3), 1e-4), (DiskComplement(1e-4), 1e-5)]

angles = st.floats(min_value=-np.pi, max_value=np.pi,
                   allow_nan=False, allow_infinity=False)
shifts = st.floats(min_value=-3.0, max_value=3.0,
                   allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# memory of a large Scherk evaluation
# ---------------------------------------------------------------------------

class TestScherkMemory:
    """The chart solves and maps run in blocks of points, so a 40,000-point
    evaluation traces less than half of what one Newton run over all
    points held (14.3 MB for u, 15.6 MB for a ∇u that solves)."""

    @staticmethod
    def _points():
        return np.random.default_rng(0).uniform(-2.0, 2.0, (40_000, 2))

    def test_eval_u(self):
        sol, pts = Scherk(0.5, 1.0), self._points()
        sol.eval_u(pts[:10])
        assert traced_peak(lambda: sol.eval_u(pts)) <= 6.8e6

    def test_eval_grad_that_solves(self):
        sol, pts = Scherk(0.5, 1.0), self._points()
        sol.eval_grad(pts[:10])
        assert traced_peak(lambda: sol.eval_grad(pts)) <= 7.4e6


# ---------------------------------------------------------------------------
# closed-form values
# ---------------------------------------------------------------------------

class TestEvalOracles:
    def test_half_plane(self):
        hp = HalfPlane()
        pts = np.array([[2.0, -1.0], [-0.5, 3.0], [0.0, 0.0]])
        assert np.allclose(hp.eval_u(pts), [2.0, 0.0, 0.0])
        assert np.allclose(hp.eval_grad(np.array([[2.0, -1.0]])),
                           [[1.0, 0.0]])

    def test_two_plane(self):
        tp = TwoPlane(0.5)
        pts = np.array([[1.0, 0.0], [-0.25, 5.0], [-1.0, 0.0]])
        assert np.allclose(tp.eval_u(pts), [1.0, 0.0, 0.5])
        g = tp.eval_grad(np.array([[-1.0, 0.0]]))
        assert np.allclose(g, [[-1.0, 0.0]])

    def test_wedge(self):
        w = Wedge(0.7)
        pts = np.array([[2.0, 1.0], [-2.0, 1.0]])
        assert np.allclose(w.eval_u(pts), [1.4, 1.4])

    def test_disk_complement(self):
        dc = DiskComplement(2.0)
        pts = np.array([[4.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
        expect = [2.0 * np.log(2.0), 0.0, 0.0]
        assert np.allclose(dc.eval_u(pts), expect)
        g = dc.eval_grad(np.array([[4.0, 0.0]]))
        assert np.allclose(g, [[0.5, 0.0]])  # R/|z| radially

    def test_hairpin_saddle_and_axis(self):
        h = Hairpin(2.0)
        # neck point z=0 maps to ζ=0: u = a·cosh(0) = a
        assert h.eval_u(np.array([[0.0, 0.0]]))[0] == pytest.approx(2.0)
        assert h.saddle_value() == pytest.approx(2.0)
        # far along the axis u ≈ |x₁| + a (ζ real: z = a(ζ+sinh ζ),
        # u = a·cosh ζ; for x₁ = 30: u − x₁ → a·(cosh−sinh)(ζ) + aζ... check
        # numerically against the chart-free 1D relation instead
        x1 = 30.0
        u = h.eval_u(np.array([[x1, 0.0]]))[0]
        # solve a(t + sinh t) = x1 for t, compare a cosh t
        from scipy.optimize import brentq
        t = brentq(lambda tt: 2.0 * (tt + np.sinh(tt)) - x1, 0.0, 10.0)
        assert u == pytest.approx(2.0 * np.cosh(t), rel=1e-12)

    def test_scherk_saddle_value(self):
        s, a = 0.5, 1.5
        sc = Scherk(s, a)
        assert sc.saddle_value() == pytest.approx(2.0 * a * s * np.log(1 / s))
        # the saddle sits at (0, πa) and the value is u there
        u = sc.eval_u(np.array([[0.0, np.pi * a]]))[0]
        assert u == pytest.approx(sc.saddle_value(), abs=1e-10)

    def test_no_saddle_families(self):
        for sol in (HalfPlane(), TwoPlane(0.5), Wedge(1.0),
                    DiskComplement(1.0)):
            with pytest.raises(NoSaddleError):
                sol.saddle_value()

    def test_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            Hairpin(-1.0)
        with pytest.raises(InvalidInputError):
            TwoPlane(0.0)
        with pytest.raises(InvalidInputError):
            Scherk(1.5, 1.0)
        with pytest.raises(InvalidInputError):
            DiskComplement(0.0)


# ---------------------------------------------------------------------------
# consistency between the evaluators
# ---------------------------------------------------------------------------

class TestConsistency:
    @pytest.mark.parametrize("sol", ALL, ids=lambda s: s.kind)
    def test_phase_matches_u(self, sol):
        g = np.linspace(-3.0, 3.0, 41)
        X, Y = np.meshgrid(g, g)
        pts = np.stack([X, Y], axis=-1)
        u = sol.eval_u(pts)
        pos = sol.in_positive_phase(pts)
        # u > 0 exactly on the open positive phase, away from rounding
        sure = np.abs(u) > 1e-12
        assert np.array_equal(u[sure] > 0, pos[sure])

    @pytest.mark.parametrize("sol", ALL, ids=lambda s: s.kind)
    def test_grad_matches_fd(self, sol):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2.5, 2.5, size=(120, 2))
        # keep well inside the positive phase so FD stencils don't cross F
        keep = sol.in_positive_phase(pts)
        for d in [(1e-5, 0), (-1e-5, 0), (0, 1e-5), (0, -1e-5)]:
            keep &= sol.in_positive_phase(pts + np.array(d) * 20)
        pts = pts[keep]
        assert len(pts) >= 20
        eps = 1e-6
        gx = (sol.eval_u(pts + [eps, 0]) - sol.eval_u(pts - [eps, 0])) / (2 * eps)
        gy = (sol.eval_u(pts + [0, eps]) - sol.eval_u(pts - [0, eps])) / (2 * eps)
        g = sol.eval_grad(pts)
        assert np.allclose(g[:, 0], gx, atol=5e-9)
        assert np.allclose(g[:, 1], gy, atol=5e-9)

    @pytest.mark.parametrize("sol", ALL, ids=lambda s: s.kind)
    def test_grad_zero_in_zero_phase(self, sol):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-3.0, 3.0, size=(300, 2))
        outside = ~sol.in_positive_phase(pts)
        dist_ok = np.abs(sol.eval_u(pts)) == 0.0
        sel = pts[outside & dist_ok]
        if len(sel):
            assert np.all(sol.eval_grad(sel) == 0.0)

    @pytest.mark.parametrize("sol", ALL, ids=lambda s: s.kind)
    def test_fb_curves_lie_on_zero_level(self, sol):
        w = Window(-3.0, -3.0, 3.0, 3.0)
        curves = sol.free_boundary_curves(w)
        assert curves, "no free boundary in the window"
        for poly in curves:
            u = sol.eval_u(poly)
            assert np.max(np.abs(u)) <= 1e-9

    @staticmethod
    def _assert_positive_left(sol, window, offset):
        """The positive phase lies `offset` left of the window's polylines
        of F(u), at the default step."""
        curves = sol.free_boundary_curves(window)
        assert curves, "no free boundary in the window"
        for poly in curves:
            mid = 0.5 * (poly[:-1] + poly[1:])
            tang = np.diff(poly, axis=0)
            tang /= np.hypot(tang[:, 0], tang[:, 1])[:, None]
            left = mid + offset * np.stack([-tang[:, 1], tang[:, 0]], axis=-1)
            frac = np.mean(sol.in_positive_phase(left))
            assert frac > 0.97

    @pytest.mark.parametrize("sol, window, offset", [
        *[pytest.param(sol, Window(-3.0, -3.0, 3.0, 3.0), 1e-4, id=sol.kind)
          for sol in ALL],
        *[pytest.param(sol, Window(-2.0, -2.0, 2.0, 2.0), tenth,
                       id=f"tiny_{sol.kind}") for sol, tenth in TINY]])
    def test_fb_orientation_positive_left(self, sol, window, offset):
        self._assert_positive_left(sol, window, offset)

    @pytest.mark.parametrize("sol, tenth", [
        pytest.param(sol, tenth, id=f"tiny_{sol.kind}")
        for sol, tenth in TINY])
    @given(angle=angles, x=st.floats(-1.5, 1.5), y=st.floats(-1.5, 1.5))
    @settings(max_examples=25, deadline=None)
    def test_fb_orientation_positive_left_moved(self, sol, tenth, angle, x, y):
        moved = replace(sol, motion=RigidMotion(angle=angle, shift=(x, y)))
        self._assert_positive_left(moved, Window(-2.0, -2.0, 2.0, 2.0),
                                   tenth)


# ---------------------------------------------------------------------------
# the one rule for points on the free boundary
# ---------------------------------------------------------------------------

def _moved_curves(sol, angle, x, y):
    """`sol` moved by (angle, (x, y)), and the vertices of its free-boundary
    polylines in its verify window but the clip-generated piece ends."""
    moved = replace(sol, motion=RigidMotion(angle=angle, shift=(x, y)))
    curves = moved.free_boundary_curves(Window(*moved.verify_window()))
    return moved, np.vstack([poly[1:-1] for poly in curves])


class TestOnFreeBoundary:
    """`Solution._on_fb` decides which points are on F for every family:
    there `eval_grad` is the limit gradient from the positive side."""

    @pytest.mark.parametrize("sol", FAMILY_MEMBERS, ids=lambda s: s.kind)
    @given(angle=angles, x=st.floats(-0.5, 0.5), y=st.floats(-0.5, 0.5))
    @settings(max_examples=15, deadline=None)
    def test_limit_gradient_on_own_curves(self, sol, angle, x, y):
        moved, verts = _moved_curves(sol, angle, x, y)
        g = moved.eval_grad(verts)
        slope = sol.s if sol.kind in ("wedge", "one_sided_plane") else 1.0
        assert np.max(np.abs(np.hypot(g[:, 0], g[:, 1]) - slope)) <= 1e-9

    def test_scherk_point_off_the_rule_gets_zero(self):
        # 5e-9 inside the loop at a = 3: farther from F than the rule's
        # 1e-9·(1 + max|xᵢ|), so in the open zero phase
        sol = Scherk(0.5, 3.0)
        q = scherk_loop_point(0.5, np.array([0.0]))
        n = scherk_loop_gradient(0.5, q)
        p = 3.0 * q - 5e-9 * n / np.hypot(n[:, 0], n[:, 1])[:, None]
        assert sol.fb_distance(p)[0] == pytest.approx(5e-9, rel=1e-3)
        assert not sol._on_fb(p)[0] and not sol.in_positive_phase(p)[0]
        assert np.all(sol.eval_grad(p) == 0.0)


class _EveryLoop(Scherk):
    """Scherk with the loops of every period across the window's body
    bbox grown by 2·step and the rounding margin, as Scherk built them
    before it kept only the loops that meet the window's bbox."""

    def _fb_polylines_body(self, bbox, step):
        return super()._fb_polylines_body(_padded(bbox, step), step)


class TestScherkLoops:
    """A loop that misses the window's body bbox in x₂ lies outside the
    window, since each chord of a closed loop stays in its hull; Scherk
    builds only the others, with the same pieces as every loop gives."""

    @staticmethod
    def _assert_same_pieces(sol, window):
        oracle = _EveryLoop(sol.s, sol.a, motion=sol.motion)
        pieces = sol.free_boundary_curves(window)
        expect = oracle.free_boundary_curves(window)
        assert [p.tobytes() for p in pieces] == [p.tobytes() for p in expect]
        return pieces

    def test_wide_flat_window_builds_one_period(self, monkeypatch):
        built = []
        polylines = Scherk._fb_polylines_body

        def spy(self, bbox, step):
            loops = polylines(self, bbox, step)
            built.append(len(loops))
            return loops

        monkeypatch.setattr(Scherk, "_fb_polylines_body", spy)
        window = Window(-1.0, -1.0, 1e5, 1.0)
        pieces = self._assert_same_pieces(Scherk(), window)
        # the oracle's bbox is padded by 2·step = 200 in x₂: 65 loops
        assert built[0] <= 2 and built[1] == 65
        assert len(pieces) == 2

    def test_huge_window_returns(self):
        start = time.perf_counter()
        pieces = Scherk().free_boundary_curves(Window(-1.0, -1.0, 1e150, 1.0))
        assert time.perf_counter() - start < 2.0
        assert len(pieces) == 2

    @given(angle=angles, x=shifts, y=shifts,
           x0=st.floats(-20.0, 20.0), y0=st.floats(-20.0, 20.0),
           w=st.floats(0.05, 40.0), h=st.floats(0.05, 40.0),
           a=st.floats(0.25, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_moved_windows_match_every_loop(self, angle, x, y, x0, y0, w, h,
                                            a):
        sol = Scherk(0.5, a, motion=RigidMotion(angle=angle, shift=(x, y)))
        self._assert_same_pieces(sol, Window(x0, y0, x0 + w, y0 + h))


class TestHairpinPolylines:
    def test_narrow_catenary_in_wide_window(self):
        # the window sets a step of 10; the catenaries cross x₂ = ±1 at
        # |x₁| = a·arccosh(1/a − π/2) = 0.1803
        sol = Hairpin(0.05)
        pieces = sol.free_boundary_curves(Window(-1.0, -1.0, 1e4, 1.0))
        cross = 0.05 * np.arccosh(1.0 / 0.05 - np.pi / 2.0)
        assert len(pieces) == 2
        for piece in pieces:
            assert len(piece) >= 16
            assert np.abs(piece[[0, -1], 0]) == pytest.approx(cross, abs=1e-3)
            inner = piece[1:-1]
            assert np.allclose(np.abs(inner[:, 1]), sol._bound(inner[:, 0]),
                               rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# rigid motions and dilations
# ---------------------------------------------------------------------------

class TestMotions:
    @pytest.mark.parametrize("kw, name, bad", [
        ({"angle": np.inf}, "angle", np.inf),
        ({"angle": np.nan}, "angle", np.nan),
        ({"shift": (np.nan, 0.0)}, "shift", np.nan),
        ({"shift": (0.0, -np.inf)}, "shift", -np.inf)],
        ids=["angle_inf", "angle_nan", "shift_nan", "shift_minus_inf"])
    def test_non_finite_motion_rejected(self, kw, name, bad):
        """Built directly, as through `from_dict`, a non-finite angle or
        shift is an InvalidInputError that names it."""
        message = re.escape(f"RigidMotion requires a finite {name}, got {bad}")
        with pytest.raises(InvalidInputError, match=message):
            RigidMotion(**kw)
        with pytest.raises(InvalidInputError, match=message):
            HalfPlane(motion=RigidMotion(**kw))
        with pytest.raises(InvalidInputError, match=message):
            RigidMotion.from_dict(kw)

    @pytest.mark.parametrize("shift", [(1.0,), (1.0, 0.0, 5.0), 1.0],
                             ids=["one", "three", "scalar"])
    def test_shift_of_two_numbers(self, shift):
        """Built directly, through a solution, or from a descriptor with a
        shift list, a shift that is not two numbers is an
        InvalidInputError that shows it."""
        message = re.escape("RigidMotion requires a shift of two finite "
                            f"numbers, got {shift!r}")
        with pytest.raises(InvalidInputError, match=message):
            RigidMotion(shift=shift)
        with pytest.raises(InvalidInputError, match=message):
            HalfPlane(motion=RigidMotion(shift=shift))
        if isinstance(shift, tuple):
            with pytest.raises(InvalidInputError, match=message):
                RigidMotion.from_dict({"shift": list(shift)})

    @given(angle=angles, sx=shifts, sy=shifts)
    @settings(max_examples=25, deadline=None)
    def test_halfplane_equivariance(self, angle, sx, sy):
        m = RigidMotion(angle=angle, shift=(sx, sy))
        moved = HalfPlane(motion=m)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-2, 2, size=(40, 2))
        world = m.to_world(pts)
        assert np.allclose(moved.eval_u(world), HalfPlane().eval_u(pts),
                           atol=1e-12)

    @given(angle=angles, x=shifts, y=shifts)
    @settings(max_examples=40, deadline=None)
    @example(angle=1.0, x=-1.65592685, y=1.12267816)
    def test_point_alone_matches_batch(self, angle, x, y):
        # a point's value may not depend on what it is evaluated with
        m = RigidMotion(angle=angle, shift=(0.25, -0.5))
        p = np.array([x, y])
        batch = np.array([p, p, [0.1, 0.2]])
        for f in (m.to_body, m.to_world, m.vector_to_world):
            assert f(p).tobytes() == f(batch)[0].tobytes()
        sol = HalfPlane(motion=m)
        assert sol.eval_u(p).tobytes() == sol.eval_u(batch)[0].tobytes()

    def test_gradient_rotates(self):
        m = RigidMotion(angle=np.pi / 3.0, shift=(0.5, -0.25))
        base = Hairpin(1.0)
        moved = Hairpin(1.0, motion=m)
        pts = np.array([[0.3, 0.4], [1.0, -2.0]])
        gb = base.eval_grad(pts)
        gw = moved.eval_grad(m.to_world(pts))
        R = np.array([[np.cos(m.angle), -np.sin(m.angle)],
                      [np.sin(m.angle), np.cos(m.angle)]])
        assert np.allclose(gw, gb @ R.T, atol=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    def test_rescale_identity(self, kind):
        sol, lam = SAMPLES[kind], 2.0
        scaled = sol.rescale(lam)
        pts = np.array([[0.4, 0.3], [1.2, -0.7], [2.5, 1.9]])
        u_scaled = scaled.eval_u(pts)
        u_ref = sol.eval_u(lam * pts) / lam
        assert np.allclose(u_scaled, u_ref, atol=1e-12)
        # only the length is divided, and it is one of the parameters
        for name in sol.param_names():
            want = getattr(sol, name) / (lam if name == sol._length else 1.0)
            assert getattr(scaled, name) == want
        assert sol._length in sol.param_names() + (None,)

    @pytest.mark.parametrize("cls", [TwoPlane, Hairpin, DiskComplement,
                                     Scherk], ids=lambda c: c.kind)
    @pytest.mark.parametrize("length", [0.0, -1.0, float("nan"),
                                        float("inf")])
    def test_length_must_be_positive(self, cls, length):
        with pytest.raises(InvalidInputError,
                           match=f"0 < {cls._length} < inf"):
            cls(**{cls._length: length})

    def test_rescale_validates(self, hairpin):
        with pytest.raises(InvalidInputError):
            hairpin.rescale(0.0)


def _stacked_map(name, angle, shift, p):
    """The point maps as one pair broadcast and one np.stack, kept as the
    oracle of their bits: R_{−θ}(p − t), R_θ·p + t and R_θ·p."""
    def rotate(q, sign):
        c, s = np.cos(sign * angle), np.sin(sign * angle)
        x, y = q[..., 0], q[..., 1]
        return np.stack([c * x - s * y, s * x + c * y], axis=-1)

    t = np.asarray(shift, dtype=float)
    if name == "to_body":
        return rotate(p - t, -1.0)
    return rotate(p, 1.0) + t if name == "to_world" else rotate(p, 1.0)


#: coordinates that round or propagate apart: signed zeros, infinities,
#: NaN, subnormals, and values whose products overflow
_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
            2.2250738585072014e-308, 1e308, -1e308, 1.0, -0.5]
_coords = st.one_of(st.sampled_from(_SPECIAL), st.floats())
_shapes = st.sampled_from([(2,), (0, 2), (1, 2), (5, 2), (2, 3, 2),
                           (3, 1, 2)])


@st.composite
def _point_arrays(draw):
    shape = draw(_shapes)
    flat = draw(st.lists(_coords, min_size=int(np.prod(shape)),
                         max_size=int(np.prod(shape))))
    return np.array(flat, dtype=float).reshape(shape)


class TestPointMaps:
    """The rigid-motion maps work a coordinate at a time into one result;
    their bits are those of the stacked formula, at a bounded memory."""

    @given(angle=st.one_of(st.sampled_from([0.0, -0.0, np.pi / 2, np.pi]),
                           st.floats(-1e3, 1e3)),
           shift=st.tuples(_coords.filter(np.isfinite),
                           _coords.filter(np.isfinite)),
           p=_point_arrays())
    @settings(max_examples=300, deadline=None)
    @example(angle=0.0, shift=(0.0, 0.0), p=np.array([-0.0, np.inf]))
    @example(angle=0.3, shift=(-0.0, 5e-324),
             p=np.array([[np.nan, -0.0], [1e308, -1e308]]))
    @example(angle=0.0, shift=(0.0, 0.0), p=np.array([[np.inf, np.nan]]))
    @example(angle=0.0, shift=(1e308, -1e308), p=np.array([-1e308, np.nan]))
    def test_bits_match_stacked_formula(self, angle, shift, p):
        m = RigidMotion(angle=angle, shift=shift)
        for name in ("to_body", "to_world", "vector_to_world"):
            with np.errstate(all="ignore"):
                got = getattr(m, name)(p)
                want = _stacked_map(name, angle, shift, p)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), name

    @given(p=_point_arrays())
    @settings(max_examples=200, deadline=None)
    @example(p=np.array([[np.nan, 0.0], [0.0, np.nan], [-0.0, -5e-324]]))
    def test_boundary_tolerance_bits(self, p):
        """The tolerance `_on_fb` compares the distance with, read by a
        distance whose `<=` keeps its right operand, has the bits of the
        reduction np.abs(p).max(axis=-1) but for a NaN's payload: the
        reduction drops the payload of a NaN in x₁, np.maximum keeps it.
        `<=` gives False on any NaN, so no result can see it."""
        class Probe:
            def __le__(self, tol):
                self.tol = tol
                return np.zeros(np.shape(tol), dtype=bool)

        sol, probe = HalfPlane(), Probe()
        sol._fb_dist_body = lambda q: probe
        with np.errstate(all="ignore"):
            sol._on_fb(p)
            want = BOUNDARY_TOL * (1.0 + np.abs(p).max(axis=-1))
        got, want = np.asarray(probe.tol), np.asarray(want)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    @pytest.mark.parametrize("name", ["to_body", "to_world",
                                      "vector_to_world"])
    def test_traced_peak_is_bounded(self, name):
        """At most 2.25 result sizes traced on 40,000 points: the result and
        two half-size coordinate buffers (3.0 for a pair broadcast `p − t`
        and a stacked rotation)."""
        f = getattr(RigidMotion(angle=0.7, shift=(0.3, -1.2)), name)
        p = np.random.default_rng(0).normal(size=(40_000, 2))
        assert traced_peak(lambda: f(p), warm=lambda: f(p)) \
            <= 2.25 * p.nbytes


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

class TestSerialization:
    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip(self, kind, tmp_path):
        sol = SAMPLES[kind]
        params = sol.to_dict()["params"]
        assert tuple(params) == sol.param_names()
        moved = type(sol)(**params,
                          motion=RigidMotion(angle=0.3, shift=(1.0, -2.0)))
        path = tmp_path / "sol.json"
        write_json_atomic(path, moved.to_dict())
        back = solution_from_dict(json.loads(path.read_text()))
        assert type(back) is type(moved)
        pts = np.array([[0.1, 0.2], [1.5, -0.5]])
        assert np.allclose(back.eval_u(pts), moved.eval_u(pts), atol=1e-14)

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidInputError):
            solution_from_dict({"family": "nope", "params": {}})

    def test_bad_params_rejected(self):
        with pytest.raises(InvalidInputError):
            solution_from_dict({"family": "hairpin", "params": {"b": 1.0}})

    @pytest.mark.parametrize("d", [
        "abc", {"family": ["hairpin"]},
        {"family": "hairpin", "params": [1]},
        {"family": "hairpin", "params": {"a": "x"}},
        {"family": "half_plane", "motion": 5},
        {"family": "half_plane", "motion": {"angle": "x"}},
        {"family": "half_plane", "motion": {"angle": float("inf")}},
        {"family": "half_plane", "motion": {"shift": [1]}},
        {"family": "half_plane", "motion": {"shift": [1, 2, 3]}},
        {"family": "half_plane", "motion": {"shift": "12"}},
        {"family": "half_plane", "motion": {"shift": [0, float("nan")]}},
    ], ids=["not_an_object", "family_list", "params_list", "param_text",
            "motion_number", "angle_text", "angle_inf", "shift_one",
            "shift_three", "shift_text", "shift_nan"])
    def test_malformed_descriptor_rejected(self, d):
        with pytest.raises(InvalidInputError):
            solution_from_dict(d)

    def test_registry_complete(self):
        assert {k for k, cls in KINDS.items() if cls.exact_solution} == {
            "half_plane", "two_plane", "wedge", "hairpin", "disk_complement",
            "scherk"}

    def test_one_sided_plane_round_trip(self, tmp_path):
        # `verify` writes this descriptor into its report
        path = tmp_path / "sol.json"
        write_json_atomic(path, OneSidedPlane(s=0.5).to_dict())
        back = load_solution(path)
        assert type(back) is OneSidedPlane and back.s == 0.5

    def test_registry_flags(self):
        assert {k for k, cls in KINDS.items() if not cls.exact_solution} \
            == {"one_sided_plane"}
        assert not OneSidedPlane.exact_solution
        assert {k for k, cls in KINDS.items() if cls.homogeneous} == {
            "half_plane", "wedge", "one_sided_plane"}


# ---------------------------------------------------------------------------
# default CLI windows
# ---------------------------------------------------------------------------

_SQUARE2 = (-2.0, -2.0, 2.0, 2.0)


@pytest.mark.parametrize("sol, boundary, verify", [
    (HalfPlane(), _SQUARE2, _SQUARE2),
    (TwoPlane(0.5), _SQUARE2, _SQUARE2),
    (Wedge(0.7), _SQUARE2, _SQUARE2),
    (OneSidedPlane(0.5), _SQUARE2, _SQUARE2),
    (Hairpin(1.0), (-4.0, -10.665984035757056, 4.0, 10.665984035757056),
     (-5.141592653589793,) * 2 + (5.141592653589793,) * 2),
    (Hairpin(0.25), (-4.0, -2.666496008939264, 4.0, 2.666496008939264),
     (-1.2853981633974483,) * 2 + (1.2853981633974483,) * 2),
    (Hairpin(2.0), (-8.0, -21.331968071514112, 8.0, 21.331968071514112),
     (-10.283185307179586,) * 2 + (10.283185307179586,) * 2),
    (DiskComplement(1.0), _SQUARE2, _SQUARE2),
    (DiskComplement(1.5), (-3.0, -3.0, 3.0, 3.0), (-3.0, -3.0, 3.0, 3.0)),
    (Scherk(0.5, 1.0), (-4.0, -6.911503837897546, 4.0, 6.911503837897546),
     (-6.283185307179586,) * 2 + (6.283185307179586,) * 2),
    (Scherk(0.125, 2.0), (-8.0, -13.823007675795091, 8.0, 13.823007675795091),
     (-12.566370614359172,) * 2 + (12.566370614359172,) * 2),
], ids=["half_plane", "two_plane", "wedge", "one_sided_plane", "hairpin-1",
        "hairpin-0.25", "hairpin-2", "disk-1", "disk-1.5", "scherk-0.5-1",
        "scherk-0.125-2"])
def test_default_windows(sol, boundary, verify):
    # the `boundary` and `verify` defaults; their files depend on them
    assert tuple(float(v) for v in sol.boundary_window()) == boundary
    assert tuple(float(v) for v in sol.verify_window()) == verify
