"""Exact-family evaluation oracles, rigid-motion equivariance, and
serialization round-trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onephase.common import Window
from onephase.errors import InvalidInputError, NoSaddleError
from onephase.solutions import (FAMILIES, KINDS, DiskComplement, Hairpin,
                                HalfPlane, OneSidedPlane, RigidMotion, Scherk,
                                TwoPlane, Wedge, load_solution,
                                solution_from_dict)

ALL = [HalfPlane(), TwoPlane(0.5), Wedge(0.7), Hairpin(1.0),
       DiskComplement(1.0), Scherk(0.5, 1.0)]

angles = st.floats(min_value=-np.pi, max_value=np.pi,
                   allow_nan=False, allow_infinity=False)
shifts = st.floats(min_value=-3.0, max_value=3.0,
                   allow_nan=False, allow_infinity=False)


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

    @pytest.mark.parametrize("sol", ALL, ids=lambda s: s.kind)
    def test_fb_orientation_positive_left(self, sol):
        w = Window(-3.0, -3.0, 3.0, 3.0)
        for poly in sol.free_boundary_curves(w):
            mid = 0.5 * (poly[:-1] + poly[1:])
            tang = np.diff(poly, axis=0)
            tang /= np.hypot(tang[:, 0], tang[:, 1])[:, None]
            left = mid + 1e-4 * np.stack([-tang[:, 1], tang[:, 0]], axis=-1)
            frac = np.mean(sol.in_positive_phase(left))
            assert frac > 0.97


# ---------------------------------------------------------------------------
# rigid motions and dilations
# ---------------------------------------------------------------------------

class TestMotions:
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

    @pytest.mark.parametrize("sol", ALL, ids=lambda s: s.kind)
    def test_rescale_identity(self, sol):
        lam = 2.0
        scaled = sol.rescale(lam)
        pts = np.array([[0.4, 0.3], [1.2, -0.7], [2.5, 1.9]])
        u_scaled = scaled.eval_u(pts)
        u_ref = sol.eval_u(lam * pts) / lam
        assert np.allclose(u_scaled, u_ref, atol=1e-12)

    def test_rescale_validates(self, hairpin):
        with pytest.raises(InvalidInputError):
            hairpin.rescale(0.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

class TestSerialization:
    @pytest.mark.parametrize("sol", ALL, ids=lambda s: s.kind)
    def test_round_trip(self, sol, tmp_path):
        moved = type(sol)(**sol._params(),
                          motion=RigidMotion(angle=0.3, shift=(1.0, -2.0)))
        path = tmp_path / "sol.json"
        moved.save(path)
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

    def test_registry_complete(self):
        assert set(FAMILIES) == {"half_plane", "two_plane", "wedge",
                                 "hairpin", "disk_complement", "scherk"}

    def test_one_sided_plane_round_trip(self, tmp_path):
        # `verify` writes this descriptor into its report
        path = tmp_path / "sol.json"
        OneSidedPlane(s=0.5).save(path)
        back = load_solution(path)
        assert type(back) is OneSidedPlane and back.s == 0.5

    def test_registry_flags(self):
        assert set(KINDS) - set(FAMILIES) == {"one_sided_plane"}
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
