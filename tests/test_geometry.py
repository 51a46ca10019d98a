"""Marching squares, Hausdorff distance, curvature, flux balance, the flat
trichotomy classifier, the annulus probe, and circle maxima."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onephase.common import densify_polyline, points_in_polygon
from onephase.errors import (DomainError, InvalidInputError, TopologyError)
from onephase.geometry import (_COARSE_ANGLES, FreeBoundary, PolyCurve,
                               _annulus_grid, _coarse_flatness,
                               _dist_to_polygon_edges, _rotate,
                               annulus_flat_check, circle_max, classify_flat,
                               curve_curvature, extract_boundary, flux_balance,
                               hausdorff, random_polygon_in_phase)
from onephase.solutions import (DiskComplement, Hairpin, HalfPlane,
                                RigidMotion, TwoPlane, Wedge, Window)
from onephase.variational import ScalarField2D


def _circle(R=1.0, n=64, ccw=True, center=(0.0, 0.0)):
    th = np.linspace(0.0, 2.0 * np.pi, n + 1)
    if not ccw:
        th = th[::-1]
    return np.stack([center[0] + R * np.cos(th),
                     center[1] + R * np.sin(th)], axis=-1)


class TestPolyCurve:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            PolyCurve(np.zeros((1, 2)))
        with pytest.raises(InvalidInputError):
            PolyCurve(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(InvalidInputError):
            PolyCurve(np.zeros((4, 3)))

    def test_length_and_simplicity(self):
        square = PolyCurve(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                     [0.0, 1.0], [0.0, 0.0]]), closed=True)
        assert square.length() == pytest.approx(4.0)
        assert square.is_simple()
        bow = PolyCurve(np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0],
                                  [0.0, 1.0], [0.0, 0.0]]), closed=True)
        assert not bow.is_simple()

    def test_save_load_round_trip(self, tmp_path):
        fb = FreeBoundary([_circle(n=16), np.array([[0.0, 0.0], [1.0, 2.0]])])
        path = tmp_path / "fb.csv"
        fb.save(path)
        back = FreeBoundary.load(path)
        assert len(back) == 2
        assert back.components[0].closed
        assert not back.components[1].closed
        assert np.allclose(back.components[0].vertices,
                           fb.components[0].vertices)


class TestExtractBoundary:
    def test_half_plane_line(self, halfplane):
        w = Window(-1.0, -1.0, 1.0, 1.0)
        h = 1.0 / 64
        fld = ScalarField2D.from_solution(halfplane, w, h)
        fb = extract_boundary(fld)
        assert len(fb) == 1
        verts = fb.components[0].vertices
        assert np.max(np.abs(verts[:, 0])) < h
        exact = np.array([[0.0, -1.0], [0.0, 1.0]])
        assert hausdorff(fb, exact, densify_step=h / 2.0) < h

    def test_circle_contour(self, disk):
        w = Window(-2.0, -2.0, 2.0, 2.0)
        fld = ScalarField2D.from_solution(disk, w, 1.0 / 32)
        fb = extract_boundary(fld)
        assert len(fb) == 1
        assert fb.components[0].closed
        r = np.hypot(*fb.components[0].vertices.T)
        assert np.max(np.abs(r - 1.0)) < 2.0 / 32

    def test_level_offset(self, halfplane):
        w = Window(-1.0, -1.0, 1.0, 1.0)
        fld = ScalarField2D.from_solution(halfplane, w, 1.0 / 64)
        fb = extract_boundary(fld, level=0.3)
        verts = np.vstack([c.vertices for c in fb.components])
        assert np.allclose(verts[:, 0], 0.3, atol=1e-9)

    def test_positive_left_orientation(self, disk):
        w = Window(-2.0, -2.0, 2.0, 2.0)
        fld = ScalarField2D.from_solution(disk, w, 1.0 / 32)
        comp = extract_boundary(fld).components[0].vertices
        mid = 0.5 * (comp[:-1] + comp[1:])
        tang = np.diff(comp, axis=0)
        left = mid + 0.05 * np.stack([-tang[:, 1], tang[:, 0]], axis=-1) / \
            np.hypot(tang[:, 0], tang[:, 1])[:, None]
        frac = np.mean(disk.in_positive_phase(left))
        assert frac > 0.95

    def test_constant_sign_is_empty(self):
        w = Window(0.0, 0.0, 1.0, 1.0)
        xs, ys = w.grid(0.25)
        fld = ScalarField2D(window=w, h=0.25,
                            values=np.ones((len(ys), len(xs))))
        assert len(extract_boundary(fld)) == 0


class TestHausdorff:
    def test_identical_zero(self):
        c = _circle(n=32)
        assert hausdorff(c, c) == 0.0

    def test_translation(self):
        seg = np.array([[0.0, 0.0], [0.0, 1.0]])
        moved = seg + np.array([0.25, 0.0])
        assert hausdorff(seg, moved) == pytest.approx(0.25, abs=1e-12)

    def test_symmetry(self, rng):
        a = rng.uniform(-1, 1, (10, 2))
        b = rng.uniform(-1, 1, (8, 2))
        assert hausdorff(a, b, densify_step=0.05) == pytest.approx(
            hausdorff(b, a, densify_step=0.05))

    def test_empty_raises(self):
        with pytest.raises(InvalidInputError):
            hausdorff([], _circle())


class TestCurvature:
    @pytest.mark.parametrize("R", [0.5, 1.0, 3.0])
    def test_circle_signed(self, R):
        kap = curve_curvature(_circle(R=R, n=256))
        assert np.allclose(kap, 1.0 / R, atol=1e-10)
        kap_cw = curve_curvature(_circle(R=R, n=256, ccw=False))
        assert np.allclose(kap_cw, -1.0 / R, atol=1e-10)

    def test_line_zero_with_nan_ends(self):
        pts = np.stack([np.linspace(0, 1, 9), np.linspace(0, 2, 9)], axis=-1)
        kap = curve_curvature(pts)
        assert np.isnan(kap[0]) and np.isnan(kap[-1])
        assert np.allclose(kap[1:-1], 0.0, atol=1e-14)

    def test_too_short(self):
        with pytest.raises(InvalidInputError):
            curve_curvature(np.array([[0.0, 0.0], [1.0, 0.0]]))


class TestCircleMax:
    def test_half_plane_value(self, halfplane):
        m, ratio = circle_max(halfplane, (0.0, 0.0), 0.7)
        assert m == pytest.approx(0.7, abs=1e-4)
        assert ratio == pytest.approx(1.0, abs=2e-4)

    def test_subharmonic_bounds(self, hairpin, rng):
        # u(c) ≤ max_{∂B_r} u ≤ u(c) + r for a 1-Lipschitz subharmonic u
        for _ in range(10):
            c = rng.uniform(-1.5, 1.5, 2)
            r = rng.uniform(0.1, 1.0)
            uc = float(hairpin.eval_u(c))
            m, _ = circle_max(hairpin, c, r)
            assert uc - 1e-12 <= m <= uc + r + 1e-12

    def test_invalid_radius(self, halfplane):
        with pytest.raises(InvalidInputError):
            circle_max(halfplane, (0.0, 0.0), -1.0)


class TestFluxBalance:
    def test_half_plane_straddling_square(self, halfplane):
        square = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
        rep = flux_balance(halfplane, square, step=1e-3)
        assert abs(rep.net_flux) < 1e-6
        assert rep.fb_measure == pytest.approx(1.0, abs=5e-3)
        assert rep.rest_measure == pytest.approx(2.0, abs=5e-3)
        assert rep.lipschitz_bound == pytest.approx(1.0, abs=1e-12)
        assert rep.lemma_holds

    def test_polygon_inside_phase_is_harmonic(self, hairpin):
        tri = np.array([[-0.6, -0.4], [0.6, -0.3], [0.1, 0.5]])
        rep = flux_balance(hairpin, tri, step=1e-3)
        assert rep.fb_measure == 0.0
        assert abs(rep.net_flux) < 1e-9

    def test_orientation_independent(self, halfplane):
        square = np.array([[-0.4, -0.4], [0.6, -0.4], [0.6, 0.4], [-0.4, 0.4]])
        r1 = flux_balance(halfplane, square, step=2e-3)
        r2 = flux_balance(halfplane, square[::-1], step=2e-3)
        assert r1.net_flux == pytest.approx(r2.net_flux, abs=1e-12)

    def test_self_intersection_rejected(self, halfplane):
        bow = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            flux_balance(halfplane, bow)

    def test_degenerate_rejected(self, halfplane):
        with pytest.raises(InvalidInputError):
            flux_balance(halfplane, np.array([[0.0, 0.0], [1.0, 0.0]]))


def _dist_to_edges_loop(points, polygon):
    """Reference: one segment at a time, closing edge included."""
    out = np.full(len(points), np.inf)
    for k in range(len(polygon)):
        a = polygon[k]
        d = polygon[(k + 1) % len(polygon)] - a
        dd = float(d @ d)
        for i, p in enumerate(points):
            t = 0.0 if dd == 0.0 else min(1.0, max(0.0, (p - a) @ d / dd))
            out[i] = min(out[i], float(np.hypot(*(p - a - t * d))))
    return out


class TestDistToPolygonEdges:
    def test_matches_segment_loop(self, rng):
        k = 7
        theta = 2.0 * np.pi * (np.arange(k) + rng.uniform(-0.3, 0.3, k)) / k
        r = rng.uniform(0.5, 1.5, k)
        poly = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
        pts = rng.uniform(-3.0, 3.0, size=(200, 2))
        d = _dist_to_polygon_edges(pts, poly)
        assert d.shape == (200,)
        assert np.allclose(d, _dist_to_edges_loop(pts, poly),
                           rtol=0.0, atol=1e-14)

    def test_on_edge_beyond_vertex_and_closing_edge(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        pts = np.array([[0.5, 0.0],     # on an edge
                        [1.0, 1.0],     # on a vertex
                        [2.0, -1.0],    # beyond the vertex (1, 0)
                        [-0.25, 0.5],   # nearest the closing edge x = 0
                        [0.5, 0.5]])    # interior
        d = _dist_to_polygon_edges(pts, square)
        assert np.array_equal(d[:2], [0.0, 0.0])
        assert d[2] == pytest.approx(np.sqrt(2.0), abs=1e-15)
        assert d[3] == pytest.approx(0.25, abs=1e-15)
        assert d[4] == pytest.approx(0.5, abs=1e-15)

    def test_zero_length_edge(self):
        poly = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        pts = np.array([[3.0, -1.0], [2.0, 0.0], [0.0, -1.0]])
        with np.errstate(all="raise"):
            d = _dist_to_polygon_edges(pts, poly)
        assert np.allclose(d, [np.sqrt(2.0), 0.0, 1.0], rtol=0.0, atol=1e-15)


class TestRandomPolygon:
    @pytest.mark.parametrize("name", ["halfplane", "twoplane", "disk",
                                      "wedge", "scherk"])
    def test_vertices_strictly_in_phase(self, name, request, rng):
        sol = request.getfixturevalue(name)
        w = Window(-2.0, -2.0, 2.0, 2.0)
        for _ in range(5):
            poly = random_polygon_in_phase(sol, w, rng)
            assert np.all(sol.in_positive_phase(poly))
            assert np.all((poly[:, 0] >= w.x0) & (poly[:, 0] <= w.x1))
            assert np.all((poly[:, 1] >= w.y0) & (poly[:, 1] <= w.y1))
            rep = flux_balance(sol, poly, step=5e-3)
            assert rep.fb_measure == 0.0
            # the free boundary stays outside, clear of every edge
            for curve in sol.free_boundary_curves(w, step=1e-2):
                dense = densify_polyline(curve, 1e-2)
                assert not np.any(points_in_polygon(dense, poly))
                assert np.min(_dist_to_polygon_edges(dense, poly)) > 0.0

    def test_near_miss_of_two_sided_spine_rejected(self, wedge):
        # Scripted draws: a hexagon about (0.3, 0) whose vertex at angle π
        # sits 5e-3 from the wedge spine, inside the clearance rmax/32 but
        # in the positive phase, so only the clearance test rejects it;
        # then the same hexagon about (1, 0), far from the spine.
        hexagon = [6, np.zeros(6), 0.1475, np.ones(6)]
        draws = iter([0.3, 0.0] + hexagon + [1.0, 0.0] + hexagon)

        class ScriptedRng:
            def uniform(self, *args, **kwargs):
                return next(draws)

            integers = uniform

        w = Window(-2.0, -2.0, 2.0, 2.0)
        poly = random_polygon_in_phase(wedge, w, ScriptedRng())
        assert poly[:, 0].min() == pytest.approx(1.0 - 0.295, abs=1e-12)
        (spine,) = wedge.free_boundary_curves(w, step=1e-2)
        assert np.min(_dist_to_polygon_edges(spine, poly)) > 0.295 / 32.0

    def test_exhaustion_raises(self, rng):
        # a window with no positive phase at all
        sol = DiskComplement(R=10.0)
        w = Window(-1.0, -1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            random_polygon_in_phase(sol, w, rng, max_tries=25)


class TestClassifyFlat:
    def test_case_a_half_plane(self, halfplane):
        rep = classify_flat(halfplane, delta=0.1)
        assert rep.case == "A"
        assert np.allclose(rep.graphs["g"]["x1"], 0.0, atol=1e-9)

    def test_case_b_two_plane_centered(self):
        a = 0.1
        sol = TwoPlane(a=a, motion=RigidMotion(shift=(a / 2.0, 0.0)))
        rep = classify_flat(sol, delta=0.1)
        assert rep.case == "B"
        g1 = rep.graphs["g1"]["x1"]
        g2 = rep.graphs["g2"]["x1"]
        assert np.all(g1 < g2)
        assert np.allclose(g1, -a / 2.0, atol=1e-9)
        assert np.allclose(g2, a / 2.0, atol=1e-9)

    def test_case_c_hairpin(self):
        rep = classify_flat(Hairpin(a=0.05), delta=0.25)
        assert rep.case == "C"
        assert rep.arc_attachment_ok

    def test_hypothesis_violation(self):
        with pytest.raises(DomainError):
            classify_flat(Hairpin(a=0.05), delta=0.1)

    def test_no_boundary(self):
        with pytest.raises(DomainError):
            classify_flat(Hairpin(a=3.0), delta=0.5)

    def test_invalid_delta(self, halfplane):
        with pytest.raises(InvalidInputError):
            classify_flat(halfplane, delta=0.0)


class TestAnnulusFlatCheck:
    def test_half_plane_and_wedge_flat(self):
        for sol in (HalfPlane(), Wedge(s=1.0)):
            reports = annulus_flat_check(sol, delta=0.01,
                                         scales=[0.05, 0.1, 0.2, 0.4])
            assert len(reports) == 4
            for rep in reports:
                assert rep.max_graph_slope <= 1e-6

    def test_tilted_line_detilted(self):
        sol = HalfPlane(motion=RigidMotion(angle=0.3))
        reports = annulus_flat_check(sol, delta=0.01, scales=[0.1, 0.4])
        for rep in reports:
            assert rep.max_graph_slope <= 1e-6
            assert rep.flatness <= 1e-6

    @given(angle=st.floats(0.0, 2.0 * np.pi, exclude_max=True))
    @example(angle=3.0)  # F crosses the inner disk between two vertices
    @settings(max_examples=10, deadline=None)
    def test_rotation_recovered(self, angle):
        sol = HalfPlane(motion=RigidMotion(angle=angle))
        for rep in annulus_flat_check(sol, delta=0.01, scales=[0.1, 0.4]):
            miss = (rep.rotation - angle + np.pi) % (2.0 * np.pi) - np.pi
            assert abs(miss) <= 1e-4
            assert rep.flatness <= 1e-6
            assert rep.max_graph_slope <= 1e-6

    def test_coarse_search_rolls_the_grid(self):
        # rotating by a coarse angle permutes the polar grid's angles
        sol = DiskComplement(0.1, motion=RigidMotion(shift=(0.15, -0.1)))
        base = _annulus_grid(0.02, 0.4)
        pref = np.maximum(base[..., 0], 0.0)
        rolled = _coarse_flatness(sol.eval_u(base), pref)
        coarse = np.linspace(0.0, 2.0 * np.pi, _COARSE_ANGLES, endpoint=False)
        direct = [np.max(np.abs(sol.eval_u(_rotate(base, t)) - pref))
                  for t in coarse]
        assert np.max(np.abs(rolled - direct)) <= 1e-12

    def test_precondition_violated(self):
        with pytest.raises(TopologyError):
            annulus_flat_check(TwoPlane(a=0.5), delta=0.01, scales=[0.1])

    def test_invalid_scales(self, halfplane):
        with pytest.raises(InvalidInputError):
            annulus_flat_check(halfplane, delta=0.01, scales=[0.015])
        with pytest.raises(InvalidInputError):
            annulus_flat_check(halfplane, delta=2.0, scales=[0.5])
