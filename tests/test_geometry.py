"""Marching squares, Hausdorff distance and nearest distances, curvature,
flux balance, the 4-connected labeler, the flat trichotomy classifier, the
annulus probe, and circle maxima.  scipy (`cKDTree`, `ndimage.label`) is the
reference for the numpy nearest-distance query and labeler."""

import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onephase import geometry
from onephase.common import densify_polyline, points_in_polygon
from onephase.conformal import ScherkStrip
from onephase.errors import (DomainError, InvalidInputError, TopologyError)
from onephase.geometry import (_ANNULUS_ANGLES, _ANNULUS_EPS, _ANNULUS_NODES,
                               _ANNULUS_RADII, _BOUND_STRIDE, _COARSE_ANGLES,
                               FreeBoundary, PolyCurve, _annulus_grid,
                               _coarse_best, _component_member,
                               _dist_to_polygon_edges,
                               _label4, _nearest_distance, _ring_bounds,
                               _self_intersects, _sup_at,
                               annulus_flat_check, circle_max, classify_flat,
                               extract_boundary, flux_balance, hausdorff,
                               random_polygon_in_phase)
from onephase.solutions import (DiskComplement, Hairpin, HalfPlane,
                                OneSidedPlane, RigidMotion, Scherk, TwoPlane,
                                Wedge, Window)
from onephase.variational import (ScalarField2D, TestVectorField,
                                  viscosity_slope, weiss_energy)

from helpers import (FAMILY_MEMBERS, count_points, curve_curvature,
                     field_from_solution)


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
        assert not _self_intersects(square.vertices, True, 1e-12)
        bow = PolyCurve(np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0],
                                  [0.0, 1.0], [0.0, 0.0]]), closed=True)
        assert _self_intersects(bow.vertices, True, 1e-12)

    def test_save_load_round_trip(self, tmp_path):
        fb = FreeBoundary([_circle(n=16), np.array([[0.0, 0.0], [1.0, 2.0]])])
        path = tmp_path / "fb.csv"
        fb.save(path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 0], np.repeat([0.0, 1.0], [17, 2]))
        assert np.array_equal(rows[:, 1], np.r_[np.arange(17), np.arange(2)])
        assert np.array_equal(rows[:, 2:], np.vstack([c.vertices for c in
                                                      fb.components]))


def _extract_boundary_oracle(fld, level=0.0):
    """Marching squares on tuple-keyed edges ("h"|"v", j, i), a lambda per
    cell case and a dict of successor lists: the contour code that
    `extract_boundary` replaced.  It must agree with it bit for bit."""
    v = fld.values
    w = fld.window
    h = fld.h
    inside = v > level
    if inside.all() or (~inside).all():
        return FreeBoundary([])
    ny, nx = v.shape

    # crossing coordinates per grid edge, indexed by the lower/left node
    def interp(v0, v1):
        return (level - v0) / (v1 - v0)

    # horizontal edges: (j, i)-(j, i+1); vertical edges: (j, i)-(j+1, i)
    hcross = {}
    vcross = {}
    diff_h = inside[:, :-1] != inside[:, 1:]
    diff_v = inside[:-1, :] != inside[1:, :]
    for j, i in zip(*np.nonzero(diff_h)):
        t = interp(v[j, i], v[j, i + 1])
        hcross[(j, i)] = (w.x0 + (i + t) * h, w.y0 + j * h)
    for j, i in zip(*np.nonzero(diff_v)):
        t = interp(v[j, i], v[j + 1, i])
        vcross[(j, i)] = (w.x0 + i * h, w.y0 + (j + t) * h)

    # per-cell directed segments between edge keys ("h"/"v", j, i)
    bl = inside[:-1, :-1]
    br = inside[:-1, 1:]
    tl = inside[1:, :-1]
    tr = inside[1:, 1:]
    case = (bl.astype(int) + 2 * br.astype(int) + 4 * tr.astype(int)
            + 8 * tl.astype(int))
    segments = []  # (start_key, end_key)

    def bot(j, i):
        return ("h", j, i)

    def top(j, i):
        return ("h", j + 1, i)

    def left(j, i):
        return ("v", j, i)

    def right(j, i):
        return ("v", j, i + 1)

    # directed so that {v > level} lies on the left of travel
    TABLE = {
        1: lambda j, i: [(bot(j, i), left(j, i))],
        2: lambda j, i: [(right(j, i), bot(j, i))],
        4: lambda j, i: [(top(j, i), right(j, i))],
        8: lambda j, i: [(left(j, i), top(j, i))],
        3: lambda j, i: [(right(j, i), left(j, i))],
        6: lambda j, i: [(top(j, i), bot(j, i))],
        12: lambda j, i: [(left(j, i), right(j, i))],
        9: lambda j, i: [(bot(j, i), top(j, i))],
        7: lambda j, i: [(top(j, i), left(j, i))],
        11: lambda j, i: [(right(j, i), top(j, i))],
        13: lambda j, i: [(bot(j, i), right(j, i))],
        14: lambda j, i: [(left(j, i), bot(j, i))],
    }
    for j, i in zip(*np.nonzero((case > 0) & (case < 15))):
        c = case[j, i]
        if c in (5, 10):
            center = 0.25 * (v[j, i] + v[j, i + 1] + v[j + 1, i]
                             + v[j + 1, i + 1])
            if c == 5:  # BL and TR inside
                if center > level:
                    segs = [(top(j, i), left(j, i)), (bot(j, i), right(j, i))]
                else:
                    segs = [(bot(j, i), left(j, i)), (top(j, i), right(j, i))]
            else:  # BR and TL inside
                if center > level:
                    segs = [(left(j, i), bot(j, i)), (right(j, i), top(j, i))]
                else:
                    segs = [(right(j, i), bot(j, i)), (left(j, i), top(j, i))]
            segments.extend(segs)
        else:
            segments.extend(TABLE[c](j, i))

    coords = {}
    for (j, i), p in hcross.items():
        coords[("h", j, i)] = p
    for (j, i), p in vcross.items():
        coords[("v", j, i)] = p

    # chain directed segments into polylines
    nxt = {}
    indeg = {}
    for a, b in segments:
        nxt.setdefault(a, []).append(b)
        indeg[b] = indeg.get(b, 0) + 1
        indeg.setdefault(a, indeg.get(a, 0))

    def pop_next(key):
        lst = nxt.get(key)
        if not lst:
            return None
        return lst.pop()

    comps = []

    def walk(start):
        chain = [start]
        cur = start
        while True:
            nk = pop_next(cur)
            if nk is None:
                break
            chain.append(nk)
            cur = nk
            if cur == start:
                break
        return chain

    # open chains first (starts with no incoming segment), then loops
    starts = sorted(k for k in nxt if indeg.get(k, 0) == 0 and nxt[k])
    for s in starts:
        while nxt.get(s):
            comps.append((walk(s), False))
    loop_starts = sorted(k for k in nxt if nxt[k])
    for s in loop_starts:
        while nxt.get(s):
            chain = walk(s)
            comps.append((chain, chain[0] == chain[-1]))

    curves = []
    for chain, closed in comps:
        pts = np.array([coords[k] for k in chain])
        keep = np.ones(len(pts), dtype=bool)
        keep[1:] = np.any(pts[1:] != pts[:-1], axis=1)
        pts = pts[keep]
        if len(pts) >= 2:
            curves.append(PolyCurve(pts, closed=closed))
    return FreeBoundary(curves)


def _assert_same_boundary(got, want):
    """Equal component order, closed flags and vertices, bit for bit."""
    assert len(got) == len(want)
    for g, w in zip(got.components, want.components):
        assert g.closed == w.closed
        assert g.vertices.shape == w.vertices.shape
        assert np.array_equal(g.vertices.view(np.int64),
                              w.vertices.view(np.int64))


@st.composite
def _contour_fields(draw):
    """Node values on a 2×2 to 24×24 grid: integers (ties at 0, and
    checkerboard saddles), Gaussians rounded to one decimal (ties at 0),
    plain Gaussians, or Gaussians with half the nodes 0."""
    shape = (draw(st.integers(2, 24)), draw(st.integers(2, 24)))
    kind = draw(st.sampled_from(["integer", "rounded", "normal", "half_zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=shape)
    if kind == "integer":
        values = rng.integers(-2, 3, size=shape).astype(float)
    elif kind == "rounded":
        values = np.round(values, 1)
    elif kind == "half_zero":
        values[rng.random(shape) < 0.5] = 0.0
    return values


class TestExtractBoundary:
    def test_half_plane_line(self, halfplane):
        w = Window(-1.0, -1.0, 1.0, 1.0)
        h = 1.0 / 64
        fld = field_from_solution(halfplane, w, h)
        fb = extract_boundary(fld)
        assert len(fb) == 1
        verts = fb.components[0].vertices
        assert np.max(np.abs(verts[:, 0])) < h
        exact = np.array([[0.0, -1.0], [0.0, 1.0]])
        assert hausdorff(fb, exact, densify_step=h / 2.0) < h

    def test_circle_contour(self, disk):
        w = Window(-2.0, -2.0, 2.0, 2.0)
        fld = field_from_solution(disk, w, 1.0 / 32)
        fb = extract_boundary(fld)
        assert len(fb) == 1
        assert fb.components[0].closed
        r = np.hypot(*fb.components[0].vertices.T)
        assert np.max(np.abs(r - 1.0)) < 2.0 / 32

    def test_positive_left_orientation(self, disk):
        w = Window(-2.0, -2.0, 2.0, 2.0)
        fld = field_from_solution(disk, w, 1.0 / 32)
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

    @given(values=_contour_fields())
    # saddle cases 5 and 10 with the cell center below and above 0
    @example(values=np.array([[1.0, -1.0], [-1.0, 1.0]]))
    @example(values=np.array([[2.0, -1.0], [-1.0, 2.0]]))
    @example(values=np.array([[-1.0, 1.0], [1.0, -1.0]]))
    @example(values=np.array([[-1.0, 2.0], [2.0, -1.0]]))
    # loops and open chains through a grid of saddles, with nodes at 0
    @example(values=np.array([[0.0, 1.0, 0.0, 1.0], [1.0, -1.0, 2.0, 0.0],
                              [0.0, 2.0, -1.0, 1.0]]))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_on_random_fields(self, values):
        ny, nx = values.shape
        h = 0.1
        w = Window(-0.3, 0.2, -0.3 + (nx - 1) * h, 0.2 + (ny - 1) * h)
        fld = ScalarField2D(window=w, h=h, values=values)
        _assert_same_boundary(extract_boundary(fld),
                              _extract_boundary_oracle(fld))

    @pytest.mark.parametrize("sol", [
        HalfPlane(), TwoPlane(0.5), Wedge(1.0), DiskComplement(0.5),
        Hairpin(0.25), Scherk(0.5, 0.25)], ids=lambda sol: sol.kind)
    def test_matches_oracle_on_family_fields(self, sol):
        fld = field_from_solution(sol, Window(-1.0, -1.0, 1.0, 1.0),
                                  1.0 / 128)
        fb = extract_boundary(fld)
        assert len(fb) > 0
        _assert_same_boundary(fb, _extract_boundary_oracle(fld))


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

    def test_nan_step_raises(self):
        with pytest.raises(InvalidInputError):
            hausdorff(_circle(), _circle(R=2.0), densify_step=float("nan"))


@st.composite
def _point_set_pairs(draw):
    """Two random planar point sets, of 1 to 2000 and 1 to 400 points (so
    the first may span several blocks of the query), at a common scale
    between 1e-3 and 1e3, the second offset from the first."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    P = rng.normal(size=(draw(st.integers(1, 2000)), 2)) * scale
    Q = (rng.normal(size=(draw(st.integers(1, 400)), 2))
         + rng.normal(size=2)) * scale
    return P, Q


def _hausdorff_oracle(a, b, step):
    from scipy.spatial import cKDTree
    PA = np.vstack([densify_polyline(p, step) for p in a])
    PB = np.vstack([densify_polyline(p, step) for p in b])
    return float(max(cKDTree(PB).query(PA)[0].max(),
                     cKDTree(PA).query(PB)[0].max()))


class TestNearestDistance:
    @given(pair=_point_set_pairs())
    @settings(max_examples=60, deadline=None)
    def test_bit_equal_to_kdtree(self, pair):
        from scipy.spatial import cKDTree
        P, Q = pair
        assert np.array_equal(_nearest_distance(P, Q), cKDTree(Q).query(P)[0])

    @given(pair=_point_set_pairs(), step=st.floats(0.05, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_hausdorff_bit_equal_to_kdtree(self, pair, step):
        P, Q = pair[0][:60], pair[1][:60]
        scale = np.max(np.abs(np.vstack([P, Q])))
        a, b = [P[:len(P) // 2 + 1], P[len(P) // 2:]], [Q]
        assert hausdorff(a, b, densify_step=step * scale) == \
            _hausdorff_oracle(a, b, step * scale)


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


def _edge_flux_oracle(sol, P, step):
    """flux, rest measure and Lipschitz bound of `flux_balance` on the open
    counterclockwise polygon P, with one phase call per edge."""
    gt, gw = geometry._GAUSS2
    edges = []
    for i in range(len(P)):
        a, d = P[i], P[(i + 1) % len(P)] - P[i]
        elen = float(np.hypot(d[0], d[1]))
        pieces = max(1, int(np.ceil(elen / step)))
        ts = ((np.arange(pieces)[:, None] + gt[None, :]) / pieces).ravel()
        ws = np.tile(gw / pieces, pieces) * elen
        pts = a[None, :] + ts[:, None] * d[None, :]
        pos = sol.in_positive_phase(pts)
        if np.any(pos):
            edges.append((np.array([d[1], -d[0]]) / elen, ws[pos], pts[pos]))
    flux = rest = lip = 0.0
    if edges:
        grads = sol.eval_grad(np.vstack([p for _, _, p in edges]))
        start = 0
        for nu, ws, _ in edges:
            g = grads[start:start + len(ws)]
            start += len(ws)
            flux += float(np.sum(ws * (g @ nu)))
            rest += float(np.sum(ws))
            lip = max(lip, float(np.max(np.hypot(g[:, 0], g[:, 1]))))
    return flux, rest, lip


def _fb_measure_oracle(sol, P, step):
    """`flux_balance`'s free-boundary measure on the counterclockwise
    polygon P, with two phase calls per free-boundary curve."""
    pad = 10.0 * step
    win = Window(P[:, 0].min() - pad, P[:, 1].min() - pad,
                 P[:, 0].max() + pad, P[:, 1].max() + pad)
    total = 0.0
    for curve in sol.free_boundary_curves(win, step=step / 2.0):
        dense = densify_polyline(curve, step / 2.0)
        mids = 0.5 * (dense[:-1] + dense[1:])
        seg = np.diff(dense, axis=0)
        seglen = np.hypot(seg[:, 0], seg[:, 1])
        inside = points_in_polygon(mids, P) & (seglen > 0)
        if not np.any(inside):
            continue
        tang = seg[inside] / seglen[inside, None]
        off = 0.5 * step * np.stack([tang[:, 1], -tang[:, 0]], axis=-1)
        mult = (sol.in_positive_phase(mids[inside] + off).astype(float)
                + sol.in_positive_phase(mids[inside] - off).astype(float))
        total += float(np.sum(seglen[inside] * mult))
    return total


class TestFluxBalance:
    @pytest.mark.parametrize("sol", FAMILY_MEMBERS,
                             ids=lambda sol: sol.kind)
    @pytest.mark.parametrize("poly", [
        [[-0.5, -3.0], [3.0, -3.0], [3.0, 3.0], [-0.5, 3.0]],
        [[0.6, -0.4], [1.2, -0.2], [1.3, 0.9], [0.4, 0.5]],
        [[-2.0, -2.0], [-1.5, -2.0], [-1.5, -1.5]]],
        ids=["straddling", "inside", "far_left"])
    def test_one_phase_call_matches_per_edge_calls(self, sol, poly):
        P = np.array(poly)
        rep = flux_balance(sol, P, step=1e-2)
        flux, rest, lip = _edge_flux_oracle(sol, P, 1e-2)
        assert rep.rest_measure.hex() == rest.hex()
        assert rep.lipschitz_bound.hex() == lip.hex()
        assert rep.net_flux.hex() == (flux - rep.fb_measure).hex()

    @pytest.mark.parametrize("sol", FAMILY_MEMBERS,
                             ids=lambda sol: sol.kind)
    @pytest.mark.parametrize("poly", [
        [[-0.5, -3.0], [3.0, -3.0], [3.0, 3.0], [-0.5, 3.0]],
        [[0.6, -0.4], [1.2, -0.2], [1.3, 0.9], [0.4, 0.5]],
        [[-2.0, -2.0], [-1.5, -2.0], [-1.5, -1.5]]],
        ids=["straddling", "inside", "far_left"])
    def test_one_side_call_matches_per_curve_calls(self, sol, poly):
        P = np.array(poly)
        rep = flux_balance(sol, P, step=1e-2)
        assert rep.fb_measure.hex() == _fb_measure_oracle(sol, P, 1e-2).hex()

    def test_two_phase_calls(self, monkeypatch):
        # one for the edges' Gauss nodes, one for both sides of the three
        # ovals' segments (7 with two calls per curve)
        sol = Scherk(0.5, 0.3)
        sizes = count_points(monkeypatch, sol, "in_positive_phase")
        rect = np.array([[-0.5, -3.0], [3.0, -3.0], [3.0, 3.0], [-0.5, 3.0]])
        rep = flux_balance(sol, rect, step=1e-2)
        assert len(sizes) == 2 and rep.fb_measure > 0.0

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

    @pytest.mark.parametrize("name", ["halfplane", "hairpin", "scherk"])
    def test_one_gradient_call(self, name, request, monkeypatch):
        # every edge's positive-phase Gauss nodes go to one eval_grad call
        sol = request.getfixturevalue(name)
        grad, calls = sol.eval_grad, []
        monkeypatch.setattr(sol, "eval_grad",
                            lambda p: calls.append(len(p)) or grad(p))
        # the left edge and the top and bottom corners lie in the zero phase
        rect = np.array([[-0.5, -3.0], [3.0, -3.0], [3.0, 3.0], [-0.5, 3.0]])
        rep = flux_balance(sol, rect, step=1e-2)
        assert len(calls) == 1
        assert 0.0 < rep.rest_measure < 19.0 and rep.fb_measure > 0.0

    def test_no_positive_node(self, disk, monkeypatch):
        monkeypatch.setattr(disk, "eval_grad", lambda p: pytest.fail())
        square = 0.5 * np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0],
                                 [-1.0, 1.0]])
        rep = flux_balance(disk, square, step=1e-2)
        assert asdict(rep) == {"net_flux": 0.0, "fb_measure": 0.0,
                               "rest_measure": 0.0, "lipschitz_bound": 0.0,
                               "lemma_holds": True}

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

    def test_closed_ring_same_as_open_polygon(self, halfplane):
        square = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
        ring = np.vstack([square, square[:1]])
        assert (asdict(flux_balance(halfplane, ring, step=2e-3))
                == asdict(flux_balance(halfplane, square, step=2e-3)))

    @pytest.mark.parametrize("poly", [
        [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]],
        [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
    ], ids=["repeated_vertex", "two_distinct_open", "two_distinct_closed"])
    def test_repeated_or_too_few_vertices_rejected(self, halfplane, poly):
        with pytest.raises(InvalidInputError):
            flux_balance(halfplane, np.array(poly))


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
            random_polygon_in_phase(sol, w, rng)


def _spiral(n):
    """One 4-connected spiral path on an n×n grid, with a blank line
    between its turns."""
    m = np.zeros((n, n), dtype=bool)
    r = c = 0
    m[0, 0] = True
    legs = [n - 1, n - 1] + [k for k in range(n - 1, 0, -2) for _ in (0, 1)]
    for leg, (dr, dc) in zip(legs, [(0, 1), (1, 0), (0, -1), (-1, 0)] * n):
        for _ in range(leg):
            r, c = r + dr, c + dc
            m[r, c] = True
    return m


def _checkerboard(rows, cols):
    return np.add.outer(np.arange(rows), np.arange(cols)) % 2 == 0


@st.composite
def _masks(draw):
    """Random boolean masks of 1×1 to 60×60 nodes at any fill density."""
    shape = (draw(st.integers(1, 60)), draw(st.integers(1, 60)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random(shape) < draw(st.floats(0.0, 1.0))


class TestLabel4:
    @given(mask=_masks())
    @example(mask=_spiral(31))
    @example(mask=~_spiral(31))
    @example(mask=_checkerboard(41, 37))
    @example(mask=~_checkerboard(41, 37))
    @example(mask=np.tile(np.arange(30) % 2 == 0, (25, 1)))
    @example(mask=np.ones((23, 17), dtype=bool))
    @example(mask=np.zeros((23, 17), dtype=bool))
    @example(mask=np.arange(50)[None, :] % 3 > 0)
    @example(mask=np.arange(50)[:, None] % 3 > 0)
    @example(mask=np.eye(12, dtype=bool))
    @example(mask=np.ones((1, 1), dtype=bool))
    @settings(max_examples=200, deadline=None)
    def test_matches_ndimage_label(self, mask):
        from scipy import ndimage
        want = ndimage.label(mask, structure=ndimage.generate_binary_structure(
            2, 1))
        labels, n = _label4(mask)
        assert n == want[1]
        assert labels.dtype == want[0].dtype
        assert np.array_equal(labels, want[0])

    def test_spiral_is_one_component(self):
        labels, n = _label4(_spiral(61))
        assert n == 1
        assert labels[0, 0] == 1


#: half the width of the Scherk s = ½ oval at x₂ = 0, at scale a = 1
_SCHERK_HALF_WIDTH = 0.75 * np.arccosh(1.25 / 0.75)

#: per family, a member and a δ whose free boundary is δ-flat in B₃
_FLAT_IN_B3 = {
    "half_plane": (HalfPlane(), 0.1),
    "two_plane": (TwoPlane(0.1, motion=RigidMotion(shift=(0.05, 0.0))), 0.1),
    "wedge": (Wedge(1.0), 0.1),
    "hairpin": (Hairpin(0.05), 0.25),
    "disk_complement": (DiskComplement(
        100.0, motion=RigidMotion(shift=(-100.0, 0.0))), 0.1),
    "scherk": (Scherk(0.5, 50.0, motion=RigidMotion(
        shift=(-50.0 * _SCHERK_HALF_WIDTH, 0.0))), 0.2),
    "one_sided_plane": (OneSidedPlane(0.5), 0.1),
}


def _ball_nodes(R):
    """The trichotomy's node grid over [−R, R]² and its mask of B_R."""
    xs = np.linspace(-R, R, geometry._TRICHOTOMY_NODES)
    X, Y = np.meshgrid(xs, xs)
    return np.stack([X, Y], axis=-1), X**2 + Y**2 <= R * R


class TestClassifyFlat:
    @pytest.mark.parametrize("kind", sorted(_FLAT_IN_B3) + ["field"])
    def test_phases_match_whole_grid(self, kind, monkeypatch):
        """The phases counted on B₁ and B₂ from u at the disks' nodes are
        those of u on the whole grid; the wedge's match no case."""
        if kind == "field":
            sol = field_from_solution(TwoPlane(0.5), Window(-3.5, -3.5, 3.5,
                                                            3.5), 1.0 / 40)
            delta, u_at = 0.6, sol.interpolate
        else:
            sol, delta = _FLAT_IN_B3[kind]
            u_at = sol.eval_u
        seen, count = [], geometry._phase_components
        monkeypatch.setattr(geometry, "_phase_components",
                            lambda u, active, eps: seen.append((u, active))
                            or count(u, active, eps))
        try:
            classify_flat(sol, delta)
        except TopologyError:
            assert kind == "wedge"
        eps = geometry._TRICHOTOMY_EPS
        assert len(seen) == 2
        for (u, active), R in zip(seen, (1.0, 2.0)):
            nodes, want_active = _ball_nodes(R)
            U = u_at(nodes)
            assert np.array_equal(active, want_active)
            assert np.array_equal((u > eps) & active, (U > eps) & active)
            assert np.array_equal((u <= eps) & active, (U <= eps) & active)

    def test_evaluates_the_disks_only(self, monkeypatch):
        """u at the nodes of B₁ and of B₂, not all 161² nodes per ball."""
        sol = HalfPlane()
        sizes = count_points(monkeypatch, sol, "eval_u")
        classify_flat(sol, 0.1)
        assert sizes == [int(_ball_nodes(R)[1].sum()) for R in (1.0, 2.0)]
        assert max(sizes) < 0.8 * geometry._TRICHOTOMY_NODES ** 2

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

    def test_case_a_half_plane_field(self, halfplane):
        w = Window(-3.5, -3.5, 3.5, 3.5)
        fld = field_from_solution(halfplane, w, 1.0 / 40)
        assert classify_flat(fld, delta=0.1).case == "A"

    def test_case_b_two_plane_field(self, twoplane):
        w = Window(-3.5, -3.5, 3.5, 3.5)
        fld = field_from_solution(twoplane, w, 1.0 / 40)
        assert classify_flat(fld, delta=0.6).case == "B"


def _member_oracle(labels, t_label, fi, fj):
    """Component membership by the nearest positive node of the 3×3 block,
    evaluated at every point."""
    n = labels.shape[0]
    i0 = np.clip(np.round(fi).astype(int), 1, n - 2)
    j0 = np.clip(np.round(fj).astype(int), 1, n - 2)
    member = np.zeros(fi.shape, dtype=bool)
    bestd = np.full(fi.shape, np.inf)
    for dj in (-1, 0, 1):
        for di in (-1, 0, 1):
            ii = i0 + di
            jj = j0 + dj
            d2 = (fi - ii) ** 2 + (fj - jj) ** 2
            ispos = labels[jj, ii] > 0
            closer = ispos & (d2 < bestd)
            member = np.where(closer, labels[jj, ii] == t_label, member)
            bestd = np.where(closer, d2, bestd)
    return member


def _annulus_active(delta):
    """The labelling grid's nodes and its annulus mask B₁ ∖ B_δ."""
    xs = np.linspace(-1.0, 1.0, _ANNULUS_NODES)
    X, Y = np.meshgrid(xs, xs)
    R2 = X**2 + Y**2
    return np.stack([X, Y], axis=-1), (R2 <= 1.0) & (R2 >= delta * delta)


def _annulus_phase(sol, delta):
    """{u > _ANNULUS_EPS} on the annulus nodes from u on the whole grid."""
    nodes, active = _annulus_active(delta)
    return (sol.eval_u(nodes) > _ANNULUS_EPS) & active


def _annulus_labels(sol, delta=0.01):
    from scipy import ndimage
    return ndimage.label(_annulus_phase(sol, delta))


def _aligned_points(rng, n, count):
    """Grid coordinates on nodes, on exact midpoints between nodes (ties),
    and a few ulps either side of the rounded node's fast-path margin."""
    k = rng.integers(0, n, (count, 2)).astype(float)
    offsets = np.array([0.0, 0.5, -0.5, 0.5 - 2.0**-39, 0.5 - 2.0**-41,
                        -(0.5 - 2.0**-39), -(0.5 - 2.0**-41), 0.25])
    return k + offsets[rng.integers(0, len(offsets), (count, 2))]


def _membership_points(rng):
    """Grid coordinates: random points (some outside the grid, so the block
    is clipped), rotated polar grids of the probe, and aligned points."""
    n = _ANNULUS_NODES - 1
    rand = rng.uniform(-3.0, n + 3.0, (4000, 2))
    polar = np.concatenate([
        RigidMotion(angle=t).to_world(_annulus_grid(0.02, r)).reshape(-1, 2)
        for r in (0.1, 0.4, 1.0) for t in np.linspace(0.0, 6.0, 7)])
    polar = (polar + 1.0) * (n / 2.0)
    return np.vstack([rand, polar, _aligned_points(rng, n, 2000)])


def _rolled_gaps(U0, Pref):
    """|U(ρ_θ ·) − Pref| on the grid at every coarse rotation
    θ_k = 2πk/_COARSE_ANGLES, from U0 rolled back by k·step rows."""
    step = _ANNULUS_ANGLES // _COARSE_ANGLES
    return (np.abs(np.roll(U0, -step * k, axis=0) - Pref)
            for k in range(_COARSE_ANGLES))


def _coarse_sweep(U0, Pref):
    """The full sweep that `_coarse_best` prunes: each coarse rotation's
    sup over the grid."""
    return np.array([np.max(gap) for gap in _rolled_gaps(U0, Pref)])


#: per family, a member whose free boundary crosses B₁ ∖ B_{0.05} in two
#: strands
_FLAT_IN_B1 = {
    "half_plane": HalfPlane(motion=RigidMotion(angle=0.3)),
    "two_plane": TwoPlane(2.0, motion=RigidMotion(angle=0.2)),
    "wedge": Wedge(1.0),
    "hairpin": Hairpin(10.0, motion=RigidMotion(
        angle=np.pi / 2, shift=(10.0 * (np.pi / 2 + 1.0), 0.0))),
    "disk_complement": DiskComplement(20.0, motion=RigidMotion(
        shift=(-20.0, 0.0))),
    "scherk": Scherk(0.5, 20.0, motion=RigidMotion(
        shift=(-20.0 * _SCHERK_HALF_WIDTH, 0.0))),
    "one_sided_plane": OneSidedPlane(0.5),
}


class TestAnnulusSampling:
    @pytest.mark.parametrize("kind", sorted(_FLAT_IN_B1))
    def test_labels_the_whole_grid_phase(self, kind, monkeypatch):
        """The phase labelled from u at the annulus nodes is the one u on
        the whole grid gives."""
        sol, masks, label = _FLAT_IN_B1[kind], [], geometry._label4
        monkeypatch.setattr(geometry, "_label4",
                            lambda m: masks.append(m) or label(m))
        annulus_flat_check(sol, 0.05, [0.2, 0.5])
        assert np.array_equal(masks[0], _annulus_phase(sol, 0.05))

    def test_evaluates_the_annulus_nodes_only(self, monkeypatch):
        """The labelling grid's u call gets the nodes of B₁ ∖ B_δ, not all
        241² nodes."""
        sol = HalfPlane()
        sizes = count_points(monkeypatch, sol, "eval_u")
        annulus_flat_check(sol, 0.05, [0.5])
        assert sizes[0] == int(_annulus_active(0.05)[1].sum())
        assert sizes[0] < 0.8 * _ANNULUS_NODES ** 2


class TestAnnulusFlatCheck:
    @pytest.mark.parametrize("sol", [
        HalfPlane(motion=RigidMotion(angle=0.3)), TwoPlane(a=0.5),
        Hairpin(a=0.05), Scherk(0.3, 0.2)], ids=lambda sol: sol.kind)
    def test_membership_matches_block_oracle(self, sol):
        labels, n_comp = _annulus_labels(sol)
        assert n_comp >= 1
        pts = _membership_points(np.random.default_rng(n_comp))
        fi, fj = pts[:, 0], pts[:, 1]
        for t_label in range(1, n_comp + 1):
            code = (labels > 0).astype(np.int8) + (labels == t_label)
            got = _component_member(code, fi, fj)
            assert np.array_equal(got, _member_oracle(labels, t_label,
                                                      fi, fj))

    @pytest.mark.parametrize("seed", range(5))
    def test_membership_matches_block_oracle_on_random_labels(self, seed):
        # diagonal neighbours in other components make every tie count
        rng = np.random.default_rng(seed)
        n = 9
        labels = rng.integers(0, 4, (n, n))
        pts = np.vstack([rng.uniform(-2.0, n + 1.0, (3000, 2)),
                         _aligned_points(rng, n - 1, 3000)])
        for t_label in (1, 2, 3):
            code = (labels > 0).astype(np.int8) + (labels == t_label)
            got = _component_member(code, pts[:, 0], pts[:, 1])
            assert np.array_equal(got, _member_oracle(labels, t_label,
                                                      pts[:, 0], pts[:, 1]))

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
        U0 = sol.eval_u(base)
        twice = np.concatenate([U0, U0])
        rolled = [_sup_at(twice, pref, k) for k in range(_COARSE_ANGLES)]
        coarse = np.linspace(0.0, 2.0 * np.pi, _COARSE_ANGLES, endpoint=False)
        direct = [np.max(np.abs(
            sol.eval_u(RigidMotion(angle=t).to_world(base)) - pref))
            for t in coarse]
        assert np.max(np.abs(np.subtract(rolled, direct))) <= 1e-12
        assert _coarse_best(U0, pref) == int(np.argmin(direct))

    @given(angle=st.floats(0.0, 2.0 * np.pi, exclude_max=True)
           | st.sampled_from(np.linspace(0.0, 2.0 * np.pi, _COARSE_ANGLES,
                                         endpoint=False)[::37].tolist()),
           shift=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
           family=st.sampled_from(["half_plane", "wedge_1", "wedge_half",
                                   "disk"]),
           r=st.sampled_from([0.05, 0.1, 0.4, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_coarse_best_is_the_full_sweeps_first_argmin(self, angle, shift,
                                                         family, r):
        motion = RigidMotion(angle=angle, shift=shift)
        sol = {"half_plane": HalfPlane(motion=motion),
               "wedge_1": Wedge(s=1.0, motion=motion),
               "wedge_half": Wedge(s=0.5, motion=motion),
               "disk": DiskComplement(0.1, motion=motion)}[family]
        base = _annulus_grid(0.02, r)
        pref = np.maximum(base[..., 0], 0.0)
        U0 = sol.eval_u(base)
        assert _coarse_best(U0, pref) == int(np.argmin(
            _coarse_sweep(U0, pref)))
        # each bound is the max of the same terms on the sampled outer angles
        assert np.array_equal(_ring_bounds(U0, pref), [
            np.max(gap[::_BOUND_STRIDE, -1])
            for gap in _rolled_gaps(U0, pref)])

    def test_coarse_best_takes_the_first_of_tied_rotations(self):
        # U0 constant along angles: every rotation has the same sup
        base = _annulus_grid(0.02, 0.4)
        pref = np.maximum(base[..., 0], 0.0)
        U0 = np.tile(np.linspace(0.0, 0.3, _ANNULUS_RADII),
                     (_ANNULUS_ANGLES, 1))
        assert np.all(_coarse_sweep(U0, pref) == _coarse_sweep(U0, pref)[0])
        assert _coarse_best(U0, pref) == 0

    def test_one_full_sup_per_scale_on_the_half_plane(self, monkeypatch):
        # the outer-ring bounds leave only the best rotation to sweep
        calls = []

        def counting(twice, pref, k):
            calls.append(k)
            return _sup_at(twice, pref, k)

        monkeypatch.setattr(geometry, "_sup_at", counting)
        scales = [0.05, 0.1, 0.2, 0.4]
        annulus_flat_check(HalfPlane(), delta=0.01, scales=scales)
        assert len(calls) == len(scales)

    def test_one_labelling_and_two_grid_evaluations_per_scale(
            self, monkeypatch):
        # the labelling grid, then per scale the coarse search's grid and
        # the flatness at the polished rotation
        calls = []
        eval_u = HalfPlane.eval_u

        def counting(self, pts):
            calls.append(1)
            return eval_u(self, pts)

        monkeypatch.setattr(HalfPlane, "eval_u", counting)
        scales = [0.05, 0.1, 0.2, 0.4]
        annulus_flat_check(HalfPlane(), delta=0.01, scales=scales)
        assert 0 < len(calls) <= 1 + 2 * len(scales)

    def test_precondition_violated(self):
        with pytest.raises(TopologyError):
            annulus_flat_check(TwoPlane(a=0.5), delta=0.01, scales=[0.1])

    def test_invalid_scales(self, halfplane):
        with pytest.raises(InvalidInputError):
            annulus_flat_check(halfplane, delta=0.01, scales=[0.015])
        with pytest.raises(InvalidInputError):
            annulus_flat_check(halfplane, delta=2.0, scales=[0.5])



_SQUARE = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
_BAD = (np.nan, np.inf, -np.inf, 0.0)


def _bad_lengths(where, name, call, values=_BAD):
    """One case per value: `call(value)` must name the length and value."""
    return [pytest.param(
        lambda v=v: call(v),
        re.escape(f"{where} requires 0 < {name} < inf, got {v}"),
        id=f"{where}_{name}_{v}") for v in values]


def _out_of_range(where, name, rule, call, got="{}"):
    """One case per value 0, 1.5, NaN and inf outside a bounded range:
    the whole message of `call(value)` gives the range and the value."""
    return [pytest.param(
        lambda v=v: call(v),
        "^" + re.escape(f"{where} requires {rule}, got {got.format(v)}") + "$",
        id=f"{where}_{name}_{v}") for v in (0.0, 1.5, np.nan, np.inf)]


def _bad_points(where, name, call):
    """One case per non-finite coordinate: `call(point)` must name the
    point and the coordinate."""
    return [pytest.param(
        lambda p=p: call(p),
        re.escape(f"{where} requires a finite {name}, got {bad}"),
        id=f"{where}_{name}_{p}")
        for p, bad in (((np.nan, 0.0), np.nan), ((np.inf, 0.0), np.inf),
                       ((0.0, -np.inf), -np.inf))]


@pytest.mark.parametrize("call, names", [
    *[pytest.param(lambda step=step: flux_balance(HalfPlane(), _SQUARE,
                                                  step=step),
                   "step", id=f"flux_balance_step_{step}")
      for step in (0.0, -1.0, np.nan, np.inf)],
    pytest.param(lambda: annulus_flat_check(HalfPlane(), delta=0.01,
                                            scales=[0.5, np.nan]),
                 "scales", id="annulus_scale_nan"),
    pytest.param(lambda: weiss_energy(HalfPlane(), (0.0, 0.0), np.inf),
                 "r < inf", id="weiss_energy_r_inf"),
    pytest.param(lambda: circle_max(HalfPlane(), (0.0, 0.0), np.inf),
                 "r < inf", id="circle_max_r_inf"),
    pytest.param(lambda: viscosity_slope(HalfPlane(), (0.0, 0.0), r=np.inf),
                 "r < inf", id="viscosity_slope_r_inf"),
    *[pytest.param(lambda d=d: viscosity_slope(HalfPlane(), (0.0, 0.0), d),
                   "direction", id=f"viscosity_slope_direction_{d}")
      for d in ((0.0, 0.0), (np.inf, 0.0), (np.nan, 1.0))],
    *_bad_lengths("Window.grid", "h", Window(-1.0, -1.0, 1.0, 1.0).grid),
    *_bad_lengths("free_boundary_curves", "step",
                  lambda v: HalfPlane().free_boundary_curves(
                      Window(-1.0, -1.0, 1.0, 1.0), step=v)),
    *_bad_lengths("rescale", "λ", HalfPlane().rescale),
    *_bad_lengths("OneSidedPlane", "s", lambda v: OneSidedPlane(s=v)),
    *_bad_lengths("TestVectorField", "r0",
                  lambda v: TestVectorField((0.0, 0.0), v, 0.2)),
    *_bad_lengths("TestVectorField", "r1",
                  lambda v: TestVectorField((0.0, 0.0), 0.1, v)),
    *_bad_points("TestVectorField", "center",
                 lambda p: TestVectorField(p, 0.1, 0.2)),
    *[pytest.param(lambda d=d: TestVectorField((0.0, 0.0), 0.1, 0.2, d),
                   re.escape(f"requires 0 < |direction| < inf, got {n}"),
                   id=f"TestVectorField_direction_{d}")
      for d, n in (((0.0, 0.0), 0.0), ((np.nan, 1.0), np.nan),
                   ((np.inf, 0.0), np.inf), ((0.0, -np.inf), np.inf))],
    *_bad_lengths("weiss_energy", "r",
                  lambda v: weiss_energy(HalfPlane(), (0.0, 0.0), v),
                  (np.nan, -np.inf, 0.0)),
    *_bad_points("weiss_energy", "center",
                 lambda p: weiss_energy(HalfPlane(), p, 1.0)),
    *_bad_lengths("circle_max", "r",
                  lambda v: circle_max(HalfPlane(), (0.0, 0.0), v),
                  (np.nan, -np.inf, 0.0)),
    *_bad_points("circle_max", "center",
                 lambda p: circle_max(HalfPlane(), p, 1.0)),
    *_bad_lengths("viscosity_slope", "r",
                  lambda v: viscosity_slope(HalfPlane(), (0.0, 0.0), r=v),
                  (np.nan, -np.inf, 0.0)),
    *_bad_points("viscosity_slope", "x0",
                 lambda p: viscosity_slope(HalfPlane(), p)),
    pytest.param(lambda: viscosity_slope(HalfPlane(), (0.0, 0.0),
                                         (0.0, -np.inf)),
                 re.escape("viscosity_slope requires 0 < |direction| < inf, "
                           "got inf"),
                 id="viscosity_slope_direction_(0.0, -inf)"),
    *_bad_lengths("flux_balance", "step",
                  lambda v: flux_balance(HalfPlane(), _SQUARE, step=v),
                  (-np.inf,)),
    *_bad_points("flux_balance", "polygon",
                 lambda p: flux_balance(HalfPlane(), np.vstack([_SQUARE, p]))),
    *_bad_lengths("classify_flat", "delta",
                  lambda v: classify_flat(HalfPlane(), v)),
    # a vertex of either set, before the default step is formed from them
    *_bad_points("hausdorff", "vertex",
                 lambda p: hausdorff([np.array([[0.0, 0.0], p])], _SQUARE)),
    *_bad_points("hausdorff", "vertex",
                 lambda p: hausdorff(_SQUARE, [np.array([[0.0, 0.0], p])])),
    *_out_of_range("Wedge", "s", "0 < s ≤ 1", Wedge),
    *_out_of_range("Scherk", "s", "0 < s < 1", Scherk),
    *_out_of_range("ScherkStrip", "s", "0 < s < 1", ScherkStrip),
    *_out_of_range("annulus_flat_check", "delta", "0 < delta < 1",
                   lambda v: annulus_flat_check(HalfPlane(), v, [0.5])),
    *_out_of_range("annulus_flat_check", "scale", "scales in (2·delta, 1]",
                   lambda v: annulus_flat_check(HalfPlane(), 0.01, [v]),
                   got="[{}]"),
])
def test_out_of_range_size_rejected(call, names):
    """A length, scale, point or direction that is not finite and in range
    is an InvalidInputError that names it, not a NaN or an error from deep
    inside."""
    with pytest.raises(InvalidInputError, match=names):
        call()
