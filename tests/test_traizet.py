"""Wirtinger derivative oracles, the closed-form Traizet map against the
path-integral oracle route, Scherk periods, mesh construction/welding,
sphere-calibrated mean curvature, free-boundary orthogonality, the catenoid
overlay, and file outputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onephase.conformal
from onephase.cli import main
from onephase.conformal import (scherk_loop_implicit, scherk_loop_point,
                                scherk_loop_x2_extent)
from onephase.errors import DomainError, InvalidInputError, TopologyError
from onephase.quad import gauss_nodes
from onephase.solutions import (BOUNDARY_TOL, DiskComplement, Hairpin,
                                HalfPlane, OneSidedPlane, RigidMotion, Scherk,
                                TwoPlane, Wedge)
from onephase.traizet import (_CHUNK, CANONICAL_PATCHES, SurfaceMesh,
                              build_mesh, canonical_mesh, curvature_csv,
                              mean_curvature, orthogonality_check,
                              patch_diskcomplement, patch_hairpin,
                              patch_halfplane, patch_scherk, traizet_map)

from helpers import traced_peak


# ---------------------------------------------------------------------------
# the oracle route: ∫ (2u_z)² dz by quadrature along positive-phase paths,
# independent of the closed-form primitives
# ---------------------------------------------------------------------------

def _squared_diff(sol, pts):
    """(2 ∂u/∂z)² at interior quadrature points, via the a.e. gradient."""
    g = sol.eval_grad(pts)
    w = g[..., 0] - 1j * g[..., 1]
    return w * w


def _segment_integral(sol, z0, z1, tol=1e-10):
    """∫ (2u_z)² dz along the straight segment z0 → z1, composite 12-point
    Gauss with piece doubling from 4 to at most 512 pieces, until the value
    stabilizes below tol."""
    t, wts = gauss_nodes(12)
    dz = z1 - z0
    prev = None
    pieces = 4
    while pieces <= 512:
        offs = (np.arange(pieces)[:, None] + t[None, :]) / pieces
        zs = z0 + offs.ravel() * dz
        pts = np.stack([zs.real, zs.imag], axis=-1)
        vals = _squared_diff(sol, pts).reshape(pieces, len(t))
        total = complex(np.sum(vals @ wts) * dz / pieces)
        if prev is not None and abs(total - prev) <= tol:
            return total
        prev = total
        pieces *= 2
    return prev


def _grid_route(sol, p0, p1, resolution):
    """8-connected BFS through positive-phase grid nodes from p0 to p1.

    Prefers nodes with u at least one grid cell (u is 1-Lipschitz, so this
    keeps the route a cell away from the free boundary); falls back to bare
    positivity when clearance closes off every path.  The box reaches past
    the zero phase between the endpoints: for a Scherk solution πa above
    and below both (in the body frame), which holds a saddle gap beside the
    oval; for a hairpin to the axis x₂ = 0 at each endpoint's x₁, since
    the positive phase holds the vertical segment from a point to the axis;
    for a disk complement to R + span on each side of the centre, so that
    near-antipodal points see a way round the disk.
    Returns the waypoint list, or None if even the fallback grid is
    disconnected."""
    lo = np.minimum(p0, p1)
    hi = np.maximum(p0, p1)
    span = max(float(np.max(hi - lo)), 1e-6)
    lo = lo - 0.35 * span
    hi = hi + 0.35 * span
    b = sol.motion.to_body(np.array([p0, p1]))
    reach = []
    if isinstance(sol, Scherk):
        reach = [[x1, x2 + dx2] for x1 in (b[:, 0].min(), b[:, 0].max())
                 for x2 in b[:, 1] for dx2 in (-np.pi * sol.a, np.pi * sol.a)]
    elif isinstance(sol, Hairpin):
        reach = [[x1, 0.0] for x1 in b[:, 0]]
    elif isinstance(sol, DiskComplement):
        reach = [[sx * (sol.R + span), sy * (sol.R + span)]
                 for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)]
    if reach:
        reach = sol.motion.to_world(np.array(reach))
        lo = np.minimum(lo, reach.min(axis=0))
        hi = np.maximum(hi, reach.max(axis=0))
    n = int(resolution)
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    spacing = xs[1] - xs[0]
    X, Y = np.meshgrid(xs, ys)
    u = np.asarray(sol.eval_u(np.stack([X, Y], axis=-1)), dtype=float)

    def node_of(p):
        i = int(round((p[0] - lo[0]) / (xs[1] - xs[0])))
        j = int(round((p[1] - lo[1]) / (ys[1] - ys[0])))
        return (max(0, min(n - 1, j)), max(0, min(n - 1, i)))

    def bfs(pos):
        def nearest_pos(node):
            if pos[node]:
                return node
            jj, ii = np.nonzero(pos)
            if len(jj) == 0:
                return None
            k = np.argmin((jj - node[0]) ** 2 + (ii - node[1]) ** 2)
            return (int(jj[k]), int(ii[k]))

        start = nearest_pos(node_of(p0))
        goal = nearest_pos(node_of(p1))
        if start is None or goal is None:
            return None
        prev = {start: None}
        queue = [start]
        qi = 0
        while qi < len(queue):
            cur = queue[qi]
            qi += 1
            if cur == goal:
                break
            j, i = cur
            for dj in (-1, 0, 1):
                for di in (-1, 0, 1):
                    nj, ni = j + dj, i + di
                    if 0 <= nj < n and 0 <= ni < n and pos[nj, ni] \
                            and (nj, ni) not in prev:
                        prev[(nj, ni)] = cur
                        queue.append((nj, ni))
        if goal not in prev:
            return None
        path = []
        cur = goal
        while cur is not None:
            path.append(np.array([xs[cur[1]], ys[cur[0]]]))
            cur = prev[cur]
        return path[::-1]

    route = bfs(u > spacing)
    if route is None:
        route = bfs(u > 0.0)
    return route


def _visible(sol, p0, p1, step=None):
    """Certify that the open segment p0 → p1 stays in the positive phase.

    Since |∇u| ≤ 1, u is 1-Lipschitz, so u > step/2 at samples spaced by
    `step` guarantees u > 0 between them.  Near the segment endpoints the
    threshold relaxes proportionally to the distance from the endpoint (so
    endpoints may sit on the free boundary itself); a *tangential* approach
    to the free boundary there cannot be certified by sampling and is the
    caller's responsibility."""
    length = float(np.hypot(*(p1 - p0)))
    if length == 0.0:
        return True
    if step is None:
        step = length / 64.0
    n = max(8, int(np.ceil(length / step)))
    t = np.linspace(0.0, 1.0, n + 1)[1:-1]
    pts = p0[None, :] + t[:, None] * (p1 - p0)[None, :]
    u = np.asarray(sol.eval_u(pts), dtype=float)
    d_end = np.minimum(t, 1.0 - t) * length
    thresh = np.minimum(0.5 * length / n, 0.45 * d_end)
    return bool(np.all(u > thresh))


def _oracle_x12(sol, base, z, resolution=96, tol=1e-10):
    """X₁ + iX₂ of T(z) − T(base) by quadrature: the straight segment when
    it stays in the positive phase, else a grid-routed polyline (grid
    `resolution` per axis) simplified by greedy visibility shortcuts."""
    p0 = np.asarray(base, dtype=float)
    p1 = np.asarray(z, dtype=float)
    span = max(float(np.max(np.abs(p1 - p0))), 1e-6)
    spacing = 1.7 * span / max(int(resolution) - 1, 1)
    if _visible(sol, p0, p1, step=0.5 * spacing):
        waypoints = [p0, p1]
    else:
        route = _grid_route(sol, p0, p1, resolution)
        assert route is not None, "no positive-phase route"
        nodes = [p0] + route + [p1]
        waypoints = [p0]
        k = 0
        while k < len(nodes) - 1:
            far = k + 1
            for m in range(len(nodes) - 1, k, -1):
                if _visible(sol, nodes[k], nodes[m], step=0.5 * spacing):
                    far = m
                    break
            waypoints.append(nodes[far])
            k = far
    integral = sum(_segment_integral(sol, complex(*a), complex(*b), tol=tol)
                   for a, b in zip(waypoints[:-1], waypoints[1:]))
    d = p1 - p0
    return 0.5 * (complex(d[0], -d[1]) - integral)


def _oracle_scherk_period(sol, tol=1e-12):
    """Loop integral −½ ∮ (2u_z)² dz around the central zero-phase oval of
    a Scherk solution, over a positive-phase rectangle between the loop and
    the saddles.  A vanishing value certifies that T is single-valued around
    the oval."""
    half_w = 1.5 * sol.a
    half_h = 0.5 * (scherk_loop_x2_extent(sol.s) + np.pi) * sol.a
    corners = sol.motion.to_world(np.array(
        [[half_w, -half_h], [half_w, half_h], [-half_w, half_h],
         [-half_w, -half_h]]))
    t = np.linspace(0.0, 1.0, 201)[:, None]
    total = 0.0 + 0.0j
    for a, b in zip(corners, np.roll(corners, -1, axis=0)):
        assert np.all(sol.in_positive_phase(a * (1 - t) + b * t))
        total += _segment_integral(sol, complex(*a), complex(*b), tol=tol)
    return -0.5 * total


def wirtinger(sol, z):
    """∂u/∂z = ½(u_x − i u_y) at points of the open positive phase, from
    the analytic gradient; DomainError if any point lies outside it."""
    p = np.asarray(z, dtype=float)
    if not np.all(sol.in_positive_phase(p)):
        raise DomainError("wirtinger: point outside the positive phase")
    g = sol.eval_grad(p)
    return 0.5 * (g[..., 0] - 1j * g[..., 1])


def _disk_expected(z0, z1, R=1.0):
    """Closed-form T offset for the disk complement: (2u_z)² = R²/z² has the
    single-valued primitive −R²/z on r > R."""
    integral = (-R**2 / z1) - (-R**2 / z0)
    x12 = 0.5 * ((np.conj(z1) - np.conj(z0)) - integral)
    return x12


class TestWirtinger:
    def test_half_plane_constant(self, halfplane):
        pts = np.array([[0.5, 0.2], [1.0, -1.0], [0.001, 5.0]])
        assert np.allclose(wirtinger(halfplane, pts), 0.5 + 0.0j, atol=1e-14)

    def test_disk_closed_form(self, disk, rng):
        th = rng.uniform(0, 2 * np.pi, 25)
        r = rng.uniform(1.1, 4.0, 25)
        pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
        z = pts[:, 0] + 1j * pts[:, 1]
        assert np.allclose(wirtinger(disk, pts), 1.0 / (2.0 * z), atol=1e-12)

    def test_outside_phase_raises(self, disk):
        with pytest.raises(DomainError):
            wirtinger(disk, np.array([0.5, 0.0]))


class TestTraizetMap:
    def test_fixed_base(self, hairpin):
        p = np.array([0.3, 0.1])
        out = traizet_map(hairpin, p, p)
        assert out[0] == 0.0 and out[1] == 0.0
        assert out[2] == pytest.approx(float(hairpin.eval_u(p)))

    def test_half_plane_vertical_plane(self, halfplane):
        base = np.array([0.4, -0.3])
        z = np.array([1.2, 0.7])
        out = traizet_map(halfplane, base, z)
        # (2u_z)² ≡ 1 on the phase: X₁ = 0, X₂ = −Δx₂, X₃ = x₁
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(-(z[1] - base[1]), abs=1e-12)
        assert out[2] == pytest.approx(z[0], abs=1e-14)

    def test_disk_straight_path(self, disk):
        z0, z1 = complex(1.5, 0.5), complex(2.5, 1.0)
        out = traizet_map(disk, (z0.real, z0.imag), (z1.real, z1.imag))
        expect = _disk_expected(z0, z1)
        assert abs(complex(out[0], out[1]) - expect) < 1e-9
        assert out[2] == pytest.approx(np.log(abs(z1)), abs=1e-12)

    @pytest.mark.parametrize("pair", [
        ((-2.0, 0.0), (2.0, 0.0)),        # straight chord through the disk
        ((-1.5, -1.5), (1.5, 1.5)),       # diagonal through the disk
        ((-2.0, 0.3), (2.0, -0.4)),
    ])
    def test_disk_routed_path_matches_primitive(self, disk, pair):
        p0, p1 = pair
        z0, z1 = complex(*p0), complex(*p1)
        out = traizet_map(disk, p0, p1)
        expect = _disk_expected(z0, z1)
        assert abs(complex(out[0], out[1]) - expect) < 1e-8
        assert abs(_oracle_x12(disk, p0, p1) - expect) < 1e-8

    def test_route_reversal_antisymmetric(self, disk):
        p0, p1 = (-2.0, 0.1), (2.0, 0.2)
        fwd = traizet_map(disk, p0, p1)
        bwd = traizet_map(disk, p1, p0)
        assert np.allclose(fwd[:2], -bwd[:2], atol=1e-8)

    def test_disconnected_phase_raises(self):
        sol = TwoPlane(a=1.0)
        with pytest.raises(TopologyError):
            traizet_map(sol, (0.5, 0.0), (-1.5, 0.0))

    @pytest.mark.parametrize("sol, z", [
        (DiskComplement(1.0), (0.0, 0.0)),
        (DiskComplement(1.0), (1.0 - 1e-6, 0.0)),
        (TwoPlane(a=1.0), (-0.5, 0.3)),
        (Hairpin(1.0), (0.0, 3.0)),
        (Scherk(0.5, 1.0), (0.0, 0.0)),
    ], ids=["disk-centre", "disk-inside-F", "two-plane-gap", "hairpin",
            "scherk-oval"])
    def test_zero_phase_endpoint_raises(self, sol, z):
        base = (2.0, 0.0)
        with pytest.raises(DomainError):
            traizet_map(sol, base, z)
        with pytest.raises(DomainError):
            traizet_map(sol, z, base)

    def test_endpoints_on_free_boundary_are_valid(self):
        # within the boundary tolerance of F, on either side
        disk = DiskComplement(1.0)
        for r in (1.0, 1.0 - 0.5 * BOUNDARY_TOL, 1.0 + 0.5 * BOUNDARY_TOL):
            out = traizet_map(disk, (2.0, 0.0), (0.0, r))
            expect = _disk_expected(2.0 + 0j, complex(0.0, r))
            assert abs(complex(out[0], out[1]) - expect) < 1e-8
        hairpin = Hairpin(1.0)
        top = np.pi / 2.0 + np.cosh(0.3)
        for x2 in (top, top * (1.0 + 0.5 * BOUNDARY_TOL)):
            out = traizet_map(hairpin, (0.3, 0.0), (0.3, x2))
            expect = _oracle_x12(hairpin, (0.3, 0.0), (0.3, top))
            assert abs(complex(out[0], out[1]) - expect) < 1e-9
            assert abs(out[2]) < 1e-12
        scherk = Scherk(0.5, 1.0)
        ring = scherk_loop_point(0.5, 0.4 * np.pi * 0.5)
        for x in (ring, ring * (1.0 - 1e-10), ring * (1.0 + 1e-10)):
            out = traizet_map(scherk, (2.0, 0.5), x)
            expect = _oracle_x12(scherk, (2.0, 0.5), ring)
            assert abs(complex(out[0], out[1]) - expect) < 1e-9

    @pytest.mark.parametrize("sol", [Wedge(0.5), OneSidedPlane(0.5)],
                             ids=["wedge", "one-sided-plane"])
    def test_family_without_primitive_raises(self, sol):
        with pytest.raises(InvalidInputError):
            traizet_map(sol, (1.0, 0.0), (-1.0, 0.3))
        with pytest.raises(InvalidInputError):
            traizet_map(sol, (1.0, 0.0), (2.0, 0.3))
        with pytest.raises(InvalidInputError):
            sol.primitive(np.array([[1.0, 0.0]]))

    @pytest.mark.parametrize("sol, pair", [
        (Hairpin(1.0), ((0.3, 0.1), (-2.0, 1.5))),
        (Scherk(0.5, 1.0), ((2.0, 0.5), (-1.5, 5.0))),
    ], ids=["hairpin", "scherk"])
    def test_one_chart_solve_per_call(self, sol, pair, monkeypatch):
        calls = []
        solve = onephase.conformal._solve

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return solve(*args, **kwargs)

        monkeypatch.setattr(onephase.conformal, "_solve", counted)
        traizet_map(sol, *pair)
        assert calls == [2]


def _motions():
    return st.builds(
        RigidMotion,
        angle=st.floats(-np.pi, np.pi),
        shift=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))


@st.composite
def _family_pairs(draw, kind):
    """A member of family `kind` under a rigid motion and two world points
    at least 0.05 from F in one positive-phase component.  Scherk pairs
    start right of the axis in the central cell and end on either side of
    the axis, up to one cell away."""
    motion = draw(_motions())
    unit = st.floats(0.0, 1.0)
    sign = st.sampled_from([-1.0, 1.0])
    if kind in ("half_plane", "two_plane"):
        sol = (HalfPlane(motion=motion) if kind == "half_plane"
               else TwoPlane(a=draw(st.floats(0.2, 2.0)), motion=motion))
        side = draw(sign) if kind == "two_plane" else 1.0
        off = 0.0 if side > 0 else -sol.a

        def point():
            return (off + side * (0.05 + 2.0 * draw(unit)),
                    4.0 * draw(unit) - 2.0)
    elif kind == "disk":
        sol = DiskComplement(R=draw(st.floats(0.3, 2.0)), motion=motion)

        def point():
            r = sol.R + 0.05 + 2.0 * draw(unit)
            th = 2.0 * np.pi * draw(unit)
            return (r * np.cos(th), r * np.sin(th))
    elif kind == "hairpin":
        sol = Hairpin(a=draw(st.floats(0.3, 2.0)), motion=motion)

        def point():
            x1 = sol.a * (3.0 * draw(unit) - 1.5)
            h = sol._bound(x1) - 0.1
            return (x1, h * (2.0 * draw(unit) - 1.0))
    else:
        sol = Scherk(s=draw(st.floats(0.125, 0.875)),
                     a=draw(st.floats(0.5, 1.5)), motion=motion)

        def point(side=None, cell=None):
            side = draw(sign) if side is None else side
            cell = draw(st.integers(-1, 1)) if cell is None else cell
            while True:
                x1 = side * sol.a * 2.0 * draw(unit)
                x2 = sol.a * np.pi * (2.0 * draw(unit) - 1.0 + 2.0 * cell)
                w = sol.motion.to_world(np.array([x1, x2]))
                if sol.in_positive_phase(w) and sol.fb_distance(w) >= 0.05:
                    return w
        return sol, point(1.0, 0), point()
    return sol, motion.to_world(np.array(point())), \
        motion.to_world(np.array(point()))


class TestClosedFormAgainstOracle:
    @pytest.mark.parametrize("kind", ["half_plane", "two_plane", "disk",
                                      "hairpin", "scherk"])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_traizet_map_matches_oracle_route(self, kind, data):
        sol, base, z = data.draw(_family_pairs(kind))
        out = traizet_map(sol, base, z)
        assert abs(complex(out[0], out[1]) - _oracle_x12(sol, base, z)) \
            < 1e-9
        assert out[2] == pytest.approx(float(sol.eval_u(z)), abs=1e-12)

    @pytest.mark.parametrize("angle", [0.0, 0.7])
    @pytest.mark.parametrize("base, z", [((0.0, -1.05), (0.0, 1.05)),
                                         ((-1.05, 0.0), (1.05, 0.0)),
                                         ((0.8, 0.8), (-0.8, -0.8))],
                             ids=["vertical", "horizontal", "diagonal"])
    def test_oracle_routes_round_the_disk(self, angle, base, z):
        # near-antipodal points: the segment between them crosses the disk,
        # and so does the box they span widened by 0.35·span
        motion = RigidMotion(angle=angle, shift=(1.0, -0.5))
        sol = DiskComplement(R=1.0, motion=motion)
        base, z = motion.to_world(np.array([base, z]))
        assert _grid_route(sol, base, z, 96) is not None
        out = traizet_map(sol, base, z)
        assert abs(complex(out[0], out[1]) - _oracle_x12(sol, base, z)) \
            < 1e-9

    @pytest.mark.parametrize("s", [0.125, 0.5, 0.875])
    def test_scherk_primitive_continuous_across_axis_and_seam(self, s):
        sol = Scherk(s, 1.2)
        a, eps = sol.a, 1e-10
        # the positive part of the axis, between the loop top and a saddle
        lo = a * scherk_loop_x2_extent(s)
        x2 = np.linspace(lo + 0.01 * a, np.pi * a, 9)
        axis = [np.stack([np.full_like(x2, sgn * eps), sgn2 * x2], axis=-1)
                for sgn in (1.0, -1.0) for sgn2 in (1.0, -1.0)]
        F = [sol.primitive(p) for p in axis]
        assert np.max(np.abs(F[0] - F[2])) < 1e-9
        assert np.max(np.abs(F[1] - F[3])) < 1e-9
        # the seams x₂ = ±πa, on both sides of the axis
        x1 = a * np.linspace(-3.0, 3.0, 13)
        for seam in (np.pi * a, -np.pi * a):
            below = sol.primitive(np.stack([x1, np.full_like(x1, seam - eps)],
                                           axis=-1))
            above = sol.primitive(np.stack([x1, np.full_like(x1, seam + eps)],
                                           axis=-1))
            assert np.max(np.abs(above - below)) < 1e-9

    @pytest.mark.parametrize("s", [0.25, 0.5])
    def test_seam_jump_matches_a_period_of_the_oracle(self, s):
        # T(z + 2πia) − T(z) from one path integral up a vertical line
        sol = Scherk(s, 1.0)
        p0 = np.array([1.5, -np.pi])
        p1 = p0 + np.array([0.0, 2.0 * np.pi])
        out = traizet_map(sol, p0, p1)
        path = _segment_integral(sol, complex(*p0), complex(*p1))
        assert abs(complex(out[0], out[1])
                   - 0.5 * (-2j * np.pi - path)) < 1e-9


class TestScherkPeriod:
    @pytest.mark.parametrize("s", [0.25, 0.5])
    def test_period_vanishes(self, s):
        per = _oracle_scherk_period(Scherk(s=s, a=1.0))
        assert abs(per) < 1e-9


def _patch_cases():
    return [(HalfPlane(), patch_halfplane(resolution=16)),
            (DiskComplement(1.0), patch_diskcomplement(1.0, resolution=16)),
            (Hairpin(1.0), patch_hairpin(1.0, resolution=16)),
            (Scherk(0.5, 1.0), patch_scherk(0.5, 1.0, resolution=16)),
            (Scherk(0.875, 1.0), patch_scherk(0.875, 1.0, resolution=16))]


class TestPatchPrimitives:
    """Per-vertex primitives against the path integrals of (2u_z)² dz."""

    @pytest.mark.parametrize("case", range(5))
    def test_differences_match_segment_integrals(self, case):
        sol, patch = _patch_cases()[case]
        pts = patch.points.reshape(-1, 2)
        F = patch.primitive.ravel()
        inner = np.setdiff1d(np.arange(len(pts)), patch.fb_probes[:, 0])
        rng = np.random.default_rng(case)
        pairs = []
        if isinstance(sol, Scherk):
            # both halves, and pairs across the axis x₁ = 0
            left = inner[pts[inner, 0] < 0.0]
            right = inner[pts[inner, 0] > 0.0]
            for a, b in ((left, left), (right, right), (left, right)):
                pairs += list(zip(rng.choice(a, 6), rng.choice(b, 6)))
        else:
            pairs = list(zip(rng.choice(inner, 12), rng.choice(inner, 12)))
        checked = 0
        for i, j in pairs:
            if not _visible(sol, pts[i], pts[j]):
                continue
            path = _segment_integral(sol, complex(*pts[i]), complex(*pts[j]))
            assert abs((F[j] - F[i]) - path) < 1e-9, (i, j)
            checked += 1
        assert checked >= 4

    @pytest.mark.parametrize("case", range(5))
    def test_patch_primitive_is_the_family_primitive(self, case):
        # the builders' chart-coordinate forms against `Solution.primitive`,
        # which solves the chart again to Newton's 1e-12 relative residual
        sol, patch = _patch_cases()[case]
        F = sol.primitive(patch.points)
        assert np.max(np.abs(F - patch.primitive)) < 1e-10

    @pytest.mark.parametrize("s", [0.5, 0.875])
    def test_scherk_fb_ring_on_the_loop(self, s):
        # ring vertices lie on the loop, and their primitive agrees with
        # the path integral from the inward neighbour
        sol = Scherk(s, 1.0)
        patch = patch_scherk(s, 1.0, resolution=16)
        ring = patch.points[:, 0]
        assert np.max(np.abs(scherk_loop_implicit(s, ring))) < 1e-14
        for j in range(len(ring)):
            z0 = complex(*patch.points[j, 1])
            path = _segment_integral(sol, z0, complex(*ring[j]))
            diff = patch.primitive[j, 0] - patch.primitive[j, 1]
            assert abs(diff - path) < 1e-9, j

    @pytest.mark.parametrize("case", [1, 3, 4])
    def test_welded_seam_rows_carry_equal_primitives(self, case):
        _, patch = _patch_cases()[case]
        assert patch.weld_rows
        assert np.max(np.abs(patch.primitive[0] - patch.primitive[-1])) \
            < 1e-13

    def test_scherk_heights_are_the_solution(self):
        sol = Scherk(0.875, 1.0)
        patch = patch_scherk(0.875, 1.0, resolution=16)
        assert np.all(patch.u_vals[:, 0] == 0.0)
        assert np.array_equal(patch.u_vals[:, 1:],
                              sol.eval_u(patch.points[:, 1:]))


def _warm_mesh(sol):
    """A small mesh of sol, to take the one-time import of numpy.ma by
    np.unique and sol's lazy chart data out of a traced peak."""
    return lambda: canonical_mesh(sol, resolution=8)


def _sphere_mesh(R=2.0, n_lat=28, n_lon=56):
    """Closed-seam latitude band of a sphere (poles excluded): top/bottom
    rings are mesh boundary, everything else interior."""
    theta = np.linspace(0.2, np.pi - 0.2, n_lat)
    phi = np.arange(n_lon) * 2.0 * np.pi / n_lon
    T, P = np.meshgrid(theta, phi, indexing="ij")
    verts = np.stack([R * np.sin(T) * np.cos(P),
                      R * np.sin(T) * np.sin(P),
                      R * np.cos(T)], axis=-1).reshape(-1, 3)
    vid = np.arange(n_lat * n_lon).reshape(n_lat, n_lon)
    tris = []
    for j in range(n_lat - 1):
        for i in range(n_lon):
            i2 = (i + 1) % n_lon
            v00, v01 = vid[j, i], vid[j, i2]
            v10, v11 = vid[j + 1, i], vid[j + 1, i2]
            # ordered so face normals point outward
            tris.append((v00, v10, v01))
            tris.append((v10, v11, v01))
    tris = np.array(tris, dtype=int)
    return SurfaceMesh(vertices=verts, triangles=tris,
                       probes=np.zeros((0, 4), dtype=int))


def _mean_curvature_oracle(mesh):
    """Scatter-add mean curvature: `mean_curvature` as one np.add.at per
    corner and term, with boundary edges found by np.unique over edge rows.
    The array version must agree with it bit for bit."""
    verts = mesh.vertices
    tris = mesh.triangles
    n = len(verts)
    a, b, c = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    fn = np.cross(b - a, c - a)
    normals = np.zeros_like(verts)
    for k in range(3):
        np.add.at(normals, tris[:, k], fn)
    norm = np.linalg.norm(normals, axis=1)
    normals = normals / np.where(norm > 0, norm, 1.0)[:, None]
    edges = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]],
                                    tris[:, [2, 0]]]), axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    interior = np.ones(n, dtype=bool)
    interior[uniq[counts == 1].ravel()] = False
    lap = np.zeros_like(verts)
    area = np.zeros(n)
    p = verts[tris]
    e1 = [p[:, (k + 1) % 3] - p[:, k] for k in range(3)]
    e2 = [p[:, (k + 2) % 3] - p[:, k] for k in range(3)]
    cross = [np.linalg.norm(np.cross(u, v), axis=1) for u, v in zip(e1, e2)]
    dot = [np.einsum("ij,ij->i", u, v) for u, v in zip(e1, e2)]
    cot = [d / np.where(c > 0, c, 1.0) for d, c in zip(dot, cross)]
    for k in range(3):
        i0 = tris[:, k]
        i1 = tris[:, (k + 1) % 3]
        i2 = tris[:, (k + 2) % 3]
        d = verts[i2] - verts[i1]
        np.add.at(lap, i1, cot[k][:, None] * d)
        np.add.at(lap, i2, -cot[k][:, None] * d)
        tri_area = 0.5 * cross[k]
        l1 = np.einsum("ij,ij->i", e1[k], e1[k])
        l2 = np.einsum("ij,ij->i", e2[k], e2[k])
        cot1, cot2 = cot[(k + 1) % 3], cot[(k + 2) % 3]
        obtuse_here = dot[k] < 0
        any_obtuse = obtuse_here | (cot1 < 0) | (cot2 < 0)
        voronoi = (l2 * cot1 + l1 * cot2) / 8.0
        contrib = np.where(any_obtuse,
                           np.where(obtuse_here, tri_area / 2.0,
                                    tri_area / 4.0),
                           voronoi)
        np.add.at(area, i0, contrib)
    H = np.full(n, np.nan)
    safe = interior & (area > 0)
    H[safe] = -(np.einsum("ij,ij->i", lap[safe], normals[safe])
                / (4.0 * area[safe]))
    return H, interior


def _jittered_halfplane_mesh(rng, resolution=24):
    """Half-plane mesh with every vertex moved by up to 0.4 of a mesh step,
    so that it has acute and obtuse triangles."""
    mesh = build_mesh(patch_halfplane(resolution=resolution))
    step = 2.0 / resolution
    mesh.vertices = mesh.vertices + rng.uniform(-0.4 * step, 0.4 * step,
                                                mesh.vertices.shape)
    return mesh


#: meshes for the oracle comparison beyond the canonical ones at
#: resolution 32: "<family>@<resolution>" (family a fixture name or
#: scherk_<s>), the first 1, chunk − 1, chunk and chunk + 1 triangles of a
#: jittered mesh (the unused vertices stay interior, with NaN curvature),
#: and a mesh with zero-area triangles
_ORACLE_MESHES = [f"{f}@{r}" for r in (64, 128)
                  for f in ("halfplane", "disk", "hairpin", "scherk")] + [
    f"scherk_{s}@{r}" for s in (0.125, 0.875) for r in (32, 64, 128)] + [
    "first_1", "first_chunk-1", "first_chunk", "first_chunk+1", "zero_area"]


def _oracle_mesh(name, request, rng):
    if name == "sphere":
        return _sphere_mesh()
    if name == "jittered":
        return _jittered_halfplane_mesh(rng)
    if name.startswith("first_"):
        count = {"1": 1, "chunk-1": _CHUNK - 1, "chunk": _CHUNK,
                 "chunk+1": _CHUNK + 1}[name[len("first_"):]]
        mesh = _jittered_halfplane_mesh(rng, resolution=48)
        assert len(mesh.triangles) > count
        mesh.triangles = mesh.triangles[:count]
        return mesh
    if name == "zero_area":
        mesh = _jittered_halfplane_mesh(rng)
        # an interior triangle's third vertex onto its first: both
        # triangles on that edge have zero area
        i0, _, i2 = mesh.triangles[len(mesh.triangles) // 4]
        mesh.vertices[i2] = mesh.vertices[i0]
        return mesh
    family, _, res = name.partition("@")
    if family.startswith("scherk_"):
        sol = Scherk(float(family[len("scherk_"):]), 1.0)
    else:
        sol = request.getfixturevalue(family)
    return canonical_mesh(sol, resolution=int(res or 32))


class TestMeanCurvature:
    def test_sphere_calibration(self):
        R = 2.0
        mesh = _sphere_mesh(R=R)
        H, interior = mean_curvature(mesh)
        vals = H[interior]
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals - 1.0 / R)) < 5e-3 / R

    def test_boundary_nan(self, halfplane):
        mesh = canonical_mesh(halfplane, resolution=16)
        H, interior = mean_curvature(mesh)
        assert np.all(np.isnan(H[~interior]))
        assert np.all(np.isfinite(H[interior]))

    @pytest.mark.parametrize("fixture", ["disk", "hairpin", "scherk"])
    def test_minimality_refines(self, fixture, request):
        sol = request.getfixturevalue(fixture)
        sups = []
        for res in (32, 64):
            H, interior = mean_curvature(canonical_mesh(sol, resolution=res))
            sups.append(float(np.max(np.abs(H[interior]))))
        assert sups[1] < sups[0]
        assert sups[1] < 5e-3

    def test_half_plane_is_flat(self, halfplane):
        H, interior = mean_curvature(canonical_mesh(halfplane, resolution=24))
        assert np.max(np.abs(H[interior])) < 1e-10


    @pytest.mark.parametrize("name", ["halfplane", "disk", "hairpin",
                                      "scherk", "sphere", "jittered",
                                      *_ORACLE_MESHES])
    def test_matches_scatter_add_oracle(self, name, request, rng):
        mesh = _oracle_mesh(name, request, rng)
        H, interior = mean_curvature(mesh)
        H_ref, interior_ref = _mean_curvature_oracle(mesh)
        # bit for bit, the sign of zero and the NaN of boundary vertices too
        assert np.array_equal(H.view(np.int64), H_ref.view(np.int64))
        assert np.array_equal(interior, interior_ref)
        assert interior.any() and not interior.all()

    def test_zero_area_mesh_has_a_zero_area_triangle(self, request, rng):
        mesh = _oracle_mesh("zero_area", request, rng)
        p = mesh.vertices[mesh.triangles]
        area2 = np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]),
                               axis=1)
        assert np.count_nonzero(area2 == 0.0) == 2

    def test_memory_is_bounded(self, halfplane):
        """The blocked pass takes at most half the traced peak of the
        scatter-add oracle, which holds every per-corner array at once."""
        mesh = canonical_mesh(halfplane, resolution=128)
        peaks = [traced_peak(lambda: f(mesh))
                 for f in (mean_curvature, _mean_curvature_oracle)]
        assert peaks[0] <= 0.5 * peaks[1]

    @pytest.mark.parametrize("fixture, bound", [("halfplane", 8e6),
                                                ("scherk", 9e6)])
    def test_pipeline_memory_is_bounded(self, fixture, bound, request):
        """Mesh and curvature at resolution 128: int32 indices and a second
        pass for the cotangents hold 48 bytes per triangle, not 72 (9.45 and
        11.43 MB with int64 indices and one pass)."""
        sol = request.getfixturevalue(fixture)
        assert traced_peak(
            lambda: mean_curvature(canonical_mesh(sol, resolution=128)),
            warm=_warm_mesh(sol)) <= bound

    def test_verify_mesh_sweep_memory_is_bounded(self, halfplane, tmp_path):
        """`verify`'s mesh check frees each mesh of its sweep (32, 64, 128)
        before it builds the next, so it holds no more than the last mesh's
        pipeline (9.61 MB traced for the whole command before)."""
        argv = ["verify", "--family", "half_plane", "--out", str(tmp_path)]
        assert traced_peak(lambda: main(argv), warm=lambda: main(argv)) \
            <= 8e6

    def test_jittered_mesh_has_every_meyer_branch(self, rng):
        mesh = _jittered_halfplane_mesh(rng)
        p = mesh.vertices[mesh.triangles]
        dots = np.stack([np.einsum("ij,ij->i", p[:, k - 2] - p[:, k],
                                   p[:, k - 1] - p[:, k])
                         for k in range(3)], axis=1)
        obtuse = (dots < 0).any(axis=1)
        assert obtuse.any() and not obtuse.all()


class TestMeshStructure:
    def test_fb_vertices_on_symmetry_plane(self, hairpin):
        mesh = canonical_mesh(hairpin, resolution=24)
        fb = mesh.fb_vertices
        assert len(fb) > 0
        assert np.all(mesh.vertices[fb, 2] == 0.0)

    def test_reflection_symmetry(self, halfplane):
        mesh = canonical_mesh(halfplane, resolution=16)
        x3 = np.sort(mesh.vertices[:, 2])
        assert np.allclose(x3, -x3[::-1], atol=1e-12)

    @pytest.mark.parametrize("resolution", [16, 33])
    @pytest.mark.parametrize("fixture", ["halfplane", "disk", "hairpin",
                                         "scherk"])
    def test_reflected_sheet_structure(self, fixture, resolution, request):
        # the upper sheet, then the mirror images of its vertices off the
        # free boundary and of its triangles, flipped
        sol = request.getfixturevalue(fixture)
        patch = CANONICAL_PATCHES[sol.kind](sol, resolution)
        mesh = build_mesh(patch)
        nt, ns, _ = patch.points.shape
        n_up = (nt - patch.weld_rows) * ns
        fb = mesh.fb_vertices
        assert np.array_equal(fb, np.flatnonzero(mesh.vertices[:, 2] == 0))
        assert np.all(np.diff(fb) > 0)
        assert len(mesh.vertices) == 2 * n_up - len(fb)
        off = np.ones(n_up, dtype=bool)
        off[fb] = False
        image = np.arange(n_up)
        image[off] = np.arange(n_up, len(mesh.vertices))
        m = len(mesh.triangles) // 2
        assert len(mesh.triangles) == 2 * m
        upper = mesh.triangles[:m]
        assert upper.max() < n_up
        assert np.array_equal(mesh.triangles[m:], image[upper][:, ::-1])
        mirror = mesh.vertices[:n_up][off]
        mirror[:, 2] = -mirror[:, 2]
        assert np.array_equal(mesh.vertices[n_up:].view(np.int64),
                              mirror.view(np.int64))

    def test_build_memory_is_bounded(self, halfplane):
        # a 1.6 MB mesh with int32 indices: room for one sheet's
        # temporaries, not for stacked copies of both sheets and a
        # full-size renumbering (9.45 MB), nor for int64 indices (5.70 MB)
        assert traced_peak(
            lambda: canonical_mesh(halfplane, resolution=128),
            warm=_warm_mesh(halfplane)) <= 5e6

    def test_scherk_build_memory_is_bounded(self, scherk):
        # the chart solve of the patch runs in blocks (9.61 MB when it ran
        # over all 20,000 vertices at once)
        assert traced_peak(lambda: canonical_mesh(scherk, resolution=128),
                           warm=_warm_mesh(scherk)) <= 8e6

    @pytest.mark.parametrize("fixture", ["halfplane", "disk", "hairpin",
                                         "scherk"])
    def test_indices_are_int32(self, fixture, request):
        mesh = canonical_mesh(request.getfixturevalue(fixture), resolution=16)
        assert mesh.triangles.dtype == np.int32
        assert mesh.probes.dtype == np.int32

    def test_boundary_vertices_beyond_int32_edge_keys(self, halfplane):
        """80,601 vertices: an edge key min·n + max passes 2³¹ from
        min = 26,643 on, so it must not be formed in int32."""
        mesh = canonical_mesh(halfplane, resolution=200)
        n = len(mesh.vertices)
        assert n * n > 2 ** 31
        tris = mesh.triangles
        edges = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]],
                                        tris[:, [2, 0]]]), axis=1)
        uniq, counts = np.unique(edges, axis=0, return_counts=True)
        expect = np.zeros(n, dtype=bool)
        expect[uniq[counts == 1].ravel()] = True
        assert np.array_equal(mesh.boundary_vertices(), expect)

    @pytest.mark.parametrize("patch", [
        patch_diskcomplement(1.0, resolution=16),
        patch_scherk(0.5, 1.0, resolution=16)], ids=["disk", "scherk"])
    def test_triangles_match_quad_loop(self, patch):
        # welded patches: the last row's ids repeat the first, and the
        # orphaned vertices are dropped and renumbered
        nt, ns, _ = patch.points.shape
        vid = np.arange(nt * ns).reshape(nt, ns)
        vid[-1, :] = vid[0, :]
        tris = []
        for j in range(nt - 1):
            for i in range(ns - 1):
                tris.append((vid[j, i], vid[j, i + 1], vid[j + 1, i + 1]))
                tris.append((vid[j, i], vid[j + 1, i + 1], vid[j + 1, i]))
        tris = np.array(tris)
        remap = np.cumsum(np.isin(np.arange(nt * ns), tris)) - 1
        mesh = build_mesh(patch)
        assert patch.weld_rows
        assert np.array_equal(mesh.triangles[:len(tris)], remap[tris])

    def _euler(self, mesh):
        tri = mesh.triangles
        edges = np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]],
                                        tri[:, [2, 0]]]), axis=1)
        n_e = len(np.unique(edges, axis=0))
        return len(mesh.vertices) - n_e + len(tri)

    def test_topology_disk_band_is_annulus(self, disk):
        # welded periodic seam + neck weld: reflected band is an annulus
        assert self._euler(canonical_mesh(disk, resolution=16)) == 0

    def test_topology_half_plane_is_disk(self, halfplane):
        # rectangle reflected through one edge is still a topological disk
        assert self._euler(canonical_mesh(halfplane, resolution=16)) == 1

    def test_canonical_rejects_unmeshable(self):
        with pytest.raises(InvalidInputError):
            canonical_mesh(TwoPlane(a=0.5), resolution=16)


class TestOrthogonality:
    def test_half_plane_exact(self, halfplane):
        mesh = canonical_mesh(halfplane, resolution=16)
        idx, defects = orthogonality_check(mesh)
        assert len(idx) > 0
        assert np.max(defects) < 1e-12

    @pytest.mark.parametrize("fixture", ["disk", "hairpin", "scherk"])
    def test_families_small_defect(self, fixture, request):
        sol = request.getfixturevalue(fixture)
        _, defects = orthogonality_check(canonical_mesh(sol, resolution=64))
        assert np.max(defects) <= 1e-3


class TestCatenoid:
    def test_overlay_band(self, disk, catenoid_overlay):
        mesh = canonical_mesh(disk, resolution=64)
        assert catenoid_overlay(mesh, R=1.0) < 1e-5

    def test_exact_profile_whole_mesh(self, disk):
        # image of the disk complement is the catenoid ρ = R cosh(X₃/R)
        mesh = canonical_mesh(disk, resolution=32)
        fb = mesh.fb_vertices
        center = mesh.vertices[fb, :2].mean(axis=0)
        xy = mesh.vertices[:, :2] - center[None, :]
        rho = np.hypot(xy[:, 0], xy[:, 1])
        assert np.max(np.abs(rho - np.cosh(mesh.vertices[:, 2]))) < 1e-10

    def test_requires_neck(self, catenoid_overlay):
        mesh = build_mesh(patch_halfplane(resolution=8))
        mesh.probes = mesh.probes[:0]  # no FB vertices
        with pytest.raises(InvalidInputError):
            catenoid_overlay(mesh, R=1.0)


class TestOutputs:
    def test_save_obj_round_trip(self, tmp_path, disk):
        mesh = canonical_mesh(disk, resolution=12)
        path = tmp_path / "mesh.obj"
        mesh.save_obj(path)
        verts, faces = [], []
        for line in path.read_text().splitlines():
            kind, *rest = line.split()
            if kind == "v":
                verts.append([float(v) for v in rest])
            elif kind == "f":
                faces.append([int(v) for v in rest])
            else:
                raise AssertionError(f"unexpected OBJ record {kind!r}")
        verts = np.array(verts)
        faces = np.array(faces) - 1
        assert np.array_equal(verts, mesh.vertices)
        assert np.array_equal(faces, mesh.triangles)
        assert faces.min() >= 0 and faces.max() < len(verts)

    def test_curvature_csv(self, tmp_path, halfplane):
        mesh = canonical_mesh(halfplane, resolution=12)
        path = tmp_path / "curv.csv"
        curvature_csv(mesh, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "vertex,H,is_boundary"
        assert len(lines) == 1 + len(mesh.vertices)
        bnd_rows = [ln for ln in lines[1:] if ln.endswith(",1")]
        assert all(ln.split(",")[1] == "nan" for ln in bnd_rows)
