"""The free-boundary → minimal-bigraph correspondence.

A solution u with |∇u| ≤ 1 maps into the upper half-space by

    T(z) = (X₁(z), X₂(z), u(z)),
    dX₁ + i dX₂ = ½ (dz̄ − (2 ∂u/∂z)² dz),

a minimal immersion of the positive phase that attaches orthogonally to the
plane X₃ = 0 along the free boundary, hence completes to a minimal surface
by reflection.  The differential (2u_z)² dz is holomorphic where u is
harmonic, and for the classical families its closed loop periods vanish, so
T is single-valued and path independent.

Contents:

* `wirtinger` — ∂u/∂z = ½(u_x − i u_y) from the analytic gradient;
* `traizet_map` — path-integrated T with straight segments when visible and
  grid-routed polyline paths otherwise;
* structured `Patch` factories per family (rectangle for the half-plane, an
  annular band for the disk complement, a chart rectangle for the hairpin,
  and an annulus around the loop for Scherk) carrying per-vertex values of
  a closed-form holomorphic primitive F of (2u_z)²: z, −R²/z,
  a(sinh w − w) in the hairpin chart w, and a·Ψ_s(ζ) in the Scherk chart ζ;
* `build_mesh` — upper sheet from a patch plus the exact X₃-reflection,
  welded along the free boundary; `canonical_mesh` picks a standard patch
  by family;
* `mean_curvature` — cotangent Laplacian dotted with the vertex normal over
  Voronoi mixed areas (barycentric fallback for obtuse triangles);
* `orthogonality_check` — |angle − π/2| between the upper-sheet tangent
  plane and {X₃ = 0} at free-boundary vertices;
* `catenoid_overlay` — neck-aligned profile residual of the disk-complement
  image against the catenoid R·cosh(X₃/R).

Quadrature remains only in the path integrals `traizet_map` and
`scherk_period`, which check the primitives independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import (format_float, smoothstep5, write_csv_atomic,
                     write_text_atomic)
from .conformal import scherk_loop_point, scherk_loop_x2_extent
from .errors import DomainError, InvalidInputError, TopologyError
from .quad import gauss_nodes
from .solutions import Scherk

__all__ = [
    "wirtinger",
    "traizet_map",
    "Patch",
    "patch_halfplane",
    "patch_diskcomplement",
    "patch_hairpin",
    "patch_scherk",
    "SurfaceMesh",
    "build_mesh",
    "CANONICAL_PATCHES",
    "canonical_mesh",
    "mean_curvature",
    "orthogonality_check",
    "catenoid_overlay",
    "scherk_period",
    "curvature_csv",
]


# ---------------------------------------------------------------------------
# the differential
# ---------------------------------------------------------------------------

def wirtinger(sol, z):
    """∂u/∂z = ½(u_x − i u_y) at points of the open positive phase.

    Accepts a point (2,) or an array (..., 2); raises DomainError if any
    point lies outside the positive phase.
    """
    p = np.asarray(z, dtype=float)
    if not np.all(sol.in_positive_phase(p)):
        raise DomainError("wirtinger: point outside the positive phase")
    g = sol.eval_grad(p)
    return 0.5 * (g[..., 0] - 1j * g[..., 1])


def _squared_diff(sol, pts):
    """(2 ∂u/∂z)² at interior quadrature points, via the a.e. gradient."""
    g = sol.eval_grad(pts)
    w = g[..., 0] - 1j * g[..., 1]
    return w * w


def _segment_integral(sol, z0, z1, tol=1e-10, order=12, max_pieces=512):
    """∫ (2u_z)² dz along the straight segment z0 → z1, composite Gauss with
    piece doubling until the value stabilizes below tol."""
    t, wts = gauss_nodes(order)
    dz = z1 - z0
    prev = None
    pieces = 4
    while pieces <= max_pieces:
        offs = (np.arange(pieces)[:, None] + t[None, :]) / pieces
        zs = z0 + offs.ravel() * dz
        pts = np.stack([zs.real, zs.imag], axis=-1)
        vals = _squared_diff(sol, pts).reshape(pieces, order)
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
    positivity when clearance closes off every path.  Returns the waypoint
    list, or None if even the fallback grid is disconnected."""
    lo = np.minimum(p0, p1)
    hi = np.maximum(p0, p1)
    span = max(float(np.max(hi - lo)), 1e-6)
    lo = lo - 0.35 * span
    hi = hi + 0.35 * span
    n = int(resolution)
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    spacing = (xs[1] - xs[0]) if n > 1 else span
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
                    if dj == 0 and di == 0:
                        continue
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


def traizet_map(sol, base, z, resolution: int = 96, tol: float = 1e-10):
    """T(z) = (X₁, X₂, u(z)) with T(base) = (0, 0, u(base)).

    base and z must lie in the closure of the same positive-phase component;
    the integration path is the straight segment when it stays in the
    positive phase, else a grid-routed polyline (grid `resolution` per axis)
    simplified by greedy visibility shortcuts.
    """
    p0 = np.asarray(base, dtype=float)
    p1 = np.asarray(z, dtype=float)
    u_end = float(sol.eval_u(p1))
    if np.allclose(p0, p1):
        return np.array([0.0, 0.0, u_end])
    span = max(float(np.max(np.abs(p1 - p0))), 1e-6)
    spacing = 1.7 * span / max(int(resolution) - 1, 1)
    if _visible(sol, p0, p1, step=0.5 * spacing):
        waypoints = [p0, p1]
    else:
        route = _grid_route(sol, p0, p1, resolution)
        if route is None:
            raise TopologyError("traizet_map: no positive-phase path from "
                                "base to z at this resolution")
        nodes = [p0] + route + [p1]
        # greedy shortcutting
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
    integral = 0.0 + 0.0j
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        z0 = complex(a[0], a[1])
        z1 = complex(b[0], b[1])
        integral += _segment_integral(sol, z0, z1, tol=tol)
    zc0 = complex(p0[0], p0[1])
    zc1 = complex(p1[0], p1[1])
    x12 = 0.5 * ((np.conj(zc1) - np.conj(zc0)) - integral)
    return np.array([x12.real, x12.imag, u_end])


def scherk_period(sol, tol: float = 1e-12):
    """Loop integral −½ ∮ (2u_z)² dz around the central zero-phase oval of
    a Scherk solution, over a positive-phase rectangle between the loop and
    the saddles.  A vanishing value certifies that the map is single-valued
    around the oval, so that the translation T(z + 2πi a) − T(z) is the same
    for every z (the simple period of the surface)."""
    if not isinstance(sol, Scherk):
        raise InvalidInputError("scherk_period expects a Scherk solution")
    half_w = 1.5 * sol.a
    half_h = 0.5 * (scherk_loop_x2_extent(sol.s) + np.pi) * sol.a
    corners_body = np.array([[half_w, -half_h], [half_w, half_h],
                             [-half_w, half_h], [-half_w, -half_h]])
    corners = sol.motion.to_world(corners_body)
    t = np.linspace(0.0, 1.0, 201)[:, None]
    for k in range(4):
        seg = corners[k][None, :] * (1 - t) + corners[(k + 1) % 4][None, :] * t
        if not np.all(sol.in_positive_phase(seg)):
            raise DomainError("scherk_period: contour leaves the positive "
                              "phase; oval too wide for the rectangle")
    total = 0.0 + 0.0j
    for k in range(4):
        a = corners[k]
        b = corners[(k + 1) % 4]
        total += _segment_integral(sol, complex(a[0], a[1]),
                                   complex(b[0], b[1]), tol=tol)
    return -0.5 * total


# ---------------------------------------------------------------------------
# structured patches
# ---------------------------------------------------------------------------

@dataclass
class Patch:
    """A structured (nt × ns) planar vertex grid inside the closure of the
    positive phase, with exact u values, a free-boundary vertex mask, and
    the per-vertex values of a holomorphic primitive F of (2u_z)², so the
    integral of (2u_z)² dz between two vertices is the difference of their
    F values.  `weld_rows` identifies the last t-row with the first
    (periodic seam); `base` is the (jt, is) vertex that T maps to the
    X₁X₂ origin.  `fb_probes` rows hold a free-boundary vertex and its three
    inward grid neighbors (flat indices) for the boundary-conormal
    estimate."""

    points: np.ndarray
    u_vals: np.ndarray
    fb_mask: np.ndarray
    primitive: np.ndarray
    base: tuple = (0, 0)
    weld_rows: bool = False
    fb_probes: np.ndarray = None


def _probes_from_column(nt: int, ns: int, col: int, inward: int):
    idx = np.arange(nt * ns).reshape(nt, ns)
    cols = [idx[:, col + k * inward] for k in range(4)]
    return np.stack(cols, axis=1)


def _probes_from_row(nt: int, ns: int, row: int, inward: int):
    idx = np.arange(nt * ns).reshape(nt, ns)
    rows = [idx[row + k * inward, :] for k in range(4)]
    return np.stack(rows, axis=1)


def patch_halfplane(width: float = 2.0, height: float = 2.0,
                    resolution: int = 64) -> Patch:
    """Rectangle [0, width] × [−height/2, height/2]; FB edge on {x₁ = 0};
    (2u_z)² ≡ 1 has the primitive z."""
    ns = resolution + 1
    nt = resolution + 1
    xs = np.linspace(0.0, width, ns)
    ys = np.linspace(-height / 2.0, height / 2.0, nt)
    X, Y = np.meshgrid(xs, ys)
    pts = np.stack([X, Y], axis=-1)
    u = X.copy()
    fb = np.zeros((nt, ns), dtype=bool)
    fb[:, 0] = True
    return Patch(points=pts, u_vals=u, fb_mask=fb, primitive=X + 1j * Y,
                 base=(nt // 2, 0),
                 fb_probes=_probes_from_column(nt, ns, 0, 1))


def patch_diskcomplement(R: float, outer: float = 2.0,
                         resolution: int = 64) -> Patch:
    """Annular band R ≤ ρ ≤ outer·R around the disk; FB ring at ρ = R;
    (2u_z)² = R²/z² has the primitive −R²/z.
    Periodic in the angular (t) direction."""
    if not outer > 1.0:
        raise InvalidInputError("patch_diskcomplement requires outer > 1")
    ns = max(4, resolution // 4) + 1
    nt = resolution + 1
    rho = R * np.linspace(1.0, outer, ns)
    th = np.linspace(0.0, 2.0 * np.pi, nt)
    TH, RHO = np.meshgrid(th, rho, indexing="ij")
    Z = RHO * np.exp(1j * TH)
    pts = np.stack([Z.real, Z.imag], axis=-1)
    u = R * np.log(RHO / R)
    u[:, 0] = 0.0
    fb = np.zeros((nt, ns), dtype=bool)
    fb[:, 0] = True
    return Patch(points=pts, u_vals=u, fb_mask=fb, primitive=-R * R / Z,
                 base=(0, 0), weld_rows=True,
                 fb_probes=_probes_from_column(nt, ns, 0, 1))


def patch_hairpin(a: float, xi_max: float = 2.5,
                  resolution: int = 64) -> Patch:
    """Chart rectangle for the double hairpin: w = ξ + iη on
    [−ξmax, ξmax] × [−π/2, π/2], z = a(w + sinh w), u = a·Re cosh w; the
    rows η = ±π/2 are the two catenaries.  In the chart (2u_z)² dz =
    a·tanh²(w/2)(1 + cosh w) dw = a(cosh w − 1) dw, with the primitive
    a(sinh w − w)."""
    ns = resolution + 1
    nt = max(8, resolution // 2) + 1
    xi = np.linspace(-xi_max, xi_max, ns)
    eta = np.linspace(-np.pi / 2.0, np.pi / 2.0, nt)
    XI, ETA = np.meshgrid(xi, eta)
    W = XI + 1j * ETA
    Z = a * (W + np.sinh(W))
    pts = np.stack([Z.real, Z.imag], axis=-1)
    u = a * np.real(np.cosh(W))
    fb = np.zeros((nt, ns), dtype=bool)
    fb[0, :] = True
    fb[-1, :] = True
    u[0, :] = 0.0
    u[-1, :] = 0.0
    probes = np.vstack([_probes_from_row(nt, ns, 0, 1),
                        _probes_from_row(nt, ns, nt - 1, -1)])
    return Patch(points=pts, u_vals=u, fb_mask=fb,
                 primitive=a * (np.sinh(W) - W), base=(nt // 2, ns // 2),
                 fb_probes=probes)


def patch_scherk(s: float, a: float, resolution: int = 64,
                 outer_pow: float = 4.0) -> Patch:
    """One Scherk period cell meshed as a smooth structured annulus between
    the central zero-phase loop (FB inner ring) and a superellipse
    |x₁/Xf|^p + |x₂/Yf|^p = 1 inscribed in the cell {|x₂| < πa}.  A smooth
    annulus keeps the cotangent-curvature stencils regular (the conformal
    chart parametrization degenerates at the saddle corners and would not).
    Radial mesh lines leave the loop along its outward planar normal (from
    the implicit loop equation) and blend smoothly into rays toward the
    outer ring, so the inward probe lines measure the pure boundary
    conormal.  With ζ = Φ_s⁻¹(z/a) on x₁ ≥ 0, 2u_z = e^{−φ_s(ζ)}, so
    (2u_z)² dz = a·e^{−φ_s} dζ has the primitive F = a·Ψ_s(ζ); on x₁ < 0,
    F(z) = −conj F(−z̄), and the halves agree on the axis because
    Re Ψ_s(±il/2) = 0."""
    sol = Scherk(s, a)
    # the right half of the loop is a·Φ_s(iũ), ũ ∈ [−l/2, l/2]; it is
    # star-shaped about the origin, its polar angle rising from −π/2 to π/2
    ut = np.linspace(-np.pi * s, np.pi * s, 600)
    loop = scherk_loop_point(s, ut)
    th_loop = np.arctan2(loop[:, 1], loop[:, 0])

    nt = (5 * resolution) // 2 + 1       # angular samples (last = first)
    ns = max(8, resolution // 2) + 1     # radial levels, s = 0 on the loop
    theta = np.linspace(-np.pi, np.pi, nt)
    # FB ring on the loop at ũ interpolated in the polar angle; the left
    # half is the mirror θ → π − θ
    ut_in = np.interp(np.arctan2(np.sin(theta), np.abs(np.cos(theta))),
                      th_loop, ut)
    inner = a * scherk_loop_point(s, ut_in)
    inner[:, 0] = np.copysign(inner[:, 0], np.cos(theta))
    r_in = np.hypot(inner[:, 0], inner[:, 1])

    loop_top = a * scherk_loop_x2_extent(s)
    Yf = 0.5 * (loop_top + np.pi * a)
    Xf = max(3.0 * a, 2.0 * float(r_in.max()))
    p = outer_pow
    r_out = (np.abs(np.cos(theta) / Xf) ** p
             + np.abs(np.sin(theta) / Yf) ** p) ** (-1.0 / p)
    if not np.all(r_out > 1.1 * r_in):
        raise InvalidInputError("patch_scherk: outer ring too close to the "
                                "loop for this s")
    outer = np.stack([r_out * np.cos(theta), r_out * np.sin(theta)],
                     axis=-1)
    # outward loop normal from ∇ of the implicit equation
    # (1−s²)cosh(x₁/(1−s²)) − (1+s²)cos(x₂/(1+s²))
    gx = np.sinh(inner[:, 0] / (a * (1.0 - s * s)))
    gy = np.sin(inner[:, 1] / (a * (1.0 + s * s)))
    gn = np.hypot(gx, gy)
    normal = np.stack([gx / gn, gy / gn], axis=-1)

    # radial levels clustered toward the loop, where the surface bends most
    xi = np.linspace(0.0, 1.0, ns)
    gam = 1.6
    rho = (np.exp(gam * xi) - 1.0) / (np.exp(gam) - 1.0)
    span = np.linalg.norm(outer - inner, axis=1)
    nor = inner[:, None, :] + (rho[None, :, None] * span[:, None, None]
                               * normal[:, None, :])
    ray = inner[:, None, :] * (1.0 - rho[None, :, None]) \
        + outer[:, None, :] * rho[None, :, None]
    w = smoothstep5(rho / 0.45)[None, :, None]
    pts = (1.0 - w) * nor + w * ray

    chart = sol.chart()
    q = (pts[..., 0] + 1j * pts[..., 1]) / a
    right = q.real >= 0.0
    q = np.where(right, q, -np.conj(q))
    zeta = np.empty_like(q)
    zeta[:, 1:] = chart.inverse(q[:, 1:])
    zeta[:, 0] = 1j * ut_in
    u = a * zeta.real
    fb = np.zeros((nt, ns), dtype=bool)
    fb[:, 0] = True
    psi = a * chart.dual_primitive(zeta)
    return Patch(points=pts, u_vals=u, fb_mask=fb,
                 primitive=np.where(right, psi, -np.conj(psi)),
                 base=(0, ns - 1), weld_rows=True,
                 fb_probes=_probes_from_column(nt, ns, 0, 1))


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------

@dataclass
class SurfaceMesh:
    """Reflected bigraph mesh.  vertex_source rows are (x₁, x₂, sheet) with
    sheet +1 (upper), −1 (lower reflection), 0 (shared free-boundary
    vertex); triangle_sheet tags each face ±1.  probes rows (optional) hold
    a free-boundary vertex index followed by its three inward upper-sheet
    neighbors along a mesh line, for the boundary-conormal estimate."""

    vertices: np.ndarray
    triangles: np.ndarray
    vertex_source: np.ndarray
    triangle_sheet: np.ndarray
    probes: np.ndarray = None

    @property
    def fb_vertices(self):
        return np.nonzero(self.vertex_source[:, 2] == 0)[0]

    def save_obj(self, path) -> None:
        lines = []
        for vx, vy, vz in self.vertices:
            lines.append(f"v {format_float(vx)} {format_float(vy)} "
                         f"{format_float(vz)}")
        for i, j, k in self.triangles:
            lines.append(f"f {i + 1} {j + 1} {k + 1}")
        write_text_atomic(str(path), "\n".join(lines) + "\n")

    def boundary_vertices(self):
        tri = self.triangles
        edges = np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]],
                                        tri[:, [2, 0]]]), axis=1)
        uniq, counts = np.unique(edges, axis=0, return_counts=True)
        bnd = np.zeros(len(self.vertices), dtype=bool)
        bnd[uniq[counts == 1].ravel()] = True
        return bnd


def build_mesh(patch: Patch, reflect: bool = True) -> SurfaceMesh:
    """Map a structured patch through T and complete by X₃-reflection.

    Free-boundary vertices get X₃ = 0 exactly and are shared between the
    sheets; the lower sheet is the exact reflection with flipped face
    orientation.
    """
    nt, ns, _ = patch.points.shape
    Z = patch.points[..., 0] + 1j * patch.points[..., 1]
    jb, ib = patch.base
    I = patch.primitive - patch.primitive[jb, ib]
    X12 = 0.5 * ((np.conj(Z) - np.conj(Z[jb, ib])) - I)
    X3 = np.asarray(patch.u_vals, dtype=float).copy()
    X3[patch.fb_mask] = 0.0
    verts = np.stack([X12.real, X12.imag, X3], axis=-1).reshape(-1, 3)
    source = np.zeros((nt * ns, 3))
    source[:, 0] = patch.points[..., 0].ravel()
    source[:, 1] = patch.points[..., 1].ravel()
    source[:, 2] = np.where(patch.fb_mask.ravel(), 0.0, 1.0)

    vid = np.arange(nt * ns).reshape(nt, ns)
    if patch.weld_rows:
        vid = vid.copy()
        vid[-1, :] = vid[0, :]

    # per quad (j, i), in row-major order: (v00, v01, v11), (v00, v11, v10)
    v00, v01 = vid[:-1, :-1], vid[:-1, 1:]
    v10, v11 = vid[1:, :-1], vid[1:, 1:]
    tris = np.stack([v00, v01, v11, v00, v11, v10], axis=-1).reshape(-1, 3)

    # drop vertices orphaned by row welding
    used = np.zeros(nt * ns, dtype=bool)
    used[tris.ravel()] = True
    remap = -np.ones(nt * ns, dtype=int)
    remap[used] = np.arange(int(used.sum()))
    verts = verts[used]
    source = source[used]
    tris = remap[tris]
    probes = None
    if patch.fb_probes is not None:
        probes = remap[vid.ravel()[patch.fb_probes.ravel()]].reshape(-1, 4)
        probes = probes[np.all(probes >= 0, axis=1)]
        probes = np.unique(probes, axis=0)

    if not reflect:
        return SurfaceMesh(vertices=verts, triangles=tris,
                           vertex_source=source,
                           triangle_sheet=np.ones(len(tris), dtype=int),
                           probes=probes)

    fb = source[:, 2] == 0.0
    n_up = len(verts)
    dup = ~fb
    lower_ids = np.where(fb, np.arange(n_up), -1)
    lower_ids[dup] = n_up + np.arange(int(dup.sum()))
    lower_verts = verts[dup] * np.array([1.0, 1.0, -1.0])
    lower_source = source[dup].copy()
    lower_source[:, 2] = -1.0
    all_verts = np.vstack([verts, lower_verts])
    all_source = np.vstack([source, lower_source])
    lower_tris = lower_ids[tris][:, ::-1]
    all_tris = np.vstack([tris, lower_tris])
    sheet = np.concatenate([np.ones(len(tris), dtype=int),
                            -np.ones(len(tris), dtype=int)])
    return SurfaceMesh(vertices=all_verts, triangles=all_tris,
                       vertex_source=all_source, triangle_sheet=sheet,
                       probes=probes)


#: standard patch per meshable kind: rectangle for P, annular band for the
#: disk complement, chart rectangle for the hairpin, and the period-cell
#: annulus around the loop for Scherk.  Keyed by kind, not type: the
#: one-sided plane subclasses HalfPlane but is no solution, so has no mesh.
CANONICAL_PATCHES = {
    "half_plane": lambda sol, n: patch_halfplane(resolution=n),
    "disk_complement": lambda sol, n: patch_diskcomplement(sol.R,
                                                           resolution=n),
    "hairpin": lambda sol, n: patch_hairpin(sol.a, resolution=n),
    "scherk": lambda sol, n: patch_scherk(sol.s, sol.a, resolution=n),
}


def canonical_mesh(sol, resolution: int = 64) -> SurfaceMesh:
    """Reflected mesh of the family's patch in `CANONICAL_PATCHES`."""
    if sol.kind not in CANONICAL_PATCHES:
        raise InvalidInputError(
            f"no canonical mesh for family {type(sol).__name__}")
    return build_mesh(CANONICAL_PATCHES[sol.kind](sol, resolution))


# ---------------------------------------------------------------------------
# discrete curvature and orthogonality
# ---------------------------------------------------------------------------

def _vertex_normals(mesh: SurfaceMesh, sheet=None):
    verts = mesh.vertices
    tris = mesh.triangles if sheet is None else \
        mesh.triangles[mesh.triangle_sheet == sheet]
    a = verts[tris[:, 0]]
    b = verts[tris[:, 1]]
    c = verts[tris[:, 2]]
    fn = np.cross(b - a, c - a)  # area-weighted
    normals = np.zeros_like(verts)
    for k in range(3):
        np.add.at(normals, tris[:, k], fn)
    norm = np.linalg.norm(normals, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        normals = normals / np.where(norm > 0, norm, 1.0)[:, None]
    return normals


def mean_curvature(mesh: SurfaceMesh):
    """Signed discrete mean curvature at interior vertices: the cotangent
    Laplacian of position dotted with the (area-weighted) vertex normal over
    Meyer mixed areas (Voronoi, barycentric fallback at obtuse triangles).
    Boundary vertices get NaN.  Returns (H, interior_mask)."""
    verts = mesh.vertices
    tris = mesh.triangles
    n = len(verts)
    # before the per-corner arrays below exist, to keep the peak memory down
    normals = _vertex_normals(mesh)
    interior = ~mesh.boundary_vertices()
    lap = np.zeros_like(verts)
    area = np.zeros(n)
    p = verts[tris]  # (m, 3, 3)
    # per corner k: the edges to the next two corners, |e1 × e2|, e1·e2 and
    # the cotangent of the angle there (its sign marks an obtuse corner)
    e1 = [p[:, (k + 1) % 3] - p[:, k] for k in range(3)]
    e2 = [p[:, (k + 2) % 3] - p[:, k] for k in range(3)]
    cross = [np.linalg.norm(np.cross(a, b), axis=1) for a, b in zip(e1, e2)]
    dot = [np.einsum("ij,ij->i", a, b) for a, b in zip(e1, e2)]
    cot = [d / np.where(c > 0, c, 1.0) for d, c in zip(dot, cross)]
    for k in range(3):
        i0 = tris[:, k]
        i1 = tris[:, (k + 1) % 3]
        i2 = tris[:, (k + 2) % 3]
        # cot of the angle at vertex k weights the opposite edge (i1, i2)
        d = verts[i2] - verts[i1]
        np.add.at(lap, i1, cot[k][:, None] * d)
        np.add.at(lap, i2, -cot[k][:, None] * d)
        # Meyer mixed area at vertex k, from its own corner's |e1 × e2|
        tri_area = 0.5 * cross[k]
        l1 = np.einsum("ij,ij->i", e1[k], e1[k])
        l2 = np.einsum("ij,ij->i", e2[k], e2[k])
        cot1, cot2 = cot[(k + 1) % 3], cot[(k + 2) % 3]
        obtuse_here = dot[k] < 0
        any_obtuse = obtuse_here | (cot1 < 0) | (cot2 < 0)
        # non-obtuse: Voronoi area  (|e2|² cot∠i1 + |e1|² cot∠i2) / 8
        voronoi = (l2 * cot1 + l1 * cot2) / 8.0
        contrib = np.where(any_obtuse,
                           np.where(obtuse_here, tri_area / 2.0,
                                    tri_area / 4.0),
                           voronoi)
        np.add.at(area, i0, contrib)

    H = np.full(n, np.nan)
    safe = interior & (area > 0)
    # Δx = −2 H n̂, so a sphere with outward normals reports H = 1/R
    H[safe] = -(np.einsum("ij,ij->i", lap[safe], normals[safe])
                / (4.0 * area[safe]))
    return H, interior


def orthogonality_check(mesh: SurfaceMesh):
    """|angle − π/2| between the surface tangent plane and the symmetry
    plane {X₃ = 0} at free-boundary vertices.  The tangent plane meets
    {X₃ = 0} orthogonally iff the boundary conormal (the surface direction
    leaving the free boundary) is vertical, so when the mesh carries inward
    probe lines the defect is the angle between the cubic-fit conormal and
    the X₃ axis (third-order in the mesh step).  Without probes it falls
    back to arcsin of the X₃-component of the one-sided vertex normal
    (first-order).  Returns (fb_vertex_indices, defects)."""
    fb = mesh.fb_vertices
    if len(fb) == 0:
        return fb, np.zeros(0)
    if mesh.probes is None or len(mesh.probes) == 0:
        normals = _vertex_normals(mesh, sheet=1)
        nz = np.abs(normals[fb, 2])
        return fb, np.arcsin(np.clip(nz, 0.0, 1.0))
    P = mesh.vertices[mesh.probes]            # (m, 4, 3)
    # chord-length parameters t₀ = 0 < t₁ < t₂ < t₃
    seg = np.linalg.norm(np.diff(P, axis=1), axis=2)
    t = np.concatenate([np.zeros((len(P), 1)), np.cumsum(seg, axis=1)],
                       axis=1)                # (m, 4)
    # derivative of the Lagrange cubic at t = 0
    tangent = np.zeros((len(P), 3))
    for k in range(4):
        others = [j for j in range(4) if j != k]
        denom = np.ones(len(P))
        for j in others:
            denom *= t[:, k] - t[:, j]
        if k == 0:
            num = (t[:, 1] * t[:, 2] + t[:, 1] * t[:, 3]
                   + t[:, 2] * t[:, 3])
        else:
            rest = [j for j in others if j != 0]
            num = (-t[:, rest[0]]) * (-t[:, rest[1]])
        tangent += (num / denom)[:, None] * P[:, k]
    horiz = np.hypot(tangent[:, 0], tangent[:, 1])
    defects = np.arctan2(horiz, np.abs(tangent[:, 2]))
    return mesh.probes[:, 0], defects


def catenoid_overlay(mesh: SurfaceMesh, R: float) -> float:
    """Max residual |√(X₁²+X₂²) − R·cosh(X₃/R)| over all mesh vertices,
    after translating the neck ring (X₃ = 0 vertices) to be centered on the
    axis: the disk-complement image is the catenoid of neck radius R."""
    fb = mesh.fb_vertices
    if len(fb) == 0:
        raise InvalidInputError("catenoid_overlay: mesh has no neck ring")
    center = mesh.vertices[fb, :2].mean(axis=0)
    xy = mesh.vertices[:, :2] - center[None, :]
    rho = np.hypot(xy[:, 0], xy[:, 1])
    target = R * np.cosh(mesh.vertices[:, 2] / R)
    return float(np.max(np.abs(rho - target)))


def curvature_csv(mesh: SurfaceMesh, path) -> None:
    """Per-vertex mean curvature report: vertex index, H, is_boundary."""
    H, interior = mean_curvature(mesh)
    rows = []
    for k in range(len(H)):
        rows.append([k, "nan" if np.isnan(H[k]) else format_float(H[k]),
                     int(not interior[k])])
    write_csv_atomic(str(path), ["vertex", "H", "is_boundary"], rows)
