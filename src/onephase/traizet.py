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

* `traizet_map` — T from the family's closed-form primitive F of (2u_z)²
  (`Solution.primitive`): z, −R²/z, a(sinh w − w) in the hairpin chart w,
  and a·Ψ_s(ζ) in the Scherk chart ζ, mirrored and shifted per period;
* structured `Patch` factories per family (rectangle for the half-plane, an
  annular band for the disk complement, a chart rectangle for the hairpin,
  and an annulus around the loop for Scherk) carrying per-vertex values of
  that F and probe rows whose roots are the free-boundary vertices, the
  one record of the free boundary that the mesh keeps;
* `build_mesh` — upper sheet from a patch plus the exact X₃-reflection,
  welded along the free boundary; `canonical_mesh` picks a standard patch
  by family;
* `mean_curvature` — cotangent Laplacian dotted with the vertex normal over
  Voronoi mixed areas (barycentric fallback for obtuse triangles), from one
  pass over fixed-size blocks of triangles that keeps the cotangents and
  the mixed areas, so its memory grows by 48 bytes per triangle; every sum
  and rounding order is pinned, so H is reproducible bit for bit;
* `orthogonality_check` — |angle − π/2| between the upper-sheet tangent
  plane and {X₃ = 0} at free-boundary vertices.

Nothing here integrates numerically: (2u_z)² dz has no period around a
zero-phase component, so T is a difference of F values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .common import smoothstep5, write_text_atomic
from .conformal import (scherk_loop_gradient, scherk_loop_point,
                        scherk_loop_x2_extent)
from .errors import InvalidInputError, TopologyError
from .solutions import DiskComplement, Hairpin, HalfPlane, Scherk

__all__ = [
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
    "curvature_csv",
]


# ---------------------------------------------------------------------------
# the differential
# ---------------------------------------------------------------------------

def traizet_map(sol, base, z):
    """T(z) = (X₁, X₂, u(z)) with T(base) = (0, 0, u(base)) and
    X₁ + iX₂ = ½(conj(z − base) − (F(z) − F(base))), F = `sol.primitive`.

    base and z must lie in the closure of one positive-phase component: an
    endpoint in the open zero phase raises DomainError, endpoints in two
    components TopologyError, and a family without a primitive (the wedge,
    the one-sided plane) InvalidInputError.
    """
    pts = np.stack([np.asarray(base, dtype=float), np.asarray(z, dtype=float)])
    F = sol.primitive(pts)
    label = sol.component(pts)
    if label[0] != label[1]:
        raise TopologyError("traizet_map: base and z lie in different "
                            "positive-phase components")
    # the same points as `primitive`, so a charted family solves once
    u_end = float(sol.eval_u(pts)[1])
    d = pts[1] - pts[0]
    x12 = 0.5 * (complex(d[0], -d[1]) - (F[1] - F[0]))
    return np.array([x12.real, x12.imag, u_end])


# ---------------------------------------------------------------------------
# structured patches
# ---------------------------------------------------------------------------

@dataclass
class Patch:
    """A structured (nt × ns) planar vertex grid inside the closure of the
    positive phase, with exact u values and the per-vertex values of a
    holomorphic primitive F of (2u_z)², so the integral of (2u_z)² dz
    between two vertices is the difference of their F values.
    `weld_rows` identifies the last t-row with the first (periodic seam);
    `base` is the (jt, is) vertex that T maps to the X₁X₂ origin.
    `fb_probes` rows hold a free-boundary vertex and its three inward grid
    neighbors (flat indices) for the boundary-conormal estimate; their
    first column lists the free-boundary vertices."""

    points: np.ndarray
    u_vals: np.ndarray
    primitive: np.ndarray
    fb_probes: np.ndarray
    base: tuple = (0, 0)
    weld_rows: bool = False


def _probes(vid, col: int, inward: int):
    """Probe rows from the free-boundary column `col` of the vertex ids."""
    return np.stack([vid[:, col + k * inward] for k in range(4)], axis=1)


def patch_halfplane(resolution: int = 64) -> Patch:
    """Square [0, 2] × [−1, 1]; FB edge on {x₁ = 0}."""
    ns = resolution + 1
    nt = resolution + 1
    xs = np.linspace(0.0, 2.0, ns)
    ys = np.linspace(-1.0, 1.0, nt)
    X, Y = np.meshgrid(xs, ys)
    pts = np.stack([X, Y], axis=-1)
    return Patch(points=pts, u_vals=X,
                 primitive=HalfPlane().primitive(pts), base=(nt // 2, 0),
                 fb_probes=_probes(np.arange(nt * ns).reshape(nt, ns), 0, 1))


def patch_diskcomplement(R: float, resolution: int = 64) -> Patch:
    """Annular band R ≤ ρ ≤ 2R around the disk; FB ring at ρ = R;
    periodic in the angular (t) direction."""
    ns = max(4, resolution // 4) + 1
    nt = resolution + 1
    rho = R * np.linspace(1.0, 2.0, ns)
    th = np.linspace(0.0, 2.0 * np.pi, nt)
    TH, RHO = np.meshgrid(th, rho, indexing="ij")
    Z = RHO * np.exp(1j * TH)
    pts = np.stack([Z.real, Z.imag], axis=-1)
    u = R * np.log(RHO / R)
    u[:, 0] = 0.0
    return Patch(points=pts, u_vals=u,
                 primitive=DiskComplement(R).primitive(pts),
                 base=(0, 0), weld_rows=True,
                 fb_probes=_probes(np.arange(nt * ns).reshape(nt, ns), 0, 1))


def patch_hairpin(a: float, resolution: int = 64) -> Patch:
    """Chart rectangle for the double hairpin: w = ξ + iη on
    [−2.5, 2.5] × [−π/2, π/2], z = a(w + sinh w), u = a·Re cosh w; the
    rows η = ±π/2 are the two catenaries."""
    ns = resolution + 1
    nt = max(8, resolution // 2) + 1
    xi = np.linspace(-2.5, 2.5, ns)
    eta = np.linspace(-np.pi / 2.0, np.pi / 2.0, nt)
    XI, ETA = np.meshgrid(xi, eta)
    W = XI + 1j * ETA
    Z = a * (W + np.sinh(W))
    pts = np.stack([Z.real, Z.imag], axis=-1)
    u = a * np.real(np.cosh(W))
    u[0, :] = 0.0
    u[-1, :] = 0.0
    vid = np.arange(nt * ns).reshape(nt, ns).T
    probes = np.vstack([_probes(vid, 0, 1), _probes(vid, nt - 1, -1)])
    return Patch(points=pts, u_vals=u,
                 primitive=Hairpin(a).primitive_in_chart(W),
                 base=(nt // 2, ns // 2),
                 fb_probes=probes)


def patch_scherk(s: float, a: float, resolution: int = 64) -> Patch:
    """One Scherk period cell meshed as a smooth structured annulus between
    the central zero-phase loop (FB inner ring) and a superellipse
    |x₁/Xf|⁴ + |x₂/Yf|⁴ = 1 inscribed in the cell {|x₂| < πa}.  A smooth
    annulus keeps the cotangent-curvature stencils regular (the conformal
    chart parametrization degenerates at the saddle corners and would not).
    Radial mesh lines leave the loop along its outward planar normal (from
    the implicit loop equation) and blend smoothly into rays toward the
    outer ring, so the inward probe lines measure the pure boundary
    conormal.  F comes from the chart points ζ = Φ_s⁻¹(z/a) of the folded
    vertices, through `Scherk.primitive_in_chart`."""
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
    r_out = (np.abs(np.cos(theta) / Xf) ** 4.0
             + np.abs(np.sin(theta) / Yf) ** 4.0) ** (-1.0 / 4.0)
    if not np.all(r_out > 1.1 * r_in):
        raise InvalidInputError("patch_scherk: outer ring too close to the "
                                "loop for this s")
    outer = np.stack([r_out * np.cos(theta), r_out * np.sin(theta)],
                     axis=-1)
    # outward loop normal from ∇ of the implicit loop equation
    normal = scherk_loop_gradient(s, inner / a)
    normal /= np.hypot(normal[:, 0], normal[:, 1])[:, None]

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

    q = (pts[..., 0] + 1j * pts[..., 1]) / a
    right = q.real >= 0.0
    q = np.where(right, q, -np.conj(q))
    zeta = np.empty_like(q)
    zeta[:, 1:] = sol.chart().inverse(q[:, 1:])
    zeta[:, 0] = 1j * ut_in
    return Patch(points=pts, u_vals=a * zeta.real,
                 primitive=sol.primitive_in_chart(zeta, right),
                 base=(0, ns - 1), weld_rows=True,
                 fb_probes=_probes(np.arange(nt * ns).reshape(nt, ns), 0, 1))


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------

@dataclass
class SurfaceMesh:
    """Reflected bigraph mesh: the upper sheet's vertices, then the mirror
    images of those off the free boundary; the upper sheet's triangles,
    then their mirror images with flipped orientation.  probes rows hold a
    free-boundary vertex index followed by its three inward upper-sheet
    neighbors along a mesh line, for the boundary-conormal estimate; they
    are sorted, and their first column is the free-boundary vertices, the
    ones shared by the two sheets, at X₃ = 0.  `build_mesh` gives float64
    vertices (n, 3) and int32 triangles (m, 3) and probes (k, 4)."""

    vertices: np.ndarray
    triangles: np.ndarray
    probes: np.ndarray

    @property
    def fb_vertices(self):
        return self.probes[:, 0]

    def save_obj(self, path) -> None:
        """Wavefront OBJ: one `v` line per vertex ('%.17g'), then one `f`
        line per triangle (1-based)."""
        v = ("v %.17g %.17g %.17g\n" * len(self.vertices)
             % tuple(self.vertices.ravel().tolist()))
        f = ("f %d %d %d\n" * len(self.triangles)
             % tuple((self.triangles + 1).ravel().tolist()))
        write_text_atomic(str(path), v + f)

    def boundary_vertices(self):
        """Mask of the vertices on an edge that only one triangle has."""
        n = len(self.vertices)
        i, j = self.triangles, np.roll(self.triangles, -1, axis=1)
        # edge keys min·n + max, built in place in int64 (n² overflows
        # int32 from 46,341 vertices) and sorted: an edge that only one
        # triangle has differs from both of its neighbours
        key = np.minimum(i, j, dtype=np.int64).ravel()
        key *= n
        key += np.maximum(i, j, out=j).ravel()
        key.sort()
        new = np.concatenate([[True], key[1:] != key[:-1], [True]])
        edges = key[new[:-1] & new[1:]]
        bnd = np.zeros(n, dtype=bool)
        bnd[edges // n] = True
        bnd[edges % n] = True
        return bnd


def build_mesh(patch: Patch) -> SurfaceMesh:
    """Map a structured patch through T and complete by X₃-reflection.

    Free-boundary vertices, the roots of `patch.fb_probes`, get X₃ = 0
    exactly and are shared between the sheets; the lower sheet is the
    exact reflection with flipped face orientation.  A welded patch's last
    row is its first, so its vertices are not kept.
    """
    nt, ns, _ = patch.points.shape
    vid = np.arange(nt * ns, dtype=np.int32).reshape(nt, ns)
    rows = nt
    if patch.weld_rows:
        vid[-1, :] = vid[0, :]
        rows -= 1
    n_up = rows * ns
    probes = np.unique(vid.ravel()[patch.fb_probes], axis=0)
    fb = probes[:, 0]
    mirrored = np.ones(n_up, dtype=bool)
    mirrored[fb] = False

    Z = patch.points[:rows, :, 0] + 1j * patch.points[:rows, :, 1]
    jb, ib = patch.base
    I = patch.primitive[:rows] - patch.primitive[jb, ib]
    X12 = 0.5 * ((np.conj(Z) - np.conj(Z[jb, ib])) - I)
    verts = np.empty((2 * n_up - len(fb), 3))
    up = verts[:n_up]
    up[:, 0] = X12.real.ravel()
    up[:, 1] = X12.imag.ravel()
    up[:, 2] = np.asarray(patch.u_vals, dtype=float)[:rows].ravel()
    up[fb, 2] = 0.0
    np.compress(mirrored, up, axis=0, out=verts[n_up:])
    np.negative(verts[n_up:, 2], out=verts[n_up:, 2])

    # per quad (j, i), in row-major order: (v00, v01, v11), (v00, v11, v10)
    v00, v01 = vid[:-1, :-1], vid[:-1, 1:]
    v10, v11 = vid[1:, :-1], vid[1:, 1:]
    upper = np.stack([v00, v01, v11, v00, v11, v10], axis=-1).reshape(-1, 3)
    # the mirror image of an upper vertex: itself on the free boundary
    image = np.arange(n_up, dtype=np.int32)
    image[mirrored] = np.arange(n_up, len(verts))
    tris = np.concatenate([upper, image[upper[:, ::-1]]])
    return SurfaceMesh(vertices=verts, triangles=tris, probes=probes)


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

#: triangles per block of `mean_curvature`'s passes
_CHUNK = 8192


def _dot3(u, v):
    """Dot products of vectors given by their coordinates, in np.einsum's
    order for "ij,ij->i" on rows of three: (u₀v₀ + u₂v₂) + u₁v₁."""
    return (u[0] * v[0] + u[2] * v[2]) + u[1] * v[1]


def _triangle_terms(x, tris, cot, contrib):
    """One block of `mean_curvature`'s first pass: the cotangent cot[k]
    and the Meyer mixed area contrib[k] per corner k.  x[c] holds
    coordinate c of every vertex."""
    # E[k] runs from corner k to corner k+1 (indices mod 3).  At corner k
    # the edges to the next two corners are e1 = E[k] and e2 = −E[k+2], and
    # the opposite edge is E[k+1].  Negating a difference is exact, so the
    # terms in e2 below are those in E[k+2] with their signs flipped.
    E = [[], [], []]
    for c in range(3):
        p = [x[c].take(t) for t in tris.T]
        for k in range(3):
            E[k].append(p[(k + 1) % 3] - p[k])
    # per corner k: |e1 × e2| (np.cross's formula, summed as np.linalg.norm
    # sums), e1·e2 and the cotangent of the angle there (its sign marks an
    # obtuse corner)
    cross, dot = [], []
    for k in range(3):
        u, v = E[k], E[(k + 2) % 3]
        w = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
             u[0] * v[1] - u[1] * v[0]]
        cross.append(np.sqrt((w[0] * w[0] + w[1] * w[1]) + w[2] * w[2]))
        dot.append(-_dot3(u, v))
        del w
    for k in range(3):
        np.divide(dot[k], np.where(cross[k] > 0, cross[k], 1.0), out=cot[k])
    sq = [_dot3(e, e) for e in E]        # sq[k] = |E[k]|²
    del E
    # Meyer mixed area at corner k, from its own |e1 × e2|
    for k in range(3):
        tri_area = 0.5 * cross[k]
        cot1, cot2 = cot[(k + 1) % 3], cot[(k + 2) % 3]
        obtuse_here = dot[k] < 0
        any_obtuse = obtuse_here | (cot1 < 0) | (cot2 < 0)
        # non-obtuse: Voronoi area  (|e2|² cot∠i1 + |e1|² cot∠i2) / 8
        voronoi = (sq[(k + 2) % 3] * cot1 + sq[k] * cot2) / 8.0
        contrib[k] = np.where(any_obtuse,
                              np.where(obtuse_here, tri_area / 2.0,
                                       tri_area / 4.0),
                              voronoi)


def _face_normal(x, tris, c, out):
    """Coordinate c of the area-weighted face normal (p₁ − p₀) × (p₂ − p₀)
    of a block of triangles, into `out`: −(E[0] × E[2])_c with E[k] from
    corner k to corner k+1, as the cross product of `_triangle_terms`
    rounds it."""
    p, q = ([x[j].take(t) for t in tris.T] for j in ((c + 1) % 3,
                                                     (c + 2) % 3))
    np.subtract((p[1] - p[0]) * (q[0] - q[2]), (q[1] - q[0]) * (p[0] - p[2]),
                out=out)
    np.negative(out, out=out)


def mean_curvature(mesh: SurfaceMesh):
    """Signed discrete mean curvature at interior vertices: the cotangent
    Laplacian of position dotted with the (area-weighted) vertex normal over
    Meyer mixed areas (Voronoi, barycentric fallback at obtuse triangles).
    Boundary vertices get NaN.  Returns (H, interior_mask).

    Its temporary memory is 48 bytes per triangle, a few arrays per vertex
    and a fixed amount per block.  A pass over blocks of `_CHUNK`
    triangles, with coordinates first, keeps the cotangents and the Meyer
    areas, freed once the area sums are taken; then each coordinate of the
    face normals, and then each Laplacian weight, is formed in one
    triangle-length buffer; every other temporary lives for one block.
    np.add.at then adds the terms of each per-vertex sum in a fixed order,
    corner 0 of every triangle, then corner 1, then corner 2, the triangles
    in order.  The cross products, lengths and dot products round as
    np.cross, np.linalg.norm and np.einsum do on rows of three (the tests'
    oracle uses them), so H does not depend on the block length."""
    tris = mesh.triangles
    n, m = len(mesh.vertices), len(tris)
    # before the per-triangle arrays exist, to keep the peak memory down
    interior = ~mesh.boundary_vertices()
    x = np.ascontiguousarray(mesh.vertices.T)
    blocks = [slice(lo, lo + _CHUNK) for lo in range(0, m, _CHUNK)]
    cot, contrib = np.empty((3, m)), np.empty((3, m))
    for b in blocks:
        _triangle_terms(x, tris[b], cot[:, b], contrib[:, b])

    # each per-triangle array goes as soon as its sums are taken
    area = np.zeros(n)
    for k, b in itertools.product(range(3), blocks):
        np.add.at(area, tris[b, k], contrib[k, b])
    del contrib
    w = np.empty(m)
    normals = np.zeros((3, n))
    for c in range(3):
        for b in blocks:
            _face_normal(x, tris[b], c, w[b])
        for k, b in itertools.product(range(3), blocks):
            np.add.at(normals[c], tris[b, k], w[b])
    norm = np.linalg.norm(normals, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        normals /= np.where(norm > 0, norm, 1.0)
    # cot of the angle at corner k weights the opposite edge (i1, i2):
    # +cot·E[k+1] at i1 = tris[:, k+1], then −cot·E[k+1] at i2 = tris[:, k+2],
    # each weight formed once into `w`; a coordinate's sum sees the same
    # scatters in the same order whichever coordinate goes first
    lap = np.zeros((3, n))
    for k, c in itertools.product(range(3), range(3)):
        i1, i2 = tris[:, (k + 1) % 3], tris[:, (k + 2) % 3]
        for b in blocks:
            np.subtract(x[c].take(i2[b]), x[c].take(i1[b]), out=w[b])
            w[b] *= cot[k, b]
        for scatter, at in ((np.add.at, i1), (np.subtract.at, i2)):
            for b in blocks:
                scatter(lap[c], at[b], w[b])
    del cot, x, w

    H = np.full(n, np.nan)
    safe = interior & (area > 0)
    # Δx = −2 H n̂, so a sphere with outward normals reports H = 1/R
    H[safe] = -(_dot3(lap, normals)[safe] / (4.0 * area[safe]))
    return H, interior


def orthogonality_check(mesh: SurfaceMesh):
    """|angle − π/2| between the surface tangent plane and the symmetry
    plane {X₃ = 0} at free-boundary vertices.  The tangent plane meets
    {X₃ = 0} orthogonally iff the boundary conormal (the surface direction
    leaving the free boundary) is vertical, so the defect is the angle
    between the X₃ axis and the conormal fitted by a cubic through the
    inward probe line of each row of `mesh.probes` (third-order in the
    mesh step).  Returns (mesh.fb_vertices, defects), both empty for a
    mesh without probes."""
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
    return mesh.fb_vertices, defects


def curvature_csv(mesh: SurfaceMesh, path):
    """Per-vertex mean curvature report: vertex index, H ('%.17g', `nan` on
    the boundary), is_boundary.  Returns the (H, interior) of
    `mean_curvature` that it wrote."""
    H, interior = mean_curvature(mesh)
    cells = zip(range(len(H)), H.tolist(), (~interior).astype(int).tolist())
    write_text_atomic(str(path), "vertex,H,is_boundary\n"
                      + "%d,%.17g,%d\n" * len(H)
                      % tuple(itertools.chain.from_iterable(cells)))
    return H, interior
