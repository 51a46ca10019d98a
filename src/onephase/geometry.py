"""Free-boundary extraction and the quantitative geometric checks.

Contents:

* `extract_boundary` — oriented marching squares (positive phase on the
  left of travel), saddle cells disambiguated by the cell-center value;
* `hausdorff` — symmetric Hausdorff distance between polyline sets over
  densified vertices;
* `curve_curvature` — signed circumradius (Menger) curvature per vertex;
* `flux_balance` — the divergence-theorem identity on a polygonal region:
  ∮ ν·∇u vanishes, and the free boundary length inside is at most the
  Lipschitz constant times the remaining boundary length;
* `classify_flat` — the flat trichotomy: with F(u) δ-close to the vertical
  segment {(0,x₂): |x₂| < 3}, either (A) one graph-like strand with both
  phases connected in B₁, (B) two strands with a zero-phase strip between,
  or (C) connected positive phase in B₂ with two zero-phase components
  hanging from the top/bottom arcs α_±(2);
* `circle_max` — max of u on a sampled circle with the max/r ratio (the
  non-degeneracy sweeps assert the printed 1/(4π) lower bound);
* `annulus_flat_check` — the removable-singularity flatness probe: on an
  annulus whose free boundary consists of two strands joining the inner
  and outer circles, find per scale r the rotation making the chosen
  positive-phase component closest to the half-plane profile and report
  the best-fit boundary graph with its maximal slope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .common import (Window, densify_polyline, format_float, points_in_polygon,
                     polyline_length, write_csv_atomic)
from .errors import DomainError, InvalidInputError, TopologyError
from .variational import ScalarField2D

__all__ = [
    "PolyCurve",
    "FreeBoundary",
    "extract_boundary",
    "hausdorff",
    "curve_curvature",
    "FluxReport",
    "flux_balance",
    "random_polygon_in_phase",
    "FlatnessReport",
    "classify_flat",
    "circle_max",
    "AnnulusScaleReport",
    "annulus_flat_check",
]


# ---------------------------------------------------------------------------
# polyline types
# ---------------------------------------------------------------------------

@dataclass
class PolyCurve:
    """Ordered planar polyline; `closed` curves repeat the first vertex
    last.  Orientation convention where one applies: the positive phase
    lies on the left of travel."""

    vertices: np.ndarray
    closed: bool = False

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise InvalidInputError("PolyCurve vertices must have shape (n, 2)")
        if len(self.vertices) < 2:
            raise InvalidInputError("PolyCurve needs at least 2 vertices")
        seg = np.diff(self.vertices, axis=0)
        if np.any(np.hypot(seg[:, 0], seg[:, 1]) == 0.0):
            raise InvalidInputError("PolyCurve has repeated consecutive vertices")

    def __len__(self):
        return len(self.vertices)

    def length(self) -> float:
        return polyline_length(self.vertices)

    def is_simple(self, tol: float = 1e-12) -> bool:
        """Closed-curve simplicity check (O(n²); diagnostics only)."""
        return not _self_intersects(self.vertices, self.closed, tol)


@dataclass
class FreeBoundary:
    components: list = field(default_factory=list)

    def __post_init__(self):
        self.components = [c if isinstance(c, PolyCurve) else PolyCurve(c)
                           for c in self.components]

    def __len__(self):
        return len(self.components)

    def save(self, path) -> None:
        rows = []
        for ci, comp in enumerate(self.components):
            for vi, (x, y) in enumerate(comp.vertices):
                rows.append([ci, vi, format_float(x), format_float(y)])
        write_csv_atomic(str(path), ["component", "vertex", "x", "y"], rows)

    @staticmethod
    def load(path) -> "FreeBoundary":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        comps = []
        if data.size:
            for ci in np.unique(data[:, 0]):
                verts = data[data[:, 0] == ci][:, 2:4]
                closed = len(verts) > 2 and np.allclose(verts[0], verts[-1])
                comps.append(PolyCurve(verts, closed=closed))
        return FreeBoundary(comps)


def _segments_intersect(a, b, c, d, tol):
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    return (o1 * o2 < -tol) and (o3 * o4 < -tol)


def _self_intersects(v, closed, tol) -> bool:
    """Whether two non-adjacent segments (v[i], v[i+1]) of the polyline v
    cross (O(n²)); `closed` makes the last and first segments adjacent."""
    n = len(v) - 1
    for i in range(n):
        for j in range(i + 2, n):
            if closed and i == 0 and j == n - 1:
                continue
            if _segments_intersect(v[i], v[i + 1], v[j], v[j + 1], tol):
                return True
    return False


def _as_polyline_list(obj):
    if isinstance(obj, FreeBoundary):
        return [c.vertices for c in obj.components]
    if isinstance(obj, PolyCurve):
        return [obj.vertices]
    if isinstance(obj, np.ndarray) and obj.ndim == 2:
        return [obj]
    out = []
    for item in obj:
        out.extend(_as_polyline_list(item))
    return out


# ---------------------------------------------------------------------------
# marching squares
# ---------------------------------------------------------------------------

def extract_boundary(fld: ScalarField2D, level: float = 0.0) -> FreeBoundary:
    """Marching-squares contour of {v > level}, oriented with the positive
    set on the left of travel.  Saddle cells (two opposite corners inside)
    are split according to the cell-center average.  Returns an empty
    FreeBoundary when the field has no sign change of (v − level)."""
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


# ---------------------------------------------------------------------------
# metric diagnostics
# ---------------------------------------------------------------------------

def hausdorff(a, b, densify_step: float = None) -> float:
    """Symmetric Hausdorff distance between two polyline sets, computed on
    vertices after densification (default step: 1/2 of the coarsest mean
    segment length)."""
    A = _as_polyline_list(a)
    B = _as_polyline_list(b)
    if not A or not B:
        raise InvalidInputError("hausdorff: empty polyline set")
    if densify_step is None:
        seglens = []
        for ps in A + B:
            d = np.diff(ps, axis=0)
            seglens.append(np.mean(np.hypot(d[:, 0], d[:, 1])))
        densify_step = 0.5 * max(seglens)
    PA = np.vstack([densify_polyline(ps, densify_step) for ps in A])
    PB = np.vstack([densify_polyline(ps, densify_step) for ps in B])
    da = cKDTree(PB).query(PA)[0]
    db = cKDTree(PA).query(PB)[0]
    return float(max(da.max(), db.max()))


def curve_curvature(curve) -> np.ndarray:
    """Signed Menger (circumradius) curvature at each vertex; positive when
    the curve bends left.  Endpoint vertices of open curves get NaN;
    collinear triples get 0."""
    if isinstance(curve, PolyCurve):
        pts = curve.vertices
        closed = curve.closed
    else:
        pts = np.asarray(curve, dtype=float)
        closed = len(pts) > 2 and np.allclose(pts[0], pts[-1])
    if len(pts) < 3:
        raise InvalidInputError("curve_curvature needs at least 3 vertices")
    if closed:
        ring = np.vstack([pts[-2:-1], pts])  # drop duplicate seam point
        prev, cur, nxt_ = ring[:-2], ring[1:-1], ring[2:]
    else:
        prev, cur, nxt_ = pts[:-2], pts[1:-1], pts[2:]
    e1 = cur - prev
    e2 = nxt_ - cur
    e3 = nxt_ - prev
    cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    denom = (np.hypot(e1[:, 0], e1[:, 1]) * np.hypot(e2[:, 0], e2[:, 1])
             * np.hypot(e3[:, 0], e3[:, 1]))
    with np.errstate(invalid="ignore", divide="ignore"):
        kappa = np.where(denom > 0, 2.0 * cross / np.where(denom > 0, denom, 1.0),
                         0.0)
    if closed:
        return kappa
    out = np.full(len(pts), np.nan)
    out[1:-1] = kappa
    return out


def circle_max(sol, center, r: float, samples: int = 720):
    """Max of u over `samples` points of ∂B_r(center); returns
    (max_value, max_value / r)."""
    if not r > 0:
        raise InvalidInputError("circle_max requires r > 0")
    c = np.asarray(center, dtype=float)
    th = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    pts = c[None, :] + r * np.stack([np.cos(th), np.sin(th)], axis=-1)
    m = float(np.max(sol.eval_u(pts)))
    return m, m / r


# ---------------------------------------------------------------------------
# flux balance
# ---------------------------------------------------------------------------

@dataclass
class FluxReport:
    net_flux: float
    fb_measure: float
    rest_measure: float
    lipschitz_bound: float
    lemma_holds: bool

    def to_dict(self):
        return {"net_flux": self.net_flux, "fb_measure": self.fb_measure,
                "rest_measure": self.rest_measure,
                "lipschitz_bound": self.lipschitz_bound,
                "lemma_holds": self.lemma_holds}


_GAUSS2 = (np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)]),
           np.array([0.5, 0.5]))


def flux_balance(sol, polygon, step: float = 1e-3) -> FluxReport:
    """Divergence-theorem balance on Ω = polygon ∩ {u > 0}:

        0 = ∮_{∂Ω} ν·∇u = ∫_{∂P ∩ {u>0}} ν·∇u − ℋ¹(F(u) ∩ P),

    since ν·∇u = −1 along the free boundary.  Each free-boundary piece is
    counted once per adjacent positive side (probed a half-step along its
    normal): a two-sided interface such as the wedge's spine |x₁| = 0
    bounds the phase from both sides and enters the balance twice.
    Reports the net flux (should vanish to quadrature accuracy), the two
    boundary measures, the measured Lipschitz bound L = max |∇u| on
    ∂P ∩ {u>0}, and whether fb_measure ≤ L·rest_measure holds.

    The polygon is given by its vertices (auto-closed) and must be simple;
    edge quadrature is composite 2-point Gauss with pieces of length ≤ step.
    """
    P = np.asarray(polygon, dtype=float)
    if P.ndim != 2 or P.shape[1] != 2 or len(P) < 3:
        raise InvalidInputError("flux_balance: polygon needs ≥ 3 vertices")
    if np.allclose(P[0], P[-1]):
        P = P[:-1]
    if len(P) < 3:
        raise InvalidInputError("flux_balance: degenerate polygon")
    n = len(P)
    ring = np.vstack([P, P[:1]])
    if np.any(np.all(ring[1:] == ring[:-1], axis=1)):
        raise InvalidInputError("flux_balance: repeated polygon vertex")
    if _self_intersects(ring, True, 0.0):
        raise InvalidInputError("flux_balance: polygon self-intersects")
    # orient counterclockwise so the outward normal is (t_y, −t_x)
    area2 = float(np.sum(P[:, 0] * np.roll(P[:, 1], -1)
                         - np.roll(P[:, 0], -1) * P[:, 1]))
    if area2 < 0:
        P = P[::-1]

    gt, gw = _GAUSS2
    flux = 0.0
    rest = 0.0
    lip = 0.0
    for i in range(n):
        a, b = P[i], P[(i + 1) % n]
        d = b - a
        elen = float(np.hypot(d[0], d[1]))
        pieces = max(1, int(np.ceil(elen / step)))
        edges_t = (np.arange(pieces)[:, None] + gt[None, :]) / pieces
        ts = edges_t.ravel()
        ws = np.tile(gw / pieces, pieces) * elen
        pts = a[None, :] + ts[:, None] * d[None, :]
        pos = sol.in_positive_phase(pts)
        if not np.any(pos):
            continue
        g = sol.eval_grad(pts[pos])
        nu = np.array([d[1], -d[0]]) / elen
        flux += float(np.sum(ws[pos] * (g @ nu)))
        rest += float(np.sum(ws[pos]))
        lip = max(lip, float(np.max(np.hypot(g[:, 0], g[:, 1]))))

    # free boundary inside the polygon
    pad = 10.0 * step
    win = Window(P[:, 0].min() - pad, P[:, 1].min() - pad,
                 P[:, 0].max() + pad, P[:, 1].max() + pad)
    fb_measure = 0.0
    for curve in sol.free_boundary_curves(win, step=step / 2.0):
        dense = densify_polyline(curve, step / 2.0)
        mids = 0.5 * (dense[:-1] + dense[1:])
        seg = np.diff(dense, axis=0)
        seglen = np.hypot(seg[:, 0], seg[:, 1])
        inside = points_in_polygon(mids, P) & (seglen > 0)
        if not np.any(inside):
            continue
        tang = seg[inside] / seglen[inside, None]
        nu = np.stack([tang[:, 1], -tang[:, 0]], axis=-1)
        off = 0.5 * step * nu
        mult = (sol.in_positive_phase(mids[inside] + off).astype(float)
                + sol.in_positive_phase(mids[inside] - off).astype(float))
        fb_measure += float(np.sum(seglen[inside] * mult))

    net = flux - fb_measure
    holds = fb_measure <= lip * rest + 10.0 * step
    return FluxReport(net_flux=net, fb_measure=fb_measure, rest_measure=rest,
                      lipschitz_bound=lip, lemma_holds=bool(holds))


def _dist_to_polygon_edges(points, polygon) -> np.ndarray:
    """Euclidean distance from each point to the nearest edge of a polygon,
    vectorized over points × edges.

    points: (n, 2); polygon: (m, 2), implicitly closed as in
    `points_in_polygon`.  The projection onto each segment is clamped, so
    points beyond an end get the distance to that vertex; a zero-length
    edge gives the distance to its vertex.  Returns an (n,) array."""
    p = np.asarray(points, dtype=float)
    a = np.asarray(polygon, dtype=float)
    d = np.roll(a, -1, axis=0) - a
    dd = np.sum(d * d, axis=-1)
    rel = p[:, None, :] - a[None, :, :]
    t = np.clip(np.sum(rel * d, axis=-1) / np.where(dd > 0.0, dd, 1.0),
                0.0, 1.0)
    off = rel - t[..., None] * d
    return np.min(np.hypot(off[..., 0], off[..., 1]), axis=1)


def random_polygon_in_phase(sol, window: Window, rng,
                            max_tries: int = 500) -> np.ndarray:
    """Random simple polygon whose closure lies in the positive phase ∩ window.

    Star-shaped about a sampled center (monotone jittered angles, so always
    simple); rejected unless densified edges *and* an interior point grid all
    sit in the positive phase — the grid rules out polygons that wrap around
    a zero-phase island — and the free boundary keeps a positive clearance
    from the polygon.  The clearance test is essential for two-sided
    interfaces like the wedge spine, where u > 0 on both sides and phase
    sampling alone sees nothing.  Polygons strictly inside the phase keep
    `flux_balance` free of free-boundary clipping error, so the net flux is
    pure quadrature.  Deterministic given `rng`."""
    half = 0.5 * min(window.width, window.height)
    for _ in range(max_tries):
        c = np.array([rng.uniform(window.x0, window.x1),
                      rng.uniform(window.y0, window.y1)])
        if not sol.in_positive_phase(c[None, :])[0]:
            continue
        k = int(rng.integers(5, 10))
        theta = 2.0 * np.pi * (np.arange(k) +
                               rng.uniform(-0.35, 0.35, size=k)) / k
        radius = rng.uniform(0.1, 0.35) * half * rng.uniform(0.55, 1.0, size=k)
        verts = c[None, :] + np.stack([radius * np.cos(theta),
                                       radius * np.sin(theta)], axis=-1)
        if not np.all(window.contains(verts)):
            continue
        dense = densify_polyline(np.vstack([verts, verts[:1]]),
                                 np.max(radius) / 64.0)
        if not np.all(sol.in_positive_phase(dense)):
            continue
        gx = np.linspace(verts[:, 0].min(), verts[:, 0].max(), 16)
        gy = np.linspace(verts[:, 1].min(), verts[:, 1].max(), 16)
        GX, GY = np.meshgrid(gx, gy)
        grid = np.stack([GX, GY], axis=-1).reshape(-1, 2)
        inside = points_in_polygon(grid, verts)
        if np.any(inside) and not np.all(sol.in_positive_phase(grid[inside])):
            continue
        rmax = float(np.max(radius))
        clearance = rmax / 32.0
        bwin = Window(verts[:, 0].min() - clearance,
                      verts[:, 1].min() - clearance,
                      verts[:, 0].max() + clearance,
                      verts[:, 1].max() + clearance)
        fb_near = False
        for curve in sol.free_boundary_curves(bwin, step=rmax / 64.0):
            dense_fb = densify_polyline(curve, rmax / 64.0)
            if (np.any(points_in_polygon(dense_fb, verts))
                    or np.min(_dist_to_polygon_edges(dense_fb, verts))
                    < clearance):
                fb_near = True
                break
        if fb_near:
            continue
        return verts
    raise DomainError(
        "random_polygon_in_phase: could not place a polygon in the positive "
        f"phase within {max_tries} tries — window may miss the phase")


# ---------------------------------------------------------------------------
# flat trichotomy
# ---------------------------------------------------------------------------

def _phase_components(u_vals, active, eps):
    """4-connected component counts (n_pos, n_zero) of {u > eps} and
    {u ≤ eps} restricted to `active` nodes."""
    four = ndimage.generate_binary_structure(2, 1)
    return (ndimage.label((u_vals > eps) & active, structure=four)[1],
            ndimage.label((u_vals <= eps) & active, structure=four)[1])


def _eval_on(sol_or_field, pts):
    if hasattr(sol_or_field, "eval_u"):
        return sol_or_field.eval_u(pts)
    return sol_or_field.interpolate(pts)


def _fb_polylines(sol_or_field, window: Window, step: float):
    if hasattr(sol_or_field, "free_boundary_curves"):
        return sol_or_field.free_boundary_curves(window, step=step)
    return [c.vertices for c in extract_boundary(sol_or_field).components]


def _split_runs(points, keep, cut=None):
    """Contiguous runs of `points` where `keep` is True (≥ 2 points each);
    cut[k] also ends a run between points k and k + 1."""
    pieces = []
    start = None
    for k in range(len(points)):
        if start is not None and (not keep[k]
                                  or (cut is not None and cut[k - 1])):
            if k - start >= 2:
                pieces.append(points[start:k])
            start = None
        if keep[k] and start is None:
            start = k
    if start is not None and len(points) - start >= 2:
        pieces.append(points[start:])
    return pieces


def _clip_to_disk(poly, R, step):
    """Split a densified polyline into the pieces inside the disk B_R."""
    dense = densify_polyline(poly, step)
    r = np.hypot(dense[:, 0], dense[:, 1])
    return _split_runs(dense, r <= R)


@dataclass
class FlatnessReport:
    case: str
    delta: float
    hausdorff_measured: float
    pos_components_b1: int
    zero_components_b1: int
    pos_components_b2: int
    zero_components_b2: int
    graphs: dict
    arc_attachment_ok: bool

    def to_dict(self):
        graphs = {k: {kk: (vv.tolist() if isinstance(vv, np.ndarray) else vv)
                      for kk, vv in g.items()}
                  for k, g in self.graphs.items()}
        return {"case": self.case, "delta": self.delta,
                "hausdorff_measured": self.hausdorff_measured,
                "pos_components_b1": self.pos_components_b1,
                "zero_components_b1": self.zero_components_b1,
                "pos_components_b2": self.pos_components_b2,
                "zero_components_b2": self.zero_components_b2,
                "graphs": graphs,
                "arc_attachment_ok": self.arc_attachment_ok}


def _graph_from_strand(poly, lo, hi, n=101):
    """Sample x₁ = g(x₂) from a strand's vertices over [lo, hi]."""
    order = np.argsort(poly[:, 1])
    ys = poly[order, 1]
    xs = poly[order, 0]
    samp = np.linspace(lo, hi, n)
    return samp, np.interp(samp, ys, xs)


def classify_flat(sol_or_field, delta: float, eps: float = 1e-9,
                  n_grid: int = 161) -> FlatnessReport:
    """Flat trichotomy on B₃ under the hypothesis that F(u) is δ-close in
    Hausdorff distance to the vertical segment {(0, x₂): |x₂| < 3}.

    Case A — one strand, positive and zero phase both connected in B₁;
    returns graph samples g with x₁ = g(x₂).
    Case B — two strands with the zero phase between; returns g₁ < g₂.
    Case C — positive phase connected in B₂, zero phase splits into two
    components, attached to the top/bottom arcs α_±(2).

    Classification is by 4-connected component counting of {u > eps} and
    {u ≤ eps} on node grids over B₁ and B₂; the δ-precondition is checked
    against the measured Hausdorff distance with 10% slack.
    """
    if not delta > 0:
        raise InvalidInputError("classify_flat requires delta > 0")
    step = 6.0 / (n_grid - 1) / 2.0
    fb = _fb_polylines(sol_or_field, Window(-3.0, -3.0, 3.0, 3.0), step)
    fb_in_b3 = []
    for poly in fb:
        fb_in_b3.extend(_clip_to_disk(poly, 3.0, step))
    if not fb_in_b3:
        raise DomainError("classify_flat: no free boundary found in B_3")
    pts = np.vstack(fb_in_b3)
    d_to_seg = np.hypot(pts[:, 0], np.maximum(np.abs(pts[:, 1]) - 3.0, 0.0))
    seg = np.stack([np.zeros(601), np.linspace(-3.0, 3.0, 601)], axis=-1)
    d_from_seg = cKDTree(pts).query(seg)[0]
    haus = float(max(d_to_seg.max(), d_from_seg.max()))
    if haus > 1.1 * delta:
        raise DomainError(
            f"classify_flat: measured Hausdorff distance {haus:.4g} exceeds "
            f"delta = {delta:.4g} (with 10% slack)")

    def counts_on_ball(R):
        xs = np.linspace(-R, R, n_grid)
        X, Y = np.meshgrid(xs, xs)
        active = X**2 + Y**2 <= R * R
        u = _eval_on(sol_or_field, np.stack([X, Y], axis=-1))
        return _phase_components(u, active, eps)

    n_pos1, n_zero1 = counts_on_ball(1.0)
    n_pos2, n_zero2 = counts_on_ball(2.0)

    graphs = {}
    arc_ok = True
    if n_pos1 == 1 and n_zero1 == 1:
        case = "A"
        strands = [p for poly in fb_in_b3 for p in _clip_to_disk(poly, 1.0, step)]
        allpts = np.vstack(strands) if strands else pts
        ys, g = _graph_from_strand(allpts, -1.0, 1.0)
        graphs["g"] = {"x2": ys, "x1": g}
    elif n_pos1 == 2 and n_zero1 == 1:
        case = "B"
        strands = [p for poly in fb_in_b3 for p in _clip_to_disk(poly, 1.0, step)]
        if len(strands) < 2:
            raise TopologyError("classify_flat: case B but fewer than two "
                                "strands found in B_1")
        strands.sort(key=lambda p: float(np.mean(p[:, 0])))
        ys1, g1 = _graph_from_strand(strands[0], -1.0, 1.0)
        ys2, g2 = _graph_from_strand(np.vstack(strands[1:]), -1.0, 1.0)
        graphs["g1"] = {"x2": ys1, "x1": g1}
        graphs["g2"] = {"x2": ys2, "x1": g2}
    elif n_pos2 == 1 and n_zero2 == 2:
        case = "C"
        # each strand in B_2 must attach with both ends on one of the arcs
        # α_±(2) = ∂B_2 ∩ {|x_1| ≤ δ}, one strand per arc
        end_signs = []
        for poly in fb:
            for piece in _clip_to_disk(poly, 2.0, step):
                ends = piece[[0, -1]]
                r_ends = np.hypot(ends[:, 0], ends[:, 1])
                on_circle = np.abs(r_ends - 2.0) <= 4.0 * step
                near_axis = np.abs(ends[:, 0]) <= 1.1 * delta
                if not (on_circle.all() and near_axis.all()):
                    arc_ok = False
                    continue
                sgn = np.sign(ends[:, 1])
                if sgn[0] != sgn[1]:
                    arc_ok = False
                else:
                    end_signs.append(int(sgn[0]))
        if sorted(end_signs) != [-1, 1]:
            arc_ok = False
        graphs["arcs"] = {"end_signs": np.array(end_signs, dtype=float)}
    else:
        raise TopologyError(
            "classify_flat: component counts match no case — B1 "
            f"(pos={n_pos1}, zero={n_zero1}), B2 (pos={n_pos2}, "
            f"zero={n_zero2})")
    return FlatnessReport(case=case, delta=delta, hausdorff_measured=haus,
                          pos_components_b1=n_pos1, zero_components_b1=n_zero1,
                          pos_components_b2=n_pos2, zero_components_b2=n_zero2,
                          graphs=graphs, arc_attachment_ok=arc_ok)


# ---------------------------------------------------------------------------
# annulus flatness probe
# ---------------------------------------------------------------------------

@dataclass
class AnnulusScaleReport:
    r: float
    rotation: float
    flatness: float
    max_graph_slope: float

    def to_dict(self):
        return {"r": self.r, "rotation": self.rotation,
                "flatness": self.flatness,
                "max_graph_slope": self.max_graph_slope}


def _golden_min(f, a, b, tol):
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


#: polar grid of the annulus search (angles × radii) and its coarse
#: rotations; every coarse rotation is a whole number of grid angles.
_ANNULUS_ANGLES = 720
_ANNULUS_RADII = 24
_COARSE_ANGLES = 360


def _annulus_grid(r_in, r):
    """Polar grid on B_r ∖ B_{r_in}, equal steps in ρ²; shape (angles,
    radii, 2)."""
    rho = np.sqrt(np.linspace(r_in**2, r**2, _ANNULUS_RADII))
    th = np.linspace(0.0, 2.0 * np.pi, _ANNULUS_ANGLES, endpoint=False)
    Rg, Tg = np.meshgrid(rho, th)
    return np.stack([Rg * np.cos(Tg), Rg * np.sin(Tg)], axis=-1)


def _rotate(pts, theta):
    ct, st = np.cos(theta), np.sin(theta)
    return np.stack([ct * pts[..., 0] - st * pts[..., 1],
                     st * pts[..., 0] + ct * pts[..., 1]], axis=-1)


def _coarse_flatness(U0, Pref):
    """max |U(ρ_θ ·) − Pref| over the grid at each coarse rotation
    θ_k = 2πk/_COARSE_ANGLES, from U0, the values on the unrotated grid:
    θ_k moves grid angle j onto angle j + k·step, so the rotated values are
    U0 rolled back by k·step rows."""
    step = _ANNULUS_ANGLES // _COARSE_ANGLES
    return np.array([np.max(np.abs(np.roll(U0, -step * k, axis=0) - Pref))
                     for k in range(_COARSE_ANGLES)])


def annulus_flat_check(sol, delta: float, scales, inner_factor: float = 2.0,
                       eps: float = 1e-9, n_grid: int = 241,
                       seed_point=None) -> list:
    """Removable-singularity flatness probe on the annulus B₁ ∖ B_δ.

    Precondition (A): the free boundary inside the annulus consists of
    exactly two strands, each connecting the inner circle to the outer one.
    For each scale r, finds the rotation ρ minimizing the sup distance of
    u·1_T(ρ·) to the half-plane profile P over B_r ∖ B_{inner_factor·δ}
    (360-angle coarse search, read off one evaluation of u·1_T on the polar
    grid, then golden-section refinement to 1e−4 rad),
    where T is the positive-phase component containing `seed_point` (or the
    largest one touching the inner region when omitted).  Reports per scale
    the rotation, the flatness sup, and the max slope of the strand graph
    x₁ = g(x₂) in the rotated frame.
    """
    if not 0 < delta < 1:
        raise InvalidInputError("annulus_flat_check requires 0 < delta < 1")
    scales = [float(r) for r in scales]
    if not scales or min(scales) <= inner_factor * delta or max(scales) > 1.0:
        raise InvalidInputError(
            "annulus_flat_check: scales must lie in (inner_factor·delta, 1]")

    step = 2.0 / (n_grid - 1) / 2.0
    # topology precondition (A)
    strands = []
    for poly in _fb_polylines(sol, Window(-1.0, -1.0, 1.0, 1.0), step):
        for outer_piece in _clip_to_disk(poly, 1.0, step):
            rr = np.hypot(outer_piece[:, 0], outer_piece[:, 1])
            # a segment can cross the inner disk between two vertices
            # outside it: that ends the strand too
            a, d = outer_piece[:-1], np.diff(outer_piece, axis=0)
            t = np.clip(-np.sum(a * d, axis=1)
                        / np.maximum(np.sum(d * d, axis=1), 1e-300), 0.0, 1.0)
            near = a + t[:, None] * d
            cut = np.hypot(near[:, 0], near[:, 1]) < delta - 2.0 * step
            for piece in _split_runs(outer_piece, rr >= delta - 2.0 * step,
                                     cut):
                pr = np.hypot(piece[:, 0], piece[:, 1])
                touches_inner = np.abs(pr - delta).min() <= 4.0 * step
                touches_outer = pr.max() >= 1.0 - 4.0 * step
                strands.append((piece, touches_inner and touches_outer))
    connecting = [p for p, ok in strands if ok]
    if len(connecting) != 2 or len(strands) != 2:
        raise TopologyError(
            f"annulus_flat_check: precondition (A) violated — found "
            f"{len(connecting)} strand(s) connecting the circles "
            f"(of {len(strands)} in the annulus)")

    # positive-phase components on the annulus grid
    xs = np.linspace(-1.0, 1.0, n_grid)
    X, Y = np.meshgrid(xs, xs)
    R2 = X**2 + Y**2
    active = (R2 <= 1.0) & (R2 >= delta * delta)
    U = sol.eval_u(np.stack([X, Y], axis=-1))
    four = ndimage.generate_binary_structure(2, 1)
    labels, n_comp = ndimage.label((U > eps) & active, structure=four)
    if n_comp == 0:
        raise TopologyError("annulus_flat_check: no positive phase on annulus")
    if seed_point is not None:
        sp = np.asarray(seed_point, dtype=float)
        i = int(round((sp[0] + 1.0) / (xs[1] - xs[0])))
        j = int(round((sp[1] + 1.0) / (xs[1] - xs[0])))
        t_label = int(labels[j, i])
        if t_label == 0:
            raise InvalidInputError("annulus_flat_check: seed_point not in "
                                    "the positive phase")
    else:
        # largest component with nodes near the inner circle
        inner_band = active & (R2 <= (inner_factor * delta) ** 2 * 4.0)
        best, t_label = -1, 0
        for lab in range(1, n_comp + 1):
            if not np.any((labels == lab) & inner_band):
                continue
            size = int(np.sum(labels == lab))
            if size > best:
                best, t_label = size, lab
        if t_label == 0:
            raise TopologyError("annulus_flat_check: no positive component "
                                "touches the inner region")
    grid_h = xs[1] - xs[0]

    def u_T(pts):
        """u·1_T: evaluate u, zeroing points outside component T (membership
        via the nearest positive grid node)."""
        pts = np.asarray(pts, dtype=float)
        vals = sol.eval_u(pts)
        fi = (pts[..., 0] + 1.0) / grid_h
        fj = (pts[..., 1] + 1.0) / grid_h
        i0 = np.clip(np.round(fi).astype(int), 1, n_grid - 2)
        j0 = np.clip(np.round(fj).astype(int), 1, n_grid - 2)
        member = np.zeros(pts.shape[:-1], dtype=bool)
        bestd = np.full(pts.shape[:-1], np.inf)
        for dj in (-1, 0, 1):
            for di in (-1, 0, 1):
                ii = i0 + di
                jj = j0 + dj
                d2 = (fi - ii) ** 2 + (fj - jj) ** 2
                ispos = labels[jj, ii] > 0
                closer = ispos & (d2 < bestd)
                member = np.where(closer, labels[jj, ii] == t_label, member)
                bestd = np.where(closer, d2, bestd)
        return np.where(member & (vals > eps), vals, 0.0)

    # strand points belonging to T's boundary (either strand may bound it)
    strand_pts = np.vstack(connecting)

    reports = []
    for r in sorted(scales):
        r_in = inner_factor * delta
        base = _annulus_grid(r_in, r)
        Pref = np.maximum(base[..., 0], 0.0)

        def flat(theta):
            return float(np.max(np.abs(u_T(_rotate(base, theta)) - Pref)))

        coarse = np.linspace(0.0, 2.0 * np.pi, _COARSE_ANGLES, endpoint=False)
        k = int(np.argmin(_coarse_flatness(u_T(base), Pref)))
        width = 2.0 * np.pi / _COARSE_ANGLES
        theta_best = _golden_min(flat, coarse[k] - width, coarse[k] + width,
                                 1e-4)

        # graph of the strand in the rotated frame: x ↦ ρ(θ)x aligns u with
        # P, so the strand maps into graph position by the inverse rotation;
        # polish θ by zeroing the least-squares tilt of the graph samples
        def strand_graph(theta):
            ct, st = np.cos(theta), np.sin(theta)
            sx = ct * strand_pts[:, 0] + st * strand_pts[:, 1]
            sy = -st * strand_pts[:, 0] + ct * strand_pts[:, 1]
            rr = np.hypot(sx, sy)
            sel = (rr <= r) & (rr >= r_in)
            order = np.argsort(sy[sel])
            return sy[sel][order], sx[sel][order]

        for _polish in range(3):
            gy, gx = strand_graph(theta_best)
            if len(gy) < 3 or np.ptp(gy) < 4.0 * step:
                break
            beta = float(np.polyfit(gy, gx, 1)[0])
            theta_best -= float(np.arctan(beta))
        flat_best = flat(theta_best)

        gy, gx = strand_graph(theta_best)
        if len(gy) >= 3:
            dy = np.diff(gy)
            dx = np.diff(gx)
            good = dy > step / 4.0
            slope = float(np.max(np.abs(dx[good] / dy[good]))) if good.any() \
                else 0.0
        else:
            slope = 0.0
        reports.append(AnnulusScaleReport(r=r, rotation=float(theta_best),
                                          flatness=flat_best,
                                          max_graph_slope=slope))
    return reports
