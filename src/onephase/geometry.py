"""Free-boundary extraction and the quantitative geometric checks.

Contents:

* `extract_boundary` — oriented marching squares of {v > 0} (positive
  phase on the left of travel) on integer edge ids: one case table, with
  saddle cells split by the cell-center value, and one successor array of
  crossings;
* `hausdorff` — symmetric Hausdorff distance between polyline sets (an
  (n, 2) array, a `FreeBoundary`, or lists of these) over densified
  vertices;
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
  positive-phase component closest to the half-plane profile (a coarse
  angle search pruned by exact lower bounds, then least-squares steps that
  zero the strand's tilt) and report the best-fit boundary graph with its
  maximal slope.

The layer runs on numpy alone: `_label4` counts 4-connected components
and `_nearest_distance` answers nearest-point queries, so no command that
classifies or measures imports SciPy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .common import (Window, densify_polyline, finite_points, finite_positive,
                     points_in_polygon, write_csv_atomic)
from .errors import DomainError, InvalidInputError, TopologyError
from .solutions import RigidMotion
from .variational import ScalarField2D

__all__ = [
    "PolyCurve",
    "FreeBoundary",
    "extract_boundary",
    "hausdorff",
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


@dataclass
class FreeBoundary:
    components: list = field(default_factory=list)

    def __post_init__(self):
        self.components = [c if isinstance(c, PolyCurve) else PolyCurve(c)
                           for c in self.components]

    def __len__(self):
        return len(self.components)

    def save(self, path) -> None:
        rows = [[ci, vi, x, y] for ci, comp in enumerate(self.components)
                for vi, (x, y) in enumerate(comp.vertices)]
        write_csv_atomic(str(path), ["component", "vertex", "x", "y"], rows)


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
    if isinstance(obj, np.ndarray) and obj.ndim == 2:
        return [obj]
    out = []
    for item in obj:
        out.extend(_as_polyline_list(item))
    return out


# ---------------------------------------------------------------------------
# marching squares
# ---------------------------------------------------------------------------

#: oriented marching-squares segments per cell case (bit 1: bottom-left,
#: 2: bottom-right, 4: top-right, 8: top-left node above 0): up to
#: two "FT" pairs, each running from side F to side T (Bottom, Right, Top,
#: Left; "-" for none, −1) with the positive set on its left.  Rows 16 and
#: 17 are the saddles 5 and 10 with the cell center above 0.
_CASES = np.array([[["BRTL".find(side) for side in seg] for seg in row.split()]
                   for row in ("-- --", "BL --", "RB --", "RL --", "TR --",
                               "BL TR", "TB --", "TL --", "LT --", "BT --",
                               "RB LT", "RT --", "LR --", "BR --", "LB --",
                               "-- --", "TL BR", "LB RT")])


def extract_boundary(fld: ScalarField2D) -> FreeBoundary:
    """Marching-squares contour of {v > 0}, oriented with the positive set
    on the left of travel.  Saddle cells (two opposite corners inside) are
    split according to the cell-center average.  Returns an empty
    FreeBoundary when the field has no sign change.

    Every grid edge has an integer id: the horizontal edges (j, i)–(j, i+1)
    row-major first, then the vertical edges (j, i)–(j+1, i).  `_CASES`
    turns each cell into directed (from, to) edge-id pairs.  One adjacent
    cell leaves a crossing and the other enters it, so the pairs form one
    successor array.  Chains start at the ids no pair enters, then loops at
    their lowest id, both in id order."""
    v, w, h = fld.values, fld.window, fld.h
    inside = v > 0.0
    ny, nx = v.shape
    nh = ny * (nx - 1)
    pts = np.empty((nh + (ny - 1) * nx, 2))
    j, i = np.nonzero(inside[:, :-1] != inside[:, 1:])
    t = (0.0 - v[j, i]) / (v[j, i + 1] - v[j, i])
    pts[j * (nx - 1) + i] = np.stack([w.x0 + (i + t) * h, w.y0 + j * h], -1)
    j, i = np.nonzero(inside[:-1, :] != inside[1:, :])
    t = (0.0 - v[j, i]) / (v[j + 1, i] - v[j, i])
    pts[nh + j * nx + i] = np.stack([w.x0 + i * h, w.y0 + (j + t) * h], -1)

    case = (inside[:-1, :-1] + 2 * inside[:-1, 1:] + 4 * inside[1:, 1:]
            + 8 * inside[1:, :-1])
    j, i = np.nonzero((case > 0) & (case < 15))
    case = case[j, i]
    center = 0.25 * (v[j, i] + v[j, i + 1] + v[j + 1, i] + v[j + 1, i + 1])
    saddle = ((case == 5) | (case == 10)) & (center > 0.0)
    case[saddle] = 16 + (case[saddle] == 10)
    pairs = _CASES[case]
    cell, k = np.nonzero(pairs[..., 0] >= 0)
    j, i = j[cell], i[cell]
    bottom = j * (nx - 1) + i
    left = nh + j * nx + i
    sides = np.stack([bottom, left + 1, bottom + nx - 1, left], axis=1)
    src, dst = np.take_along_axis(sides, pairs[cell, k], axis=1).T
    succ = np.full(len(pts), -1)
    succ[src] = dst

    # open chains first, from the ids no segment enters; then the loops
    starts = np.concatenate([np.setdiff1d(src, dst), np.sort(src)])
    nxt = succ.tolist()
    curves = []
    for start in starts.tolist():
        chain = [start]
        while nxt[chain[-1]] >= 0:
            chain.append(nxt[chain[-1]])
            nxt[chain[-2]] = -1
        if len(chain) == 1:
            continue
        p = pts[chain]
        p = p[np.r_[True, np.any(p[1:] != p[:-1], axis=1)]]
        if len(p) >= 2:
            curves.append(PolyCurve(p, closed=chain[0] == chain[-1]))
    return FreeBoundary(curves)


# ---------------------------------------------------------------------------
# metric diagnostics
# ---------------------------------------------------------------------------

def hausdorff(a, b, densify_step: float = None) -> float:
    """Symmetric Hausdorff distance between two polyline sets, computed on
    vertices after densification (default step: 1/2 of the coarsest mean
    segment length).  Every vertex must be finite."""
    A = _as_polyline_list(a)
    B = _as_polyline_list(b)
    if not A or not B:
        raise InvalidInputError("hausdorff: empty polyline set")
    for ps in A + B:
        finite_points("hausdorff", "vertex", ps)
    if densify_step is None:
        seglens = []
        for ps in A + B:
            d = np.diff(ps, axis=0)
            seglens.append(np.mean(np.hypot(d[:, 0], d[:, 1])))
        densify_step = 0.5 * max(seglens)
    PA = np.vstack([densify_polyline(ps, densify_step) for ps in A])
    PB = np.vstack([densify_polyline(ps, densify_step) for ps in B])
    return float(max(_nearest_distance(PA, PB).max(),
                     _nearest_distance(PB, PA).max()))


def _nearest_distance(P, Q):
    """Distance from each point of P to the nearest point of Q, by brute
    force over blocks of rows of P holding about 2¹⁶ pairs each."""
    rows = max(1, (1 << 16) // len(Q))
    out = np.empty(len(P))
    for k in range(0, len(P), rows):
        dx = P[k:k + rows, 0, None] - Q[:, 0]
        dy = P[k:k + rows, 1, None] - Q[:, 1]
        out[k:k + rows] = np.sqrt(np.min(dx * dx + dy * dy, axis=1))
    return out


#: sample points of `circle_max` on its circle
_CIRCLE_SAMPLES = 720


def circle_max(sol, center, r: float):
    """Max of u over `_CIRCLE_SAMPLES` equally spaced points of
    ∂B_r(center); returns (max_value, max_value / r)."""
    finite_positive("circle_max", "r", r)
    c = finite_points("circle_max", "center", center)
    th = np.linspace(0.0, 2.0 * np.pi, _CIRCLE_SAMPLES, endpoint=False)
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
    The phase at every edge's Gauss nodes, ∇u at the positive ones and the
    phase beside the free boundary are each read in one call.
    """
    finite_positive("flux_balance", "step", step)
    P = finite_points("flux_balance", "polygon", polygon)
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

    # the Gauss nodes of every edge, for one phase call and one gradient
    # call on the positive ones
    gt, gw = _GAUSS2
    nodes = []
    for i in range(n):
        a, b = P[i], P[(i + 1) % n]
        d = b - a
        elen = float(np.hypot(d[0], d[1]))
        pieces = max(1, int(np.ceil(elen / step)))
        edges_t = (np.arange(pieces)[:, None] + gt[None, :]) / pieces
        ts = edges_t.ravel()
        ws = np.tile(gw / pieces, pieces) * elen
        nodes.append((d, elen, ws, a[None, :] + ts[:, None] * d[None, :]))
    in_phase = sol.in_positive_phase(np.vstack([p for *_, p in nodes]))
    edges = []
    start = 0
    for d, elen, ws, pts in nodes:
        pos = in_phase[start:start + len(ws)]
        start += len(ws)
        if np.any(pos):
            edges.append((np.array([d[1], -d[0]]) / elen, ws[pos], pts[pos]))
    flux = 0.0
    rest = 0.0
    lip = 0.0
    if edges:
        grads = sol.eval_grad(np.vstack([p for _, _, p in edges]))
        start = 0
        for nu, ws, _ in edges:
            g = grads[start:start + len(ws)]
            start += len(ws)
            flux += float(np.sum(ws * (g @ nu)))
            rest += float(np.sum(ws))
            lip = max(lip, float(np.max(np.hypot(g[:, 0], g[:, 1]))))

    # free boundary inside the polygon
    pad = 10.0 * step
    win = Window(P[:, 0].min() - pad, P[:, 1].min() - pad,
                 P[:, 0].max() + pad, P[:, 1].max() + pad)
    # the phase half a step to either side of every curve's segments
    pieces, sides = [], []
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
        pieces.append(seglen[inside])
        sides += [mids[inside] + off, mids[inside] - off]
    if sides:
        side = sol.in_positive_phase(np.vstack(sides)).astype(float)
    fb_measure, start = 0.0, 0
    for seglen in pieces:
        k = len(seglen)
        mult = side[start:start + k] + side[start + k:start + 2 * k]
        start += 2 * k
        fb_measure += float(np.sum(seglen * mult))

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


#: candidate polygons `random_polygon_in_phase` draws before it gives up
_POLYGON_TRIES = 500


def random_polygon_in_phase(sol, window: Window, rng) -> np.ndarray:
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
    for _ in range(_POLYGON_TRIES):
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
        f"phase within {_POLYGON_TRIES} tries — window may miss the phase")


# ---------------------------------------------------------------------------
# flat trichotomy
# ---------------------------------------------------------------------------

def _label4(mask):
    """4-connected components of a 2-D boolean mask: (labels, n), with int32
    labels 0 off the mask and 1..n on it.

    Numbering contract, that of SciPy's `ndimage.label` with the cross
    structure: components are numbered in the raster (row-major) order of
    their first node.  `annulus_flat_check` relies on it, since it breaks
    size ties by label and reads labels at grid nodes.

    Each row's runs get ids in raster order; runs in adjacent rows that
    share a column are joined, the smaller id becoming the root, so each
    component's root is its first run."""
    m = np.asarray(mask, dtype=bool)
    starts = m.copy()
    starts[:, 1:] &= ~m[:, :-1]
    run = np.cumsum(starts).reshape(m.shape) - 1
    n_runs = int(starts.sum())
    # an overlap of two runs begins where one of them starts
    first_overlap = m[:-1] & m[1:] & (starts[:-1] | starts[1:])
    a, b = run[:-1][first_overlap], run[1:][first_overlap]
    root = np.arange(n_runs)
    ra, rb = a, b
    while not np.array_equal(ra, rb):
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]
        ra, rb = root[a], root[b]
    is_root = root == np.arange(n_runs)
    labels = np.zeros(m.shape, np.int32)
    labels[m] = np.cumsum(is_root)[root][run[m]]
    return labels, int(is_root.sum())


def _phase_components(u_vals, active, eps):
    """4-connected component counts (n_pos, n_zero) of {u > eps} and
    {u ≤ eps} restricted to `active` nodes."""
    return (_label4((u_vals > eps) & active)[1],
            _label4((u_vals <= eps) & active)[1])


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


def _graph_from_strand(poly):
    """Sample x₁ = g(x₂) from a strand's vertices at 101 points of [−1, 1]."""
    order = np.argsort(poly[:, 1])
    ys = poly[order, 1]
    xs = poly[order, 0]
    samp = np.linspace(-1.0, 1.0, 101)
    return samp, np.interp(samp, ys, xs)


#: nodes per side of the grids on which `classify_flat` counts components,
#: and the threshold u > _TRICHOTOMY_EPS of the positive phase there
_TRICHOTOMY_NODES = 161
_TRICHOTOMY_EPS = 1e-9


def classify_flat(sol_or_field, delta: float) -> FlatnessReport:
    """Flat trichotomy on B₃ under the hypothesis that F(u) is δ-close in
    Hausdorff distance to the vertical segment {(0, x₂): |x₂| < 3}.

    Case A — one strand, positive and zero phase both connected in B₁;
    returns graph samples g with x₁ = g(x₂).
    Case B — two strands with the zero phase between; returns g₁ < g₂.
    Case C — positive phase connected in B₂, zero phase splits into two
    components, attached to the top/bottom arcs α_±(2).

    Classification is by 4-connected component counting of
    {u > `_TRICHOTOMY_EPS`} and {u ≤ `_TRICHOTOMY_EPS`} on
    `_TRICHOTOMY_NODES`² node grids over B₁ and B₂, with u evaluated at the
    nodes inside each disk only; the δ-precondition is
    checked against the measured Hausdorff distance with 10% slack.  A
    `ScalarField2D` is read by bilinear interpolation, and its free
    boundary by `extract_boundary`.
    """
    finite_positive("classify_flat", "delta", delta)
    step = 6.0 / (_TRICHOTOMY_NODES - 1) / 2.0
    if isinstance(sol_or_field, ScalarField2D):
        fb = [c.vertices for c in extract_boundary(sol_or_field).components]
        u_at = sol_or_field.interpolate
    else:
        fb = sol_or_field.free_boundary_curves(Window(-3.0, -3.0, 3.0, 3.0),
                                               step=step)
        u_at = sol_or_field.eval_u
    fb_in_b3 = []
    for poly in fb:
        fb_in_b3.extend(_clip_to_disk(poly, 3.0, step))
    if not fb_in_b3:
        raise DomainError("classify_flat: no free boundary found in B_3")
    pts = np.vstack(fb_in_b3)
    d_to_seg = np.hypot(pts[:, 0], np.maximum(np.abs(pts[:, 1]) - 3.0, 0.0))
    seg = np.stack([np.zeros(601), np.linspace(-3.0, 3.0, 601)], axis=-1)
    d_from_seg = _nearest_distance(seg, pts)
    haus = float(max(d_to_seg.max(), d_from_seg.max()))
    if haus > 1.1 * delta:
        raise DomainError(
            f"classify_flat: measured Hausdorff distance {haus:.4g} exceeds "
            f"delta = {delta:.4g} (with 10% slack)")

    def counts_on_ball(R):
        xs = np.linspace(-R, R, _TRICHOTOMY_NODES)
        X, Y = np.meshgrid(xs, xs)
        active = X**2 + Y**2 <= R * R
        u = np.zeros(active.shape)
        u[active] = u_at(np.stack([X[active], Y[active]], axis=-1))
        return _phase_components(u, active, _TRICHOTOMY_EPS)

    n_pos1, n_zero1 = counts_on_ball(1.0)
    n_pos2, n_zero2 = counts_on_ball(2.0)

    graphs = {}
    arc_ok = True
    if n_pos1 == 1 and n_zero1 == 1:
        case = "A"
        strands = [p for poly in fb_in_b3 for p in _clip_to_disk(poly, 1.0, step)]
        allpts = np.vstack(strands) if strands else pts
        ys, g = _graph_from_strand(allpts)
        graphs["g"] = {"x2": ys, "x1": g}
    elif n_pos1 == 2 and n_zero1 == 1:
        case = "B"
        strands = [p for poly in fb_in_b3 for p in _clip_to_disk(poly, 1.0, step)]
        if len(strands) < 2:
            raise TopologyError("classify_flat: case B but fewer than two "
                                "strands found in B_1")
        strands.sort(key=lambda p: float(np.mean(p[:, 0])))
        ys1, g1 = _graph_from_strand(strands[0])
        ys2, g2 = _graph_from_strand(np.vstack(strands[1:]))
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


#: polar grid of the annulus search (angles × radii) and its coarse
#: rotations; every coarse rotation is a whole number of grid angles.
_ANNULUS_ANGLES = 720
_ANNULUS_RADII = 24
_COARSE_ANGLES = 360
#: `_ring_bounds` bounds each rotation's sup on every this-many outer angles
_BOUND_STRIDE = 8
#: the probe's grid over [−1, 1]² (nodes per side) on which the positive
#: components are labelled, at threshold u > _ANNULUS_EPS; the flatness is
#: measured outside B_{_ANNULUS_INNER·δ}
_ANNULUS_NODES = 241
_ANNULUS_EPS = 1e-9
_ANNULUS_INNER = 2.0


#: a point's rounded grid node is its nearest one when both fractional
#: offsets are below this; the margin below 1/2 exceeds the rounding of the
#: squared node distances, so no neighbour can tie with the rounded node
_NEAREST_NODE = 0.5 - 2.0**-40


def _component_member(code, fi, fj):
    """Whether the nearest positive node lies in component T, for points at
    fractional grid coordinates (fi, fj).

    `code` is 0 at a node off the positive phase, 1 on another positive
    component and 2 on T.  The nearest positive node is sought among the
    3×3 nodes around the rounded node, clipped into the grid's interior;
    ties go to the first node in row-major order.  When the rounded node is
    positive, unclipped and strictly nearest it is taken directly, and the
    search runs only on the other points.
    """
    n = code.shape[0]
    ri, rj = np.round(fi), np.round(fj)
    i0 = np.clip(ri.astype(int), 1, n - 2)
    j0 = np.clip(rj.astype(int), 1, n - 2)
    c0 = code[j0, i0]
    member = c0 == 2
    slow = np.flatnonzero(~((c0 > 0) & (i0 == ri) & (j0 == rj)
                            & (np.abs(fi - ri) < _NEAREST_NODE)
                            & (np.abs(fj - rj) < _NEAREST_NODE)))
    fi, fj, i0, j0 = fi[slow], fj[slow], i0[slow], j0[slow]
    found = np.zeros(slow.size, dtype=bool)
    bestd = np.full(slow.size, np.inf)
    for dj in (-1, 0, 1):
        for di in (-1, 0, 1):
            ii = i0 + di
            jj = j0 + dj
            d2 = (fi - ii) ** 2 + (fj - jj) ** 2
            c = code[jj, ii]
            closer = (c > 0) & (d2 < bestd)
            found = np.where(closer, c == 2, found)
            bestd = np.where(closer, d2, bestd)
    member[slow] = found
    return member


def _annulus_grid(r_in, r):
    """Polar grid on B_r ∖ B_{r_in}, equal steps in ρ²; shape (angles,
    radii, 2)."""
    rho = np.sqrt(np.linspace(r_in**2, r**2, _ANNULUS_RADII))
    th = np.linspace(0.0, 2.0 * np.pi, _ANNULUS_ANGLES, endpoint=False)
    Rg, Tg = np.meshgrid(rho, th)
    return np.stack([Rg * np.cos(Tg), Rg * np.sin(Tg)], axis=-1)


def _sup_at(twice, Pref, k):
    """max |U(ρ_θ ·) − Pref| over the grid at the coarse rotation
    θ_k = 2πk/_COARSE_ANGLES, from `twice`, the values U0 on the unrotated
    grid stacked on themselves: θ_k moves grid angle j onto angle j + k·step,
    so the rotated values are U0 rolled back by k·step rows."""
    start = _ANNULUS_ANGLES // _COARSE_ANGLES * k
    return np.max(np.abs(twice[start:start + len(Pref)] - Pref))


def _ring_bounds(U0, Pref):
    """A lower bound of `_sup_at` at every coarse rotation, from U0, the
    values on the unrotated grid: the max of the same |U − Pref| terms on
    every _BOUND_STRIDE-th angle of the outer ring, so the bound is exact."""
    step = _ANNULUS_ANGLES // _COARSE_ANGLES
    ring = np.concatenate([U0[:, -1], U0[:, -1]])
    js = np.arange(0, _ANNULUS_ANGLES, _BOUND_STRIDE)
    rows = step * np.arange(_COARSE_ANGLES)[:, None] + js
    return np.max(np.abs(ring[rows] - Pref[js, -1]), axis=1)


def _coarse_best(U0, Pref):
    """The first k minimizing `_sup_at` over the coarse rotations, from U0,
    the values on the unrotated grid (no NaN).

    Full sups are taken in `_ring_bounds` order (ties by k) until the next
    bound exceeds the best sup found: no rotation left can reach it, nor tie
    it.
    """
    bound = _ring_bounds(U0, Pref)
    twice = np.concatenate([U0, U0])
    best, k_best = np.inf, _COARSE_ANGLES
    for k in np.argsort(bound, kind="stable"):
        if bound[k] > best:
            break
        sup = _sup_at(twice, Pref, k)
        if sup < best or (sup == best and k < k_best):
            best, k_best = sup, k
    return int(k_best)


def annulus_flat_check(sol, delta: float, scales) -> list:
    """Removable-singularity flatness probe on the annulus B₁ ∖ B_δ.

    Precondition (A): the free boundary inside the annulus consists of
    exactly two strands, each connecting the inner circle to the outer one.
    T is always the positive-phase component with the most nodes on the
    labelling grid among those with a node in B_{4δ} ∖ B_δ, the inner
    region; no caller chooses it.  u is evaluated at the labelling grid's
    nodes in B₁ ∖ B_δ only.
    For each scale r, finds the rotation ρ minimizing the sup distance of
    u·1_T(ρ·) to the half-plane profile P over B_r ∖ B_{2δ}: a coarse
    search over 360 angles, then up to three least-squares steps zeroing
    the strand's tilt.  The coarse search reads one evaluation of u·1_T on
    the polar grid and prunes by bounds: a max over a subset of the outer
    ring bounds each angle's sup from below, and full sups are taken in
    bound order until the next bound exceeds the best sup (one full sup per
    scale on a half-plane), so it returns the full sweep's first argmin.
    Reports per scale the rotation, the flatness sup, and the
    max slope of the strand graph x₁ = g(x₂) in the rotated frame.
    """
    if not 0 < delta < 1:
        raise InvalidInputError(
            f"annulus_flat_check requires 0 < delta < 1, got {float(delta)}")
    scales = [float(r) for r in scales]
    r_in = _ANNULUS_INNER * delta
    if not scales or not all(r_in < r <= 1.0 for r in scales):
        raise InvalidInputError(
            "annulus_flat_check requires scales in "
            f"({_ANNULUS_INNER:g}·delta, 1], got {scales}")

    step = 2.0 / (_ANNULUS_NODES - 1) / 2.0
    # topology precondition (A)
    strands = []
    for poly in sol.free_boundary_curves(Window(-1.0, -1.0, 1.0, 1.0),
                                         step=step):
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
    xs = np.linspace(-1.0, 1.0, _ANNULUS_NODES)
    grid_h = xs[1] - xs[0]
    X, Y = np.meshgrid(xs, xs)
    R2 = X**2 + Y**2
    active = (R2 <= 1.0) & (R2 >= delta * delta)
    pos = np.zeros(active.shape, dtype=bool)
    pos[active] = sol.eval_u(np.stack([X[active], Y[active]], axis=-1)) \
        > _ANNULUS_EPS
    labels, n_comp = _label4(pos)
    if n_comp == 0:
        raise TopologyError("annulus_flat_check: no positive phase on annulus")
    # T: the largest component with nodes near the inner circle, the
    # lowest label of a tie
    inner_band = active & (R2 <= 4.0 * r_in**2)
    sizes = np.bincount(labels.ravel(), minlength=n_comp + 1)
    near = np.bincount(labels[inner_band], minlength=n_comp + 1) > 0
    near[0] = False
    if not near.any():
        raise TopologyError("annulus_flat_check: no positive component "
                            "touches the inner region")
    t_label = int(np.argmax(np.where(near, sizes, -1)))

    code = (labels > 0).astype(np.int8) + (labels == t_label)

    def u_T(pts):
        """u·1_T: evaluate u, zeroing points outside component T (membership
        via the nearest positive grid node)."""
        pts = np.asarray(pts, dtype=float)
        vals = sol.eval_u(pts)
        pos = vals > _ANNULUS_EPS
        p = pts[pos]
        member = _component_member(code, (p[:, 0] + 1.0) / grid_h,
                                   (p[:, 1] + 1.0) / grid_h)
        out = np.zeros_like(vals)
        out[pos] = np.where(member, vals[pos], 0.0)
        return out

    # strand points belonging to T's boundary (either strand may bound it)
    strand_pts = np.vstack(connecting)

    reports = []
    for r in sorted(scales):
        base = _annulus_grid(r_in, r)
        Pref = np.maximum(base[..., 0], 0.0)

        coarse = np.linspace(0.0, 2.0 * np.pi, _COARSE_ANGLES, endpoint=False)
        theta_best = coarse[_coarse_best(u_T(base), Pref)]

        # graph of the strand in the rotated frame: x ↦ ρ(θ)x aligns u with
        # P, so the strand maps into graph position by the inverse rotation;
        # polish θ by zeroing the least-squares tilt of the graph samples
        def strand_graph(theta):
            sx, sy = RigidMotion(angle=theta).to_body(strand_pts).T
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
        rotated = RigidMotion(angle=theta_best).to_world(base)
        flat_best = float(np.max(np.abs(u_T(rotated) - Pref)))

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
