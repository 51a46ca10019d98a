"""Discrete Alt–Caffarelli energy, minimization, and variational diagnostics.

The functional under study is

    J(v; D) = ∫_D |∇v|² + |{v > 0} ∩ D|,

whose critical points solve the one-phase problem: Δv = 0 in {v > 0} and
|∇v| = 1 on the free boundary.

Discretization (`ScalarField2D` on a uniform node grid of spacing h):

* gradient term — the P1 energy averaged over both diagonal triangulations
  of each cell: ½ Σ_cells of the squared differences on the cell's four
  axis edges, so edges along the window boundary carry weight ½ and the
  others weight 1.  Its matrix is the 5-point Laplacian K₅, (4, −1) on the
  interior nodes, an M-matrix that couples both sublattices of the grid;
* measure term — trapezoid-weighted node indicator h²·Σ w_n·1{v_n > 0}.

`minimize_ac` relaxes the indicator to the cubic smoothstep
β_ε(t) = 3(t/ε)² − 2(t/ε)³ on [0, ε] and anneals ε over a short schedule;
the Euler–Lagrange system per phase is 2K₅v + h²β'_ε(v) = 0 at the free
interior nodes with the given Dirichlet trace.  It runs coarse to fine.  No
matrix is built: each stencil op (K₅, the multigrid smoother and residual)
runs on one flat contiguous run of the whole node array, and the junk this
leaves on the boundary ring is cleared by a 0/1 multiply.  Each cascade
level makes its node arrays once, when it starts (`_Work`, `_Multigrid`),
and every intermediate is written into them: the Newton loop's one new
node-sized array is the gather its residual sums.  The multigrid builds
the flat runs and slices of its own arrays once, and its V-cycle writes
into the PCG array it is given.  Each phase takes
projected (v ≥ 0) Newton steps in the two-metric form of Bertsekas (1982):
nodes held at 0 by an uphill gradient take no step, and the others solve
the convex model 2K₅ + diag(h²·max(β″_ε, 0)) inexactly, by a few
conjugate-gradient steps, each preconditioned with one geometric multigrid
V-cycle (`_Multigrid`).  A monotone halving and doubling line search keeps
each phase's energy non-increasing.  The step count per level stays about
flat as h halves, and so do the CG steps per Newton direction, about 2.
Each grid's cleanup solves K₅v = 0 on the positive phase by the same
multigrid CG, to relative residual 1e-13: its solution is the returned
field.

Diagnostics:

* `variational_residual` — δJ(u)[ψ] = ∫ (|∇u|² + 1_{u>0}) div ψ
  − 2 ∇uᵀ Dψ ∇u, the inner (domain-variation) first variation; it vanishes
  for exact solutions and equals (s²−1)·∫ψ₁(0, x₂)dx₂ for the one-sided
  slope-s half-plane profile.  ψ is a radial or directional bump
  (`TestVectorField`); its div ψ and ∇uᵀDψ∇u are closed forms, evaluated
  on the box [c − r1, c + r1]² around the support B_{r1}(c) only.
* `weiss_energy` — W(u, x₀, r) = r⁻²∫_{B_r}(|∇u|²+1_{u>0}) − r⁻³∫_{∂B_r}u²,
  computed scale-covariantly (fixed Gauss nodes in ρ/r, an exact arc rule
  on each circle) so that homogeneous solutions give exactly constant W.
* `viscosity_slope` — the one-sided linear growth coefficient
  α = lim u(x₀ + τν)/τ along an inward direction ν, by Richardson
  extrapolation in τ.

The module runs on numpy alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .common import (Window, finite_points, finite_positive, smoothstep5,
                     write_json_atomic, write_text_atomic)
from .errors import ConvergenceError, DomainError, InvalidInputError
from .quad import gauss_nodes
from .solutions import BOUNDARY_TOL

__all__ = [
    "ScalarField2D",
    "ac_energy",
    "TestVectorField",
    "variational_residual",
    "weiss_energy",
    "viscosity_slope",
    "MinimizeResult",
    "minimize_ac",
]


# ---------------------------------------------------------------------------
# node-grid scalar fields
# ---------------------------------------------------------------------------

@dataclass
class ScalarField2D:
    """Node-centered samples on a uniform grid over `window`:
    values[j, i] ≈ v(x0 + i·h, y0 + j·h)."""

    window: Window
    h: float
    values: np.ndarray

    def __post_init__(self):
        xs, ys = self.window.grid(self.h)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(ys), len(xs)):
            raise InvalidInputError(
                f"values shape {self.values.shape} does not match grid "
                f"{(len(ys), len(xs))}")

    def interpolate(self, points):
        """Bilinear interpolation at points of shape (..., 2).  A corner
        of zero weight adds 0 even where its value is not finite, so a NaN
        at a node does not reach a point on a neighbouring cell edge."""
        p = np.asarray(points, dtype=float)
        w = self.window
        fx = np.clip((p[..., 0] - w.x0) / self.h, 0.0, self.values.shape[1] - 1.0)
        fy = np.clip((p[..., 1] - w.y0) / self.h, 0.0, self.values.shape[0] - 1.0)
        i0 = np.clip(fx.astype(int), 0, self.values.shape[1] - 2)
        j0 = np.clip(fy.astype(int), 0, self.values.shape[0] - 2)
        tx = fx - i0
        ty = fy - j0
        v = self.values

        def corner(weight, value):
            with np.errstate(invalid="ignore"):  # 0·inf
                return np.where((weight == 0.0) & ~np.isfinite(value), 0.0,
                                weight * value)
        return (corner((1 - tx) * (1 - ty), v[j0, i0])
                + corner(tx * (1 - ty), v[j0, i0 + 1])
                + corner((1 - tx) * ty, v[j0 + 1, i0])
                + corner(tx * ty, v[j0 + 1, i0 + 1]))

    # -- CSV with a JSON sidecar describing the grid -------------------------
    def save(self, path) -> None:
        path = Path(path)
        # a row at a time: the whole field's floats at once cost 0.6 MB RSS
        row = ",".join(["%.17g"] * self.values.shape[1]) + "\n"
        write_text_atomic(str(path), "".join([row % tuple(r.tolist())
                                              for r in self.values]))
        sidecar = {"window": list(self.window.as_tuple()), "h": self.h,
                   "shape": list(self.values.shape)}
        write_json_atomic(str(path) + ".json", sidecar)

    @staticmethod
    def load(path) -> "ScalarField2D":
        path = Path(path)
        meta = json.loads(Path(str(path) + ".json").read_text())
        vals = np.loadtxt(path, delimiter=",", ndmin=2)
        x0, y0, x1, y1 = meta["window"]
        return ScalarField2D(window=Window(x0, y0, x1, y1), h=float(meta["h"]),
                             values=vals)


def _dirichlet(v: np.ndarray, dx=None, dy=None) -> float:
    """Σ over the grid's axis edges of w_e·(v_a − v_b)², with w_e = ½ on
    edges along the window boundary and 1 elsewhere: the P1 Dirichlet
    energy averaged over both diagonal triangulations, which is ½ Σ_cells
    of the squared differences on the cell's four edges.  The differences
    go into the C-contiguous arrays dx (m, n − 1) and dy (m − 1, n) when
    given, and into new ones otherwise."""
    dx = np.subtract(v[:, 1:], v[:, :-1], out=dx)
    dy = np.subtract(v[1:, :], v[:-1, :], out=dy)
    dx *= dx
    dy *= dy
    return float(dx[1:-1].sum() + dy[:, 1:-1].sum()
                 + 0.5 * (dx[0].sum() + dx[-1].sum() + dy[:, 0].sum()
                          + dy[:, -1].sum()))


def _neighbour_runs(v: np.ndarray, out: np.ndarray) -> tuple:
    """The flat runs `_neighbour_sum` writes of out and reads of v: node
    (1, 1) to (−2, −2), and the same run of v shifted by −n, +n, −1, +1."""
    n, f = v.shape[1], v.ravel()
    return (out.ravel()[n + 1:-n - 1], f[1:-2 * n - 1], f[2 * n + 1:-1],
            f[n:-n - 2], f[n + 2:-n])


def _neighbour_sum(v: np.ndarray, out: np.ndarray, runs=None) -> np.ndarray:
    """out = the sum of the four axis neighbours at each interior node of
    the C-contiguous node array v (K₅v = 4v − out there), in a node array.
    One flat run, node (1, 1) to (−2, −2), with the row slices' operands and
    order, keeps the interior's bits; the ring columns get wrapped junk.
    `runs`, when given, is `_neighbour_runs(v, out)`, built once."""
    run, up, down, left, right = runs or _neighbour_runs(v, out)
    np.add(up, down, out=run)
    run += left
    run += right
    return out


def _node_weights(shape):
    w = np.ones(shape)
    w[0, :] *= 0.5
    w[-1, :] *= 0.5
    w[:, 0] *= 0.5
    w[:, -1] *= 0.5
    return w


def ac_energy(fld: ScalarField2D) -> float:
    """Discrete J(v): the 5-point Dirichlet term `_dirichlet` plus the
    trapezoid-weighted node indicator of {v > 0}."""
    w = _node_weights(fld.values.shape)
    meas_term = float(np.sum(w * (fld.values > 0.0))) * fld.h**2
    return _dirichlet(fld.values) + meas_term


# ---------------------------------------------------------------------------
# inner-variation residual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestVectorField:
    """The bump field ψ, the test object of the inner variation δJ(u)[ψ]:
    with d = x − c, ρ = |d| and η(ρ) = 1 − smoothstep5((ρ − r0)/(r1 − r0)),
    ψ = η·d (radial, ``direction`` None) or η·e along a fixed e, zero
    outside B_{r1}(c).  With q = η′/ρ, the residual uses the closed forms
    (`_terms`) div ψ = 2η + ρη′, gᵀDψg = η|g|² + q(g·d)² (radial) and
    div ψ = q(d·e), gᵀDψg = (g·e)·q·(g·d) (along e).  The tests hold ψ and
    its Jacobian Dψ, the references these are tested against."""

    __test__ = False  # not a pytest class despite the Test* name

    center: tuple
    r0: float
    r1: float
    direction: tuple | None = None

    def __post_init__(self):
        for name in ("r0", "r1"):
            finite_positive("TestVectorField", name, getattr(self, name))
        if not self.r0 < self.r1:
            raise InvalidInputError(
                f"a bump field requires 0 < r0 < r1, got {self.r0}, {self.r1}")
        # float pairs, so that fields with one cutoff share one dict key
        center = finite_points("TestVectorField", "center", self.center)
        object.__setattr__(self, "center", tuple(map(float, center)))
        if self.direction is not None:
            e = tuple(map(float, self.direction))
            finite_positive("TestVectorField", "|direction|", np.hypot(*e))
            object.__setattr__(self, "direction", e)

    def _terms(self, g, d, rho, eta, eta_p):
        """div ψ and gᵀDψg from g and `_bump`'s arrays."""
        q = eta_p / np.maximum(rho, 1e-300)
        gd = g[..., 0] * d[..., 0] + g[..., 1] * d[..., 1]
        if self.direction is None:
            return (2.0 * eta + rho * eta_p,
                    eta * (g[..., 0] ** 2 + g[..., 1] ** 2) + q * gd * gd)
        e0, e1 = self.direction
        return (q * (d[..., 0] * e0 + d[..., 1] * e1),
                (g[..., 0] * e0 + g[..., 1] * e1) * q * gd)


def _bump(p, center, r0, r1):
    """d = p − c, ρ = |d|, the cutoff η(ρ) = 1 − smoothstep5((ρ−r0)/(r1−r0))
    and η′(ρ), shared by the fields with one cutoff."""
    d = np.asarray(p, float) - center
    rho = np.hypot(d[..., 0], d[..., 1])
    t = np.clip((rho - r0) / (r1 - r0), 0.0, 1.0)
    eta_p = -(30.0 * t**2 - 60.0 * t**3 + 30.0 * t**4) / (r1 - r0)
    return d, rho, 1.0 - smoothstep5(t), eta_p


def variational_residual(sol, psi, window: Window, h: float):
    """Midpoint-rule inner variation
    δJ(u)[ψ] = ∫_W (|∇u|² + 1_{u>0}) div ψ − 2 ∇uᵀ Dψ ∇u dx.

    Exact solutions give O(h) (the constant carried by cells straddling the
    free boundary; O(h²) away from it); the slope-s one-sided plane gives
    (s²−1)·∫ ψ₁(0, x₂) dx₂ in the limit.

    ``psi`` may be a single :class:`TestVectorField` (returns a float) or a
    sequence of them (returns an array).  ∇u and the phase are sampled once,
    on the hull of the cutoffs' boxes, the cells whose centres lie in
    [c − r1, c + r1]² for some cutoff (center, r0, r1), and nowhere else;
    `_bump` runs once per cutoff, on its box only.  The integrand goes into
    a full-size zero array summed over the whole grid: a full-grid pass adds
    the same terms in the same order, and exact zeros outside B_{r1}(c)
    where ∇u is finite.
    """
    single = isinstance(psi, TestVectorField)
    psis = [psi] if single else list(psi)
    xs, ys = window.grid(h)
    cx = 0.5 * (xs[:-1] + xs[1:])
    cy = 0.5 * (ys[:-1] + ys[1:])
    groups = {}
    for k, p in enumerate(psis):
        groups.setdefault((p.center, p.r0, p.r1), []).append(k)
    # each cutoff's box as (first, end) rows and columns; an empty box is
    # ((0, 0), (0, 0)), empty at any offset
    boxes = {}
    for c, r0, r1 in groups:
        box = tuple((int(np.searchsorted(cs, a - r1)),
                     int(np.searchsorted(cs, a + r1, "right")))
                    for cs, a in ((cy, c[1]), (cx, c[0])))
        boxes[c, r0, r1] = box if all(a < b for a, b in box) \
            else ((0, 0), (0, 0))
    used = [b for b in boxes.values() if b[0][0] < b[0][1]]
    lo = [min((b[i][0] for b in used), default=0) for i in (0, 1)]
    hi = [max((b[i][1] for b in used), default=0) for i in (0, 1)]
    pts = np.stack(np.meshgrid(cx[lo[1]:hi[1]], cy[lo[0]:hi[0]]), axis=-1)
    g = sol.eval_grad(pts)
    g2_ind = g[..., 0] ** 2 + g[..., 1] ** 2  # |∇u|² + 1_{u>0}
    g2_ind += sol.in_positive_phase(pts)
    out = np.empty(len(psis))
    full = np.zeros((len(cy), len(cx)))
    for key, ks in groups.items():
        box = tuple(slice(a, b) for a, b in boxes[key])
        local = tuple(slice(a - o, b - o) for (a, b), o in zip(boxes[key], lo))
        bump = _bump(pts[local], *key)
        for k in ks:
            dv, gdg = psis[k]._terms(g[local], *bump)
            full[box] = g2_ind[local] * dv - 2.0 * gdg
            out[k] = np.sum(full) * h * h
        full[box] = 0.0
        del bump  # before the next cutoff's arrays are made
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# Weiss monotonicity functional
# ---------------------------------------------------------------------------

#: Weiss energy quadrature.  Gauss–Legendre nodes in t = ρ/r; angles per
#: circle in the crossing search; sub-cells per split and split levels for
#: cells that may hide a pair of crossings; bisection steps per crossing;
#: Gauss–Legendre nodes per arc piece, and the longest arc piece.
_WEISS_RADIAL_NODES = 48
_ARC_GRID = 1024
_GRAZE_SPLIT = 16
_GRAZE_LEVELS = 5
_BISECT_STEPS = 52
_ARC_NODES = 24
_ARC_PIECE = np.pi / 8.0


def _circle_points(c, rho, theta):
    return np.stack([c[0] + rho * np.cos(theta), c[1] + rho * np.sin(theta)],
                    axis=-1)


def _circle_crossings(sol, c, radii):
    """(circle index, angle) of every free-boundary crossing on the circles
    |x − c| = radii[k], angles in [θ₀, θ₀ + 2π) with θ₀ = π/_ARC_GRID.

    Each circle is cut into _ARC_GRID cells.  A cell whose ends differ in
    phase brackets a crossing.  A cell whose ends agree can still hide a
    pair of crossings, but only if the distances of its ends to F sum to at
    most its arc length; such cells are split _GRAZE_SPLIT ways, up to
    _GRAZE_LEVELS times, so a positive (or zero) arc is missed only if it is
    narrower than 2π/_ARC_GRID/_GRAZE_SPLIT**_GRAZE_LEVELS ≈ 6e−9 rad.
    Cells whose both ends lie on F (within BOUNDARY_TOL, as eval_grad counts
    it) are not split: a circle that runs along F would split forever.
    Every grid and split level is one batched call; bisection refines all
    brackets together, one call per step.
    """
    circ = np.arange(len(radii))
    lo = np.full(len(radii), np.pi / _ARC_GRID)
    width = np.full(len(radii), 2.0 * np.pi)
    parts = _ARC_GRID
    floor = BOUNDARY_TOL * (1.0 + np.hypot(c[0], c[1]) + radii)
    br_circ, br_lo, br_hi, br_pos = [], [], [], []
    for level in range(_GRAZE_LEVELS + 1):
        theta = lo[:, None] + width[:, None] * (np.arange(parts + 1) / parts)
        rho = radii[circ][:, None]
        pts = _circle_points(c, rho, theta)
        pos = sol.in_positive_phase(pts)
        change = pos[:, 1:] != pos[:, :-1]
        j, m = np.nonzero(change)
        br_circ.append(circ[j])
        br_lo.append(theta[j, m])
        br_hi.append(theta[j, m + 1])
        br_pos.append(pos[j, m])
        if level == _GRAZE_LEVELS:
            break
        dist = sol.fb_distance(pts)
        sub = width / parts
        graze = (~change & (dist[:, 1:] + dist[:, :-1] <= rho * sub[:, None])
                 & (np.maximum(dist[:, 1:], dist[:, :-1])
                    > floor[circ][:, None]))
        j, m = np.nonzero(graze)
        if not len(j):
            break
        circ, lo, width, parts = circ[j], theta[j, m], sub[j], _GRAZE_SPLIT
    circ, a, b, pa = (np.concatenate(v) for v in
                      (br_circ, br_lo, br_hi, br_pos))
    for _ in range(_BISECT_STEPS if len(a) else 0):
        mid = 0.5 * (a + b)
        same = sol.in_positive_phase(_circle_points(c, radii[circ], mid)) == pa
        a = np.where(same, mid, a)
        b = np.where(same, b, mid)
    return circ, 0.5 * (a + b)


def _circle_integrals(sol, center, radii):
    """∫(|∇u|² + 1_{u>0}) dθ and ∫u² dθ over each circle |x − c| = radii[k].

    Exact arc rule: the crossings cut each circle into arcs, one batched
    phase call at the arc midpoints keeps the positive ones, and
    Gauss–Legendre runs on every positive arc, in pieces no longer than
    _ARC_PIECE.  Both integrands are analytic on a positive arc up to its
    ends, so the rule converges spectrally.  One eval_grad call and one
    eval_u call cover every arc of every circle.
    """
    c = np.asarray(center, dtype=float)
    radii = np.asarray(radii, dtype=float)
    n = len(radii)
    circ, x = _circle_crossings(sol, c, radii)
    # the crossings and both ends of [θ₀, θ₀ + 2π) cut each circle into arcs
    theta0 = np.pi / _ARC_GRID
    circ = np.concatenate([circ, np.arange(n), np.arange(n)])
    x = np.concatenate([x, np.full(n, theta0), np.full(n, theta0 + 2 * np.pi)])
    order = np.lexsort((x, circ))
    circ, x = circ[order], x[order]
    same = circ[1:] == circ[:-1]
    arc, lo, hi = circ[:-1][same], x[:-1][same], x[1:][same]
    keep = sol.in_positive_phase(
        _circle_points(c, radii[arc], 0.5 * (lo + hi)))
    arc, lo, hi = arc[keep], lo[keep], hi[keep]

    pieces = np.maximum(np.ceil((hi - lo) / _ARC_PIECE).astype(int), 1)
    idx = np.repeat(np.arange(len(lo)), pieces)
    k = np.arange(len(idx)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    width = (hi - lo)[idx] / pieces[idx]
    s, w = gauss_nodes(_ARC_NODES)
    theta = (lo[idx] + k * width)[:, None] + width[:, None] * s
    pts = _circle_points(c, radii[arc[idx]][:, None], theta)
    g = sol.eval_grad(pts)
    u = sol.eval_u(pts)
    bulk = width * ((g[..., 0] ** 2 + g[..., 1] ** 2 + 1.0) @ w)
    boundary = width * ((u * u) @ w)
    return (np.bincount(arc[idx], bulk, minlength=n),
            np.bincount(arc[idx], boundary, minlength=n))


def weiss_energy(sol, center, r: float) -> float:
    """W(u, x₀, r) = r⁻²∫_{B_r}(|∇u|² + 1_{u>0}) − r⁻³∫_{∂B_r} u².

    Scale-covariant quadrature: the bulk integral is written as
    r²∫₀¹ t ∫₀^{2π} F(x₀ + r t e^{iθ}) dθ dt, with _WEISS_RADIAL_NODES
    Gauss–Legendre nodes in t shared by every radius, and each angular
    integral (and the boundary one on ∂B_r) taken by the exact arc rule of
    `_circle_integrals`.  For 1-homogeneous solutions about x₀ the integrand
    is then literally r-independent, so W is constant to round-off.

    The radial rule is exact when the angular integral does not depend on
    t, and spectrally accurate when it is smooth in t.  It is not smooth
    at a radius where a circle about x₀ touches F without crossing it, so
    that an arc of the positive phase opens or closes there.  About the
    vertex of a homogeneous family the angular integral is constant, so
    the rule is exact.  The hairpin-neck centre (0, a(π/2 + 1)) sits on F,
    and no circle about it touches F below the radius 2a(π/2 + 1), so the
    rule is spectrally accurate there.  Elsewhere it can be far off: at
    `HalfPlane`, x₀ = (−0.7, 0), r = 1, the circle of radius 0.7 touches F,
    and W comes out 0.517296 against the exact 0.515808, 0.29% high.
    """
    finite_positive("weiss_energy", "r", r)
    center = finite_points("weiss_energy", "center", center)
    t, tw = gauss_nodes(_WEISS_RADIAL_NODES)
    bulk, boundary = _circle_integrals(sol, center, r * np.append(t, 1.0))
    return float(np.dot(tw * t, bulk[:-1])) - float(boundary[-1]) / r**2


# ---------------------------------------------------------------------------
# viscosity slope
# ---------------------------------------------------------------------------

def viscosity_slope(sol, x0, direction=None, r: float = 1e-3) -> float:
    """One-sided slope α = lim_{τ→0⁺} u(x₀ + τν)/τ at a free boundary point.

    `sol` may be a `Solution` or any object with `eval_u`/`interpolate`
    (e.g. a `ScalarField2D` minimizer; there pick r of a few grid spacings
    and pass `direction` explicitly).  ν is `direction` normalized, which
    must be finite and nonzero, or else the direction of `eval_grad` at x₀,
    the limit of ∇u from the positive side (the inward normal for exact
    solutions).  Requires 0 < r < inf.  Three dyadic radii and quadratic
    Richardson remove the O(τ) and O(τ²) expansion terms.
    """
    finite_positive("viscosity_slope", "r", r)
    u_of = sol.eval_u if hasattr(sol, "eval_u") else sol.interpolate
    x0 = finite_points("viscosity_slope", "x0", x0)
    u0 = float(u_of(x0))
    if abs(u0) > 1e-3 * r:
        raise DomainError(
            f"viscosity_slope: u(x0) = {u0:.3e} — x0 is not a free boundary "
            "point at the sampling scale")
    if direction is None:
        if not hasattr(sol, "eval_grad"):
            raise InvalidInputError(
                "viscosity_slope: `direction` is required for sampled fields")
        g = sol.eval_grad(x0[None, :])[0]
        n = np.hypot(g[0], g[1])
        if n < 1e-14:
            raise DomainError("viscosity_slope: no growth direction at x0 "
                              "(zero boundary gradient); pass `direction`")
        direction = g / n
    nu = np.asarray(direction, dtype=float)
    nu = nu / finite_positive("viscosity_slope", "|direction|", np.hypot(*nu))
    taus = np.array([r, r / 2.0, r / 4.0])
    pts = x0[None, :] + taus[:, None] * nu[None, :]
    f = (u_of(pts) - u0) / taus
    # f(τ) = α + βτ + γτ² on the stencil (τ, τ/2, τ/4)
    return float((8.0 * f[2] - 6.0 * f[1] + f[0]) / 3.0)


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

#: annealing schedule ε = factor·h, the residual that ends a phase and
#: the Newton step cap per phase, the PCG relative tolerance and step cap
#: of a Newton direction and of the cleanup, and the cell count in x below
#: which the cascade stops halving the grid.
_EPS_FACTORS = (2.0, 1.0, 0.5)
_DESCENT_TOL = 1e-3
_MAX_NEWTON_STEPS = 200
_PCG_RTOL = 0.1
_PCG_STEPS = 10
_CLEANUP_RTOL = 1e-13
_CLEANUP_STEPS = 200
_COARSEST_CELLS = 32
#: multigrid: the most unknowns of the coarsest level, which is solved
#: exactly; the weighted-Jacobi factor; the coarse-diagonal entry c of a
#: held node, against the 8 on the diagonal of 2K₅.
_MG_COARSEST = 16
_JACOBI_OMEGA = 0.8
_HELD = 64.0


@dataclass
class MinimizeResult:
    """`energy_history` holds one list per annealing phase and level, coarse
    to fine: the smoothed energy at the start of the phase and after each
    accepted Newton step (each list non-increasing by construction);
    `history_h[k]` is entry k's grid spacing.  `energy` is the sharp
    discrete J of the returned (cleaned) field, and `iterations` sums the
    Newton steps of all levels, one per residual evaluation."""

    field: ScalarField2D
    energy: float
    energy_history: list
    history_h: list
    residual: float
    iterations: int
    converged: bool


class _Work:
    """A cascade level's node arrays, made once when the level starts.
    The Newton loop's one new node-sized array is then the residual's
    gather of the free nodes' gradient, whose sum fixes the residual's
    bits.  Buffers whose contents never live at the same time are shared:

    * t and q are the scratch of `_energy`, `_gradient` and
      `_beta_second_clipped`, and PCG's t and z; `_dirichlet`'s dx and dy
      are C-contiguous views of their leading entries;
    * g holds the gradient, b the Newton right-hand side (its ring stays
      0), and x, r and p PCG's iterate, residual and search direction;
    * trial and spare hold the line search's trial fields;
    * mask (interior nodes) and flags (two node arrays) are bool scratch."""

    def __init__(self, shape):
        m, n = shape
        self.t, self.q, self.g, self.b, self.x, self.r, self.p, \
            self.trial, self.spare = (np.zeros(shape) for _ in range(9))
        self.dx = self.t.ravel()[:m * (n - 1)].reshape(m, n - 1)
        self.dy = self.q.ravel()[:(m - 1) * n].reshape(m - 1, n)
        self.pcg = (self.x, self.r, self.t, self.p, self.q)
        self.mask = np.zeros((m - 2, n - 2), dtype=bool)
        self.flags = (np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool))


def _energy(v, eps, wh2, work):
    """The smoothed energy `_dirichlet`(v) + Σ wh2·β_ε(v), with the
    smoothstep β_ε(v) = 3t² − 2t³ and t = v/ε clipped to [0, 1]."""
    e = _dirichlet(v, work.dx, work.dy)
    t = np.divide(v, eps, out=work.t)
    np.clip(t, 0.0, 1.0, out=t)
    q = np.multiply(t, 2.0, out=work.q)
    np.subtract(3.0, q, out=q)
    t *= t
    t *= q  # t·t·(3 − 2t)
    t *= wh2
    return e + float(t.sum())


def _gradient(v, eps, h2, work):
    """`_energy`'s gradient 2K₅v + h²β′_ε(v), β′_ε = 6t(1 − t)/ε, at the
    interior nodes, as a view of the node array work.g."""
    g = _neighbour_sum(v, work.g)
    g *= 2.0
    np.subtract(np.multiply(v, 8.0, out=work.q), g, out=g)
    t = np.divide(v, eps, out=work.t)
    np.clip(t, 0.0, 1.0, out=t)
    q = np.subtract(1.0, t, out=work.q)
    t *= 6.0 / eps
    t *= q
    t *= h2
    g += t
    return g[1:-1, 1:-1]


def _beta_second_clipped(v, eps, work):
    """max(β″_ε(v), 0), the convex part of the smoothstep's curvature, in
    the node array work.t; at v = 0 it is the limit from the right, the
    side a feasible step takes."""
    t = np.divide(v, eps, out=work.t)
    inside, below = work.flags
    np.greater_equal(t, 0.0, out=inside)
    inside &= np.less(t, 0.5, out=below)
    t *= 12.0
    np.subtract(6.0, t, out=t)
    t /= eps * eps
    np.copyto(t, 0.0, where=np.logical_not(inside, out=inside))
    return t


def _trial(v, a, d, out):
    """out = max(v − a·d, 0), the projected step."""
    np.multiply(d, a, out=out)
    np.subtract(v, out, out=out)
    return np.maximum(out, 0.0, out=out)


def _spd_inverse(a):
    """The inverse of the symmetric positive definite matrix `a` by
    Gauss–Jordan sweeps, pivots in order.  Only elementwise numpy runs, no
    BLAS or LAPACK call, so its bits do not depend on the thread count."""
    a = a.copy()
    for k in range(len(a)):
        d = a[k, k]
        col = a[:, k] / d
        a -= np.multiply.outer(col, a[k])
        a[k] = col
        a[:, k] = col
        a[k, k] = -1.0 / d
    return -0.5 * (a + a.T)  # the sweeps leave −a⁻¹, symmetric to round-off


def _restrict_views(fine, t, out):
    """The slices `_restrict` reads and writes, for the fine node array,
    the half-coarsened array t and the coarse interior out."""
    mc, nc = out.shape
    t = t[1:-1]
    return (fine[1:2 * mc:2], fine[3:2 * mc + 2:2], fine[2:2 * mc + 1:2], t,
            t[:, 1:2 * nc:2], t[:, 3:2 * nc + 2:2], t[:, 2:2 * nc + 1:2], out)


def _restrict(views):
    """out = Pᵀ fine, from a level's node array to the next coarser
    level's interior, through `_restrict_views`: the rows, then the
    columns, each weighted ½, 1, ½."""
    lo, hi, mid, t, t_lo, t_hi, t_mid, out = views
    np.add(lo, hi, out=t)
    t *= 0.5
    t += mid
    np.add(t_lo, t_hi, out=out)
    out *= 0.5
    out += t_mid


def _prolong_views(coarse, t, out):
    """The slices `_prolong` reads and writes, for the coarse node array,
    the half-coarsened array t and the fine interior out."""
    t = t[:, 1:-1]  # its first and last rows stay 0
    m, n = out.shape
    q, p = (n + 1) // 2, (m + 1) // 2
    return (coarse[1:-1, 1:-1], coarse[1:-1, :q], coarse[1:-1, 1:q + 1],
            t[1:-1, 1::2], t[1:-1, 0::2], t[1:-1], t[:p], t[1:p + 1],
            out[1::2], out[0::2])


def _prolong(views):
    """out = P coarse, from a level's node array to the next finer level's
    interior, through `_prolong_views`: bilinear, the columns first."""
    c_mid, c_lo, c_hi, t_odd, t_even, t_mid, t_lo, t_hi, odd, even = views
    np.copyto(t_odd, c_mid)
    np.add(c_lo, c_hi, out=t_even)
    t_even *= 0.5
    np.copyto(odd, t_mid)
    np.add(t_lo, t_hi, out=even)
    even *= 0.5


class _Multigrid:
    """V(1,1) cycles for A = 2K₅ + diag(c) on the interior nodes of a node
    grid, restricted to the nodes of a mask (geometric multigrid: Brandt
    1977; Trottenberg, Oosterlee and Schüller, *Multigrid*, 2001).

    Each level's vectors are whole node arrays, so every stencil op runs on
    flat runs, and `_operate` ends with `out *= keep`, 1.0 on the free nodes
    and 0.0 on the ring (its junk) and the held ones, a bool mask's bits.

    A level with m interior rows coarsens to m // 2, coarse node I on fine
    node 2I + 1 (interior indices), and likewise in x.  Prolongation P is
    bilinear and restriction is Pᵀ.  An even count is embedded in the next
    odd one, whose extra row is the fine boundary, held.  A coarse level's
    operator is 2K₅ again plus diag(Pᵀc), the lumped Galerkin diagonal.
    Nodes outside the mask are zeroed on the finest level and enter that
    diagonal with c = _HELD, and so does every level's boundary ring.  The
    grid coarsens at least once, and on until at most _MG_COARSEST unknowns
    are left, which `_spd_inverse` solves exactly.  One weighted-Jacobi
    sweep smooths before the coarse correction and one after, so the cycle
    is a symmetric positive definite preconditioner on the mask.

    Every array but the finest iterate and right-hand side is made once,
    here, and so are the flat runs and slices the stencils and transfers
    take of them; those of any other array are taken per call.  `setup`
    builds every level's diagonal for one operator; `apply` and `vcycle`
    then take node arrays with a zero ring, and `vcycle` writes into the
    `out` it is given."""

    def __init__(self, shape):
        shapes = [shape]
        m, n = shape[0] - 2, shape[1] - 2
        while len(shapes) == 1 or m * n > _MG_COARSEST:
            m, n = m // 2, n // 2
            shapes.append((m + 2, n + 2))
        # `vcycle` brings the finest iterate and right-hand side
        self.x = [None] + [np.zeros(s) for s in shapes[1:]]
        self.b = [None] + [np.zeros(s) for s in shapes[1:]]
        self.r = [np.zeros(s) for s in shapes]
        self.s = [np.zeros(s) for s in shapes]
        self.c = [np.full(s, _HELD) for s in shapes]
        self.diag = [np.full(s, 8.0 + _HELD) for s in shapes]  # 8 + c
        self.dinv = [np.zeros(s) for s in shapes]   # keep·ω / (8 + c)
        self.keep = [np.pad(np.ones((a - 2, b - 2)), 1) for a, b in shapes]
        # restriction and prolongation pass through a half-coarsened array
        self.t = [np.zeros((c[0], f[1])) for f, c in zip(shapes, shapes[1:])]
        self.out = np.zeros(shape)
        self.runs = [None] + [_neighbour_runs(x, s)
                              for x, s in zip(self.x[1:], self.s[1:])]
        self.down = [_restrict_views(r, t, b[1:-1, 1:-1])
                     for r, t, b in zip(self.r, self.t, self.b[1:])]
        self.c_down = [_restrict_views(c, t, cc[1:-1, 1:-1])
                       for c, t, cc in zip(self.c, self.t, self.c[1:])]
        self.up = [_prolong_views(x, t, r[1:-1, 1:-1])
                   for x, t, r in zip(self.x[1:], self.t, self.r)]
        m, n = shapes[-1][0] - 2, shapes[-1][1] - 2
        node = np.arange(m * n).reshape(m, n)
        self.offdiag = np.zeros((m * n, m * n))
        for p, q in ((node[1:], node[:-1]), (node[:, 1:], node[:, :-1])):
            self.offdiag[p, q] = self.offdiag[q, p] = -2.0

    def setup(self, c, mask):
        """Use c (interior nodes) and the boolean mask of the free nodes."""
        self.keep[0][1:-1, 1:-1] = mask
        np.add(c, 8.0, out=self.diag[0][1:-1, 1:-1])
        held = self.c[0][1:-1, 1:-1]
        held.fill(_HELD)
        np.copyto(held, c, where=mask)
        for k in range(1, len(self.c)):
            _restrict(self.c_down[k - 1])
            np.add(self.c[k], 8.0, out=self.diag[k])
        for diag, dinv, keep in zip(self.diag, self.dinv, self.keep):
            np.divide(_JACOBI_OMEGA, diag, out=dinv)
            dinv *= keep
        self.inv = _spd_inverse(self.offdiag
                                + np.diag(self.diag[-1][1:-1, 1:-1].ravel()))

    def _operate(self, k, x, out):
        """out = A x on level k, kept: 0 on the ring and the held nodes."""
        runs = self.runs[k] if x is self.x[k] else None
        s = _neighbour_sum(x, self.s[k], runs)
        s *= 2.0
        np.multiply(self.diag[k], x, out=out)
        out -= s
        out *= self.keep[k]
        return out

    def apply(self, x):
        """A x, masked, as a node array with a zero ring; the array is
        reused by the next call."""
        return self._operate(0, x, self.out)

    def vcycle(self, b, out):
        """One V(1,1) cycle from 0 for A x = b, into the node array out;
        returns out."""
        xs = [out] + self.x[1:]
        bs = [b] + self.b[1:]
        last = len(xs) - 1
        for k in range(last):
            x, r = xs[k], self.r[k]
            np.multiply(self.dinv[k], bs[k], out=x)
            np.subtract(bs[k], self._operate(k, x, r), out=r)
            _restrict(self.down[k])
        xs[last][1:-1, 1:-1].flat = np.sum(
            self.inv * bs[last][1:-1, 1:-1].ravel(), axis=1)
        for k in reversed(range(last)):
            x, r = xs[k], self.r[k]
            _prolong(self.up[k])
            if k == 0:
                r *= self.keep[0]
            x += r
            np.subtract(bs[k], self._operate(k, x, r), out=r)
            r *= self.dinv[k]
            x += r
        return xs[0]


def _pcg(apply, precond, b, rtol=_PCG_RTOL, steps=_PCG_STEPS, *, work):
    """Preconditioned CG for apply(x) = b from x = 0, at most `steps`
    steps, stopping at relative residual `rtol`.  In `minimize_ac` the
    operator is a masked 2K₅ + diag(c) and `precond(r, out=z)` one
    multigrid V-cycle for it, written into z.  `work` holds the iterate x,
    the residual r, the scratch t of the products, the direction p and z,
    five arrays laid out as b, so the sums keep their bits.  Returns the
    iterate, work's x, and whether it reached the tolerance."""
    x, r, t, p, z = work
    x.fill(0.0)
    np.copyto(r, b)
    stop = rtol * np.sqrt(np.multiply(b, b, out=t).sum())
    if stop == 0.0:
        return x, True
    precond(r, out=p)  # the first direction is the first z
    rz = np.multiply(r, p, out=t).sum()
    for _ in range(steps):
        Ap = apply(p)
        alpha = rz / np.multiply(p, Ap, out=t).sum()
        x += np.multiply(p, alpha, out=t)
        r -= np.multiply(Ap, alpha, out=t)
        if np.sqrt(np.multiply(r, r, out=t).sum()) <= stop:
            return x, True
        precond(r, out=z)
        rz, rz_old = np.multiply(r, z, out=t).sum(), rz
        p *= rz / rz_old  # p = z + (rz/rz_old)·p, bit for bit
        p += z
    return x, False


def _relax(v, h):
    """One cascade level of `minimize_ac`, the annealed projected Newton
    descent and the cleanup, on the C-contiguous node array `v`, whose
    boundary ring keeps its values.  Trial steps evaluate only the energy;
    each phase start and each accepted step form one gradient.  The
    descent's node arrays are made here, once (`_Work`); the field moves
    between v and the two trial arrays, and the one it ends in is returned.
    Returns the field, one energy list per phase, the step count and the
    last residual."""
    h2 = h * h
    wh2 = h2 * _node_weights(v.shape)
    mg = _Multigrid(v.shape)
    w = _Work(v.shape)
    new, spare = w.trial, w.spare
    b_inner = w.b[1:-1, 1:-1]

    # sums, not BLAS dot products: threaded ddot spins idle workers, and its
    # summation order, so the Newton path, depends on the thread count
    def free_residual(vv, g):
        free = np.greater(vv[1:-1, 1:-1], 0.0, out=w.mask)
        free |= np.less(g, 0.0, out=w.flags[0][1:-1, 1:-1])
        n = int(free.sum())
        gf = g[free]
        gf *= gf
        return float(np.sqrt(gf.sum() / max(n, 1))) / h2

    def newton_direction(vv, g, eps):
        # nodes pinned at 0 by an uphill gradient take no step.  v = 0 with
        # g = 0 stays in the solve: held there, the positive phase would
        # spread into a zero region by one ring of nodes per step.
        inactive = np.greater(vv[1:-1, 1:-1], 0.0, out=w.mask)
        inactive |= np.less_equal(g, 0.0, out=w.flags[0][1:-1, 1:-1])
        c = _beta_second_clipped(vv, eps, w)
        c *= h2
        mg.setup(c[1:-1, 1:-1], inactive)
        b_inner.fill(0.0)
        np.copyto(b_inner, g, where=inactive)
        return _pcg(mg.apply, mg.vcycle, w.b, work=w.pcg)[0]

    history, iterations = [], 0
    for eps in np.multiply(_EPS_FACTORS, h):
        E, g = _energy(v, eps, wh2, w), _gradient(v, eps, h2, w)
        phase = [E]
        for _it in range(_MAX_NEWTON_STEPS):
            iterations += 1
            residual = free_residual(v, g)
            if residual <= _DESCENT_TOL:
                break
            d = newton_direction(v, g, eps)
            # d vanishes on the boundary ring, so each trial step keeps it
            a = 1.0
            for _bt in range(40):
                E_new = _energy(_trial(v, a, d, new), eps, wh2, w)
                if E_new <= E + 1e-12 * max(1.0, abs(E)):
                    break
                a *= 0.5
            else:
                break  # line search exhausted: stationary to round-off
            if a == 1.0:  # the full step passed: longer ones may too
                for _dbl in range(40):
                    E_try = _energy(_trial(v, 2.0 * a, d, spare), eps, wh2, w)
                    if not E_try < E_new:
                        break
                    a, new, spare, E_new = 2.0 * a, spare, new, E_try
            v, new, E = new, v, E_new
            g = _gradient(v, eps, h2, w)
            phase.append(E)
        history.append(phase)

    # the cleanup: K₅v = 0 on the nodes at or above ε/2, which start from 0,
    # so that the answer depends on the Newton path only through that set
    free = np.greater_equal(v[1:-1, 1:-1], 0.5 * eps, out=w.mask)
    v[1:-1, 1:-1] = 0.0
    if np.any(free):
        mg.setup(np.zeros(free.shape), free)
        # −2K₅ of the boundary data, on the free nodes
        s = _neighbour_sum(v, w.g)[1:-1, 1:-1]
        s *= 2.0
        b_inner.fill(0.0)
        np.copyto(b_inner, s, where=free)
        x, ok = _pcg(mg.apply, mg.vcycle, w.b, _CLEANUP_RTOL, _CLEANUP_STEPS,
                     work=w.pcg)
        if not ok:
            r = w.b - mg.apply(x)
            raise ConvergenceError(
                "minimize_ac: the cleanup's CG stopped at relative residual "
                f"{np.sqrt(np.sum(r * r) / np.sum(w.b * w.b)):.3e} after "
                f"{_CLEANUP_STEPS} steps", last_iterate=x)
        np.maximum(x[1:-1, 1:-1], 0.0, out=v[1:-1, 1:-1])  # ≥ 0 to round-off
    return v, history, iterations, residual


def minimize_ac(window: Window, h: float, boundary) -> MinimizeResult:
    """Minimize the smoothed discrete J over nonnegative grid fields with a
    Dirichlet trace on ∂W, coarse to fine.

    boundary: callable(points (n, 2)) → the n trace values, finite and ≥ 0;
    it is called once per level, on that level's boundary nodes only.

    The grid is halved while both cell counts are even and more than 32
    cells span the width.  The coarsest level starts from uniform noise on
    [0, max(trace max, its h)] (`default_rng(0)`), and each level's cleaned
    field, through bilinear interpolation, seeds the next.  Each
    level anneals ε over 2h, h, h/2.  Each phase runs projected Newton steps
    until the residual reaches _DESCENT_TOL, at most _MAX_NEWTON_STEPS of
    them: interior nodes with v = 0 and an uphill gradient G > 0 are held,
    and the others move along the solution of
    (2K₅ + diag(h²·max(β″_ε(v), 0)))·d = G, solved to relative residual
    _PCG_RTOL by at most _PCG_STEPS conjugate-gradient steps, each
    preconditioned with one multigrid V(1,1) cycle.  The step
    v ← max(v − a·d, 0) starts at a = 1, halves until the energy does not
    rise, and doubles while it still falls when a = 1 passed at once.  The
    residual is the rms projected gradient over free nodes (interior nodes
    not pinned at v = 0 with uphill gradient), for the finest level's last
    ε.

    Cleanup: the smoothed problem has exponential tails where the sharp
    minimizer is exactly zero, so interior nodes below ε_final/2 (the β
    midpoint; ≪ the O(h) node values the slope condition forces next to
    the free boundary) are snapped to 0.  K₅v = 0 is then solved on the
    other interior nodes, from 0, by the same multigrid CG to relative
    residual _CLEANUP_RTOL, which makes the positive phase
    discrete-harmonic.  So the returned field depends on the Newton path
    only through that zero set.  If _CLEANUP_STEPS steps do not reach the
    tolerance, `ConvergenceError` reports the residual.
    """
    xs, ys = window.grid(h)
    nx, ny = len(xs) - 1, len(ys) - 1
    levels = [h]
    while nx % 2 == 0 and ny % 2 == 0 and nx > _COARSEST_CELLS:
        nx, ny = nx // 2, ny // 2
        levels.insert(0, 2.0 * levels[0])
    energy_history, history_h, iterations, fld = [], [], 0, None
    for level_h in levels:
        pts = np.stack(np.meshgrid(*window.grid(level_h)), axis=-1)
        fixed = np.ones(pts.shape[:2], dtype=bool)
        fixed[1:-1, 1:-1] = False
        bpts = pts[fixed]
        bvals = np.asarray(boundary(bpts), dtype=float)
        if bvals.shape != (len(bpts),):
            raise InvalidInputError(
                f"minimize_ac: boundary trace has shape {bvals.shape} on "
                f"{len(bpts)} boundary nodes")
        if not np.all(np.isfinite(bvals)):
            raise InvalidInputError("minimize_ac: boundary trace must be "
                                    "finite")
        if np.any(bvals < 0.0):
            raise InvalidInputError("minimize_ac: boundary trace must be ≥ 0")
        if fld is None:
            v = np.random.default_rng(0).uniform(
                0.0, max(float(bvals.max()), level_h), size=fixed.shape)
        else:
            v = np.maximum(fld.interpolate(pts), 0.0)
        v[fixed] = bvals
        v, hist, n_iter, residual = _relax(v, level_h)
        energy_history += hist
        history_h += [level_h] * len(hist)
        iterations += n_iter
        fld = ScalarField2D(window=window, h=level_h, values=v)

    return MinimizeResult(field=fld, energy=ac_energy(fld),
                          energy_history=energy_history, history_h=history_h,
                          residual=residual, iterations=iterations,
                          converged=residual <= _DESCENT_TOL)
