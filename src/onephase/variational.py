"""Discrete Alt–Caffarelli energy, minimization, and variational diagnostics.

The functional under study is

    J(v; D) = ∫_D |∇v|² + |{v > 0} ∩ D|,

whose critical points solve the one-phase problem: Δv = 0 in {v > 0} and
|∇v| = 1 on the free boundary.

Discretization (`ScalarField2D` on a uniform node grid of spacing h):

* gradient term — constant per cell from the four corner values
  (ux = mean of the two x-differences, uy likewise), summed as h²·|∇_c v|²;
* measure term — trapezoid-weighted node indicator h²·Σ w_n·1{v_n > 0}.

`minimize_ac` relaxes the indicator to the cubic smoothstep
β_ε(t) = 3(t/ε)² − 2(t/ε)³ on [0, ε] and anneals ε over a short schedule;
the Euler–Lagrange system per phase is 2Δ_h v = β'_ε(v) at the free
interior nodes with the given Dirichlet trace.  It runs coarse to fine with
one sparse K per grid, vᵀKv the Dirichlet term.  Each phase takes projected
(v ≥ 0) Newton steps in the two-metric form of Bertsekas (1982): nodes held
at 0 by an uphill gradient take no step, and the others solve the convex
model 2K + diag(h²w·max(β″_ε, 0)) inexactly, by a few conjugate-gradient
steps preconditioned with a sparse LU of that matrix that is refactored
only when it goes stale.  A monotone halving and doubling line search keeps
each phase's energy non-increasing.  The step count per level stays about
flat as h halves: about 20 per level for half-plane data from 33² to 257²
nodes.  Each grid's cleanup is one sparse LU solve of K v = 0 on the
positive phase.

Diagnostics:

* `variational_residual` — δJ(u)[ψ] = ∫ (|∇u|² + 1_{u>0}) div ψ
  − 2 ∇uᵀ Dψ ∇u, the inner (domain-variation) first variation; it vanishes
  for exact solutions and equals (s²−1)·∫ψ₁(0, x₂)dx₂ for the one-sided
  slope-s half-plane profile.
* `weiss_energy` — W(u, x₀, r) = r⁻²∫_{B_r}(|∇u|²+1_{u>0}) − r⁻³∫_{∂B_r}u²,
  computed scale-covariantly (fixed Gauss nodes in ρ/r, an exact arc rule
  on each circle) so that homogeneous solutions give exactly constant W.
* `viscosity_slope` — the one-sided linear growth coefficient
  α = lim u(x₀ + τν)/τ along an inward direction ν, by Richardson
  extrapolation in τ.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .common import (Window, format_float, smoothstep5, write_json_atomic,
                     write_text_atomic)
from .errors import DomainError, InvalidInputError
from .quad import gauss_nodes
from .solutions import BOUNDARY_TOL
from .solutions import OneSidedPlane  # re-exported from the registry

__all__ = [
    "ScalarField2D",
    "ac_energy",
    "TestVectorField",
    "variational_residual",
    "weiss_energy",
    "viscosity_slope",
    "OneSidedPlane",
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

    @property
    def shape(self):
        return self.values.shape

    def nodes(self):
        xs, ys = self.window.grid(self.h)
        return np.meshgrid(xs, ys)

    @staticmethod
    def from_solution(sol, window: Window, h: float) -> "ScalarField2D":
        xs, ys = window.grid(h)
        X, Y = np.meshgrid(xs, ys)
        vals = sol.eval_u(np.stack([X, Y], axis=-1))
        return ScalarField2D(window=window, h=h, values=vals)

    def interpolate(self, points):
        """Bilinear interpolation at points of shape (..., 2)."""
        p = np.asarray(points, dtype=float)
        w = self.window
        fx = np.clip((p[..., 0] - w.x0) / self.h, 0.0, self.values.shape[1] - 1.0)
        fy = np.clip((p[..., 1] - w.y0) / self.h, 0.0, self.values.shape[0] - 1.0)
        i0 = np.clip(fx.astype(int), 0, self.values.shape[1] - 2)
        j0 = np.clip(fy.astype(int), 0, self.values.shape[0] - 2)
        tx = fx - i0
        ty = fy - j0
        v = self.values
        return ((1 - tx) * (1 - ty) * v[j0, i0] + tx * (1 - ty) * v[j0, i0 + 1]
                + (1 - tx) * ty * v[j0 + 1, i0] + tx * ty * v[j0 + 1, i0 + 1])

    # -- CSV with a JSON sidecar describing the grid -------------------------
    def save(self, path) -> None:
        path = Path(path)
        lines = [",".join(format_float(v) for v in row) for row in self.values]
        write_text_atomic(str(path), "\n".join(lines) + "\n")
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


def _cell_gradients(values: np.ndarray, h: float):
    v = values
    ux = (v[1:, 1:] - v[1:, :-1] + v[:-1, 1:] - v[:-1, :-1]) / (2.0 * h)
    uy = (v[1:, 1:] - v[:-1, 1:] + v[1:, :-1] - v[:-1, :-1]) / (2.0 * h)
    return ux, uy


def _node_weights(shape):
    w = np.ones(shape)
    w[0, :] *= 0.5
    w[-1, :] *= 0.5
    w[:, 0] *= 0.5
    w[:, -1] *= 0.5
    return w


def ac_energy(fld: ScalarField2D) -> float:
    """Discrete J(v): cell-gradient Dirichlet term plus trapezoid-weighted
    node indicator of {v > 0}."""
    ux, uy = _cell_gradients(fld.values, fld.h)
    grad_term = float(np.sum(ux**2 + uy**2)) * fld.h**2
    w = _node_weights(fld.values.shape)
    meas_term = float(np.sum(w * (fld.values > 0.0))) * fld.h**2
    return grad_term + meas_term


# ---------------------------------------------------------------------------
# inner-variation residual
# ---------------------------------------------------------------------------

@dataclass
class TestVectorField:
    """A C¹ vector field ψ with its divergence and Jacobian, the test object
    of the inner variation δJ(u)[ψ]."""

    __test__ = False  # not a pytest class despite the Test* name

    func: callable  # (...,2) -> (...,2)
    div: callable   # (...,2) -> (...)
    jac: callable   # (...,2) -> (...,2,2)

    @staticmethod
    def radial_bump(center=(0.0, 0.0), r0: float = 0.5, r1: float = 1.0
                    ) -> "TestVectorField":
        """ψ(x) = η(|x−c|)(x−c): identity-like inside r0, zero outside r1."""
        if not 0.0 < r0 < r1:
            raise InvalidInputError("radial_bump requires 0 < r0 < r1")
        c = np.asarray(center, dtype=float)

        def func(p):
            d, _, eta, _ = _bump(p, c, r0, r1)
            return eta[..., None] * d

        def div(p):
            _, rho, eta, eta_p = _bump(p, c, r0, r1)
            return 2.0 * eta + rho * eta_p

        def jac(p):
            d, rho, eta, eta_p = _bump(p, c, r0, r1)
            k = (eta_p / np.maximum(rho, 1e-300))[..., None, None]
            outer = d[..., :, None] * d[..., None, :]
            eye = np.eye(2).reshape((1,) * (d.ndim - 1) + (2, 2))
            return eta[..., None, None] * eye + k * outer

        return TestVectorField(func=func, div=div, jac=jac)

    @staticmethod
    def directional_bump(center=(0.0, 0.0), r0: float = 0.5, r1: float = 1.0,
                         direction=(1.0, 0.0)) -> "TestVectorField":
        """ψ(x) = η(|x−c|)·d for a fixed direction d."""
        if not 0.0 < r0 < r1:
            raise InvalidInputError("directional_bump requires 0 < r0 < r1")
        c = np.asarray(center, dtype=float)
        dvec = np.asarray(direction, dtype=float)

        def func(p):
            _, _, eta, _ = _bump(p, c, r0, r1)
            return eta[..., None] * dvec

        def grad_eta(p):
            d, rho, _, eta_p = _bump(p, c, r0, r1)
            return (eta_p / np.maximum(rho, 1e-300))[..., None] * d

        def div(p):
            return np.einsum("...k,k->...", grad_eta(p), dvec)

        def jac(p):
            g = grad_eta(p)
            return dvec[:, None] * g[..., None, :]

        return TestVectorField(func=func, div=div, jac=jac)


def _bump(p, center, r0, r1):
    """d = p − c, ρ = |d|, the cutoff η(ρ) = 1 − smoothstep5((ρ−r0)/(r1−r0))
    and η′(ρ), shared by the bump fields."""
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
    sequence of them (returns an array): the solution grid — the expensive
    part for chart-inverted families — is sampled once and shared.
    """
    single = isinstance(psi, TestVectorField)
    psis = [psi] if single else list(psi)
    xs, ys = window.grid(h)
    cx = 0.5 * (xs[:-1] + xs[1:])
    cy = 0.5 * (ys[:-1] + ys[1:])
    X, Y = np.meshgrid(cx, cy)
    pts = np.stack([X, Y], axis=-1)
    g = sol.eval_grad(pts)
    ind = sol.in_positive_phase(pts).astype(float)
    g2 = g[..., 0] ** 2 + g[..., 1] ** 2
    out = np.empty(len(psis))
    for k, p in enumerate(psis):
        dv = p.div(pts)
        J = p.jac(pts)
        gJg = np.einsum("...i,...ij,...j->...", g, J, g)
        out[k] = np.sum((g2 + ind) * dv - 2.0 * gJg) * h * h
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
    g = sol.eval_grad(pts, boundary_limit=True)
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
    if not r > 0:
        raise InvalidInputError("weiss_energy requires r > 0")
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
    and pass `direction` explicitly).  ν defaults to the boundary-limit
    gradient direction (the inward normal for exact solutions).  Three
    dyadic radii and quadratic Richardson remove the O(τ) and O(τ²)
    expansion terms.
    """
    u_of = sol.eval_u if hasattr(sol, "eval_u") else sol.interpolate
    x0 = np.asarray(x0, dtype=float)
    u0 = float(u_of(x0))
    if abs(u0) > 1e-3 * r:
        raise DomainError(
            f"viscosity_slope: u(x0) = {u0:.3e} — x0 is not a free boundary "
            "point at the sampling scale")
    if direction is None:
        if not hasattr(sol, "eval_grad"):
            raise InvalidInputError(
                "viscosity_slope: `direction` is required for sampled fields")
        g = sol.eval_grad(x0[None, :], boundary_limit=True)[0]
        n = np.hypot(g[0], g[1])
        if n < 1e-14:
            raise DomainError("viscosity_slope: no growth direction at x0 "
                              "(zero boundary gradient); pass `direction`")
        direction = g / n
    nu = np.asarray(direction, dtype=float)
    nu = nu / np.hypot(nu[0], nu[1])
    taus = np.array([r, r / 2.0, r / 4.0])
    pts = x0[None, :] + taus[:, None] * nu[None, :]
    f = (u_of(pts) - u0) / taus
    # f(τ) = α + βτ + γτ² on the stencil (τ, τ/2, τ/4)
    return float((8.0 * f[2] - 6.0 * f[1] + f[0]) / 3.0)


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

#: annealing schedule ε = factor·h, Newton step cap per phase, the PCG
#: relative tolerance and the PCG steps tried before the model matrix is
#: factored again, and the cell count in x below which the cascade stops
#: halving the grid.
_EPS_FACTORS = (2.0, 1.0, 0.5)
_MAX_NEWTON_STEPS = 200
_PCG_RTOL = 0.1
_PCG_STEPS = 10
_COARSEST_CELLS = 32


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


def _beta(v, eps):
    t = np.clip(v / eps, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _beta_prime(v, eps):
    t = v / eps
    inside = (t > 0.0) & (t < 1.0)
    return np.where(inside, (6.0 * t - 6.0 * t * t) / eps, 0.0)


def _beta_second_clipped(v, eps):
    """max(β″_ε(v), 0), the convex part of the smoothstep's curvature; at
    v = 0 it is the limit from the right, the side a feasible step takes."""
    t = v / eps
    inside = (t >= 0.0) & (t < 0.5)
    return np.where(inside, (6.0 - 12.0 * t) / (eps * eps), 0.0)


def _stiffness(shape):
    """Sparse K on the row-major node grid of `shape` with
    vᵀKv = Σ_cells h²|∇_c v|² = Σ_cells ½[(v₁₁−v₀₀)² + (v₁₀−v₀₁)²]:
    each node couples to its diagonal neighbours only."""
    m, n = shape
    col = np.arange(m * n) % n
    up = np.where(col[:m * n - n - 1] < n - 1, -0.5, 0.0)  # (j,i)–(j+1,i+1)
    anti = np.where(col[:m * n - n + 1] > 0, -0.5, 0.0)    # (j,i)–(j+1,i−1)
    return sparse.diags([2.0 * _node_weights(shape).ravel(), up, up, anti,
                         anti], [0, n + 1, -n - 1, n - 1, 1 - n], format="csr")


def _splu(A):
    # minimum degree on Aᵀ+A and 1-column panels: small fill and workspace
    return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", panel_size=1)


def _pcg(apply, factor, idx, mask, b):
    """Preconditioned CG for apply(x) = b on the nodes of `mask`, at most
    _PCG_STEPS steps, stopping at relative residual _PCG_RTOL.  The
    preconditioner solves with `factor`, the LU of an earlier model matrix
    on the nodes `idx`, and is the identity elsewhere; its result is cut
    back to `mask`, which keeps it symmetric positive definite there.
    Returns the iterate and whether it reached the tolerance."""
    def precond(r):
        z = r.copy()
        z[idx] = factor.solve(r[idx])
        z[~mask] = 0.0
        return z

    x = np.zeros_like(b)
    r = b.copy()
    stop = _PCG_RTOL * np.sqrt(np.sum(b * b))
    z = precond(r)
    p = z
    rz = np.sum(r * z)
    for _ in range(_PCG_STEPS):
        Ap = apply(p)
        alpha = rz / np.sum(p * Ap)
        x += alpha * p
        r -= alpha * Ap
        if np.sqrt(np.sum(r * r)) <= stop:
            return x, True
        z = precond(r)
        rz, rz_old = np.sum(r * z), rz
        p = z + (rz / rz_old) * p
    return x, False


def _relax(v, fixed, h, tol):
    """One cascade level of `minimize_ac`, the annealed projected Newton
    descent and the cleanup, on the flattened field `v`; the nodes of the
    2-D mask `fixed` keep their values.  Returns the flat field, one energy
    list per phase, the step count and the last phase's free residual."""
    K = _stiffness(fixed.shape)
    h2 = h * h
    wh2 = h2 * _node_weights(fixed.shape).ravel()
    fixed = fixed.ravel()

    # sums, not BLAS dot products: threaded ddot spins idle workers, and its
    # summation order, so the Newton path, depends on the thread count
    def objective_and_grad(vv, eps):
        Kv = K @ vv
        E = float(np.sum(vv * Kv + wh2 * _beta(vv, eps)))
        G = 2.0 * Kv + wh2 * _beta_prime(vv, eps)
        G[fixed] = 0.0
        return E, G

    def free_residual(vv, G):
        free = ~fixed & ((vv > 0.0) | (G < 0.0))
        n = int(np.sum(free))
        return float(np.sqrt(np.sum(G[free] ** 2) / max(n, 1))) / h2

    model_lu = None  # (splu, nodes) of the model matrix last factored

    def newton_direction(vv, G, eps):
        nonlocal model_lu
        # nodes pinned at 0 by an uphill gradient take no step.  v = 0 with
        # G = 0 stays in the solve: held there, the positive phase would
        # spread into a zero region by one ring of nodes per step.
        inactive = ~fixed & ((vv > 0.0) | (G <= 0.0))
        curv = wh2 * _beta_second_clipped(vv, eps)

        def apply(x):  # the model matrix 2K + diag(curv) on `inactive`
            return np.where(inactive, 2.0 * (K @ x) + curv * x, 0.0)

        b = np.where(inactive, G, 0.0)
        if model_lu is not None:
            d, ok = _pcg(apply, *model_lu, inactive, b)
            if ok:
                return d
        idx = np.flatnonzero(inactive)
        model_lu = None  # release the old factor before building the new one
        model_lu = (_splu(2.0 * K[idx][:, idx] + sparse.diags(curv[idx])),
                    idx)
        return _pcg(apply, *model_lu, inactive, b)[0]

    history, iterations = [], 0
    for eps in np.multiply(_EPS_FACTORS, h):
        E, G = objective_and_grad(v, eps)
        phase = [E]
        for _it in range(_MAX_NEWTON_STEPS):
            iterations += 1
            residual = free_residual(v, G)
            if residual <= tol:
                break
            d = newton_direction(v, G, eps)
            # d vanishes on fixed nodes, so each trial step keeps them
            a = 1.0
            for _bt in range(40):
                v_new = np.maximum(v - a * d, 0.0)
                E_new, G_new = objective_and_grad(v_new, eps)
                if E_new <= E + 1e-12 * max(1.0, abs(E)):
                    break
                a *= 0.5
            else:
                break  # line search exhausted: stationary to round-off
            if a == 1.0:  # the full step passed: longer ones may too
                for _dbl in range(40):
                    v_try = np.maximum(v - 2.0 * a * d, 0.0)
                    E_try, G_try = objective_and_grad(v_try, eps)
                    if not E_try < E_new:
                        break
                    a, v_new, E_new, G_new = 2.0 * a, v_try, E_try, G_try
            v, E, G = v_new, E_new, G_new
            phase.append(E)
        history.append(phase)
    model_lu = None  # freed before the cleanup factor is built

    free = ~fixed & (v >= 0.5 * eps)
    v = np.where(fixed | free, v, 0.0)
    idx = np.flatnonzero(free)
    if idx.size:
        lu = _splu(K[idx][:, idx])
        v[idx] = np.maximum(lu.solve(-(K[idx] @ np.where(free, 0.0, v))),
                            0.0)  # ≥ 0 up to round-off
    return v, history, iterations, residual


def minimize_ac(window: Window, h: float, boundary, init=None, rng=None,
                tol: float = 1e-3) -> MinimizeResult:
    """Minimize the smoothed discrete J over nonnegative grid fields with a
    Dirichlet trace on ∂W, coarse to fine.

    boundary: callable(points (...,2)) → trace values on boundary nodes.
    init: optional initializer — an array on the (window, h) grid, a
    callable, or None for seeded uniform noise (`rng`, default seed 0).

    The grid is halved while both cell counts are even and more than 32
    cells span the width.  `init` (an array through bilinear interpolation)
    seeds the coarsest level, and each level's cleaned field the next.  Each
    level anneals ε over 2h, h, h/2.  Each phase runs projected Newton steps
    until the residual reaches `tol`, at most _MAX_NEWTON_STEPS of them:
    interior nodes with v = 0 and an uphill gradient G > 0 are held, and
    the others move along the solution of
    (2K + diag(h²w·max(β″_ε(v), 0)))·d = G, solved to relative residual
    _PCG_RTOL by conjugate gradients preconditioned with a sparse LU of the
    model matrix, which is refactored when _PCG_STEPS steps do not reach
    that tolerance.  The step v ← max(v − a·d, 0) starts at a = 1, halves
    until the energy does not rise, and doubles while it still falls when
    a = 1 passed at once.  The residual is the rms projected gradient over
    free nodes (interior nodes not pinned at v = 0 with uphill gradient),
    for the finest level's last ε.

    Cleanup: the smoothed problem 2Δv = β'_ε(v) has exponential tails where
    the sharp minimizer is exactly zero, so interior nodes below ε_final/2
    (the β midpoint; ≪ the O(h) node values the slope condition forces next
    to the free boundary) are snapped to 0; one sparse LU solve of K v = 0 on
    the other interior nodes then makes the positive phase discrete-harmonic.
    """
    xs, ys = window.grid(h)
    nx, ny = len(xs) - 1, len(ys) - 1
    levels = [h]
    while nx % 2 == 0 and ny % 2 == 0 and nx > _COARSEST_CELLS:
        nx, ny = nx // 2, ny // 2
        levels.insert(0, 2.0 * levels[0])
    if init is not None and not callable(init):
        init = ScalarField2D(window=window, h=h, values=init).interpolate
    rng = np.random.default_rng(0) if rng is None else rng

    energy_history, history_h, iterations = [], [], 0
    for level_h in levels:
        pts = np.stack(np.meshgrid(*window.grid(level_h)), axis=-1)
        fixed = np.ones(pts.shape[:2], dtype=bool)
        fixed[1:-1, 1:-1] = False
        bvals = np.asarray(boundary(pts), dtype=float)[fixed]
        if np.any(bvals < 0.0):
            raise InvalidInputError("minimize_ac: boundary trace must be ≥ 0")
        if init is None:
            v = rng.uniform(0.0, max(float(bvals.max()), level_h),
                            size=fixed.shape)
        else:
            v = np.maximum(np.asarray(init(pts), dtype=float), 0.0)
        v[fixed] = bvals
        v, hist, n_iter, residual = _relax(v.ravel(), fixed, level_h, tol)
        energy_history += hist
        history_h += [level_h] * len(hist)
        iterations += n_iter
        fld = ScalarField2D(window=window, h=level_h,
                            values=v.reshape(fixed.shape))
        init = fld.interpolate

    return MinimizeResult(field=fld, energy=ac_energy(fld),
                          energy_history=energy_history, history_h=history_h,
                          residual=residual, iterations=iterations,
                          converged=residual <= tol)
