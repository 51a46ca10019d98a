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
β_ε(t) = 3(t/ε)² − 2(t/ε)³ on [0, ε] and anneals ε over a short schedule
while running projected (v ≥ 0) Barzilai–Borwein descent with monotone
backtracking; the Euler–Lagrange system per phase is 2Δ_h v = β'_ε(v) at the
free interior nodes with the given Dirichlet trace.  It runs coarse to fine
with one sparse K per grid, vᵀKv the Dirichlet term; each grid's cleanup is
one sparse LU solve of K v = 0 on the positive phase.

Diagnostics:

* `variational_residual` — δJ(u)[ψ] = ∫ (|∇u|² + 1_{u>0}) div ψ
  − 2 ∇uᵀ Dψ ∇u, the inner (domain-variation) first variation; it vanishes
  for exact solutions and equals (s²−1)·∫ψ₁(0, x₂)dx₂ for the one-sided
  slope-s half-plane profile.
* `weiss_energy` — W(u, x₀, r) = r⁻²∫_{B_r}(|∇u|²+1_{u>0}) − r⁻³∫_{∂B_r}u²,
  computed scale-covariantly (fixed Gauss nodes in ρ/r, adaptive angular
  quadrature) so that homogeneous solutions give exactly constant W.
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
from scipy.integrate import quad_vec
from scipy.sparse.linalg import splu

from .common import (Window, format_float, smoothstep5, write_json_atomic,
                     write_text_atomic)
from .errors import DomainError, InvalidInputError
from .quad import gauss_nodes
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

def weiss_energy(sol, center, r: float, tol: float = 1e-10,
                 n_radial: int = 48) -> float:
    """W(u, x₀, r) = r⁻²∫_{B_r}(|∇u|² + 1_{u>0}) − r⁻³∫_{∂B_r} u².

    Scale-covariant quadrature: the bulk integral is written as
    r²∫₀^{2π}∫₀¹ F(x₀ + r t e^{iθ}) t dt dθ with Gauss–Legendre nodes in t
    shared by every radius, and one adaptive angular pass (vectorized over
    the radial nodes) that resolves the free-boundary kinks.  For
    1-homogeneous solutions about x₀ the integrand is then literally
    r-independent, so W is constant to round-off.
    """
    if not r > 0:
        raise InvalidInputError("weiss_energy requires r > 0")
    c = np.asarray(center, dtype=float)
    t, tw = gauss_nodes(n_radial)

    def slice_at(theta):
        d = np.array([np.cos(theta), np.sin(theta)])
        pts = c[None, :] + (r * t)[:, None] * d[None, :]
        g = sol.eval_grad(pts)
        bulk = g[:, 0] ** 2 + g[:, 1] ** 2 + sol.in_positive_phase(pts)
        boundary = sol.eval_u(c + r * d) ** 2
        return np.concatenate([bulk * t, [boundary]])

    vals, _ = quad_vec(slice_at, 0.0, 2.0 * np.pi, epsabs=tol, epsrel=tol,
                       limit=400)
    bulk_term = float(np.dot(tw, vals[:-1]))
    boundary_term = float(vals[-1]) / r**2
    return bulk_term - boundary_term


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

#: annealing schedule ε = factor·h, BB step cap per phase, and the cell count
#: in x below which the cascade stops halving the grid.
_EPS_FACTORS = (2.0, 1.0, 0.5)
_MAX_ITER_PER_PHASE = 20000
_COARSEST_CELLS = 32


@dataclass
class MinimizeResult:
    """`energy_history` holds one list per annealing phase and level, coarse
    to fine, of per-iteration smoothed energies (each non-increasing by
    construction); `history_h[k]` is entry k's grid spacing.  `energy` is the
    sharp discrete J of the returned (cleaned) field, and `iterations` sums
    the BB iterations of all levels."""

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


def _relax(v, fixed, h, tol):
    """One cascade level of `minimize_ac`, the annealed descent and the
    cleanup, on the flattened field `v`; the nodes of the 2-D mask `fixed`
    keep their values.  Returns the flat field, one energy list per phase,
    the iteration count and the last phase's free residual."""
    K = _stiffness(fixed.shape)
    h2 = h * h
    wh2 = h2 * _node_weights(fixed.shape).ravel()
    fixed = fixed.ravel()

    # sums, not BLAS dot products: threaded ddot spins idle workers, and its
    # summation order, so the BB path, depends on the thread count
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

    history, iterations = [], 0
    for eps in np.multiply(_EPS_FACTORS, h):
        E, G = objective_and_grad(v, eps)
        phase = [E]
        alpha = h2  # first trial step; BB takes over immediately
        v_prev = G_prev = None
        for _it in range(_MAX_ITER_PER_PHASE):
            iterations += 1
            residual = free_residual(v, G)
            if residual <= tol:
                break
            if v_prev is not None:
                sv = v - v_prev
                denom = float(np.sum(sv * (G - G_prev)))
                if denom > 1e-300:
                    alpha = float(np.sum(sv * sv)) / denom
                alpha = float(np.clip(alpha, 1e-3 * h2, 1e6 * h2))
            # G vanishes on fixed nodes, so each trial step keeps them
            a = alpha
            for _bt in range(40):
                v_new = np.maximum(v - a * G, 0.0)
                E_new, G_new = objective_and_grad(v_new, eps)
                if E_new <= E + 1e-12 * max(1.0, abs(E)):
                    break
                a *= 0.5
            else:
                break  # line search exhausted: stationary to round-off
            v_prev, G_prev = v, G
            v, E, G = v_new, E_new, G_new
            phase.append(E)
        history.append(phase)

    free = ~fixed & (v >= 0.5 * eps)
    v = np.where(fixed | free, v, 0.0)
    idx = np.flatnonzero(free)
    if idx.size:
        # minimum degree on Kᵀ+K and 1-column panels: small fill and workspace
        lu = splu(K[idx][:, idx].tocsc(), permc_spec="MMD_AT_PLUS_A",
                  panel_size=1)
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
    level anneals ε over 2h, h, h/2 with projected Barzilai–Borwein descent
    and monotone backtracking; the residual is the rms projected gradient
    over free nodes (interior nodes not pinned at v = 0 with uphill
    gradient), for the finest level's last ε.

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
