"""Exact solution families of the planar one-phase Bernoulli problem.

Each family evaluates a nonnegative function u with Δu = 0 in the open
positive phase Ω⁺(u) = {u > 0} and |∇u| = 1 on the free boundary
F(u) = ∂Ω⁺(u), up to a rigid motion and a dilation carried by the instance:

* ``HalfPlane``          u = x₁⁺, the flat half-plane solution P.
* ``TwoPlane(a)``        u = x₁⁺ + (−x₁−a)⁺, two parallel fronts at gap a.
* ``Wedge(s)``           u = s|x₁|, slope 0 < s ≤ 1, positive on both sides
                         of F = {x₁ = 0} (a viscosity solution only at s = 1).
* ``Hairpin(a)``         u = a·H(z/a), H = Re cosh φ⁻¹ with φ(ζ) = ζ + sinh ζ;
                         phase |x₂| < a(π/2 + cosh(x₁/a)), catenary boundary.
* ``DiskComplement(R)``  u = R·log(|x|/R) for |x| ≥ R, zero on the disk.
* ``Scherk(s, a)``       u = a·S_s(x/a); S_s = Re Φ_s⁻¹ around a 2π-periodic
                         row of ovals on the x₂-axis, asymptotic to the wedge
                         of slope s; saddle value 2s·log(1/s) per unit scale.

``OneSidedPlane(s)``, u = s·x₁⁺, is the competitor that is not a solution for
s ≠ 1: harmonic where positive, but |∇u| = s on F.  It sits in the registry
`KINDS` so it serializes like the families, but not in `FAMILIES`, the exact
solutions.

Conventions
-----------
* Points are real arrays of shape (..., 2); values have shape (...).
* ``eval_grad`` is the a.e. gradient: the classical gradient in the open
  positive phase and 0 in the open zero phase.  Points within
  ``boundary_tol`` of F(u) get 0 by default; with ``boundary_limit=True``
  they get the limit of ∇u from the positive phase (for the two-sided wedge,
  the limit from {x₁ > 0}).
* ``free_boundary_curves`` returns world-frame polylines of F(u) clipped to
  a window; closed components repeat their first vertex when unclipped.
* ``rescale(lam)`` returns the family member representing u_λ(x) = u(λx)/λ.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .common import Window, clip_polyline_to_window, write_json_atomic
from .conformal import (HHPStrip, ScherkStrip, SlitHalfPlane,
                        scherk_loop_implicit, scherk_loop_point)
from .errors import InvalidInputError, NoSaddleError

__all__ = [
    "RigidMotion",
    "Solution",
    "HalfPlane",
    "TwoPlane",
    "Wedge",
    "Hairpin",
    "DiskComplement",
    "Scherk",
    "OneSidedPlane",
    "KINDS",
    "FAMILIES",
    "solution_from_dict",
    "load_solution",
]

BOUNDARY_TOL = 1e-9


def _as_points(points):
    p = np.asarray(points, dtype=float)
    if p.shape[-1] != 2:
        raise InvalidInputError("points must have shape (..., 2)")
    return p


@dataclass(frozen=True)
class RigidMotion:
    """Rotation by `angle` followed by translation by `shift`:
    world = R_θ · body + t, so a solution evaluates as
    u(x) = u_body(R_{−θ}(x − t))."""

    angle: float = 0.0
    shift: tuple = (0.0, 0.0)

    def _rot(self, sign: float):
        c, s = np.cos(sign * self.angle), np.sin(sign * self.angle)
        return np.array([[c, -s], [s, c]])

    def to_body(self, points):
        p = _as_points(points) - np.asarray(self.shift, dtype=float)
        return p @ self._rot(-1.0).T

    def to_world(self, points):
        p = _as_points(points)
        return p @ self._rot(1.0).T + np.asarray(self.shift, dtype=float)

    def vector_to_world(self, vectors):
        """Push a body-frame vector field (gradient) to world frame."""
        return np.asarray(vectors, dtype=float) @ self._rot(1.0).T

    def is_identity(self) -> bool:
        return self.angle == 0.0 and tuple(self.shift) == (0.0, 0.0)

    def to_dict(self) -> dict:
        return {"angle": float(self.angle),
                "shift": [float(self.shift[0]), float(self.shift[1])]}

    @staticmethod
    def from_dict(d: dict) -> "RigidMotion":
        return RigidMotion(angle=float(d.get("angle", 0.0)),
                           shift=tuple(float(v) for v in d.get("shift", (0.0, 0.0))))


@dataclass
class Solution(ABC):
    """Common facade: world-frame evaluation, boundary extraction, scaling."""

    motion: RigidMotion = field(default_factory=RigidMotion, kw_only=True)

    kind = "abstract"
    #: False for a competitor that fails the free-boundary condition
    exact_solution = True
    #: 1-homogeneous about the origin, so the Weiss energy is scale-invariant
    #: there.  Not TwoPlane: its gap width is a fixed length scale.
    homogeneous = False

    # ---- body-frame hooks (family-specific) --------------------------------
    @abstractmethod
    def _u_body(self, p):
        ...

    @abstractmethod
    def _grad_body(self, p, boundary_limit: bool):
        ...

    @abstractmethod
    def _fb_dist_body(self, p):
        """Approximate signed-independent distance of body points to F(u)."""
        ...

    @abstractmethod
    def _positive_body(self, p):
        """Strict membership in the open positive phase (body frame)."""
        ...

    @abstractmethod
    def _fb_polylines_body(self, bbox, step: float):
        """Analytic boundary polylines covering the body-frame bbox."""
        ...

    @abstractmethod
    def _params(self) -> dict:
        ...

    @abstractmethod
    def _rescaled_params(self, lam: float) -> dict:
        ...

    # ---- public API -------------------------------------------------------
    def eval_u(self, points):
        p = self.motion.to_body(_as_points(points))
        return self._u_body(p)

    def eval_grad(self, points, boundary_limit: bool = False):
        p = self.motion.to_body(_as_points(points))
        g = self._grad_body(p, boundary_limit)
        near = self._fb_dist_body(p) <= BOUNDARY_TOL * (1.0 + np.abs(p).max(axis=-1))
        if not boundary_limit:
            g = np.where(near[..., None], 0.0, g)
        return self.motion.vector_to_world(g)

    def in_positive_phase(self, points):
        p = self.motion.to_body(_as_points(points))
        return self._positive_body(p)

    def fb_distance(self, points):
        """Distance to F(u): exact for the piecewise-linear families and
        the disk complement, a first-order estimate for the others."""
        return self._fb_dist_body(self.motion.to_body(_as_points(points)))

    def free_boundary_curves(self, window: Window, step: float | None = None):
        """World-frame free boundary polylines clipped to `window`."""
        if step is None:
            step = max(window.width, window.height) / 1000.0
        corners = np.array([[window.x0, window.y0], [window.x1, window.y0],
                            [window.x1, window.y1], [window.x0, window.y1]])
        bc = self.motion.to_body(corners)
        pad = 2.0 * step + 1e-9 * (1.0 + np.abs(bc).max())
        bbox = (bc[:, 0].min() - pad, bc[:, 1].min() - pad,
                bc[:, 0].max() + pad, bc[:, 1].max() + pad)
        pieces = []
        for poly in self._fb_polylines_body(bbox, step):
            world = self.motion.to_world(poly)
            world = self._orient_positive_left(world, step)
            closed = bool(np.allclose(world[0], world[-1], atol=1e-12))
            clipped = clip_polyline_to_window(world, window)
            if (closed and len(clipped) >= 2
                    and np.allclose(clipped[-1][-1], clipped[0][0], atol=1e-12)):
                clipped = ([np.vstack([clipped[-1], clipped[0][1:]])]
                           + clipped[1:-1])
            pieces.extend(clipped)
        return pieces

    def _orient_positive_left(self, poly, step):
        """Reverse the polyline if the positive phase is on its right."""
        mid = 0.5 * (poly[:-1] + poly[1:])
        tang = np.diff(poly, axis=0)
        norm = np.hypot(tang[:, 0], tang[:, 1])
        ok = norm > 0
        mid, tang = mid[ok], tang[ok] / norm[ok, None]
        eps = 0.1 * step * (1.0 + np.abs(mid).max())
        left = mid + eps * np.stack([-tang[:, 1], tang[:, 0]], axis=-1)
        right = mid - eps * np.stack([-tang[:, 1], tang[:, 0]], axis=-1)
        on_left = float(np.mean(self.in_positive_phase(left)))
        on_right = float(np.mean(self.in_positive_phase(right)))
        return poly[::-1] if on_right > on_left else poly

    def rescale(self, lam: float) -> "Solution":
        """The family member representing u_λ(x) = u(λx)/λ."""
        if not lam > 0:
            raise InvalidInputError("rescale requires λ > 0")
        params = self._rescaled_params(lam)
        shift = (self.motion.shift[0] / lam, self.motion.shift[1] / lam)
        return type(self)(**params,
                          motion=replace(self.motion, shift=shift))

    def saddle_value(self) -> float:
        raise NoSaddleError(f"{self.kind} has no saddle point")

    # ---- default windows of the CLI commands ------------------------------
    def boundary_window(self) -> tuple:
        """Default `boundary` window, wide enough to show the family's
        shape."""
        return (-2.0, -2.0, 2.0, 2.0)

    def verify_window(self) -> tuple:
        """Default `verify` window, sized so the free boundary passes through
        it; square, so any h = side/N divides both extents."""
        return (-2.0, -2.0, 2.0, 2.0)

    # ---- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        return {"family": self.kind, "params": self._params(),
                "motion": self.motion.to_dict()}

    def save(self, path) -> None:
        write_json_atomic(path, self.to_dict())

    def __repr__(self):
        ps = ", ".join(f"{k}={v:.6g}" for k, v in self._params().items())
        return f"{type(self).__name__}({ps})" if ps else f"{type(self).__name__}()"


# ---------------------------------------------------------------------------
# piecewise-linear families
# ---------------------------------------------------------------------------

def _vertical_line(x: float, bbox, step: float):
    y = np.arange(bbox[1], bbox[3] + step, step)
    out = np.empty((len(y), 2))
    out[:, 0] = x
    out[:, 1] = y
    return out


@dataclass
class HalfPlane(Solution):
    """u = x₁⁺; F = {x₁ = 0}; the blow-up model of any regular point."""

    kind = "half_plane"
    homogeneous = True

    def _u_body(self, p):
        return np.maximum(p[..., 0], 0.0)

    def _grad_body(self, p, boundary_limit):
        g = np.zeros_like(p)
        mask = (p[..., 0] >= 0.0) if boundary_limit else (p[..., 0] > 0.0)
        g[..., 0] = np.where(mask, 1.0, 0.0)
        return g

    def _fb_dist_body(self, p):
        return np.abs(p[..., 0])

    def _positive_body(self, p):
        return p[..., 0] > 0.0

    def _fb_polylines_body(self, bbox, step):
        return [_vertical_line(0.0, bbox, step)]

    def _params(self):
        return {}

    def _rescaled_params(self, lam):
        return {}


@dataclass
class OneSidedPlane(HalfPlane):
    """u = s·x₁⁺ — a valid competitor but an exact solution only at s = 1;
    its inner variation concentrates (s²−1)·length on {x₁ = 0}."""

    s: float = 1.0

    kind = "one_sided_plane"
    exact_solution = False

    def __post_init__(self):
        if not self.s > 0:
            raise InvalidInputError("OneSidedPlane requires s > 0")

    def _u_body(self, p):
        return self.s * super()._u_body(p)

    def _grad_body(self, p, boundary_limit):
        return self.s * super()._grad_body(p, boundary_limit)

    def _params(self):
        return {"s": float(self.s)}

    def _rescaled_params(self, lam):
        return {"s": self.s}


@dataclass
class TwoPlane(Solution):
    """u = x₁⁺ + (−x₁−a)⁺: two opposing fronts with a dead gap of width a."""

    a: float = 1.0

    kind = "two_plane"

    def __post_init__(self):
        if not self.a > 0:
            raise InvalidInputError("TwoPlane requires gap a > 0")

    def _u_body(self, p):
        x = p[..., 0]
        return np.maximum(x, 0.0) + np.maximum(-x - self.a, 0.0)

    def _grad_body(self, p, boundary_limit):
        x = p[..., 0]
        g = np.zeros_like(p)
        if boundary_limit:
            g[..., 0] = np.where(x >= 0.0, 1.0, np.where(x <= -self.a, -1.0, 0.0))
        else:
            g[..., 0] = np.where(x > 0.0, 1.0, np.where(x < -self.a, -1.0, 0.0))
        return g

    def _fb_dist_body(self, p):
        x = p[..., 0]
        return np.minimum(np.abs(x), np.abs(x + self.a))

    def _positive_body(self, p):
        x = p[..., 0]
        return (x > 0.0) | (x < -self.a)

    def _fb_polylines_body(self, bbox, step):
        return [_vertical_line(0.0, bbox, step),
                _vertical_line(-self.a, bbox, step)]

    def _params(self):
        return {"a": float(self.a)}

    def _rescaled_params(self, lam):
        return {"a": self.a / lam}


@dataclass
class Wedge(Solution):
    """u = s|x₁|: positive on both sides of F = {x₁ = 0}, slope s ∈ (0, 1]."""

    s: float = 0.5

    kind = "wedge"
    homogeneous = True

    def __post_init__(self):
        if not 0.0 < self.s <= 1.0:
            raise InvalidInputError("Wedge requires slope 0 < s ≤ 1")

    def _u_body(self, p):
        return self.s * np.abs(p[..., 0])

    def _grad_body(self, p, boundary_limit):
        x = p[..., 0]
        g = np.zeros_like(p)
        if boundary_limit:
            # two-sided boundary: report the limit from {x₁ > 0}
            g[..., 0] = np.where(x >= 0.0, self.s, -self.s)
        else:
            g[..., 0] = np.where(x > 0.0, self.s, np.where(x < 0.0, -self.s, 0.0))
        return g

    def _fb_dist_body(self, p):
        return np.abs(p[..., 0])

    def _positive_body(self, p):
        return p[..., 0] != 0.0

    def _fb_polylines_body(self, bbox, step):
        return [_vertical_line(0.0, bbox, step)]

    def _params(self):
        return {"s": float(self.s)}

    def _rescaled_params(self, lam):
        return {"s": self.s}


# ---------------------------------------------------------------------------
# hairpin
# ---------------------------------------------------------------------------

@dataclass
class Hairpin(Solution):
    """u = a·Re cosh φ⁻¹(z/a), φ(ζ) = ζ + sinh ζ, on
    Ω = {|x₂| < a(π/2 + cosh(x₁/a))}; F is the pair of catenaries
    x₂ = ±a(π/2 + cosh(x₁/a)); ∇u has |tanh((σ+iπ/4·(±2))/2)| = 1 there."""

    a: float = 1.0

    kind = "hairpin"

    def __post_init__(self):
        if not self.a > 0:
            raise InvalidInputError("Hairpin requires neck scale a > 0")
        self._chart = HHPStrip()

    def _bound(self, x1):
        t = np.clip(np.abs(x1) / self.a, 0.0, 700.0)
        return self.a * (np.pi / 2.0 + np.cosh(t))

    def _u_body(self, p):
        z = (p[..., 0] + 1j * p[..., 1]) / self.a
        inside = np.abs(p[..., 1]) <= self._bound(p[..., 0])
        u = np.zeros(p.shape[:-1])
        if np.any(inside):
            w = self._chart.inverse(z[inside])
            u[inside] = self.a * np.cosh(w).real
        return u

    def _grad_body(self, p, boundary_limit):
        bound = self._bound(p[..., 0])
        x2 = p[..., 1]
        if boundary_limit:
            # points on F up to rounding: clip vertically onto the catenary
            scale = 1.0 + np.abs(p).max(axis=-1)
            inside = np.abs(x2) <= bound + BOUNDARY_TOL * self.a * scale
            x2 = np.clip(x2, -bound, bound)
        else:
            inside = np.abs(x2) <= bound
        z = (p[..., 0] + 1j * x2) / self.a
        g = np.zeros_like(p)
        if np.any(inside):
            w = self._chart.inverse(z[inside])
            up = np.tanh(w / 2.0)
            g[..., 0][inside] = up.real
            g[..., 1][inside] = -up.imag
        return g

    def _fb_dist_body(self, p):
        # vertical gap to the catenary, shrunk by its slope factor
        gap = np.abs(np.abs(p[..., 1]) - self._bound(p[..., 0]))
        slope = np.abs(np.sinh(np.clip(p[..., 0] / self.a, -700.0, 700.0)))
        return gap / np.hypot(1.0, slope)

    def _positive_body(self, p):
        return np.abs(p[..., 1]) < self._bound(p[..., 0])

    def _fb_polylines_body(self, bbox, step):
        ymax = max(abs(bbox[1]), abs(bbox[3])) / self.a - np.pi / 2.0
        xlim = self.a * np.arccosh(max(ymax, 1.0)) + 2.0 * step
        xlim = min(xlim, max(abs(bbox[0]), abs(bbox[2])) + 2.0 * step)
        n = max(int(np.ceil(2.0 * xlim / step)), 8)
        x = np.linspace(-xlim, xlim, n + 1)
        upper = np.stack([x, self._bound(x)], axis=-1)
        lower = np.stack([x, -self._bound(x)], axis=-1)
        return [upper, lower]

    def saddle_value(self) -> float:
        """u at the neck point z = 0 (the saddle of the hairpin)."""
        return float(self.a)

    def boundary_window(self):
        a = self.a
        return (-4.0 * max(a, 1.0), -2.0 * (np.pi / 2 + np.cosh(2.0)) * a,
                4.0 * max(a, 1.0), 2.0 * (np.pi / 2 + np.cosh(2.0)) * a)

    def verify_window(self):
        L = 2.0 * self.a * (np.pi / 2 + 1.0)
        return (-L, -L, L, L)

    def _params(self):
        return {"a": float(self.a)}

    def _rescaled_params(self, lam):
        return {"a": self.a / lam}

    def slit_chart(self) -> SlitHalfPlane:
        """The closed-form description of the same phase on {x₁ > 0}."""
        return SlitHalfPlane(a=self.a)

    def eval_u_slit(self, points):
        """u through the slit chart: Re Φ_a⁻¹(z) on {x₁ ≥ 0} (zero phase → 0).

        Independent route used for cross-validation against ``eval_u``.
        """
        p = self.motion.to_body(_as_points(points))
        if np.any(p[..., 0] < -1e-12):
            raise InvalidInputError("eval_u_slit requires body-frame x₁ ≥ 0")
        z = p[..., 0] + 1j * p[..., 1]
        inside = np.abs(p[..., 1]) <= self._bound(p[..., 0])
        u = np.zeros(p.shape[:-1])
        if np.any(inside):
            zeta = self.slit_chart().inverse(z[inside])
            u[inside] = zeta.real
        return u


# ---------------------------------------------------------------------------
# disk complement
# ---------------------------------------------------------------------------

@dataclass
class DiskComplement(Solution):
    """u = R·log(|x|/R)⁺: the exterior logarithm, zero on the closed disk."""

    R: float = 1.0

    kind = "disk_complement"

    def __post_init__(self):
        if not self.R > 0:
            raise InvalidInputError("DiskComplement requires R > 0")

    def _u_body(self, p):
        r = np.hypot(p[..., 0], p[..., 1])
        out = np.zeros(p.shape[:-1])
        mask = r > self.R
        out[mask] = self.R * np.log(r[mask] / self.R)
        return out

    def _grad_body(self, p, boundary_limit):
        r = np.hypot(p[..., 0], p[..., 1])
        mask = (r >= self.R) if boundary_limit else (r > self.R)
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(mask, self.R / np.maximum(r, 1e-300) ** 2, 0.0)
        return scale[..., None] * p

    def _fb_dist_body(self, p):
        return np.abs(np.hypot(p[..., 0], p[..., 1]) - self.R)

    def _positive_body(self, p):
        return np.hypot(p[..., 0], p[..., 1]) > self.R

    def _fb_polylines_body(self, bbox, step):
        n = max(int(np.ceil(2.0 * np.pi * self.R / step)), 16)
        t = np.linspace(0.0, 2.0 * np.pi, n + 1)
        return [self.R * np.stack([np.cos(t), np.sin(t)], axis=-1)]

    def boundary_window(self):
        R = self.R
        return (-2.0 * R, -2.0 * R, 2.0 * R, 2.0 * R)

    def verify_window(self):
        L = 2.0 * self.R
        return (-L, -L, L, L)

    def _params(self):
        return {"R": float(self.R)}

    def _rescaled_params(self, lam):
        return {"R": self.R / lam}


# ---------------------------------------------------------------------------
# Scherk row of ovals
# ---------------------------------------------------------------------------

@dataclass
class Scherk(Solution):
    """u = a·S_s(x/a): 2πa-periodic row of oval voids along the x₂-axis.

    Model structure (a = 1): the zero phase is the union of closed ovals
    {(1−s²)cosh(x₁/(1−s²)) ≤ (1+s²)cos(x₂/(1+s²))} translated by (0, 2πk);
    S_s = Re Φ_s⁻¹ on the fundamental half-cell {x₁ ≥ 0, |x₂| ≤ π}, extended
    by evenness in x₁ and 2π-periodicity in x₂.  Saddles at (0, π + 2πk)
    with value 2s·log(1/s)."""

    s: float = 0.5
    a: float = 1.0

    kind = "scherk"

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise InvalidInputError("Scherk requires slope 0 < s < 1")
        if not self.a > 0:
            raise InvalidInputError("Scherk requires scale a > 0")
        self._chart = ScherkStrip(s=self.s)

    # -- model-cell folding: (x₁, x₂) → (|x₁|, x₂ mod 2π in [−π, π]) --------
    @staticmethod
    def _fold(q):
        x1 = np.abs(q[..., 0])
        x2 = q[..., 1] - 2.0 * np.pi * np.round(q[..., 1] / (2.0 * np.pi))
        x2 = np.clip(x2, -np.pi, np.pi)  # guard the seam against fp overshoot
        return np.stack([x1, x2], axis=-1), np.sign(q[..., 0])

    def _model_zero_phase(self, qf):
        return scherk_loop_implicit(self.s, qf) <= 0.0

    def _u_body(self, p):
        q = p / self.a
        qf, _ = self._fold(q)
        inside = ~self._model_zero_phase(qf)
        u = np.zeros(p.shape[:-1])
        if np.any(inside):
            z = qf[..., 0][inside] + 1j * qf[..., 1][inside]
            zeta = self._chart.inverse(z)
            u[inside] = self.a * zeta.real
        return u

    def _model_fb_project(self, qf):
        """One Newton projection step onto the oval {G = 0} (for points
        already within rounding of it)."""
        s = self.s
        G = scherk_loop_implicit(s, qf)
        d1 = np.sinh(np.clip(qf[..., 0] / (1.0 - s**2), -700.0, 700.0))
        d2 = np.sin(qf[..., 1] / (1.0 + s**2))
        n2 = np.maximum(d1**2 + d2**2, 1e-30)
        step = (G / n2)[..., None] * np.stack([d1, d2], axis=-1)
        out = qf - step
        out[..., 0] = np.abs(out[..., 0])
        return out

    def _grad_body(self, p, boundary_limit):
        q = p / self.a
        qf, sign1 = self._fold(q)
        G = scherk_loop_implicit(self.s, qf)
        inside = G > 0.0
        if boundary_limit:
            scale = 1.0 + np.abs(qf).max(axis=-1)
            near = ~inside & (self._fb_dist_body(p)
                              <= BOUNDARY_TOL * self.a * scale)
            if np.any(near):
                qf = np.where(near[..., None], self._model_fb_project(qf), qf)
                inside = inside | near
        g = np.zeros_like(p)
        if np.any(inside):
            z = qf[..., 0][inside] + 1j * qf[..., 1][inside]
            zeta = self._chart.inverse(z)
            fp = np.exp(-self._chart.phi(zeta))
            # unfold the x₁ reflection (sign 0 on the axis: keep +)
            sgn = np.where(sign1[inside] == 0.0, 1.0, sign1[inside])
            g[..., 0][inside] = sgn * fp.real
            g[..., 1][inside] = -fp.imag
        return g

    def _fb_dist_body(self, p):
        qf, _ = self._fold(p / self.a)
        G = scherk_loop_implicit(self.s, qf)
        dG1 = np.abs(np.sinh(np.clip(qf[..., 0] / (1.0 - self.s**2),
                                     -700.0, 700.0)))
        dG2 = np.abs(np.sin(qf[..., 1] / (1.0 + self.s**2)))
        return self.a * np.abs(G) / np.maximum(np.hypot(dG1, dG2), 1e-12)

    def _positive_body(self, p):
        qf, _ = self._fold(p / self.a)
        return scherk_loop_implicit(self.s, qf) > 0.0

    def _fb_polylines_body(self, bbox, step):
        period = 2.0 * np.pi * self.a
        k_lo = int(np.floor((bbox[1] - np.pi * self.a) / period))
        k_hi = int(np.ceil((bbox[3] + np.pi * self.a) / period))
        # arclength along the loop equals a·|Δũ| (|Φ_s′| = 1 on the axis)
        n = max(int(np.ceil(self._chart.l * self.a / step)), 32)
        ut = np.linspace(-0.5 * self._chart.l, 0.5 * self._chart.l, n + 1)
        right = self.a * scherk_loop_point(self.s, ut)
        left = right[::-1].copy()
        left[:, 0] *= -1.0
        loop = np.vstack([right, left[1:]])  # closed: ends repeat start
        out = []
        for k in range(k_lo, k_hi + 1):
            c = loop.copy()
            c[:, 1] += period * k
            if c[:, 1].max() < bbox[1] or c[:, 1].min() > bbox[3]:
                continue
            out.append(c)
        return out

    def saddle_value(self) -> float:
        """u at the saddles (0, a(π + 2πk)): 2as·log(1/s)."""
        return float(2.0 * self.a * self.s * np.log(1.0 / self.s))

    def chart(self) -> ScherkStrip:
        return self._chart

    def boundary_window(self):
        a = self.a
        return (-4.0 * a, -2.2 * np.pi * a, 4.0 * a, 2.2 * np.pi * a)

    def verify_window(self):
        L = 2.0 * np.pi * self.a
        return (-L, -L, L, L)

    def _params(self):
        return {"s": float(self.s), "a": float(self.a)}

    def _rescaled_params(self, lam):
        return {"s": self.s, "a": self.a / lam}


# ---------------------------------------------------------------------------
# registry and serialization
# ---------------------------------------------------------------------------

#: every serializable kind; `FAMILIES` keeps the exact solutions among them
KINDS = {cls.kind: cls for cls in (HalfPlane, TwoPlane, Wedge, Hairpin,
                                   DiskComplement, Scherk, OneSidedPlane)}
FAMILIES = {k: cls for k, cls in KINDS.items() if cls.exact_solution}


def solution_from_dict(d: dict) -> Solution:
    try:
        cls = KINDS[d["family"]]
    except KeyError as e:
        raise InvalidInputError(f"unknown family {d.get('family')!r}") from e
    params = {k: float(v) for k, v in d.get("params", {}).items()}
    motion = RigidMotion.from_dict(d.get("motion", {}))
    try:
        return cls(**params, motion=motion)
    except TypeError as e:
        raise InvalidInputError(f"bad parameters for {d['family']}: {e}") from e


def load_solution(path) -> Solution:
    return solution_from_dict(json.loads(Path(path).read_text()))
