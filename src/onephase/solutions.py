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
`KINDS` so it serializes like the families; its `exact_solution` is False.

Conventions
-----------
* Points are real arrays of shape (..., 2); values have shape (...).
* A point is on F(u) when its body-frame distance to F is at most
  ``BOUNDARY_TOL``·(1 + max|xᵢ|) (`Solution._on_fb`), for ``eval_grad`` and
  ``primitive`` alike.  ``eval_grad`` is the classical gradient in the open
  positive phase, 0 in the open zero phase, and on F(u) the limit of ∇u
  from the adjacent positive side (for the two-sided wedge, from {x₁ > 0}),
  the side the free-boundary condition is read from.
* ``eval_u`` and ``eval_grad`` at the same points share one chart solve.
* ``primitive`` is the closed-form F(z) with F′ = (2u_z)² on the closure of
  the positive phase, and ``component`` labels that phase's components; the
  wedge and the one-sided plane have no F.
* ``free_boundary_curves`` returns world-frame polylines of F(u) clipped to
  a window, built with the positive phase on their left; closed components
  repeat their first vertex when unclipped.
* A family's parameters are its dataclass fields but ``motion``
  (``param_names()``).  ``_length`` names the one that carries the length
  scale, or is None: the base class checks 0 < it < inf and ``rescale(lam)``,
  the member representing u_λ(x) = u(λx)/λ, divides it by λ.
* Evaluation points are not checked for finiteness: that would be one more
  pass over every array on the hot path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .common import (Window, as_number, clip_polyline_to_window,
                     finite_points, finite_positive)
from .conformal import (HHPStrip, ScherkStrip, scherk_loop_gradient,
                        scherk_loop_implicit, scherk_loop_point)
from .errors import DomainError, InvalidInputError, NoSaddleError

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
    "solution_from_dict",
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
    u(x) = u_body(R_{−θ}(x − t)).  The angle must be finite and the
    shift two finite numbers."""

    angle: float = 0.0
    shift: tuple = (0.0, 0.0)

    def __post_init__(self):
        if np.shape(self.shift) != (2,):
            raise InvalidInputError("RigidMotion requires a shift of two "
                                    f"finite numbers, got {self.shift!r}")
        angle = as_number("RigidMotion", "angle", self.angle)
        finite_points("RigidMotion", "angle", angle)
        finite_points("RigidMotion", "shift", self.shift)

    def _rotate(self, x, y, sign: float, out, spare=None):
        """out = R_{sign·θ}·(x, y) for coordinate arrays x and y, one
        coordinate at a time into the (..., 2) array `out`, so a point
        rounds alone as in a batch.  s·x goes into `spare`, a new array
        if None (y itself where the caller no longer needs it).

        Where both terms of the sum s·x + c·y are NaN, the result's NaN
        is the one numpy's own formula gives.  Its array sum keeps the
        first operand's, so the sum writes over its second: one written
        over its first takes the reduction loop on a batch of one, which
        keeps the second's.  For a lone point (0-d coordinates) the
        formula sums numpy scalars, which keep the second's, and so does
        this."""
        c, s = np.cos(sign * self.angle), np.sin(sign * self.angle)
        o0, o1 = out[..., 0], out[..., 1]
        np.multiply(c, x, out=o0)
        np.multiply(s, y, out=o1)
        o0 -= o1
        np.multiply(c, y, out=o1)
        sx = np.multiply(s, x, out=spare)
        if o1.ndim:
            np.add(sx, o1, out=o1)
        else:
            o1[()] = sx[()] + o1[()]
        return out

    def to_body(self, points):
        """R_{−θ}(x − t), a coordinate at a time: its only arrays are the
        two shifted coordinates and the result."""
        p = _as_points(points)
        x, y = np.empty(p.shape[:-1]), np.empty(p.shape[:-1])
        np.subtract(p[..., 0], float(self.shift[0]), out=x)
        np.subtract(p[..., 1], float(self.shift[1]), out=y)
        return self._rotate(x, y, -1.0, np.empty(p.shape), spare=y)

    def to_world(self, points):
        """R_θ·x + t, a coordinate at a time into the result."""
        p = _as_points(points)
        out = self._rotate(p[..., 0], p[..., 1], 1.0, np.empty(p.shape))
        out[..., 0] += float(self.shift[0])
        out[..., 1] += float(self.shift[1])
        return out

    def vector_to_world(self, vectors):
        """Push a body-frame vector field (gradient) to world frame: R_θ·v,
        a coordinate at a time into the result."""
        v = np.asarray(vectors, dtype=float)
        return self._rotate(v[..., 0], v[..., 1], 1.0, np.empty(v.shape))

    def is_identity(self) -> bool:
        return self.angle == 0.0 and tuple(self.shift) == (0.0, 0.0)

    def to_dict(self) -> dict:
        return {"angle": float(self.angle),
                "shift": [float(self.shift[0]), float(self.shift[1])]}

    @staticmethod
    def from_dict(d: dict) -> "RigidMotion":
        """The motion of a {"angle": θ, "shift": [t₁, t₂]} object; anything
        but an angle number and a sequence of shift numbers is an
        InvalidInputError (the constructor checks they are two, finite)."""
        if not isinstance(d, dict):
            raise InvalidInputError(f"motion must be an object, got {d!r}")
        angle, shift = d.get("angle", 0.0), d.get("shift", (0.0, 0.0))
        try:
            if isinstance(shift, (str, bytes)):
                raise TypeError
            angle, shift = float(angle), tuple(float(v) for v in shift)
        except (TypeError, ValueError, OverflowError):
            raise InvalidInputError(
                "motion needs a finite angle and a shift of two finite "
                f"numbers, got {d!r}") from None
        return RigidMotion(angle=angle, shift=shift)


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
    #: body-frame F(p, on) with F′ = (2u_z)², or None; `on` as in _grad_body
    _primitive_body = None
    #: the parameter a dilation divides (0 < it < inf); None if scale-free
    _length = None

    def __post_init__(self):
        if self._length is not None:
            finite_positive(type(self).__name__, self._length,
                            getattr(self, self._length))

    @classmethod
    def param_names(cls) -> tuple:
        """The family's parameters: its dataclass fields but the motion."""
        return tuple(f.name for f in fields(cls) if f.name != "motion")

    # ---- body-frame hooks (family-specific) --------------------------------
    @abstractmethod
    def _u_body(self, p):
        ...

    @abstractmethod
    def _grad_body(self, p, on):
        """∇u in the open positive phase, 0 in the open zero phase, and at the
        points `on` F (`_on_fb`) its limit from the adjacent positive side."""
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
        """Analytic polylines of F(u) covering the window's body-frame bbox
        (`_padded` where they cross it), positive phase on their left (either
        way where it is on both sides), as a rigid motion keeps it."""
        ...

    # ---- public API -------------------------------------------------------
    def eval_u(self, points):
        p = self.motion.to_body(_as_points(points))
        return self._u_body(p)

    def eval_grad(self, points):
        """∇u at world points; on F(u) (`_on_fb`) its limit from the adjacent
        positive side ({x₁ > 0} for the wedge)."""
        p = self.motion.to_body(_as_points(points))
        return self.motion.vector_to_world(self._grad_body(p, self._on_fb(p)))

    def _on_fb(self, p):
        """Body points on F(u): within BOUNDARY_TOL·(1 + max|xᵢ|) of it."""
        scale = np.maximum(np.abs(p[..., 0]), np.abs(p[..., 1]))
        return self._fb_dist_body(p) <= BOUNDARY_TOL * (1.0 + scale)

    def primitive(self, points):
        """F(z), z = x₁ + ix₂, with F′ = (2u_z)² on the closure of the
        positive phase; the motion z = e^{iθ}ζ + c gives F = e^{−iθ}F_body(ζ).
        Raises DomainError at a point of the open zero phase not on F
        (`_on_fb`), and InvalidInputError for a kind without a primitive."""
        if self._primitive_body is None:
            raise InvalidInputError(
                f"no Traizet primitive for family {type(self).__name__}")
        p = self.motion.to_body(_as_points(points))
        on = self._on_fb(p)
        if not np.all(self._positive_body(p) | on):
            raise DomainError("primitive: point in the open zero phase")
        F = self._primitive_body(p, on)
        angle = self.motion.angle
        return F * np.exp(-1j * angle) if angle else F

    def component(self, points):
        """Label of the positive-phase component holding each point."""
        return np.zeros(_as_points(points).shape[:-1], dtype=int)

    def in_positive_phase(self, points):
        p = self.motion.to_body(_as_points(points))
        return self._positive_body(p)

    def fb_distance(self, points):
        """Distance to F(u): exact for the piecewise-linear families and
        the disk complement, a first-order estimate for the others."""
        return self._fb_dist_body(self.motion.to_body(_as_points(points)))

    def free_boundary_curves(self, window: Window, step: float | None = None):
        """World-frame F(u) polylines in `window`, positive phase left."""
        if step is None:
            step = max(window.width, window.height) / 1000.0
        finite_positive("free_boundary_curves", "step", step)
        corners = np.array([[window.x0, window.y0], [window.x1, window.y0],
                            [window.x1, window.y1], [window.x0, window.y1]])
        bc = self.motion.to_body(corners)
        bbox = (*bc.min(axis=0), *bc.max(axis=0))
        pieces = []
        for poly in self._fb_polylines_body(bbox, step):
            world = self.motion.to_world(poly)
            closed = bool(np.allclose(world[0], world[-1], atol=1e-12))
            clipped = clip_polyline_to_window(world, window)
            if (closed and len(clipped) >= 2
                    and np.allclose(clipped[-1][-1], clipped[0][0], atol=1e-12)):
                clipped = ([np.vstack([clipped[-1], clipped[0][1:]])]
                           + clipped[1:-1])
            pieces.extend(clipped)
        return pieces

    def rescale(self, lam: float) -> "Solution":
        """The family member representing u_λ(x) = u(λx)/λ."""
        finite_positive("rescale", "λ", lam)
        length = ({} if self._length is None
                  else {self._length: getattr(self, self._length) / lam})
        shift = (self.motion.shift[0] / lam, self.motion.shift[1] / lam)
        return replace(self, **length,
                       motion=replace(self.motion, shift=shift))

    def saddle_value(self) -> float:
        raise NoSaddleError(f"{self.kind} has no saddle point")

    # ---- default windows of the CLI commands ------------------------------
    def boundary_window(self) -> tuple:
        """Default `boundary` window, wide enough to show the family's
        shape; the `verify` window unless the family widens it."""
        return self.verify_window()

    def verify_window(self) -> tuple:
        """Default `verify` window, sized so the free boundary passes through
        it; square, so any h = side/N divides both extents."""
        return (-2.0, -2.0, 2.0, 2.0)

    # ---- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        params = {k: float(getattr(self, k)) for k in self.param_names()}
        return {"family": self.kind, "params": params,
                "motion": self.motion.to_dict()}


# ---------------------------------------------------------------------------
# piecewise-linear families
# ---------------------------------------------------------------------------

def _padded(bbox, step: float):
    """bbox grown by 2·step and a rounding margin on every side."""
    pad = 2.0 * step + 1e-9 * (1.0 + max(abs(b) for b in bbox))
    return (bbox[0] - pad, bbox[1] - pad, bbox[2] + pad, bbox[3] + pad)


def _vertical_line(x: float, bbox, step: float):
    bbox = _padded(bbox, step)
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

    def _grad_body(self, p, on):
        g = np.zeros_like(p)
        g[..., 0] = np.where((p[..., 0] > 0.0) | on, 1.0, 0.0)
        return g

    def _fb_dist_body(self, p):
        return np.abs(p[..., 0])

    def _positive_body(self, p):
        return p[..., 0] > 0.0

    def _primitive_body(self, p, on):
        # (2u_z)² ≡ 1
        return p[..., 0] + 1j * p[..., 1]

    def _fb_polylines_body(self, bbox, step):
        return [_vertical_line(0.0, bbox, step)[::-1]]


@dataclass
class OneSidedPlane(HalfPlane):
    """u = s·x₁⁺ — a valid competitor but an exact solution only at s = 1;
    its inner variation concentrates (s²−1)·length on {x₁ = 0}."""

    s: float = 1.0

    kind = "one_sided_plane"
    exact_solution = False
    _primitive_body = None  # no solution: not the half-plane's z

    def __post_init__(self):
        finite_positive("OneSidedPlane", "s", self.s)

    def _u_body(self, p):
        return self.s * super()._u_body(p)

    def _grad_body(self, p, on):
        return self.s * super()._grad_body(p, on)


@dataclass
class TwoPlane(Solution):
    """u = x₁⁺ + (−x₁−a)⁺: two opposing fronts with a dead gap of width a."""

    a: float = 1.0

    kind = "two_plane"
    _length = "a"

    def _u_body(self, p):
        x = p[..., 0]
        return np.maximum(x, 0.0) + np.maximum(-x - self.a, 0.0)

    def _grad_body(self, p, on):
        # on F, the front nearer the point: its side of the gap's middle
        x = p[..., 0]
        g = np.zeros_like(p)
        right = x > -0.5 * self.a
        g[..., 0] = np.where((x > 0.0) | (on & right), 1.0,
                             np.where((x < -self.a) | on, -1.0, 0.0))
        return g

    def _fb_dist_body(self, p):
        x = p[..., 0]
        return np.minimum(np.abs(x), np.abs(x + self.a))

    def _positive_body(self, p):
        x = p[..., 0]
        return (x > 0.0) | (x < -self.a)

    # (2u_z)² ≡ 1 on both half-planes
    _primitive_body = HalfPlane._primitive_body

    def component(self, points):
        # the sign of body x₁, measured from the middle of the gap
        x = self.motion.to_body(_as_points(points))[..., 0]
        return np.where(x > -0.5 * self.a, 1, -1)

    def _fb_polylines_body(self, bbox, step):
        return [_vertical_line(0.0, bbox, step)[::-1],
                _vertical_line(-self.a, bbox, step)]


@dataclass
class Wedge(Solution):
    """u = s|x₁|: positive on both sides of F = {x₁ = 0}, slope s ∈ (0, 1]."""

    s: float = 0.5

    kind = "wedge"
    homogeneous = True

    def __post_init__(self):
        if not 0.0 < (s := as_number("Wedge", "s", self.s)) <= 1.0:
            raise InvalidInputError(f"Wedge requires 0 < s ≤ 1, got {s}")

    def _u_body(self, p):
        return self.s * np.abs(p[..., 0])

    def _grad_body(self, p, on):
        # two-sided boundary: on F, the limit from {x₁ > 0}
        x = p[..., 0]
        g = np.zeros_like(p)
        g[..., 0] = np.where((x > 0.0) | on, self.s,
                             np.where(x < 0.0, -self.s, 0.0))
        return g

    def _fb_dist_body(self, p):
        return np.abs(p[..., 0])

    def _positive_body(self, p):
        return p[..., 0] != 0.0

    def _fb_polylines_body(self, bbox, step):
        return [_vertical_line(0.0, bbox, step)]


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
    _length = "a"

    def __post_init__(self):
        super().__post_init__()
        self._chart = HHPStrip()

    def _bound(self, x1):
        t = np.clip(np.abs(x1) / self.a, 0.0, 700.0)
        return self.a * (np.pi / 2.0 + np.cosh(t))

    def _chart_targets(self, p, on):
        """(z, inside): z = (x₁ + ix₂)/a with x₂ clipped vertically onto the
        catenary, so the points `on` F outside the closed phase land on it,
        and the mask of the points in the closed phase or on F."""
        bound = self._bound(p[..., 0])
        z = (p[..., 0] + 1j * np.clip(p[..., 1], -bound, bound)) / self.a
        return z, (np.abs(p[..., 1]) <= bound) | on

    def _u_body(self, p):
        z, inside = self._chart_targets(p, False)
        u = np.zeros(p.shape[:-1])
        if np.any(inside):
            w = self._chart.inverse(z[inside])
            u[inside] = self.a * np.cosh(w).real
        return u

    def _grad_body(self, p, on):
        z, inside = self._chart_targets(p, on)
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

    def primitive_in_chart(self, w):
        """F at the chart point w = φ⁻¹(z/a): (2u_z)² dz = a(cosh w − 1) dw."""
        return self.a * (np.sinh(w) - w)

    def _primitive_body(self, p, on):
        return self.primitive_in_chart(
            self._chart.inverse(self._chart_targets(p, on)[0]))

    def _fb_polylines_body(self, bbox, step):
        def reach(b):  # the catenaries meet bbox b only for cosh(x₁/a) ≤ ymax
            return self.a * np.arccosh(max(
                max(abs(b[1]), abs(b[3])) / self.a - np.pi / 2.0, 1.0))
        # at least 16 chords across that x₁-extent, however wide the window
        xvis = reach(bbox)
        step = min(step, xvis / 8.0) if xvis > 0.0 else step
        # sample them a little past it, by at most a, so that no chord spans
        # more than a factor e·ymax in x₂ (a chord from a·cosh(700) to the
        # window would round its near end away when clipped)
        bbox = _padded(bbox, step)
        xlim = reach(bbox) + min(2.0 * step, self.a)
        xlim = min(xlim, max(abs(bbox[0]), abs(bbox[2])) + 2.0 * step)
        n = max(int(np.ceil(2.0 * xlim / step)), 8)
        x = np.linspace(-xlim, xlim, n + 1)
        upper = np.stack([x, self._bound(x)], axis=-1)
        lower = np.stack([x, -self._bound(x)], axis=-1)
        return [upper[::-1], lower]

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


# ---------------------------------------------------------------------------
# disk complement
# ---------------------------------------------------------------------------

@dataclass
class DiskComplement(Solution):
    """u = R·log(|x|/R)⁺: the exterior logarithm, zero on the closed disk."""

    R: float = 1.0

    kind = "disk_complement"
    _length = "R"

    def _u_body(self, p):
        r = np.hypot(p[..., 0], p[..., 1])
        out = np.zeros(p.shape[:-1])
        mask = r > self.R
        out[mask] = self.R * np.log(r[mask] / self.R)
        return out

    def _grad_body(self, p, on):
        r = np.hypot(p[..., 0], p[..., 1])
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where((r > self.R) | on,
                             self.R / np.maximum(r, 1e-300) ** 2, 0.0)
        return scale[..., None] * p

    def _fb_dist_body(self, p):
        return np.abs(np.hypot(p[..., 0], p[..., 1]) - self.R)

    def _positive_body(self, p):
        return np.hypot(p[..., 0], p[..., 1]) > self.R

    def _primitive_body(self, p, on):
        # (2u_z)² = R²/z² has no residue
        return -self.R * self.R / (p[..., 0] + 1j * p[..., 1])

    def _fb_polylines_body(self, bbox, step):
        n = max(int(np.ceil(2.0 * np.pi * self.R / step)), 16)
        t = np.linspace(0.0, 2.0 * np.pi, n + 1)
        return [self.R * np.stack([np.cos(t), np.sin(t)], axis=-1)[::-1]]

    def verify_window(self):
        L = 2.0 * self.R
        return (-L, -L, L, L)


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
    _length = "a"

    def __post_init__(self):
        if not 0.0 < (s := as_number("Scherk", "s", self.s)) < 1.0:
            raise InvalidInputError(f"Scherk requires 0 < s < 1, got {s}")
        super().__post_init__()
        self._chart = ScherkStrip(s=self.s)

    # -- model-cell folding: (x₁, x₂) → (|x₁|, x₂ mod 2π in [−π, π]) --------
    @staticmethod
    def _fold(q):
        x1 = np.abs(q[..., 0])
        x2 = q[..., 1] - 2.0 * np.pi * np.round(q[..., 1] / (2.0 * np.pi))
        x2 = np.clip(x2, -np.pi, np.pi)  # guard the seam against fp overshoot
        return np.stack([x1, x2], axis=-1), np.sign(q[..., 0])

    def _model_points(self, p, on):
        """(qf, sign1, inside): the folded model points of p, with those
        `on` F outside the open phase moved onto the loop by one Newton
        step, the sign of x₁, and the mask of the open phase or F."""
        qf, sign1 = self._fold(p / self.a)
        G = scherk_loop_implicit(self.s, qf)
        inside = G > 0.0
        near = on & ~inside
        if np.any(near):
            dG = scherk_loop_gradient(self.s, qf)
            n2 = np.maximum(dG[..., 0]**2 + dG[..., 1]**2, 1e-30)
            onto = qf - (G / n2)[..., None] * dG
            onto[..., 0] = np.abs(onto[..., 0])
            qf = np.where(near[..., None], onto, qf)
        return qf, sign1, inside | near

    def _chart_targets(self, p, on):
        """(z, inside, sign): z = x₁ + ix₂ of `_model_points` in the open
        phase or `on` F, that mask, and the sign of x₁ there (+ on the axis).
        Only these leave, so the folded points are freed before a solve."""
        qf, sign1, inside = self._model_points(p, on)
        sign = sign1[inside]
        return (qf[..., 0][inside] + 1j * qf[..., 1][inside], inside,
                np.where(sign == 0.0, 1.0, sign))

    def _u_body(self, p):
        z, inside, _ = self._chart_targets(p, False)
        u = np.zeros(p.shape[:-1])
        if z.size:
            u[inside] = self.a * self._chart.inverse(z).real
        return u

    def _grad_body(self, p, on):
        z, inside, sign = self._chart_targets(p, on)
        g = np.zeros_like(p)
        if z.size:
            fp = self._chart.dual_derivative(self._chart.inverse(z))
            g[..., 0][inside] = sign * fp.real  # unfold the x₁ reflection
            g[..., 1][inside] = -fp.imag
        return g

    def _fb_dist_body(self, p):
        qf, _ = self._fold(p / self.a)
        G = scherk_loop_implicit(self.s, qf)
        dG = scherk_loop_gradient(self.s, qf)
        return (self.a * np.abs(G)
                / np.maximum(np.hypot(dG[..., 0], dG[..., 1]), 1e-12))

    def _positive_body(self, p):
        qf, _ = self._fold(p / self.a)
        return scherk_loop_implicit(self.s, qf) > 0.0

    def primitive_in_chart(self, zeta, right):
        """F in the central cell at the chart point ζ of a folded point, on
        x₁ ≥ 0 where `right`: (2u_z)² dz = a·e^{−φ_s} dζ has the primitive
        a·Ψ_s(ζ), and F(z) = −conj F(−z̄) on x₁ < 0 (Re Ψ_s(±il/2) = 0)."""
        psi = self.a * self._chart.dual_primitive(zeta)
        return np.where(right, psi, -np.conj(psi))

    def _primitive_body(self, p, on):
        qf, sign1, _ = self._model_points(p, on)
        chart = self._chart
        zeta = chart.inverse(qf[..., 0] + 1j * qf[..., 1])
        # cell k = round(x₂/2πa) adds k seam jumps 2i·a·Im Ψ_s(ζ*), as Im F
        # is constant along the seam
        jump = 2j * self.a * chart.dual_primitive(chart.zeta_c).imag
        k = np.round(p[..., 1] / self.a / (2.0 * np.pi))
        return self.primitive_in_chart(zeta, sign1 >= 0.0) + k * jump

    def _fb_polylines_body(self, bbox, step):
        # only the loops whose x₂ extent meets the bbox's, up to the motion's
        # rounding: no chord of the others leaves their hull for the window
        m = self.motion
        tol = 1e-9 * (1.0 + max(map(abs, bbox[1::2])) + np.hypot(*m.shift)
                      + abs(np.sin(m.angle)) * max(map(abs, bbox[::2])))
        y0, y1 = bbox[1] - tol, bbox[3] + tol
        period = 2.0 * np.pi * self.a
        k_lo = int(np.floor((y0 - np.pi * self.a) / period))
        k_hi = int(np.ceil((y1 + np.pi * self.a) / period))
        # arclength along the loop equals a·|Δũ| (|Φ_s′| = 1 on the axis)
        n = max(int(np.ceil(self._chart.l * self.a / step)), 32)
        ut = np.linspace(-0.5 * self._chart.l, 0.5 * self._chart.l, n + 1)
        right = self.a * scherk_loop_point(self.s, ut)
        left = right[::-1].copy()
        left[:, 0] *= -1.0
        loop = np.vstack([right, left[1:]])[::-1]  # closed, clockwise
        out = []
        for k in range(k_lo, k_hi + 1):
            c = loop.copy()
            c[:, 1] += period * k
            if c[:, 1].max() < y0 or c[:, 1].min() > y1:
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


# ---------------------------------------------------------------------------
# registry and serialization
# ---------------------------------------------------------------------------

#: every serializable kind; `exact_solution` marks the exact solutions
KINDS = {cls.kind: cls for cls in (HalfPlane, TwoPlane, Wedge, Hairpin,
                                   DiskComplement, Scherk, OneSidedPlane)}


def solution_from_dict(d: dict) -> Solution:
    """The solution a {"family", "params", "motion"} descriptor names; a
    malformed descriptor is an InvalidInputError."""
    if not isinstance(d, dict):
        raise InvalidInputError(f"a solution must be an object, got {d!r}")
    try:
        cls = KINDS[d["family"]]
    except (KeyError, TypeError) as e:  # TypeError: an unhashable family
        raise InvalidInputError(f"unknown family {d.get('family')!r}") from e
    params = d.get("params", {})
    try:
        if not isinstance(params, dict):
            raise TypeError
        params = {k: float(v) for k, v in params.items()}
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(
            f"params of {d['family']} must map names to numbers, "
            f"got {params!r}") from None
    motion = RigidMotion.from_dict(d.get("motion", {}))
    try:
        return cls(**params, motion=motion)
    except TypeError as e:
        raise InvalidInputError(f"bad parameters for {d['family']}: {e}") from e
