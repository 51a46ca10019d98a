"""Helpers that only the tests call: one member of each family, a solution
sampled on a window's grid, a count of the points a solution is handed,
the Scherk chart's upper strip boundary line, the Menger curvature of a
polyline, the traced memory peak of a call, and a `TestVectorField`'s ψ
and Dψ."""

import tracemalloc

import numpy as np

from onephase.errors import DomainError, InvalidInputError
from onephase.geometry import PolyCurve
from onephase.solutions import (DiskComplement, Hairpin, HalfPlane,
                                OneSidedPlane, RigidMotion, Scherk, TwoPlane,
                                Wedge)
from onephase.variational import ScalarField2D, _bump

#: one member of each family, two of them moved
FAMILY_MEMBERS = [
    HalfPlane(), TwoPlane(0.5, motion=RigidMotion(0.3, (0.1, 0.0))),
    Wedge(0.7), Hairpin(0.5), DiskComplement(0.6, motion=RigidMotion(
        0.0, (0.2, -0.1))), Scherk(0.5, 0.3), OneSidedPlane(0.5)]


def field_from_solution(sol, window, h):
    """`sol.eval_u` at the nodes of `window`'s grid of step h."""
    xs, ys = window.grid(h)
    X, Y = np.meshgrid(xs, ys)
    vals = sol.eval_u(np.stack([X, Y], axis=-1))
    return ScalarField2D(window=window, h=h, values=vals)


def count_points(monkeypatch, sol, name):
    """The list of point counts of every later `sol.<name>` call."""
    f, sizes = getattr(sol, name), []
    monkeypatch.setattr(sol, name, lambda p, *args: sizes.append(
        int(np.prod(np.shape(p)[:-1]))) or f(p, *args))
    return sizes


def upper_line_x2(chart, u):
    """x₂-coordinate Im Φ_s(u + il/2) of the image of the upper strip
    boundary of a `ScherkStrip`, 0 ≤ u ≤ b, through the corner chart
    τ = √(b − u), which stays exact up to the saddle."""
    if not 0.0 <= u <= chart.b:
        raise DomainError("upper_line_x2: u must lie in [0, b]")
    tau = np.array(np.sqrt(chart.b - u) + 0j)
    return float(chart._corner_fdf(tau)[0].imag)


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


def traced_peak(fn, warm=None) -> int:
    """The tracemalloc peak, in bytes, of one call fn(), after an untraced
    call warm() that takes one-time costs (imports, caches) out of it."""
    if warm is not None:
        warm()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def vector_field_func(psi, p):
    """ψ of the bump field `psi` (a `TestVectorField`) at points (..., 2)."""
    d, rho, eta, eta_p = _bump(p, psi.center, psi.r0, psi.r1)
    e = psi.direction
    return eta[..., None] * (d if e is None else np.asarray(e))


def vector_field_jac(psi, p):
    """Dψ of the bump field `psi` at points (..., 2), row i the gradient
    of ψᵢ: the reference of the residual's closed forms."""
    d, rho, eta, eta_p = _bump(p, psi.center, psi.r0, psi.r1)
    qd = (eta_p / np.maximum(rho, 1e-300))[..., None] * d
    if psi.direction is None:
        return (eta[..., None, None] * np.eye(2)
                + qd[..., :, None] * d[..., None, :])
    return np.asarray(psi.direction)[:, None] * qd[..., None, :]
