"""Branch-correct conformal charts and their Newton inversions.

Two model charts, each biholomorphic from a simple model domain onto (half
of) the positive phase of an exact solution family:

* ``HHPStrip`` — φ(ζ) = ζ + sinh ζ on the strip S = {|Im ζ| < π/2}, onto the
  hairpin phase Ω₁ = {|x₂| < π/2 + cosh x₁}.  Height H(z) = Re cosh(φ⁻¹(z)).

* ``ScherkStrip(s)`` — Φ_s(ζ) = ∫ e^{φ_s(η)} dη on the half-strip
  S_l = {Re ζ > 0, |Im ζ| < l/2}, l = 2πs, where

      φ_s(ζ) = −½ log(e^{2π(ζ−b)/l} + 1) + ½ log(e^{−2π(ζ+b)/l} + 1) + πζ/l,

  b = 2s·log(1/s) (so e^{πb/l} = 1/s).  With e = e^{−ζ/s} and
  r = e^{−φ_s} = √((e+s²)/(1+s²e)) both Φ_s and the dual primitive
  Ψ_s = ∫ e^{−φ_s} dζ are elementary in (ζ, e, r), with Φ_s′ = 1/r and
  Ψ_s′ = r; the constants make Re Φ_s and Re Ψ_s vanish at ζ = ± il/2.
  Height S_s(z) = Re Φ_s⁻¹(z) on the image half-cell
  D_s ⊂ {x₁ > 0, |x₂| < π}.  The logs of Φ_s and Ψ_s are evaluated as
  log|·| + i·arg(·) in real arithmetic, since numpy's complex log runs
  one point at a time.

Every inversion goes through one driver, `_solve`: a vectorized damped
Newton run from the chart's closed-form start, read off the map's local or
far-field expansion; a point that misses the tolerance raises
`ConvergenceError`.  Before any solve, an inverse raises `DomainError` if a
target lies off the closure of the chart's image (Ω₁, or D_s) by more than
1e-9·(1 + |z|).  Each chart hands the driver one callable that returns the
map and its derivative from one evaluation, so a Newton iterate costs one
evaluation of the chart.
The driver runs on blocks of consecutive targets (`_blocks`: 4096 to 8191
of them, or the whole call below 4096), and the Scherk maps evaluate the
same blocks, so a call's temporaries stay those of one block however many
points it has.  A point's arithmetic does not depend on the other points
of its block, so the results are bit-identical to one run over all points.
`HHPStrip.inverse` and `ScherkStrip.inverse` keep a one-entry memo of their
last solve, keyed on the shape and bits of the whole call's targets (−0.0 is
not 0.0), so a family's u and ∇u at the same points share one solve.
φ′ = 1 + cosh has positive real part on the closed strip, and the
Scherk derivative is nonvanishing in the model interior, so the
iterations are well posed.
No chart integrates numerically, and no chart evaluates φ_s: the tests
integrate `ScherkStrip.integrand` with `quad` to check the closed forms.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .common import as_number
from .errors import ConvergenceError, DomainError, InvalidInputError

__all__ = [
    "HHPStrip",
    "ScherkStrip",
    "scherk_loop_point",
    "scherk_loop_implicit",
    "scherk_loop_gradient",
    "scherk_loop_x2_extent",
]

_HALF_PI = np.pi / 2.0

#: Newton residual tolerance |f(ζ) − target| ≤ tol·max(1, |target|), the
#: iteration cap, and the step halvings per damped update
_NEWTON_TOL = 1e-12
_MAX_ITER = 60
_MAX_HALVINGS = 10
#: the fewest points per Newton run and per blocked Scherk map evaluation
_BLOCK = 4096


def _as_complex(z):
    return np.asarray(z, dtype=complex)


def _blocks(n):
    """⌊n/_BLOCK⌋ slices (one at least) of near-equal runs of consecutive
    points, each of _BLOCK to 2·_BLOCK − 1 points unless n < _BLOCK.  A call
    just above _BLOCK points takes one run, not a second for its remainder:
    a Newton run costs a fixed time per iterate, whatever its size."""
    k = max(1, n // _BLOCK)
    return [slice(i * n // k, (i + 1) * n // k) for i in range(k)]


# ----------------------------------------------------------------------
# shared Newton driver
# ----------------------------------------------------------------------

def _damped_newton(targets, z0, fdf, project):
    """Vectorized damped Newton for f(ζ) = target.

    targets, z0: flat complex arrays of one length.  `fdf(ζ)` returns
    (f(ζ), f′(ζ)) from one evaluation, and `project` folds iterates back
    into the model domain.  Returns (zeta, converged_mask).
    Each iterate costs one `fdf` call: the step at an iterate uses the f′
    of the call that gave its residual, kept only at the points still
    above the tolerance.  Steps are taken only there, and each step halving
    only at the points whose residual grew; a point's arithmetic does not
    depend on which others are still active.
    """
    target = _as_complex(targets)
    zeta = project(_as_complex(z0).copy())
    res, fp = fdf(zeta)
    res -= target
    tol = _NEWTON_TOL * np.maximum(1.0, np.abs(target))
    active = np.flatnonzero(np.abs(res) > tol)
    fp = fp[active]
    for _ in range(_MAX_ITER):
        if active.size == 0:
            break
        with np.errstate(all="ignore"):
            step = -res[active] / fp
        step = np.where(np.isfinite(step), step, 0.0)
        res_abs = np.abs(res[active])
        # damped update: halve the step until the residual does not grow;
        # zeta and res change only after it
        factor = np.ones(active.size)
        cand = np.empty_like(step)
        cand_res = np.empty_like(step)
        todo = np.arange(active.size)
        for _h in range(_MAX_HALVINGS):
            at = active[todo]
            c = project(zeta[at] + factor[todo] * step[todo])
            cand[todo] = c
            f_c, fp[todo] = fdf(c)
            cand_res[todo] = f_c - target[at]
            worse = np.abs(cand_res[todo]) > res_abs[todo]
            if not np.any(worse):
                break
            todo = todo[worse]
            factor[todo] *= 0.5
        zeta[active] = cand
        res[active] = cand_res
        keep = np.abs(cand_res) > tol[active]
        active, fp = active[keep], fp[keep]
    return zeta, np.abs(res) <= tol


def _remembered(chart, z, solve):
    """solve(z), or a copy of the ζ of `chart`'s last solve if z has its
    shape and bits.  One entry per chart; a solve that raises leaves none."""
    key = (z.shape, z.tobytes())
    if chart._last is not None and chart._last[0] == key:
        return chart._last[1].copy()
    chart._last = None
    zeta = solve(z)
    chart._last = (key, zeta.copy())
    return zeta


def _solve(targets, start, fdf, project, what):
    """ζ with f(ζ) = target for a flat complex array of targets, where
    `fdf(ζ)` gives (f(ζ), f′(ζ)).

    One damped Newton run from the chart's closed-form `start(targets)` on
    each of the `_blocks` of the targets, so the temporaries of a solve do
    not grow with the call.  A point's iterates do not depend on the other
    points of its run, so ζ is bit-identical to one run over all targets.
    The charts' memo sits above this and keys on the whole call.  Every
    block is solved; then ConvergenceError, with the last iterates of all
    targets, if any point missed the tolerance.
    """
    targets = _as_complex(targets)
    zeta = np.empty_like(targets)
    conv = np.empty(targets.shape, dtype=bool)
    for b in _blocks(targets.size):
        zeta[b], conv[b] = _damped_newton(targets[b], start(targets[b]), fdf,
                                          project)
    if not np.all(conv):
        raise ConvergenceError(
            f"{what}: {int(np.sum(~conv))} point(s) failed to converge",
            last_iterate=zeta)
    return zeta


# ----------------------------------------------------------------------
# HHP strip chart: φ(ζ) = ζ + sinh ζ
# ----------------------------------------------------------------------

class HHPStrip:
    """φ(ζ) = ζ + sinh ζ on S = {|Im ζ| < π/2} onto Ω₁."""

    _last = None  # (targets key, ζ) of the last solve, set per instance

    @staticmethod
    def forward(zeta):
        zeta = _as_complex(zeta)
        if np.any(np.abs(zeta.imag) > _HALF_PI + 1e-12):
            raise DomainError("hhp_forward: ζ outside the closed strip |Im ζ| ≤ π/2")
        return zeta + np.sinh(zeta)

    @staticmethod
    def derivative(zeta):
        return 1.0 + np.cosh(_as_complex(zeta))

    @staticmethod
    def _fdf(w):
        """(φ, φ′) at Newton iterates w."""
        return w + np.sinh(w), 1.0 + np.cosh(w)

    def inverse(self, z):
        """φ⁻¹(z) for z in the closure of Ω₁ (vectorized); a repeat of the
        last targets' shape and bits returns a copy of their ζ."""
        return _remembered(self, _as_complex(z), self._inverse)

    def _inverse(self, z):
        # z in the closure of Ω₁, up to 1e-9·(1 + |z|)
        x = np.clip(np.abs(z.real), 0.0, 700.0)
        if not np.all(np.abs(z.imag)
                      <= _HALF_PI + np.cosh(x) + 1e-9 * (1.0 + np.abs(z))):
            raise DomainError("hhp_inverse: z outside the hairpin phase closure")
        # z/2 near the neck, where φ(ζ) ≈ 2ζ, and arcsinh z far out; both
        # lie in the strip
        start = lambda t: np.where(np.abs(t) <= 2.5, t / 2.0, np.arcsinh(t))
        return _solve(z.ravel(), start, self._fdf, self._project,
                      "hhp_inverse").reshape(z.shape)

    @staticmethod
    def _project(w):
        """Clip Newton iterates into the closed strip (in place)."""
        w.imag = np.clip(w.imag, -_HALF_PI, _HALF_PI)
        return w


# ----------------------------------------------------------------------
# Scherk strip chart
# ----------------------------------------------------------------------

def _log1p_exp(w):
    """Principal log(1 + e^w), overflow-safe, branch-correct for |Im w| < π."""
    w = _as_complex(w)
    out = np.empty_like(w)
    big = w.real > 0.0
    # Re w > 0: log(1+e^w) = w + log(1+e^{−w})
    out[big] = w[big] + np.log(1.0 + np.exp(-w[big]))
    out[~big] = np.log(1.0 + np.exp(w[~big]))
    return out


def _log_ratio(x, y):
    """(Re, Im) of log((1 − w)/(1 + w)) = −2·artanh(w) at w = x + iy with
    |w| < 1, in real arithmetic."""
    y2 = y * y
    return (0.5 * np.log(((1.0 - x) ** 2 + y2) / ((1.0 + x) ** 2 + y2)),
            -np.arctan2(2.0 * y, 1.0 - x * x - y2))


@dataclass
class ScherkStrip:
    """Φ_s on S_l = {Re ζ > 0, |Im ζ| < l/2} with l = 2πs, b = 2s log(1/s)."""

    s: float = 0.5

    def __post_init__(self):
        if not 0.0 < (s := as_number("ScherkStrip", "s", self.s)) < 1.0:
            raise InvalidInputError(f"ScherkStrip requires 0 < s < 1, got {s}")
        self.l = 2.0 * np.pi * s
        self.b = 2.0 * s * np.log(1.0 / s)
        # Φ_s(ζ) = ζ/s + c_inf + O(e^{−Re ζ/s})
        self.c_inf = (s * s * np.log((1.0 - s * s) / (1.0 + s * s))
                      + 2.0 * np.log(2.0 * s) - np.log1p(-s**4))
        # upper corner ζ* (preimage of the saddle iπ) and dΦ/dτ there
        self.zeta_c = self.b + 0.5j * self.l
        self._B = -2j * np.sqrt((1.0 - s**4) / s)
        self._last = None

    # -- φ_s and the integrand (the quadrature oracle of the closed forms) --
    def phi(self, zeta):
        zeta = _as_complex(zeta)
        l, b = self.l, self.b
        t1 = -0.5 * _log1p_exp(2.0 * np.pi * (zeta - b) / l)
        t2 = 0.5 * _log1p_exp(-2.0 * np.pi * (zeta + b) / l)
        return t1 + t2 + np.pi * zeta / l

    def integrand(self, zeta):
        return np.exp(self.phi(zeta))

    # -- closed forms ------------------------------------------------------
    def _from_r(self, zeta_s, e, r, dual=False):
        """Φ_s, or Ψ_s if `dual`, from ζ/s, e = e^{−ζ/s} and r = e^{−φ_s(ζ)}.

        Φ_s = s²L + R and Ψ_s = L + s²R, with L = log((1−sr)/(1+sr)) and
        R = 2·log(s+r) + ζ/s + log(1+s²e) − log(1−s⁴).  Each log is taken
        as log|·| + i·arg(·) in real arithmetic: numpy runs the complex log
        and log1p one point at a time, at tens of times the cost of a real
        log or arctan2.
        """
        s = self.s
        s2 = s * s
        # R, accumulated in place in the parts of the result
        out = np.empty(np.shape(r), dtype=complex)
        re, im = out.real, out.imag
        a = s + r.real
        np.log(a * a + r.imag ** 2, out=re)
        np.arctan2(r.imag, a, out=im)
        im *= 2.0
        re += zeta_s.real
        im += zeta_s.imag
        # log(1 + s²e) = ½·log(d² + t²) + i·arg(d + it); a log1p of
        # 2s²·Re e + s⁴|e|² loses ~100 ulp near the corners, where the
        # argument nears 1 − s⁴
        d = 1.0 + s2 * e.real
        t = s2 * e.imag
        re += 0.5 * np.log(d * d + t * t)
        im += np.arctan2(t, d)
        re -= np.log1p(-s2 * s2)
        del a, d, t  # before L's temporaries, which set a solve's peak memory
        lg_re, lg_im = _log_ratio(s * r.real, s * r.imag)
        if dual:  # Ψ_s = s²R + L
            re *= s2
            im *= s2
        else:     # Φ_s = R + s²L
            lg_re *= s2
            lg_im *= s2
        re += lg_re
        im += lg_im
        return out

    def _values(self, zeta):
        """(ζ/s, e, r, low) on the flattened ζ in the closed strip, folded
        into the upper half: e = e^{−ζ/s} and r = √((e + s²)/(1 + s²e)) =
        e^{−φ_s} are taken at ζ̄ where `low` (Im ζ < 0), and the values at ζ
        follow by Φ_s(ζ̄) = conj Φ_s(ζ).  On the upper half strip Im r ≤ 0,
        and on the cut {Im ζ = l/2, Re ζ < b} r takes its limit from
        inside.  Within l/10 of the corner, where e + s² cancels, e and r
        come from the corner chart instead.
        """
        zf = _as_complex(zeta).ravel()
        low = zf.imag < 0.0
        zu = np.where(low, np.conj(zf), zf)
        s2 = self.s * self.s
        zeta_s = zu / self.s
        e = np.exp(-zeta_s)
        w = (e + s2) / (1.0 + s2 * e)
        r = np.conj(np.sqrt(w.real + 1j * np.abs(w.imag)))
        near = np.abs(zu - self.zeta_c) < 0.1 * self.l
        if np.any(near):
            d = self.zeta_c - zu[near]
            zeta_s[near], e[near], r[near], _ = self._corner_values(
                np.sqrt(d.real + 1j * np.abs(d.imag)))
        return zeta_s, e, r, low

    @staticmethod
    def _unfold(v, low):
        return np.where(low, np.conj(v), v)

    def _bulk_fdf(self, zeta):
        """(Φ_s, Φ_s′ = 1/r) at the flat array of Newton iterates ζ, from
        one `_values` call."""
        zeta_s, e, r, low = self._values(zeta)
        return (self._unfold(self._from_r(zeta_s, e, r), low),
                self._unfold(1.0 / r, low))

    def _blocked(self, zeta, value):
        """value(ζ/s, e, r) at the flattened ζ, one of its `_blocks` at a
        time, unfolded from the upper half and shaped as ζ."""
        zf = _as_complex(zeta).ravel()
        out = np.empty_like(zf)
        for b in _blocks(zf.size):
            zeta_s, e, r, low = self._values(zf[b])
            out[b] = self._unfold(value(zeta_s, e, r), low)
        return out.reshape(np.shape(zeta))

    def derivative(self, zeta):
        """Φ_s′ = e^{φ_s} = 1/r."""
        return self._blocked(zeta, lambda zeta_s, e, r: 1.0 / r)

    def dual_derivative(self, zeta):
        """Ψ_s′ = e^{−φ_s} = r."""
        return self._blocked(zeta, lambda zeta_s, e, r: r)

    def forward(self, zeta):
        """Φ_s(ζ) = s²·log((1−sr)/(1+sr)) + 2·log(s+r) + ζ/s + log(1+s²e)
        − log(1−s⁴), with e = e^{−ζ/s} and r = √((e+s²)/(1+s²e)); regular
        right up to the saddle corners."""
        zeta = _as_complex(zeta)
        if np.any(zeta.real < -1e-12):
            raise DomainError("scherk_forward: Re ζ must be ≥ 0")
        return self._blocked(zeta, self._from_r)

    def dual_primitive(self, zeta):
        """Ψ_s(ζ) = ∫ e^{−φ_s} dζ = log((1−sr)/(1+sr)) + s²·[2·log(s+r) + ζ/s
        + log(1+s²e) − log(1−s⁴)], normalized by Re Ψ_s(±il/2) = 0."""
        return self._blocked(
            zeta, lambda zeta_s, e, r: self._from_r(zeta_s, e, r, dual=True))

    # -- corner chart (saddle neighborhood) --------------------------------
    #
    # Near the corner ζ* = b + il/2 the map has a square-root branch:
    # Φ_s(ζ* − τ²) = iπ + B·τ·(1 + O(τ²)) with B = −2i·√((1−s⁴)/s).  In τ
    # everything is exact: e = −s²·e^x with x = τ²/s, so e + s² =
    # −s²·expm1(x) and r = −iτ·√(s·h(x)/(1 − s⁴e^x)) with h(x) = expm1(x)/x,
    # analytic and nonzero for |x| < 2π.
    def _corner_values(self, tau):
        """(ζ/s, e, r, q) at ζ = ζ* − τ², where r = −iτq."""
        x = tau * tau / self.s
        # h = 1 + x/2 + … is 1 below 1e-300, where numpy's complex division
        # by a subnormal x would overflow
        nz = np.abs(x) > 1e-300
        h = np.where(nz, np.expm1(x) / np.where(nz, x, 1.0), 1.0)
        ex = np.exp(x)
        q = np.sqrt(self.s * h / (1.0 - self.s**4 * ex))
        return self.zeta_c / self.s - x, -self.s**2 * ex, -1j * tau * q, q

    def _corner_fdf(self, tau):
        """(G, G′) at τ for G(τ) = Φ_s(ζ* − τ²): G′ = −2τ·Φ_s′ = −2i/q."""
        zeta_s, e, r, q = self._corner_values(tau)
        return self._from_r(zeta_s, e, r), -2j / q

    @property
    def corner_zone_radius(self) -> float:
        """Image radius around the saddle iπ handled by the τ-chart."""
        return 0.5 * abs(self._B) * np.sqrt(self.l / 8.0)

    def _project_corner(self, t):
        """Fold τ iterates into the closed first quadrant and cap |τ|."""
        # |τ|² ≤ 0.81·l keeps |x| < 2π, where h has no zero
        cap = 0.9 * np.sqrt(self.l)
        t = np.where(t.real < 0.0, -t, t)          # τ and −τ are the same ζ
        t = np.where(t.imag < 0.0, np.conj(t), t)  # mirror into the strip
        r = np.abs(t)
        return np.where(r > cap, t * (cap / np.maximum(r, 1e-300)), t)

    def _inverse_corner(self, z):
        """Invert targets near a saddle ±iπ via the τ = √(ζ*−ζ) chart of the
        upper one; the lower by conjugation symmetry, Φ_s(ζ̄) = conj Φ_s(ζ)."""
        low = z.imag < 0.0

        def to_zeta(tau):
            zeta = self.zeta_c - tau**2
            return np.where(low, np.conj(zeta), zeta)

        try:
            tau = _solve(np.where(low, np.conj(z), z),
                         lambda t: (t - 1j * np.pi) / self._B,
                         self._corner_fdf, self._project_corner,
                         "scherk_inverse (corner)")
        except ConvergenceError as e:
            e.last_iterate = to_zeta(e.last_iterate)
            raise
        return to_zeta(tau)

    def _inverse_bulk(self, z):
        return _solve(z, self._bulk_start, self._bulk_fdf, self._project_bulk,
                      "scherk_inverse")

    # -- inverse -----------------------------------------------------------
    def inverse(self, z):
        """Φ_s⁻¹(z) for z in the closure of the image half-cell D_s
        (Re z ≥ 0, |Im z| ≤ π, outside the loop; DomainError otherwise).

        Damped Newton on the closed form, started from one step of the
        far-field expansion (`_bulk_start`); targets within
        `corner_zone_radius` of a saddle ±iπ go through the square-root
        corner chart instead.  A repeat of the last targets' shape and bits
        returns a copy of their ζ.  If a zone's solve fails, the other is
        still solved, and the ConvergenceError carries the last iterates
        in ζ of all targets, in their shape.
        """
        return _remembered(self, _as_complex(z), self._inverse)

    def _inverse(self, z):
        zall = z.ravel()
        tol = 1e-9 * (1.0 + np.abs(zall))
        G = scherk_loop_implicit(self.s, np.stack([zall.real, zall.imag], -1))
        if not np.all((zall.real >= -tol) & (G >= -tol)
                      & (np.abs(zall.imag) <= np.pi + tol)):
            raise DomainError("scherk_inverse: z outside the closure of D_s")
        r_zone = self.corner_zone_radius
        corner = ((np.abs(zall - 1j * np.pi) <= r_zone)
                  | (np.abs(zall + 1j * np.pi) <= r_zone))
        out = np.empty_like(zall)
        failed = []
        for zone, solve in ((corner, self._inverse_corner),
                            (~corner, self._inverse_bulk)):
            if np.any(zone):
                try:
                    out[zone] = solve(zall[zone])
                except ConvergenceError as e:
                    out[zone] = e.last_iterate
                    failed.append(str(e))
        if failed:
            raise ConvergenceError("; ".join(failed),
                                   last_iterate=out.reshape(z.shape))
        return out.reshape(z.shape)

    def _project_bulk(self, zt):
        """Clip Newton iterates into the closed half-strip (in place)."""
        half = 0.5 * self.l
        zt.real = np.maximum(zt.real, 0.0)
        zt.imag = np.clip(zt.imag, -half, half)
        return zt

    def _bulk_start(self, zf):
        """One step of the far-field expansion Φ_s(ζ) = ζ/s + c_inf
        + (1−s⁴)/(2s²)·e^{−ζ/s} + O(e^{−2ζ/s}), from ζ₀ = s(z − c_inf); both
        are projected into the closed half-strip, so |e^{−ζ₀/s}| ≤ 1."""
        s = self.s
        zeta0 = self._project_bulk(s * (zf - self.c_inf))
        return self._project_bulk(
            zeta0 - (1.0 - s**4) / (2.0 * s) * np.exp(-zeta0 / s))


# ----------------------------------------------------------------------
# closed-form Scherk loop (free boundary of one zero-phase component)
# ----------------------------------------------------------------------

def scherk_loop_point(s: float, u_tilde):
    """Right half of the loop through the chart boundary parameter ũ ∈ [−l/2, l/2]:

    x₁(ũ) = (1−s²) log[(√(1+s⁴+2s²cos(ũ/s)) + 2s cos(ũ/(2s))) / (1−s²)]
    x₂(ũ) = (1+s²) arctan[2s sin(ũ/(2s)) / √(1+s⁴+2s²cos(ũ/s))]
    """
    u_tilde = np.asarray(u_tilde, dtype=float)
    root = np.sqrt(1.0 + s**4 + 2.0 * s**2 * np.cos(u_tilde / s))
    x1 = (1.0 - s**2) * np.log((root + 2.0 * s * np.cos(u_tilde / (2.0 * s)))
                               / (1.0 - s**2))
    x2 = (1.0 + s**2) * np.arctan(2.0 * s * np.sin(u_tilde / (2.0 * s)) / root)
    return np.stack([x1, x2], axis=-1)


def scherk_loop_implicit(s: float, p):
    """Implicit loop residual (1−s²)cosh(x₁/(1−s²)) − (1+s²)cos(x₂/(1+s²));
    zero on the loop, negative strictly inside (zero phase), positive outside."""
    p = np.asarray(p, dtype=float)
    x1 = np.clip(np.abs(p[..., 0]) / (1.0 - s**2), 0.0, 700.0)
    return ((1.0 - s**2) * np.cosh(x1)
            - (1.0 + s**2) * np.cos(p[..., 1] / (1.0 + s**2)))


def scherk_loop_gradient(s: float, p):
    """∇ of `scherk_loop_implicit`: (sinh(x₁/(1−s²)), sin(x₂/(1+s²))), an
    outward normal on the loop."""
    p = np.asarray(p, dtype=float)
    x1 = np.clip(p[..., 0] / (1.0 - s**2), -700.0, 700.0)
    return np.stack([np.sinh(x1), np.sin(p[..., 1] / (1.0 + s**2))], axis=-1)


def scherk_loop_x2_extent(s: float) -> float:
    """Half-height of the loop on the x₂ axis: (1+s²)·arctan(2s/(1−s²))."""
    return (1.0 + s**2) * np.arctan(2.0 * s / (1.0 - s**2))
