"""The hairpin's second chart, kept as the tests' chart-vs-chart oracle for
`HHPStrip`: the slit half-plane map

    Φ_a(ζ) = a[((ζ/a)²−1)^{1/2} + log(ζ/a + ((ζ/a)²−1)^{1/2})]

from S_a = {Re ζ > 0} ∖ (0, a] onto D_a = Ω_a ∩ {x₁ > 0}, with
Φ_a′(ζ) = ((ζ+a)/(ζ−a))^{1/2}.  Height H_a(z) = Re Φ_a⁻¹(z); the square
roots are split as √(ζ/a−1)·√(ζ/a+1) so each factor's argument stays off
the principal cut on S_a.  It inverts through the charts' Newton driver."""

from dataclasses import dataclass

import numpy as np

from onephase import conformal
from onephase.errors import DomainError, InvalidInputError


@dataclass
class SlitHalfPlane:
    """Φ_a on S_a = {Re ζ > 0} ∖ (0, a], the double-hairpin description."""

    a: float = 1.0

    def __post_init__(self):
        if not self.a > 0:
            raise InvalidInputError("SlitHalfPlane requires a > 0")

    # -- forward map -----------------------------------------------------
    def _sqrt_factors(self, zeta):
        """√(ζ/a − 1)·√(ζ/a + 1); each factor principal, product analytic
        on S_a (arguments only reach the cut on the excluded slit)."""
        t = np.asarray(zeta, dtype=complex) / self.a
        return np.sqrt(t - 1.0) * np.sqrt(t + 1.0)

    def forward(self, zeta):
        zeta = np.asarray(zeta, dtype=complex)
        if np.any(zeta.real < -1e-12 * self.a):
            raise DomainError("slit_forward: Re ζ must be ≥ 0")
        t = zeta / self.a
        w1 = self._sqrt_factors(zeta)
        return self.a * (w1 + np.log(t + w1))

    def derivative(self, zeta):
        t = np.asarray(zeta, dtype=complex) / self.a
        return np.sqrt(t + 1.0) / np.sqrt(t - 1.0)

    def _fdf(self, zeta):
        """(Φ_a, Φ_a′) at Newton iterates ζ."""
        return self.forward(zeta), self.derivative(zeta)

    # -- inverse map -------------------------------------------------------
    def inverse(self, z):
        """Φ_a⁻¹(z) for z in the closure of D_a = Ω_a ∩ {x₁ ≥ 0}."""
        z = np.asarray(z, dtype=complex)
        if np.any(z.real < -1e-9 * self.a):
            raise DomainError("slit_inverse: z must satisfy x₁ ≥ 0")
        return conformal._solve(z.ravel(), self._start, self._fdf,
                                self._project,
                                "slit_inverse").reshape(z.shape)

    @staticmethod
    def _project(zeta):
        """Keep Newton iterates in Re ζ > 0 (in place)."""
        zeta.real = np.maximum(zeta.real, 1e-300)
        return zeta

    def _start(self, zf):
        """Newton start per target, in S_a: the square-root expansion at the
        tip for |z| ≤ a/2, and the log asymptote everywhere else."""
        a = self.a
        zeta0 = np.empty_like(zf)
        small = np.abs(zf) <= 0.5 * a
        # saddle-local square-root expansion: Φ_a(ζ) ≈ 2√(2a)·√(ζ−a)
        zeta0[small] = a + zf[small] ** 2 / (8.0 * a)
        # Φ_a(ζ) ≈ ζ + a·log(2ζ/a), solved by two fixed-point steps
        zl = zf[~small]
        est = zl - a * np.log(2.0 * zl / a)
        est = np.where(est.real <= 0.1 * a, 0.1 * a + 1j * est.imag, est)
        zeta0[~small] = zl - a * np.log(2.0 * est / a)
        return self._project(zeta0)


def eval_u_slit(sol, points):
    """u of the `Hairpin` `sol` through the slit chart: Re Φ_a⁻¹(z) on
    {x₁ ≥ 0} (zero phase → 0), the independent route against `eval_u`."""
    p = sol.motion.to_body(np.asarray(points, dtype=float))
    if np.any(p[..., 0] < -1e-12):
        raise InvalidInputError("eval_u_slit requires body-frame x₁ ≥ 0")
    z = p[..., 0] + 1j * p[..., 1]
    inside = np.abs(p[..., 1]) <= sol._bound(p[..., 0])
    u = np.zeros(p.shape[:-1])
    if np.any(inside):
        u[inside] = SlitHalfPlane(a=sol.a).inverse(z[inside]).real
    return u
