"""Chart forward/inverse round-trips, branch correctness, derivative
consistency, and the closed-form Scherk loop relations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onephase import conformal
from onephase.conformal import (HHPStrip, ScherkStrip, scherk_loop_implicit,
                                scherk_loop_point, scherk_loop_x2_extent)
from onephase.errors import ConvergenceError, DomainError
from onephase.quad import segment_quad
from onephase.solutions import Hairpin, Scherk
from onephase.variational import weiss_energy

from helpers import upper_line_x2
from slit_chart import SlitHalfPlane


def _strip_points(half_height, n=60, margin=0.08, width=2.5, seed=1):
    rng = np.random.default_rng(seed)
    re = rng.uniform(-width, width, n)
    im = rng.uniform(-(1 - margin) * half_height,
                     (1 - margin) * half_height, n)
    return re + 1j * im


class TestHHPStrip:
    def test_round_trip(self):
        chart = HHPStrip()
        zeta = _strip_points(np.pi / 2)
        z = chart.forward(zeta)
        back = chart.inverse(z)
        assert np.max(np.abs(back - zeta)) < 1e-12

    def test_derivative_is_one_plus_cosh(self):
        chart = HHPStrip()
        zeta = _strip_points(np.pi / 2, n=20, seed=2)
        d = chart.derivative(zeta)
        assert np.allclose(d, 1.0 + np.cosh(zeta), atol=1e-14)

    def test_forward_derivative_fd(self):
        chart = HHPStrip()
        zeta = _strip_points(np.pi / 2, n=20, seed=3)
        h = 1e-6
        fd = (chart.forward(zeta + h) - chart.forward(zeta - h)) / (2 * h)
        assert np.max(np.abs(fd - chart.derivative(zeta))) < 1e-7

    def test_boundary_maps_to_catenary(self):
        chart = HHPStrip()
        sigma = np.linspace(-2.0, 2.0, 41)
        z = chart.forward(sigma + 1j * np.pi / 2)
        # Im φ(σ + iπ/2) = π/2 + cosh σ
        assert np.allclose(z.imag, np.pi / 2 + np.cosh(sigma), atol=1e-13)


class TestSlitHalfPlane:
    @pytest.mark.parametrize("a", [0.25, 1.0, 2.0])
    def test_round_trip(self, a):
        chart = SlitHalfPlane(a=a)
        rng = np.random.default_rng(5)
        # model domain: Re ζ > 0 without the slit (0, a]
        zeta = (rng.uniform(0.05, 3.0, 50) * a
                + 1j * rng.uniform(-3.0, 3.0, 50) * a)
        keep = ~((zeta.real <= a) & (np.abs(zeta.imag) < 0.05 * a))
        zeta = zeta[keep]
        z = chart.forward(zeta)
        back = chart.inverse(z)
        assert np.max(np.abs(back - zeta)) < 1e-10 * max(1.0, a)

    def test_derivative_formula(self):
        a = 1.0
        chart = SlitHalfPlane(a=a)
        zeta = np.array([2.0 + 1.0j, 0.5 + 2.0j, 3.0 - 0.4j])
        d = chart.derivative(zeta)
        expect = np.sqrt((zeta + a) / (zeta - a))
        assert np.allclose(d, expect, atol=1e-12)

    def test_imaginary_axis_maps_to_slit_edge(self):
        # ζ = iy maps onto the free boundary x₂ = ±(π/2 + cosh)… the image
        # satisfies the catenary equation of the a=1 hairpin
        chart = SlitHalfPlane(a=1.0)
        y = np.linspace(0.2, 3.0, 20)
        z = chart.forward(1j * y)
        assert np.allclose(np.abs(z.imag), np.pi / 2 + np.cosh(z.real),
                           atol=1e-10)


class TestScherkStrip:
    @pytest.mark.parametrize("s", [0.125, 0.5, 0.875])
    def test_round_trip(self, s):
        chart = ScherkStrip(s=s)
        rng = np.random.default_rng(11)
        zeta = (rng.uniform(0.05, 2.0, 30)
                + 1j * rng.uniform(-0.45, 0.45, 30) * chart.l)
        z = chart.forward(zeta)
        back = chart.inverse(z)
        assert np.max(np.abs(back - zeta)) < 1e-9

    def test_strip_data(self):
        s = 0.5
        chart = ScherkStrip(s=s)
        assert chart.l == pytest.approx(2 * np.pi * s)
        assert chart.b == pytest.approx(2 * s * np.log(1 / s))

    def test_derivative_fd(self):
        chart = ScherkStrip(s=0.5)
        zeta = np.array([0.5 + 0.3j, 1.0 - 0.8j, 2.0 + 0.0j])
        h = 1e-6
        fd = (chart.forward(zeta + h) - chart.forward(zeta - h)) / (2 * h)
        assert np.max(np.abs(fd - chart.derivative(zeta))) < 1e-6

    def test_derivative_unit_modulus_on_axis(self):
        # |Φ'| = 1 on the imaginary axis — loop arclength equals chart length
        chart = ScherkStrip(s=0.5)
        t = np.linspace(-0.45, 0.45, 11) * chart.l
        d = chart.derivative(1j * t)
        assert np.allclose(np.abs(d), 1.0, atol=1e-12)

    def test_saddle_measurement_matches_closed_form(self,
                                                   measure_saddle_height):
        for s in (0.25, 0.5):
            chart = ScherkStrip(s=s)
            measured = measure_saddle_height(chart)
            assert measured == pytest.approx(chart.b, abs=1e-8)

    def test_upper_line_domain(self):
        chart = ScherkStrip(s=0.5)
        with pytest.raises(DomainError):
            upper_line_x2(chart, chart.b * 1.5)


def _assert_round_trip(chart, zeta):
    zeta = np.atleast_1d(np.asarray(zeta, dtype=complex))
    back = chart.inverse(chart.forward(zeta))
    assert np.max(np.abs(back - zeta)) <= 1e-9


slopes = st.floats(0.02, 0.98)
unit = st.floats(0.0, 1.0)


class TestScherkRoundTripProperty:
    """inverse ∘ forward = id over the whole slope range, in the bulk, the
    far field and the saddle corners."""

    @given(s=slopes, x=unit, y=unit)
    @settings(max_examples=60, deadline=None)
    def test_bulk(self, s, x, y):
        chart = ScherkStrip(s=s)
        _assert_round_trip(chart, (2.0 * chart.b + chart.l) * x
                           + 1j * (y - 0.5) * chart.l)

    @given(s=slopes, x=unit, y=unit)
    @settings(max_examples=60, deadline=None)
    def test_far_field(self, s, x, y):
        chart = ScherkStrip(s=s)
        _assert_round_trip(chart, 2.0 + 48.0 * x + 1j * (y - 0.5) * chart.l)

    @given(s=slopes, log_rho=st.floats(-12.0, 0.0), angle=unit,
           lower=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_corner_zone(self, s, log_rho, angle, lower):
        chart = ScherkStrip(s=s)
        rho = min(chart.l / 10.0, chart.b / 2.0) * 10.0 ** log_rho
        # ζ* − ρe^{iα} with α ∈ [0, π] stays in the closed strip
        zeta = chart.zeta_c - rho * np.exp(1j * np.pi * angle)
        _assert_round_trip(chart, np.conj(zeta) if lower else zeta)


class TestScherkClosedForms:
    """The closed forms against quadrature of their integrands."""

    @pytest.mark.parametrize("s", [0.02, 0.125, 0.5, 0.875, 0.98])
    def test_real_parts_vanish_at_the_corners(self, s):
        chart = ScherkStrip(s=s)
        ends = np.array([0.5j, -0.5j]) * chart.l
        assert np.max(np.abs(chart.forward(ends).real)) < 1e-14
        assert np.max(np.abs(chart.dual_primitive(ends).real)) < 1e-14

    @pytest.mark.parametrize("s", [0.02, 0.125, 0.5, 0.875, 0.98])
    def test_primitives_match_segment_quadrature(self, s):
        chart = ScherkStrip(s=s)
        rng = np.random.default_rng(3)
        zeta = (rng.uniform(0.0, 2.0 * chart.b + chart.l, 40)
                + 1j * rng.uniform(-0.4, 0.4, 40) * chart.l)
        zero = np.zeros_like(zeta)
        phi_q = segment_quad(chart.integrand, zero, zeta, order=20,
                             pieces=64)
        psi_q = segment_quad(lambda z: np.exp(-chart.phi(z)), zero, zeta,
                             order=20, pieces=64)
        phi0 = chart.forward(np.array(0j))
        psi0 = chart.dual_primitive(np.array(0j))
        assert np.max(np.abs(chart.forward(zeta) - phi0 - phi_q)) < 1e-10
        assert np.max(np.abs(chart.dual_primitive(zeta) - psi0 - psi_q)) \
            < 1e-10

    @pytest.mark.parametrize("s", [0.02, 0.5, 0.98])
    def test_far_field_constant(self, s):
        chart = ScherkStrip(s=s)
        u = chart.b + 8.0 * chart.l
        val = complex(chart.forward(np.array(u + 0j)))
        assert val - u / s == pytest.approx(chart.c_inf, abs=1e-12)

    @pytest.mark.parametrize("s", [0.02, 0.5, 0.98])
    @pytest.mark.parametrize("rho", [1e-12, 1e-11, 1e-10])
    def test_forward_regular_at_the_corners(self, s, rho):
        # Φ_s(ζ* − τ²) = iπ + B·τ·(1 + O(τ²)): a rounding error ε in Φ_s
        # shows as ε/|τ| here, so e + s² must not cancel
        chart = ScherkStrip(s=s)
        zeta = chart.zeta_c - rho * np.exp(1j * np.linspace(0.0, np.pi, 7))
        tau = np.sqrt(chart.zeta_c - zeta)
        slope = (chart.forward(zeta) - 1j * np.pi) / tau
        assert np.max(np.abs(slope - chart._B)) < 1e-7
        lower = chart.forward(np.conj(zeta))
        assert np.max(np.abs(lower - np.conj(chart.forward(zeta)))) == 0.0

    @pytest.mark.parametrize("s", [0.02, 0.5, 0.98])
    def test_inverse_next_to_the_corners(self, s):
        # τ² is subnormal here, so the corner chart must not divide by it
        # (a RuntimeWarning from onephase fails the test)
        chart = ScherkStrip(s=s)
        d = np.array([1e-150, 1e-155, 1e-158, 1e-160, 1e-165])
        zeta = chart.inverse(np.concatenate([1j * np.pi + d,
                                             -1j * np.pi + d]))
        assert np.max(np.abs(zeta[:5] - chart.zeta_c)) < 1e-12
        assert np.max(np.abs(zeta[5:] - np.conj(chart.zeta_c))) < 1e-12


class TestScherkLoop:
    @pytest.mark.parametrize("s", [0.125, 0.5, 0.875])
    def test_loop_on_implicit_curve(self, s):
        ut = np.linspace(-np.pi * s, np.pi * s, 101)
        pts = scherk_loop_point(s, ut)
        vals = scherk_loop_implicit(s, pts)
        assert np.max(np.abs(vals)) < 1e-12

    def test_implicit_sign_convention(self):
        s = 0.5
        # the loop is centred at the origin: inside (zero phase) negative,
        # outside positive
        tip = scherk_loop_point(s, 0.0)
        assert scherk_loop_implicit(s, np.array([0.0, 0.0])) < 0
        assert scherk_loop_implicit(s, np.array([0.5 * tip[0], 0.0])) < 0
        assert scherk_loop_implicit(s, np.array([2.0 * tip[0], 0.0])) > 0
        extent = scherk_loop_x2_extent(s)
        assert scherk_loop_implicit(s, np.array([0.0, 1.5 * extent])) > 0

    def test_x2_extent(self):
        s = 0.5
        extent = scherk_loop_x2_extent(s)
        ut = np.linspace(-np.pi * s, np.pi * s, 20001)
        pts = scherk_loop_point(s, ut)
        assert np.max(np.abs(pts[:, 1])) == pytest.approx(extent, abs=1e-8)

    def test_loop_closes(self):
        s = 0.25
        p0 = scherk_loop_point(s, -np.pi * s)
        p1 = scherk_loop_point(s, np.pi * s)
        assert p0[0] == pytest.approx(0.0, abs=1e-12)
        assert p1[0] == pytest.approx(0.0, abs=1e-12)


def _stiffen_hhp(monkeypatch):
    monkeypatch.setattr(HHPStrip, "_fdf", staticmethod(
        lambda w: (w + np.sinh(w), 1e6 * (1.0 + np.cosh(w)))))


class TestInverseFailure:
    """A derivative a million times too large shrinks every Newton step, so
    Newton does not converge: each inverse must raise ConvergenceError with
    the failed point count and its last iterates in ζ, which stay near the
    Newton start."""

    @staticmethod
    def _stiffen(monkeypatch, cls, name):
        """Scale the f′ of the chart's (f, f′) callable `name` by 1e6."""
        true = getattr(cls, name)

        def stiff(self, zeta):
            f, fp = true(self, zeta)
            return f, 1e6 * fp

        monkeypatch.setattr(cls, name, stiff)

    def test_hhp(self, monkeypatch):
        _stiffen_hhp(monkeypatch)
        z = np.array([0.3 + 0.2j, 4.0 - 1.0j, -2.0 + 0.5j])
        with pytest.raises(ConvergenceError,
                           match="hhp_inverse: 3 point") as info:
            HHPStrip().inverse(z)
        it = info.value.last_iterate
        assert it.shape == z.shape
        assert np.all(np.abs(it.imag) <= np.pi / 2)
        # the only start: z/2 near the neck, arcsinh z far out
        start = np.where(np.abs(z) <= 2.5, z / 2.0, np.arcsinh(z))
        assert np.allclose(it, start, atol=1e-3)

    def test_slit(self, monkeypatch):
        self._stiffen(monkeypatch, SlitHalfPlane, "_fdf")
        chart = SlitHalfPlane(a=1.0)
        z = np.array([0.2 + 0.1j, 2.0 + 1.0j, 8.0 - 3.0j, 0.5 + 2.5j])
        with pytest.raises(ConvergenceError,
                           match="slit_inverse: 4 point") as info:
            chart.inverse(z)
        it = info.value.last_iterate
        assert it.shape == z.shape
        assert np.all(it.real > 0.0)
        assert np.allclose(it, chart._start(z), atol=1e-3)

    def test_scherk_bulk(self, monkeypatch):
        self._stiffen(monkeypatch, ScherkStrip, "_bulk_fdf")
        chart = ScherkStrip(s=0.5)
        z = np.array([1.0 + 0.1j, 2.0 - 1.0j, 6.0 + 2.0j])
        with pytest.raises(ConvergenceError,
                           match="scherk_inverse: 3 point") as info:
            chart.inverse(z)
        it = info.value.last_iterate
        assert it.shape == z.shape
        assert np.all(it.real >= 0.0)
        assert np.all(np.abs(it.imag) <= 0.5 * chart.l)
        assert np.allclose(it, chart._bulk_start(z), atol=1e-3)

    def test_scherk_target_outside_half_cell(self, newton_spy):
        # 0.5 + 0.1i lies inside the loop of s = ½; no Newton run starts
        with pytest.raises(DomainError, match="scherk_inverse"):
            ScherkStrip(s=0.5).inverse(np.array([0.5 + 0.1j, 6.0 + 2.0j]))
        for z in (-0.1 + 1.0j, 2.0 + 3.2j, 2.0 - 3.2j):
            with pytest.raises(DomainError, match="scherk_inverse"):
                ScherkStrip(s=0.5).inverse(np.array([z]))
        assert newton_spy == []

    def test_scherk_corner_zone_inside_loop(self, newton_spy):
        # at s = 0.95 the loop reaches into the corner zone; Newton can
        # converge there to a ζ with Re ζ < 0, a negative u
        chart = ScherkStrip(s=0.95)
        z = _corner_zone_draw(chart, np.random.default_rng(0), (2, 200))
        inside = z[_inside_loop(chart, z)]
        assert inside.size > 0
        for t in (inside, np.conj(inside[:1]), inside[:1]):
            with pytest.raises(DomainError, match="scherk_inverse"):
                chart.inverse(t)
        assert newton_spy == []

    def test_scherk_corner(self, monkeypatch):
        self._stiffen(monkeypatch, ScherkStrip, "_corner_fdf")
        chart = ScherkStrip(s=0.5)
        # targets below-right of the saddle iπ, where the start τ₀ = (z−iπ)/B
        # already lies in the projected quadrant
        rho = chart.corner_zone_radius * np.array([0.2, 0.5, 0.9])
        z = 1j * np.pi + rho * np.exp(-0.25j * np.pi)
        with pytest.raises(ConvergenceError,
                           match=r"scherk_inverse \(corner\): 3 point") as info:
            chart.inverse(z)
        it = info.value.last_iterate
        assert it.shape == z.shape
        tau0 = (z - 1j * np.pi) / chart._B
        assert np.all(tau0.real > 0.0) and np.all(tau0.imag > 0.0)
        # ζ = ζ* − τ², not τ
        assert np.allclose(it, chart.zeta_c - tau0**2, atol=1e-3)
        assert np.all(np.abs(it.imag) <= 0.5 * chart.l + 1e-12)

    def test_scherk_corner_and_bulk(self, monkeypatch):
        # the bulk target still converges, and the error holds ζ for every
        # target, in their shape
        self._stiffen(monkeypatch, ScherkStrip, "_corner_fdf")
        chart = ScherkStrip(s=0.5)
        rho = chart.corner_zone_radius * np.array([0.2, 0.5, 0.9])
        corner = 1j * np.pi + rho * np.exp(-0.25j * np.pi)
        z = np.array([[corner[0], 2.0 - 1.0j], [corner[1], corner[2]]])
        with pytest.raises(ConvergenceError,
                           match=r"scherk_inverse \(corner\): 3 point") as info:
            chart.inverse(z)
        it = info.value.last_iterate
        assert it.shape == z.shape
        tau0 = (corner - 1j * np.pi) / chart._B
        assert np.allclose(it.ravel()[[0, 2, 3]], chart.zeta_c - tau0**2,
                           atol=1e-3)
        assert abs(chart.forward(it[0, 1]) - z[0, 1]) <= 1e-11

    def test_scherk_lower_corner(self, monkeypatch):
        # the mirror images of test_scherk_corner's targets, below the
        # saddle −iπ: their iterates are the mirror images too
        self._stiffen(monkeypatch, ScherkStrip, "_corner_fdf")
        rho = ScherkStrip(s=0.5).corner_zone_radius * np.array([0.2, 0.5, 0.9])
        z = 1j * np.pi + rho * np.exp(-0.25j * np.pi)
        its = []
        for targets in (z, np.conj(z)):
            with pytest.raises(ConvergenceError,
                               match=r"scherk_inverse \(corner\): 3 point") \
                    as info:
                ScherkStrip(s=0.5).inverse(targets)
            its.append(info.value.last_iterate)
        assert np.all(its[1].imag < 0.0)
        assert np.array_equal(_bits(its[1]), _bits(np.conj(its[0])))


# ----------------------------------------------------------------------
# the Newton driver against its full-array predecessor
# ----------------------------------------------------------------------

def _damped_newton_oracle(targets, z0, f, fprime, project):
    """The damped Newton driver that evaluated f and f′ at every point on
    every iteration and halving, converged or not."""
    target = np.asarray(targets, dtype=complex)
    zeta = project(np.asarray(z0, dtype=complex).copy())
    res = f(zeta) - target
    scale = np.maximum(1.0, np.abs(target))
    for _ in range(conformal._MAX_ITER):
        active = np.abs(res) > conformal._NEWTON_TOL * scale
        if not np.any(active):
            break
        with np.errstate(all="ignore"):
            step = np.where(active, -res / fprime(zeta), 0.0)
        step = np.where(np.isfinite(step), step, 0.0)
        factor = np.ones_like(scale)
        for _h in range(conformal._MAX_HALVINGS):
            cand = project(zeta + factor * step)
            cand_res = f(cand) - target
            worse = active & (np.abs(cand_res) > np.abs(res))
            if not np.any(worse):
                break
            factor = np.where(worse, factor * 0.5, factor)
        zeta = np.where(active, cand, zeta)
        res = np.where(active, cand_res, res)
    return zeta, np.abs(res) <= conformal._NEWTON_TOL * scale


def _bits(a):
    return np.ascontiguousarray(a, dtype=complex).reshape(-1).view(np.int64)


@pytest.fixture
def newton_spy(monkeypatch):
    """Runs the oracle beside every `_damped_newton` call, requires the same
    (ζ, converged) to the bit, and records per call whether a step was
    halved and whether a point failed."""
    driver = conformal._damped_newton
    seen = []

    def both(targets, z0, fdf, project):
        zeta, conv = driver(targets, z0, fdf, project)
        calls = {"f": 0, "fprime": 0}

        def counted(name, part):
            def g(z):
                calls[name] += 1
                return fdf(z)[part]
            return g

        zeta_o, conv_o = _damped_newton_oracle(
            targets, z0, counted("f", 0), counted("fprime", 1), project)
        assert zeta.shape == zeta_o.shape and conv.shape == conv_o.shape
        assert np.array_equal(_bits(zeta), _bits(zeta_o))
        assert np.array_equal(conv, conv_o)
        seen.append({"halved": calls["f"] > calls["fprime"] + 1,
                     "failed": not np.all(conv)})
        return zeta, conv

    monkeypatch.setattr(conformal, "_damped_newton", both)
    return seen


def _hhp_targets(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-6.0, 6.0, n)
    y = rng.uniform(-1.0, 1.0, n) * (np.pi / 2 + np.cosh(x))
    return x + 1j * y


def _slit_targets(chart, n, seed):
    rng = np.random.default_rng(seed)
    a = chart.a
    zeta = rng.uniform(0.01, 6.0, n) * a + 1j * rng.uniform(-6.0, 6.0, n) * a
    zeta = zeta[~((zeta.real <= a) & (np.abs(zeta.imag) < 0.02 * a))]
    return chart.forward(zeta)


def _scherk_points(n, seed):
    """Points of [−2, 2] × [−2π, 2π] and a cluster around the saddle
    (0, π), so both the bulk and the corner chart run."""
    rng = np.random.default_rng(seed)
    cloud = rng.uniform([-2.0, -2.0 * np.pi], [2.0, 2.0 * np.pi], (n, 2))
    saddle = np.array([0.0, np.pi]) + rng.normal(0.0, 0.05, (n // 4, 2))
    return np.vstack([cloud, saddle])


def _newton_case(case, n=1500, seed=4):
    """(targets, poor starts, (f, f′) callable, project) for one chart's
    Newton pair; starts far from the roots make the driver halve its steps."""
    rng = np.random.default_rng(seed)
    if case == "hhp":
        chart = HHPStrip()
        return (_hhp_targets(n, seed), np.zeros(n, dtype=complex),
                chart._fdf, chart._project)
    if case == "slit":
        chart = SlitHalfPlane(a=0.5)
        targets = _slit_targets(chart, n, seed)
        return (targets, np.full(targets.shape, 1.0 + 0j), chart._fdf,
                chart._project)
    chart = ScherkStrip(s=0.5)
    if case == "scherk_bulk":
        zeta = (rng.uniform(0.0, 3.0, n)
                + 1j * rng.uniform(-0.5, 0.5, n) * chart.l)
        return (chart.forward(zeta), np.full(n, chart.b + chart.l),
                chart._bulk_fdf, chart._project_bulk)
    rho = chart.corner_zone_radius * rng.uniform(0.0, 1.0, n)
    z = 1j * np.pi + rho * np.exp(1j * rng.uniform(-np.pi, 0.0, n))
    tau0 = 0.9 * np.sqrt(chart.l) * np.exp(0.5j * np.pi
                                           * rng.uniform(0.0, 1.0, n))
    return (z, tau0, chart._corner_fdf, chart._project_corner)


NEWTON_CASES = ["hhp", "slit", "scherk_bulk", "scherk_corner"]


class TestDampedNewton:
    """The active-set driver against the full-array oracle, bit for bit, on
    every f/f′ pair the charts pass it."""

    @pytest.mark.parametrize("case", NEWTON_CASES)
    def test_poor_starts_halve_steps(self, newton_spy, case):
        targets, z0, fdf, project = _newton_case(case)
        conformal._damped_newton(targets, z0, fdf, project)
        assert newton_spy[0]["halved"]

    @pytest.mark.parametrize("case", NEWTON_CASES)
    def test_work_shrinks_to_unconverged_points(self, case):
        targets, z0, fdf, project = _newton_case(case)
        sizes = []

        def counted(z):
            sizes.append(np.size(z))
            return fdf(z)

        conformal._damped_newton(targets, z0, counted, project)
        # the full-array oracle marks each iteration by its f′ call, here
        # given the count of points above the tolerance; its f calls, one
        # per step and halving, take the driver's call sizes in order
        tol = conformal._NEWTON_TOL * np.maximum(1.0, np.abs(targets))
        calls, left = [], iter(sizes)

        def f(z):
            calls.append(("f", next(left)))
            return fdf(z)[0]

        def fprime(z):
            above = np.abs(fdf(z)[0] - targets) > tol
            calls.append(("fprime", int(np.sum(above))))
            return fdf(z)[1]

        _damped_newton_oracle(targets, z0, f, fprime, project)
        assert next(left, None) is None
        # split into iterations: f′ at the active points, then f at the
        # step and at each halving
        iters, active = [], []
        for name, size in calls[1:]:
            if name == "fprime":
                iters.append([])
                active.append(size)
            else:
                iters[-1].append(size)
        assert calls[0] == ("f", len(targets))
        assert active == sorted(active, reverse=True) and active[-1] < active[0]
        for a, sizes in zip(active, iters):
            assert sizes[0] == a and sizes == sorted(sizes, reverse=True)
        # a halving reaches only the points whose residual grew
        assert any(len(sizes) > 1 and sizes[1] < a
                   for a, sizes in zip(active, iters))

    def test_chart_inversions(self, newton_spy):
        HHPStrip().inverse(_hhp_targets(2000, 1))
        for a in (0.25, 1.0):
            chart = SlitHalfPlane(a=a)
            chart.inverse(_slit_targets(chart, 1000, 2))
        for s in (0.05, 0.5, 0.95):
            sol = Scherk(s, 1.0)
            sol.eval_u(_scherk_points(1000, 3))
            # its own cloud: at eval_u's points the chart's memo would
            # answer without a solve
            sol.eval_grad(_scherk_points(1000, 4))
        # hhp, two slit calls, and a bulk and a corner call per evaluation
        assert len(newton_spy) >= 15

    @pytest.mark.parametrize("case", NEWTON_CASES)
    def test_never_converging(self, newton_spy, monkeypatch, case):
        stiff = TestInverseFailure._stiffen
        if case == "hhp":
            _stiffen_hhp(monkeypatch)
            run = lambda: HHPStrip().inverse(np.array([0.3 + 0.2j, 4.0 - 1j]))
        elif case == "slit":
            stiff(monkeypatch, SlitHalfPlane, "_fdf")
            run = lambda: SlitHalfPlane(a=1.0).inverse(
                np.array([0.2 + 0.1j, 8.0 - 3.0j]))
        elif case == "scherk_bulk":
            stiff(monkeypatch, ScherkStrip, "_bulk_fdf")
            run = lambda: ScherkStrip(s=0.5).inverse(
                np.array([1.0 + 0.1j, 6.0 + 2.0j]))
        else:
            stiff(monkeypatch, ScherkStrip, "_corner_fdf")
            chart = ScherkStrip(s=0.5)
            z = 1j * np.pi + (chart.corner_zone_radius
                              * np.array([0.2, 0.9]) * np.exp(-0.25j * np.pi))
            run = lambda: chart.inverse(z)
        with pytest.raises(ConvergenceError):
            run()
        assert any(c["failed"] for c in newton_spy)

    # ids: the f′ that is stiffened, the bulk's or the corner's
    @pytest.mark.parametrize("fdf", ["_bulk_fdf", "_corner_fdf"],
                             ids=["derivative", "_corner_Gp"])
    def test_one_newton_run_per_chart_solve(self, newton_spy, monkeypatch,
                                            fdf):
        """Failed points are not retried.  With the bulk's f′ stiffened the
        corner solve converges and the bulk solve fails in its one run; with
        the corner's, the corner solve fails in its one run and the bulk
        solve still runs once, so the error carries ζ for every target."""
        TestInverseFailure._stiffen(monkeypatch, ScherkStrip, fdf)
        chart = ScherkStrip(s=0.5)
        corner = 1j * np.pi + (0.2 * chart.corner_zone_radius
                               * np.exp(-0.25j * np.pi))
        with pytest.raises(ConvergenceError):
            chart.inverse(np.array([corner, 2.0 - 1.0j, 6.0 + 2.0j]))
        failed = [c["failed"] for c in newton_spy]
        assert failed == ([False, True] if fdf == "_bulk_fdf"
                          else [True, False])


# ----------------------------------------------------------------------
# blocked solves and maps
# ----------------------------------------------------------------------

def _with_block(block, f, *args):
    """f(*args) with the chart layer's blocks of `block` points."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conformal, "_BLOCK", block)
        return f(*args)


def _corner_zone_draw(chart, rng, shape):
    """Targets within `corner_zone_radius` below-right of the saddle iπ."""
    rho = chart.corner_zone_radius * rng.uniform(0.0, 1.0, shape)
    return 1j * np.pi + rho * np.exp(-1j * rng.uniform(0.0, 0.5 * np.pi,
                                                        shape))


def _inside_loop(chart, z):
    """Targets strictly inside the zero-phase loop, outside D_s."""
    return scherk_loop_implicit(chart.s, np.stack([z.real, z.imag], -1)) < 0


def _corner_zone_targets(chart, rng, shape):
    """`_corner_zone_draw` kept to D_s: near s = 1 the loop reaches into
    the zone, and the draws inside it are drawn again."""
    z = _corner_zone_draw(chart, rng, shape)
    inside = _inside_loop(chart, z)
    while np.any(inside):
        z[inside] = _corner_zone_draw(chart, rng, int(np.sum(inside)))
        inside = _inside_loop(chart, z)
    return z


def _scherk_mixed_targets(chart, seed, n):
    """n targets of the image half-cell, each in the bulk or in the zone of
    the upper or the lower saddle."""
    rng = np.random.default_rng(seed)
    zeta = (rng.uniform(0.05, 3.0, n) * max(chart.s, chart.b)
            + 1j * rng.uniform(-0.45, 0.45, n) * chart.l)
    corner = _corner_zone_targets(chart, rng, n)
    corner = np.where(rng.uniform(size=n) < 0.5, corner, np.conj(corner))
    return np.where(rng.uniform(size=n) < 0.5, chart.forward(zeta), corner)


#: one block for any test size, as one Newton run over all points
_ONE_BATCH = 2**62
up_to_4_blocks = st.integers(0, 4 * 7 + 3)


class TestBlocks:
    """Blocks of points are invisible: with blocks of 7, every chart
    inverse and Scherk map gives the bits of one batch over all points."""

    @given(n=up_to_4_blocks, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_hhp_inverse(self, n, seed):
        z = _hhp_targets(n, seed)
        got, want = (_with_block(b, HHPStrip().inverse, z)
                     for b in (7, _ONE_BATCH))
        assert np.array_equal(_bits(got), _bits(want))

    @given(s=slopes, n=up_to_4_blocks, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_scherk_inverse(self, s, n, seed):
        z = _scherk_mixed_targets(ScherkStrip(s=s), seed, n)
        got, want = (_with_block(b, ScherkStrip(s=s).inverse, z)
                     for b in (7, _ONE_BATCH))
        assert np.array_equal(_bits(got), _bits(want))

    @given(s=slopes, n=up_to_4_blocks, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_scherk_maps(self, s, n, seed):
        chart = ScherkStrip(s=s)
        zeta = np.random.default_rng(seed).permutation(
            _scherk_cloud(chart, seed, n=6))[:n]
        for f in (chart.forward, chart.derivative, chart.dual_derivative,
                  chart.dual_primitive):
            got, want = (_with_block(b, f, zeta) for b in (7, _ONE_BATCH))
            assert got.shape == zeta.shape
            assert np.array_equal(_bits(got), _bits(want))

    def test_work_runs_in_blocks(self, monkeypatch):
        monkeypatch.setattr(conformal, "_BLOCK", 7)
        runs, values = [], []
        driver, values_of = conformal._damped_newton, ScherkStrip._values
        monkeypatch.setattr(conformal, "_damped_newton",
                            lambda t, *a: runs.append(t.size) or driver(t, *a))
        monkeypatch.setattr(ScherkStrip, "_values", lambda self, z: (
            values.append(z.size) or values_of(self, z)))
        HHPStrip().inverse(_hhp_targets(30, 1))
        chart = ScherkStrip(s=0.5)
        chart.forward(_scherk_cloud(chart, 1, n=5))
        # ⌊30/7⌋ = 4 runs of 7 or 8 points: no run for a remainder of 2
        assert runs == values == [7, 8, 7, 8]

    def test_failure_spans_all_blocks(self, monkeypatch):
        # every block is solved; the count and the iterates are of them all
        _stiffen_hhp(monkeypatch)
        z = _hhp_targets(30, 2)
        errors = []
        for b in (7, _ONE_BATCH):
            with pytest.raises(ConvergenceError,
                               match="hhp_inverse: 30 point") as info:
                _with_block(b, HHPStrip().inverse, z)
            errors.append(info.value.last_iterate)
        assert errors[0].shape == z.shape
        assert np.array_equal(_bits(errors[0]), _bits(errors[1]))


# ----------------------------------------------------------------------
# one closed-form Newton start per chart
# ----------------------------------------------------------------------

def _log_uniform(rng, lo, hi, n):
    return 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), n)


def _scherk_cloud(chart, seed, n=100):
    """ζ of the half-strip near the loop (Re ζ from 1e-12 to 1), within
    1e-14 of the seam and of the axis above the loop, around a saddle
    corner, in the bulk, and in the far field out to x₁ = 300."""
    rng = np.random.default_rng(seed)
    l, b, s = chart.l, chart.b, chart.s
    im = lambda: rng.uniform(-0.5, 0.5, n) * l
    edge = lambda: ((0.5 * l - _log_uniform(rng, 1e-14, 0.1 * l, n))
                    * rng.choice([-1.0, 1.0], n))
    corner = chart.zeta_c - (min(0.1 * l, 0.5 * b)
                             * _log_uniform(rng, 1e-12, 1.0, n)
                             * np.exp(1j * np.pi * rng.uniform(0, 1, n)))
    return np.concatenate([
        _log_uniform(rng, 1e-12, 1.0, n) + 1j * im(),
        rng.uniform(b, 3.0 * b + 3.0 * l, n) + 1j * edge(),
        rng.uniform(0.0, b, n) + 1j * edge(),
        np.where(rng.uniform(0, 1, n) < 0.5, corner, np.conj(corner)),
        rng.uniform(0.0, 2.0 * b + l, n) + 1j * im(),
        rng.uniform(0.0, s * (300.0 - chart.c_inf), n) + 1j * im()])


def _hhp_cloud(seed, n=200):
    """ζ of the strip with |Re φ(ζ)| out to 300, in the bulk and within
    1e-14 of the edges (the catenaries)."""
    rng = np.random.default_rng(seed)
    sigma = lambda: rng.uniform(-6.4, 6.4, n)
    edge = ((np.pi / 2 - _log_uniform(rng, 1e-14, 0.1, n))
            * rng.choice([-1.0, 1.0], n))
    return np.concatenate([sigma() + 1j * rng.uniform(-1, 1, n) * np.pi / 2,
                           sigma() + 1j * edge])


def _slit_cloud(a, seed, n=200):
    """ζ of S_a: the bulk out to |ζ| ≈ 60a, and the tip ζ = a up to
    1e-8·a close."""
    rng = np.random.default_rng(seed)
    bulk = (rng.uniform(0.0, 60.0, n) * a
            + 1j * np.sinh(rng.uniform(-5.0, 5.0, n)) * a)
    bulk = bulk[~((bulk.real <= a) & (np.abs(bulk.imag) < 1e-3 * a))]
    tip = a + (_log_uniform(rng, 1e-8, 1.0, n) * a
               * np.exp(1j * rng.uniform(-0.5, 0.5, n) * np.pi))
    return np.concatenate([bulk, tip])


def _assert_one_start(chart, z):
    """Newton converges from the chart's start alone, and forward(inverse)
    returns z within the Newton tolerance, plus the rounding of ζ itself
    times |f′(ζ)|, which blows up at a saddle corner or the slit's tip."""
    zeta = chart.inverse(z)
    tol = (conformal._NEWTON_TOL * np.maximum(1.0, np.abs(z))
           + 4.0 * np.finfo(float).eps * np.abs(zeta)
           * np.abs(chart.derivative(zeta)))
    assert np.all(np.abs(chart.forward(zeta) - z) <= tol)


def _from_r_oracle(chart, zeta_s, e, r):
    """(Φ_s, Ψ_s) by the complex logs of the closed form."""
    s = chart.s
    s2 = s * s
    lg = np.log((1.0 - s * r) / (1.0 + s * r))
    rest = (2.0 * np.log(s + r) + zeta_s + np.log1p(s2 * e)
            - np.log1p(-s2 * s2))
    return s2 * lg + rest, lg + s2 * rest


class TestScherkRealArithmetic:
    """The closed forms in real arithmetic, against their complex logs, and
    one chart evaluation per Newton iterate."""

    @given(s=slopes, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_from_r_matches_complex_logs(self, s, seed):
        chart = ScherkStrip(s=s)
        zeta_s, e, r, _ = chart._values(_scherk_cloud(chart, seed))
        for dual, want in zip((False, True),
                              _from_r_oracle(chart, zeta_s, e, r)):
            got = chart._from_r(zeta_s, e, r, dual=dual)
            assert np.all(np.abs(got - want)
                          <= 4e-15 * np.maximum(1.0, np.abs(want)))

    def test_bulk_solve_evaluates_once_per_iterate(self, monkeypatch):
        chart = ScherkStrip(s=0.5)
        rng = np.random.default_rng(6)
        z = chart.forward(rng.uniform(0.05, 3.0, 300)
                          + 1j * rng.uniform(-0.3, 0.3, 300) * chart.l)
        values, driver = ScherkStrip._values, conformal._damped_newton
        value_sizes, residual_sizes = [], []

        def counted_values(self, zeta):
            value_sizes.append(np.size(zeta))
            return values(self, zeta)

        def spy(targets, z0, fdf, project):
            def counted(zeta):
                residual_sizes.append(np.size(zeta))
                return fdf(zeta)
            return driver(targets, z0, counted, project)

        monkeypatch.setattr(ScherkStrip, "_values", counted_values)
        monkeypatch.setattr(ScherkStrip, "derivative",
                            lambda self, zeta: pytest.fail("f′ evaluated "
                                                           "apart from f"))
        monkeypatch.setattr(conformal, "_damped_newton", spy)
        chart.inverse(z)
        assert len(residual_sizes) > 2
        assert value_sizes == residual_sizes


class TestOneStart:
    """Each chart converges from its one closed-form start over the slope
    range, near every boundary piece and out in the far field."""

    @given(s=slopes, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_scherk(self, s, seed):
        chart = ScherkStrip(s=s)
        _assert_one_start(chart, chart.forward(_scherk_cloud(chart, seed)))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_hhp(self, seed):
        chart = HHPStrip()
        _assert_one_start(chart, chart.forward(_hhp_cloud(seed)))

    @given(a=st.sampled_from([0.05, 0.25, 1.0, 4.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_slit(self, a, seed):
        chart = SlitHalfPlane(a=a)
        _assert_one_start(chart, chart.forward(_slit_cloud(a, seed)))

    @given(s=slopes, t=st.floats(4.0, 10.0), y=st.floats(-0.5, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_far_field_expansion(self, s, t, y):
        # Φ_s(ζ) = ζ/s + c_inf + (1−s⁴)/(2s²)·e^{−ζ/s} + O(e^{−2ζ/s}); the
        # series runs in e/s², so |e| = s²·e^{−t}.  Measured over s and t,
        # the remainder stays below 0.19·|e|²/s⁴.
        chart = ScherkStrip(s=s)
        zeta = s * (t + 2.0 * np.log(1.0 / s)) + 1j * y * chart.l
        e = np.exp(-zeta / s)
        rest = (chart.forward(zeta) - zeta / s - chart.c_inf
                - (1.0 - s**4) / (2.0 * s * s) * e)
        assert abs(rest) <= abs(e) ** 2 / (4.0 * s**4)


# ----------------------------------------------------------------------
# the one-entry memo of the chart inverses
# ----------------------------------------------------------------------

MEMO_CASES = ([("scherk", s, zone) for s in (0.05, 0.5, 0.95)
               for zone in ("bulk", "corner")] + [("hairpin", 1.0, "bulk")])


def _memo_case(case, n=200, seed=0):
    """(chart, targets A, targets B, one target with a signed-zero part,
    the name of the (f, f′) callable whose f′ a failure test stiffens) for
    one memo case;
    A and B are different target sets of one shape."""
    family, s, zone = case
    rng = np.random.default_rng(seed)
    if family == "hairpin":
        chart = HHPStrip()
        return (chart, _hhp_targets(n, seed), _hhp_targets(n, seed + 1),
                complex(1.5, 0.0), "_fdf")
    chart = ScherkStrip(s=s)
    if zone == "bulk":
        zeta = (rng.uniform(0.05, 3.0, (2, n)) * max(s, chart.b)
                + 1j * rng.uniform(-0.45, 0.45, (2, n)) * chart.l)
        z = chart.forward(zeta)
        far = (np.abs(np.abs(z.imag) - np.pi) > 2 * chart.corner_zone_radius)
        z = np.where(far, z, 2.0 + 0.5j)
        return (chart, z[0], z[1], complex(float(chart.forward(1.0).real),
                                           0.0), "_bulk_fdf")
    # both saddle zones, approached from inside the half-cell
    z = _corner_zone_targets(chart, rng, (2, n))
    z[:, ::2] = np.conj(z[:, ::2])
    return (chart, z[0], z[1],
            complex(0.0, np.pi - 0.5 * chart.corner_zone_radius),
            "_corner_fdf")


def _with_sign(z, k):
    """z with its zero part (real or imaginary) given the sign of k."""
    zero = np.copysign(0.0, k)
    return complex(zero, z.imag) if z.real == 0.0 else complex(z.real, zero)


@pytest.fixture
def solves(monkeypatch):
    """Counts the chart solves (`conformal._solve` calls)."""
    seen = []
    solve = conformal._solve

    def counted(*args):
        seen.append(args[-1])
        return solve(*args)

    monkeypatch.setattr(conformal, "_solve", counted)
    return seen


def _new_chart(chart):
    return HHPStrip() if isinstance(chart, HHPStrip) else ScherkStrip(chart.s)


@pytest.mark.parametrize("case", MEMO_CASES,
                         ids=lambda c: "-".join(map(str, c)))
class TestInverseMemo:
    """A chart inverse answers a repeat of its last targets (same shape,
    same bits) with a copy of the stored ζ, and solves anything else."""

    def test_bit_equal_to_fresh_chart(self, solves, case):
        chart, a, _, _, _ = _memo_case(case)
        first = chart.inverse(a)
        n = len(solves)
        again = chart.inverse(a)
        assert len(solves) == n  # answered by the memo
        expected = _new_chart(chart).inverse(a)
        assert np.array_equal(_bits(first), _bits(expected))
        assert np.array_equal(_bits(again), _bits(expected))

    def test_input_mutated_in_place(self, solves, case):
        chart, a, b, _, _ = _memo_case(case)
        z = a.copy()
        chart.inverse(z)
        n = len(solves)
        z[:] = b
        got = chart.inverse(z)
        assert len(solves) > n
        assert np.array_equal(_bits(got), _bits(_new_chart(chart).inverse(b)))

    def test_signed_zero_solved_separately(self, solves, case):
        chart, a, _, zero, _ = _memo_case(case)
        plus, minus = a.copy(), a.copy()
        plus[0], minus[0] = _with_sign(zero, 1.0), _with_sign(zero, -1.0)
        assert np.array_equal(plus, minus)  # equal under ==, not in bits
        assert not np.array_equal(_bits(plus), _bits(minus))
        chart.inverse(plus)
        n = len(solves)
        got = chart.inverse(minus)
        assert len(solves) > n
        assert np.array_equal(_bits(got),
                              _bits(_new_chart(chart).inverse(minus)))

    def test_returned_zeta_is_a_copy(self, case):
        chart, a, _, _, _ = _memo_case(case)
        expected = _new_chart(chart).inverse(a)
        for _ in range(2):  # the solve's result, then the memo's
            got = chart.inverse(a)
            assert np.array_equal(_bits(got), _bits(expected))
            got[:] = np.nan
        assert np.array_equal(_bits(chart.inverse(a)), _bits(expected))

    def test_shapes(self, solves, case):
        chart, a, _, _, _ = _memo_case(case)
        fresh = _new_chart(chart)
        for z in (np.array(a[3]), a[:120].reshape(8, 15), a[:120]):
            n = len(solves)
            got = chart.inverse(z)
            assert len(solves) > n  # a new shape is a new key
            assert got.shape == z.shape
            assert np.array_equal(_bits(got), _bits(fresh.inverse(z)))
            again = chart.inverse(z)
            assert again.shape == z.shape
            assert np.array_equal(_bits(again), _bits(got))

    def test_one_entry(self, solves, case):
        chart, a, b, _, _ = _memo_case(case)
        counts = []
        for z in (a, b, a):
            n = len(solves)
            chart.inverse(z)
            counts.append(len(solves) - n)
        assert all(c > 0 for c in counts)  # A is solved twice

    def test_failed_solve_leaves_no_entry(self, monkeypatch, case):
        chart, a, b, _, fdf = _memo_case(case, n=2)
        chart.inverse(a)
        if isinstance(chart, HHPStrip):
            _stiffen_hhp(monkeypatch)
        else:
            TestInverseFailure._stiffen(monkeypatch, ScherkStrip, fdf)
        for z in (b, b, a):  # neither B nor the earlier A is remembered
            with pytest.raises(ConvergenceError):
                chart.inverse(z)


def test_scherk_eval_grad_reuses_eval_u_solve(newton_spy):
    sol = Scherk(0.5, 1.0)
    pts = _scherk_points(1000, 3)
    sol.eval_u(pts)
    n = len(newton_spy)
    assert n >= 2  # the bulk and the corner chart
    sol.eval_grad(pts)
    assert len(newton_spy) == n


def test_weiss_energy_solves_arc_nodes_once(newton_spy, monkeypatch):
    added = []
    inverse = HHPStrip.inverse

    def counted(self, z):
        n = len(newton_spy)
        w = inverse(self, z)
        added.append(len(newton_spy) - n)
        return w

    monkeypatch.setattr(HHPStrip, "inverse", counted)
    weiss_energy(Hairpin(1.0), (0.0, np.pi / 2 + 1.0), 0.5)
    # eval_grad's call solves the arc nodes, eval_u's call reuses them
    assert len(added) == 2 and added[0] > 0 and added[1] == 0


# ----------------------------------------------------------------------
# closed-form Scherk derivatives against φ_s
# ----------------------------------------------------------------------

def _scherk_derivative_points(chart):
    """Bulk points, the cut Im ζ = ±l/2 with Re ζ < b, and rings just inside
    and outside the corner chart's switch |ζ − ζ*| = l/10, in Re ζ ≥ 0."""
    rng = np.random.default_rng(7)
    l, b = chart.l, chart.b
    bulk = (rng.uniform(0.0, 2.0 * b + l, 400)
            + 1j * rng.uniform(-0.5, 0.5, 400) * l)
    cut = np.linspace(0.0, b, 40, endpoint=False) + 0.5j * l
    alpha = np.linspace(0.0, np.pi, 61)
    rings = np.concatenate([chart.zeta_c - 0.1 * l * f * np.exp(1j * alpha)
                            for f in (0.9, 1.0 - 1e-9, 1.0 + 1e-9, 1.1)])
    rings = rings[rings.real >= 0.0]
    upper = np.concatenate([cut, rings])
    return np.concatenate([bulk, upper, np.conj(upper)])


class TestScherkDerivatives:
    @pytest.mark.parametrize("s", [0.02, 0.125, 0.5, 0.875, 0.98])
    def test_match_phi(self, s):
        chart = ScherkStrip(s=s)
        zeta = _scherk_derivative_points(chart)
        near = np.abs(zeta - chart.zeta_c) < 0.1 * chart.l
        near |= np.abs(zeta - np.conj(chart.zeta_c)) < 0.1 * chart.l
        assert near.any() and not near.all()
        d_phi = chart.derivative(zeta)
        d_psi = chart.dual_derivative(zeta)
        assert np.max(np.abs(d_phi / chart.integrand(zeta) - 1.0)) < 1e-13
        assert np.max(np.abs(d_psi / np.exp(-chart.phi(zeta)) - 1.0)) < 1e-13

    def test_shapes(self):
        chart = ScherkStrip(s=0.5)
        zeta = np.array([[0.5 + 0.3j, 1.0 - 0.8j], [2.0 + 0j, 0.1 + 1.0j]])
        assert chart.derivative(zeta).shape == (2, 2)
        assert chart.dual_derivative(np.array(0.5 + 0.3j)).shape == ()
        assert np.allclose(chart.derivative(zeta)
                           * chart.dual_derivative(zeta), 1.0, atol=1e-14)


class TestScherkPhiRoute:
    """u and ∇u against the route through φ_s: the oracle driver with
    Φ_s′ = e^{φ_s} in Newton and Ψ_s′ = e^{−φ_s} in the gradient.

    Near a saddle, e^{−φ_s} cancels in 1 + e^{2π(ζ−b)/l} and loses digits
    like ε/|ζ − ζ*|, while r comes from the corner chart; there the two
    gradients part by up to 3e-13 within 1e-3 of the saddle, so ∇u is
    compared from 1e-2 on (which still covers the corner chart's zone)."""

    @pytest.mark.parametrize("s", [0.05, 0.125, 0.5, 0.875, 0.95])
    def test_eval_matches_phi_route(self, monkeypatch, s):
        pts = _scherk_points(3000, 5)
        pts = pts[np.hypot(pts[:, 0], np.abs(pts[:, 1]) - np.pi) >= 1e-2]
        sol = Scherk(s, 1.0)
        u, g = sol.eval_u(pts), sol.eval_grad(pts)
        monkeypatch.setattr(
            conformal, "_damped_newton",
            lambda targets, z0, fdf, project: _damped_newton_oracle(
                targets, z0, lambda z: fdf(z)[0], lambda z: fdf(z)[1],
                project))
        monkeypatch.setattr(ScherkStrip, "_bulk_fdf", lambda self, zeta: (
            self.forward(zeta), self.integrand(zeta)))
        monkeypatch.setattr(ScherkStrip, "dual_derivative",
                            lambda self, zeta: np.exp(-self.phi(zeta)))
        sol = Scherk(s, 1.0)
        assert np.max(np.abs(u - sol.eval_u(pts))) <= 1e-13
        assert np.max(np.abs(g - sol.eval_grad(pts))) <= 1e-13
