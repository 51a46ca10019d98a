"""Chart forward/inverse round-trips, branch correctness, derivative
consistency, and the closed-form Scherk loop relations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onephase.conformal import (HHPStrip, ScherkStrip, SlitHalfPlane,
                                scherk_loop_implicit, scherk_loop_point,
                                scherk_loop_x2_extent)
from onephase.errors import ConvergenceError, DomainError
from onephase.quad import segment_quad


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

    def test_saddle_measurement_matches_closed_form(self):
        for s in (0.25, 0.5):
            chart = ScherkStrip(s=s)
            measured = chart.measure_saddle_height()
            assert measured == pytest.approx(chart.b, abs=1e-8)

    def test_upper_line_domain(self):
        chart = ScherkStrip(s=0.5)
        with pytest.raises(DomainError):
            chart.upper_line_x2(chart.b * 1.5)


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


class TestInverseFailure:
    """A derivative a million times too large shrinks every Newton step, so
    neither Newton nor the homotopy rescue converges: each inverse must raise
    ConvergenceError with the failed point count and its last iterates in ζ,
    which stay near the Newton start."""

    @staticmethod
    def _stiffen(monkeypatch, cls, name):
        true = getattr(cls, name)
        monkeypatch.setattr(cls, name,
                            lambda self, zeta: 1e6 * true(self, zeta))

    def test_hhp(self, monkeypatch):
        monkeypatch.setattr(HHPStrip, "derivative", staticmethod(
            lambda zeta: 1e6 * (1.0 + np.cosh(zeta))))
        z = np.array([0.3 + 0.2j, 4.0 - 1.0j, -2.0 + 0.5j])
        with pytest.raises(ConvergenceError,
                           match="hhp_inverse: 3 point") as info:
            HHPStrip().inverse(z)
        it = info.value.last_iterate
        assert it.shape == z.shape
        assert np.all(np.abs(it.imag) <= np.pi / 2)
        # the second start (arcsinh near the neck, z/2 far out) ran last
        start = np.where(np.abs(z) <= 2.5, np.arcsinh(z), z / 2.0)
        assert np.allclose(it, start, atol=1e-3)

    def test_slit(self, monkeypatch):
        self._stiffen(monkeypatch, SlitHalfPlane, "derivative")
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
        self._stiffen(monkeypatch, ScherkStrip, "derivative")
        chart = ScherkStrip(s=0.5)
        z = np.array([0.5 + 0.1j, 2.0 - 1.0j, 6.0 + 2.0j])
        with pytest.raises(ConvergenceError,
                           match="scherk_inverse: 3 point") as info:
            chart.inverse(z)
        it = info.value.last_iterate
        assert it.shape == z.shape
        assert np.all(it.real >= 0.0)
        assert np.all(np.abs(it.imag) <= 0.5 * chart.l)
        assert np.allclose(it, chart._bulk_start(z), atol=1e-3)

    def test_scherk_corner(self, monkeypatch):
        self._stiffen(monkeypatch, ScherkStrip, "_corner_Gp")
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
