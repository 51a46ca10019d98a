"""Discrete energy oracles, test-field calculus consistency, residual
behaviors (exact vs. one-sided competitor), Weiss functional, viscosity
slopes, the multigrid preconditioner, and minimizer runs.  scipy's sparse
matrices and `splu` are the oracle for the 5-point stiffness and for the
cleanup solve."""

import hashlib
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onephase import variational
from onephase.cli import _bump_fields
from onephase.common import format_float
from onephase.errors import ConvergenceError, DomainError, InvalidInputError
from onephase.geometry import _label4
from onephase.quad import gauss_nodes
from onephase.solutions import (DiskComplement, HalfPlane, Hairpin,
                                OneSidedPlane, RigidMotion, Scherk, TwoPlane,
                                Wedge, Window)
from onephase.variational import (ScalarField2D, TestVectorField, _Multigrid,
                                  _circle_integrals, _neighbour_sum, _pcg,
                                  _prolong, _restrict, ac_energy, minimize_ac,
                                  variational_residual, viscosity_slope,
                                  weiss_energy)

from helpers import (FAMILY_MEMBERS, count_points, field_from_solution,
                     traced_peak, vector_field_func, vector_field_jac)


class TestScalarField:
    def test_from_solution_matches_eval(self, halfplane):
        w = Window(-1.0, -1.0, 1.0, 1.0)
        fld = field_from_solution(halfplane, w, h=0.25)
        X, Y = np.meshgrid(*fld.window.grid(fld.h))
        assert np.allclose(fld.values,
                           halfplane.eval_u(np.stack([X, Y], axis=-1)))

    def test_interpolate_exact_on_bilinear(self):
        w = Window(0.0, 0.0, 1.0, 1.0)
        xs, ys = w.grid(0.125)
        X, Y = np.meshgrid(xs, ys)
        fld = ScalarField2D(window=w, h=0.125, values=2.0 * X - 3.0 * Y + 1.0)
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.0, 1.0, (40, 2))
        expect = 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 1.0
        assert np.allclose(fld.interpolate(pts), expect, atol=1e-13)

    def test_interpolate_skips_zero_weight_corners(self):
        # a NaN at interior node (1, 20) must not reach boundary node
        # (0, 20) or the bottom edge beside it through a zero weight
        w = Window(-1.0, -1.0, 1.0, 1.0)
        fld = field_from_solution(HalfPlane(), w, 1.0 / 16)
        X, Y = np.meshgrid(*fld.window.grid(fld.h))
        fld.values[1, 20] = np.nan
        fld.values[1, 22] = np.inf
        pts = np.array([[X[0, 20], Y[0, 20]],
                        [X[0, 20] + 0.3 / 16, Y[0, 20]],
                        [X[0, 22], Y[0, 22]], [X[2, 20], Y[2, 20]]])
        got = fld.interpolate(pts)
        assert np.allclose(got, HalfPlane().eval_u(pts), rtol=0.0,
                           atol=1e-15)
        assert np.isnan(fld.interpolate([X[1, 20], Y[1, 20] + 0.01]))

    def test_interpolate_bits_of_the_bilinear_formula(self):
        w = Window(-1.0, -1.0, 1.0, 1.0)
        fld = ScalarField2D(window=w, h=0.125, values=np.random.default_rng(
            2).normal(size=(17, 17)))
        X, Y = np.meshgrid(*fld.window.grid(fld.h))
        pts = np.concatenate([
            np.random.default_rng(3).uniform(-1.2, 1.2, (500, 2)),
            np.stack([X, Y], axis=-1).reshape(-1, 2)])
        fx = np.clip((pts[:, 0] + 1.0) / 0.125, 0.0, 16.0)
        fy = np.clip((pts[:, 1] + 1.0) / 0.125, 0.0, 16.0)
        i, j = np.minimum(fx.astype(int), 15), np.minimum(fy.astype(int), 15)
        tx, ty, v = fx - i, fy - j, fld.values
        expect = ((1 - tx) * (1 - ty) * v[j, i] + tx * (1 - ty) * v[j, i + 1]
                  + (1 - tx) * ty * v[j + 1, i] + tx * ty * v[j + 1, i + 1])
        assert np.array_equal(fld.interpolate(pts), expect)

    def test_shape_validation(self):
        w = Window(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            ScalarField2D(window=w, h=0.5, values=np.zeros((4, 4)))

    def test_save_load_round_trip(self, tmp_path, halfplane):
        w = Window(-1.0, -1.0, 1.0, 1.0)
        fld = field_from_solution(halfplane, w, h=0.5)
        path = tmp_path / "field.csv"
        fld.save(path)
        back = ScalarField2D.load(path)
        assert back.window.as_tuple() == fld.window.as_tuple()
        assert back.h == fld.h
        assert np.array_equal(back.values, fld.values)

    def test_save_matches_per_value_format(self, tmp_path):
        # one '%.17g' per value, joined by commas, one line per row
        w = Window(0.0, 0.0, 1.0, 0.5)
        vals = np.zeros((3, 5))
        vals[0, 1], vals[1, 2], vals[2, 4] = -0.0, 1e-300, -np.pi
        vals[1, 0] = 2.0 ** 60
        path = tmp_path / "field.csv"
        ScalarField2D(window=w, h=0.25, values=vals).save(path)
        expect = "".join(",".join(format_float(v) for v in row) + "\n"
                         for row in vals)
        assert path.read_bytes() == expect.encode()
        assert path.read_text().splitlines()[0] == "0,-0,0,0,0"


class TestEnergy:
    def test_zero_field(self):
        w = Window(-1.0, -1.0, 1.0, 1.0)
        xs, ys = w.grid(0.25)
        fld = ScalarField2D(window=w, h=0.25,
                            values=np.zeros((len(ys), len(xs))))
        assert ac_energy(fld) == 0.0

    @pytest.mark.parametrize("h", [0.25, 0.125, 0.0625])
    def test_half_plane_closed_form(self, h):
        # grad term = |{x₁>0}| = 2 exactly (grid aligned with the FB);
        # indicator term = trapezoid measure of the open column set = 2 − h
        w = Window(-1.0, -1.0, 1.0, 1.0)
        fld = field_from_solution(HalfPlane(), w, h=h)
        assert ac_energy(fld) == pytest.approx(4.0 - h, abs=1e-12)

    def test_positive_constant_counts_full_measure(self):
        w = Window(0.0, 0.0, 1.0, 1.0)
        xs, ys = w.grid(0.25)
        fld = ScalarField2D(window=w, h=0.25,
                            values=np.ones((len(ys), len(xs))))
        assert ac_energy(fld) == pytest.approx(1.0, abs=1e-14)


class TestTestVectorField:
    @staticmethod
    def _fields():
        return [
            TestVectorField(center=(0.2, -0.1), r0=0.4, r1=0.9),
            TestVectorField(center=(0.0, 0.3), r0=0.3, r1=1.1,
                            direction=(0.6, -0.8)),
        ]

    @given(x=st.floats(-1.2, 1.2), y=st.floats(-1.2, 1.2))
    @settings(max_examples=60, deadline=None)
    def test_jacobian_matches_fd(self, x, y):
        p = np.array([x, y])
        h = 1e-6
        for psi in self._fields():
            J = vector_field_jac(psi, p)
            fd = np.empty((2, 2))
            for j, e in enumerate(np.eye(2)):
                fd[:, j] = (vector_field_func(psi, p + h * e)
                            - vector_field_func(psi, p - h * e)) / (2 * h)
            assert np.max(np.abs(J - fd)) < 5e-6

    def test_compact_support(self):
        psi = TestVectorField(center=(0.0, 0.0), r0=0.3, r1=0.6)
        far = np.array([[0.7, 0.0], [0.0, -2.0], [0.61, 0.0]])
        assert np.all(vector_field_func(psi, far) == 0.0)
        div = psi._terms(np.zeros(2), *variational._bump(
            far, psi.center, psi.r0, psi.r1))[0]
        assert np.all(div == 0.0)
        assert np.all(vector_field_jac(psi, far) == 0.0)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            TestVectorField(center=(0.0, 0.0), r0=1.0, r1=0.5)


def _residual_whole_grid(sol, psis, window, h):
    """`variational_residual` sampling ∇u and the phase on every cell of
    the grid, kept as the oracle of the hull sampling's bits."""
    xs, ys = window.grid(h)
    cx = 0.5 * (xs[:-1] + xs[1:])
    cy = 0.5 * (ys[:-1] + ys[1:])
    pts = np.stack(np.meshgrid(cx, cy), axis=-1)
    g = sol.eval_grad(pts)
    g2_ind = g[..., 0] ** 2 + g[..., 1] ** 2
    g2_ind += sol.in_positive_phase(pts)
    out = np.empty(len(psis))
    full = np.zeros_like(g2_ind)
    for k, psi in enumerate(psis):
        c, r1 = psi.center, psi.r1
        box = tuple(slice(np.searchsorted(cs, a - r1),
                          np.searchsorted(cs, a + r1, "right"))
                    for cs, a in ((cy, c[1]), (cx, c[0])))
        bump = variational._bump(pts[box], c, psi.r0, r1)
        dv, gdg = psi._terms(g[box], *bump)
        full[box] = g2_ind[box] * dv - 2.0 * gdg
        out[k] = np.sum(full) * h * h
        full[box] = 0.0
    return out


class TestResidual:
    def test_exact_solutions_decay(self):
        w = Window(-1.0, -1.0, 1.0, 1.0)
        psi = TestVectorField(center=(0.05, 0.1), r0=0.4, r1=0.9)
        for sol in (HalfPlane(), TwoPlane(a=0.5), Wedge(s=1.0)):
            r_c = abs(variational_residual(sol, psi, w, 1.0 / 32))
            r_f = abs(variational_residual(sol, psi, w, 1.0 / 128))
            assert r_f < max(0.5 * r_c, 1e-10)

    def test_one_sided_plane_limit(self):
        # δJ → (s²−1)·∫ψ₁(0,x₂)dx₂; for the directional bump along e₁
        # centred on the line, the integral is r0 + r1.
        w = Window(-1.0, -1.0, 1.0, 1.0)
        r0, r1 = 0.3, 0.8
        psi = TestVectorField(center=(0.0, 0.0), r0=r0, r1=r1,
                              direction=(1.0, 0.0))
        for s in (0.5, 2.0):
            expect = (s**2 - 1.0) * (r0 + r1)
            got = variational_residual(OneSidedPlane(s=s), psi, w, 1.0 / 256)
            assert got == pytest.approx(expect, rel=0.02)

    def test_bump_fields_share_one_bump(self, monkeypatch):
        # the CLI's radial, e1 and e2 fields at two centres: one `_bump`
        # per centre, freed on return, and the bits of one call per field
        fields = [psi for c in ((0.1, -0.05), (-0.3, 0.2))
                  for _, psi in _bump_fields(c, 0.8)]
        sol, w, h = Hairpin(a=0.5), Window(-1.0, -1.0, 1.0, 1.0), 1.0 / 64
        alone = [variational_residual(sol, psi, w, h) for psi in fields]
        refs = []
        bump = variational._bump

        def spy(*args):
            out = bump(*args)
            refs.extend(weakref.ref(a) for a in out)
            return out

        monkeypatch.setattr(variational, "_bump", spy)
        got = variational_residual(sol, fields, w, h)
        assert len(refs) == 2 * 4
        assert all(r() is None for r in refs)
        assert got.tobytes() == np.array(alone).tobytes()

    @given(x=st.floats(-1.5, 1.5), y=st.floats(-1.5, 1.5),
           gx=st.floats(-10.0, 10.0), gy=st.floats(-10.0, 10.0),
           theta=st.floats(0.0, 2.0 * np.pi))
    @settings(max_examples=100, deadline=None)
    def test_closed_forms_match_jacobian(self, x, y, gx, gy, theta):
        # the residual's div ψ and gᵀDψg against the trace and the
        # quadratic form of `jac`, at a drawn point, at ρ = 0 and beyond r1
        c, r0, r1 = (0.1, -0.2), 0.3, 0.8
        p = np.array([[x, y], c, [c[0] + 1.2 * r1, c[1]]])
        g = np.array([gx, gy])
        for psi in (TestVectorField(c, r0, r1),
                    TestVectorField(c, r0, r1,
                                    (np.cos(theta), np.sin(theta)))):
            div, gdg = psi._terms(g, *variational._bump(p, c, r0, r1))
            J = vector_field_jac(psi, p)
            tol = 1e-12 * (1.0 + g @ g)
            np.testing.assert_allclose(div, np.trace(J, axis1=-2, axis2=-1),
                                       rtol=0, atol=tol)
            np.testing.assert_allclose(gdg, np.einsum("i,kij,j->k", g, J, g),
                                       rtol=0, atol=tol)

    @pytest.mark.parametrize("center", [(0.1, -0.05), (0.3, -0.9),
                                        (2.5, 0.3)],
                             ids=["inside", "across_edge", "outside"])
    def test_support_box_matches_full_grid(self, center):
        # the full-grid sum of (|∇u|² + 1_{u>0})·tr(jac ψ) − 2 gᵀ(jac ψ)g
        # over every cell, against the residual on the cutoff's box only;
        # the slope-½ plane puts an O(1) residual on its line {x₁ = 0}
        sol = OneSidedPlane(s=0.5)
        w, h = Window(-1.0, -0.75, 1.0, 1.0), 1.0 / 64
        fields = [psi for _, psi in _bump_fields(center, 0.8)]
        xs, ys = w.grid(h)
        pts = np.stack(np.meshgrid(0.5 * (xs[:-1] + xs[1:]),
                                   0.5 * (ys[:-1] + ys[1:])), axis=-1)
        g = sol.eval_grad(pts)
        ind = sol.in_positive_phase(pts).astype(float)
        g2 = np.sum(g * g, axis=-1)
        oracle = []
        for psi in fields:
            J = vector_field_jac(psi, pts)
            oracle.append(np.sum((g2 + ind) * np.trace(J, axis1=-2, axis2=-1)
                                 - 2.0 * np.einsum("...i,...ij,...j->...",
                                                   g, J, g)) * h * h)
        got = variational_residual(sol, fields, w, h)
        if center == (2.5, 0.3):
            assert np.all(got == 0.0) and np.all(np.array(oracle) == 0.0)
        else:
            assert np.max(np.abs(oracle)) > 0.1
            np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("sol", FAMILY_MEMBERS,
                             ids=lambda sol: sol.kind)
    @pytest.mark.parametrize("centers, r1", [
        ([(0.1, -0.05), (-0.3, 0.2)], 0.8),   # two boxes, partly overlapping
        ([(0.1, -0.05), (3.0, 0.2)], 0.5),    # the second box is empty
        ([(3.0, 0.2), (-3.0, 3.0)], 0.5),     # every box is empty
        ([(0.1, -0.05)], 5.0)],               # one box is the whole grid
        ids=["two", "one_empty", "all_empty", "whole_grid"])
    def test_hull_sampling_matches_whole_grid(self, sol, centers, r1):
        fields = [psi for c in centers for _, psi in _bump_fields(c, r1)]
        w, h = Window(-1.0, -0.75, 1.0, 1.0), 1.0 / 32
        got = variational_residual(sol, fields, w, h)
        assert got.tobytes() == _residual_whole_grid(sol, fields, w,
                                                     h).tobytes()

    def test_samples_only_the_hull(self, monkeypatch):
        """∇u and the phase are sampled once each, on the cells whose
        centres lie in the hull of the boxes [c − r1, c + r1]²; the whole
        grid has 128² cells."""
        sol, w, h = Hairpin(a=0.5), Window(-1.0, -1.0, 1.0, 1.0), 1.0 / 64
        fields = [TestVectorField((0.1, -0.05), 0.1, 0.2),
                  TestVectorField((-0.3, 0.25), 0.1, 0.15, (1.0, 0.0)),
                  TestVectorField((4.0, 0.0), 0.1, 0.2)]
        sizes = {name: count_points(monkeypatch, sol, name)
                 for name in ("eval_grad", "in_positive_phase")}
        variational_residual(sol, fields, w, h)
        centres = -1.0 + h * (np.arange(128) + 0.5)
        rows = np.count_nonzero((centres >= -0.05 - 0.2)
                                & (centres <= 0.25 + 0.15))
        cols = np.count_nonzero((centres >= -0.3 - 0.15)
                                & (centres <= 0.1 + 0.2))
        assert sizes == {"eval_grad": [rows * cols],
                         "in_positive_phase": [rows * cols]}
        assert rows * cols < 128 * 128 / 8

    def test_residual_memory_is_bounded(self):
        # the CLI's three fields on 128² cells: the arrays over the whole
        # grid are the points, ∇u, |∇u|² + 1_{u>0} and one integrand
        sol, w = Hairpin(a=0.5), Window(-1.0, -1.0, 1.0, 1.0)
        fields = [psi for _, psi in _bump_fields((0.1, -0.05), 0.8)]

        def run():
            variational_residual(sol, fields, w, w.width / 128)

        assert traced_peak(run, warm=run) <= 2.5e6

    def test_slope_one_is_exact(self):
        w = Window(-1.0, -1.0, 1.0, 1.0)
        psi = TestVectorField(center=(0.0, 0.0), r0=0.4, r1=0.9)
        r = variational_residual(OneSidedPlane(s=1.0), psi, w, 1.0 / 128)
        assert abs(r) < 1e-3


def _adaptive_circle_integrals(sol, c, radii):
    """∫(|∇u|² + 1_{u>0}) dθ and ∫u² dθ on each circle by adaptive
    bisection, knowing nothing of where F is: an interval is done when its
    10- and 20-point Gauss–Legendre values agree to 1e−13 and its ends lie
    in the same phase (else a jump can hide between an end and the first
    node), or when it is narrower than 1e−12.  Every round refines all open
    intervals of all circles in one batch."""
    n = len(radii)
    x10, w10 = gauss_nodes(10)
    x20, w20 = gauss_nodes(20)
    x = np.concatenate([x10, x20, [0.0, 1.0]])
    circ = np.repeat(np.arange(n), 64)
    lo = np.tile(np.arange(64) * (2.0 * np.pi / 64), n)
    width = np.full(len(circ), 2.0 * np.pi / 64)
    total = np.zeros((2, n))
    while len(circ):
        th = lo[:, None] + width[:, None] * x
        rho = radii[circ][:, None]
        pts = np.stack([c[0] + rho * np.cos(th), c[1] + rho * np.sin(th)],
                       axis=-1)
        g = sol.eval_grad(pts)
        pos = sol.in_positive_phase(pts)
        f = np.stack([g[..., 0] ** 2 + g[..., 1] ** 2 + pos,
                      sol.eval_u(pts) ** 2])
        coarse = width * (f[..., :10] @ w10)
        fine = width * (f[..., 10:30] @ w20)
        done = ((np.all(np.abs(fine - coarse) <= 1e-13, axis=0)
                 & (pos[:, -2] == pos[:, -1])) | (width < 1e-12))
        for k in range(2):
            total[k] += np.bincount(circ[done], fine[k, done], minlength=n)
        circ, lo, width = (np.repeat(v[~done], 2) for v in (circ, lo, width))
        width = width / 2.0
        lo = lo + width * np.tile([0.0, 1.0], len(lo) // 2)
    return total


def _weiss_oracle(sol, center, r):
    """W by the same 48-node radial rule, with adaptive angular integrals."""
    t, tw = gauss_nodes(48)
    bulk, boundary = _adaptive_circle_integrals(
        sol, np.asarray(center, dtype=float), r * np.append(t, 1.0))
    return float(np.dot(tw * t, bulk[:-1])) - float(boundary[-1]) / r**2


_NECK = (0.0, np.pi / 2 + 1.0)


class TestWeiss:
    def test_half_plane_density(self, halfplane):
        assert weiss_energy(halfplane, (0.0, 0.0), 1.0) == pytest.approx(
            np.pi / 2, abs=1e-8)

    def test_scale_invariance_half_plane(self, halfplane):
        vals = [weiss_energy(halfplane, (0.0, 0.0), r)
                for r in (0.25, 0.5, 1.0)]
        spread = (max(vals) - min(vals)) / abs(np.mean(vals))
        assert spread < 1e-7

    def test_wedge_exceeds_half_plane_density(self):
        # the two-sided wedge carries two phases' worth of bulk energy
        w1 = weiss_energy(Wedge(s=1.0), (0.0, 0.0), 1.0)
        assert w1 > np.pi / 2 + 0.1

    def test_invalid_radius(self, halfplane):
        with pytest.raises(InvalidInputError):
            weiss_energy(halfplane, (0.0, 0.0), 0.0)

    def test_hairpin_monotone_at_neck(self, hairpin):
        x0 = (0.0, np.pi / 2 + 1.0)
        vals = [weiss_energy(hairpin, x0, r) for r in (0.5, 1.0, 1.5, 2.0)]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 5e-7

    @pytest.mark.parametrize("sol, center, r", [
        (Hairpin(1.0), _NECK, 0.5), (Hairpin(1.0), _NECK, 1.0),
        (Hairpin(1.0), _NECK, 1.5), (Hairpin(1.0), _NECK, 2.0),
        (DiskComplement(1.0), (0.3, 0.2), 1.0),
        (Scherk(0.5, 1.0), (0.5, 1.0), 1.0)],
        ids=["neck-0.5", "neck-1", "neck-1.5", "neck-2", "disk", "scherk"])
    def test_matches_adaptive_oracle(self, sol, center, r):
        assert weiss_energy(sol, center, r) == pytest.approx(
            _weiss_oracle(sol, center, r), rel=1e-7)

    @pytest.mark.parametrize("angle", [0.0, 0.3, 1.234, 4.0])
    def test_grazing_circle_closed_form(self, angle):
        # the unit circle about (−(1−d), 0) meets {x₁ > 0} in |θ| < α; as
        # d → 0 that arc shrinks below one cell of the crossing grid
        motion = RigidMotion(angle=angle)
        sol = HalfPlane(motion=motion)
        for d in 10.0 ** -np.arange(0.0, 8.5, 0.5):
            c0 = 1.0 - d
            al = np.arccos(c0)
            center = motion.to_world(np.array([-c0, 0.0]))
            bulk, boundary = _circle_integrals(sol, center, [1.0])
            assert abs(bulk[0] - 4.0 * al) <= 1e-10, d
            assert abs(boundary[0] - (al + np.sin(al) * np.cos(al)
                                      - 4.0 * c0 * np.sin(al)
                                      + 2.0 * c0**2 * al)) <= 1e-10, d


class TestViscositySlope:
    def test_exact_families_slope_one(self, hairpin, scherk):
        pts = {
            "halfplane": (HalfPlane(), (0.0, 0.3)),
            "hairpin": (hairpin, (0.0, np.pi / 2 + 1.0)),
        }
        for sol, x0 in pts.values():
            assert viscosity_slope(sol, x0) == pytest.approx(1.0, abs=1e-6)

    def test_one_sided_slope_s(self):
        sol = OneSidedPlane(s=0.5)
        got = viscosity_slope(sol, (0.0, 0.2), direction=(1.0, 0.0))
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_rejects_interior_point(self, halfplane):
        with pytest.raises(DomainError):
            viscosity_slope(halfplane, (0.5, 0.0))


def _stiffness(shape):
    """K₅ on the row-major node grid of `shape`, assembled edge by edge:
    vᵀK₅v = Σ over axis edges of w_e·(v_a − v_b)², w_e = ½ along the
    window boundary."""
    from scipy import sparse
    node = np.arange(shape[0] * shape[1]).reshape(shape)
    rows, cols, weights = [], [], []
    for a, b in ((node[:, :-1], node[:, 1:]), (node[:-1], node[1:])):
        w = np.ones(a.shape)
        if a.shape[0] < shape[0]:  # vertical edges: the side columns
            w[:, 0] = w[:, -1] = 0.5
        else:  # horizontal edges: the top and bottom rows
            w[0] = w[-1] = 0.5
        rows += [a.ravel(), b.ravel(), a.ravel(), b.ravel()]
        cols += [a.ravel(), b.ravel(), b.ravel(), a.ravel()]
        weights += [w.ravel(), w.ravel(), -w.ravel(), -w.ravel()]
    n = node.size
    return sparse.csr_matrix((np.concatenate(weights), (np.concatenate(rows),
                              np.concatenate(cols))), shape=(n, n))


def _slice_neighbour_sum(v):
    """The four axis neighbours of each interior node, summed in the order
    of the minimizer's stencil on 2-D row slices."""
    return v[:-2, 1:-1] + v[2:, 1:-1] + v[1:-1, :-2] + v[1:-1, 2:]


def _k5_interior(v):
    """K₅v at the interior nodes: 4v minus the four axis neighbours."""
    return 4.0 * v[1:-1, 1:-1] - _slice_neighbour_sum(v)


def _slice_restrict(fine, mc, nc):
    """Pᵀ fine at the mc × nc interior nodes of the coarser level, in the
    minimizer's operand order on 2-D slices: the rows, then the columns,
    each weighted ½, 1, ½."""
    t = 0.5 * (fine[1:2 * mc:2] + fine[3:2 * mc + 2:2]) + fine[2:2 * mc + 1:2]
    return (0.5 * (t[:, 1:2 * nc:2] + t[:, 3:2 * nc + 2:2])
            + t[:, 2:2 * nc + 1:2])


def _slice_prolong(coarse, m, n):
    """P coarse at the m × n interior nodes of the finer level, bilinear, in
    the minimizer's operand order on 2-D slices: the columns, then the
    rows."""
    t = np.zeros((coarse.shape[0], n))
    q = (n + 1) // 2
    t[1:-1, 1::2] = coarse[1:-1, 1:-1]
    t[1:-1, 0::2] = 0.5 * (coarse[1:-1, :q] + coarse[1:-1, 1:q + 1])
    out = np.empty((m, n))
    q = (m + 1) // 2
    out[1::2] = t[1:-1]
    out[0::2] = 0.5 * (t[:q] + t[1:q + 1])
    return out


_STENCIL_SHAPES = [(3, 9), (9, 3), (6, 40), (35, 66), (129, 129)]


class TestStiffness:
    @pytest.mark.parametrize("shape", [(5, 9), (17, 4), (33, 65)])
    def test_quadratic_form_is_gradient_term(self, shape):
        m, n = shape
        h = 0.125
        w = Window(0.0, 0.0, h * (n - 1), h * (m - 1))
        # v ≤ 0 leaves ac_energy only its Dirichlet term
        v = -np.random.default_rng(m * n).uniform(0.0, 1.0, size=shape)
        expect = ac_energy(ScalarField2D(window=w, h=h, values=v))
        K = _stiffness(shape)
        assert v.ravel() @ (K @ v.ravel()) == pytest.approx(expect,
                                                             rel=1e-12)
        # on the interior nodes the minimizer's stencil is K₅'s rows
        Kv = (K @ v.ravel()).reshape(shape)[1:-1, 1:-1]
        assert np.allclose(_k5_interior(v), Kv, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("shape", _STENCIL_SHAPES)
    def test_neighbour_sum_runs_flat_with_the_slice_bits(self, shape):
        v = np.random.default_rng(shape[0] * shape[1]).normal(size=shape)
        out = _neighbour_sum(v, np.zeros(shape))
        assert out.shape == shape
        assert out[1:-1, 1:-1].tobytes() == _slice_neighbour_sum(v).tobytes()

    def test_checkerboard_costs_energy(self):
        # the 5-point term couples the two sublattices of the node grid
        w = Window(0.0, 0.0, 1.0, 1.0)
        xs, ys = w.grid(1.0 / 32)
        i, j = np.meshgrid(np.arange(len(xs)), np.arange(len(ys)))
        one = ScalarField2D(window=w, h=1.0 / 32, values=np.ones(i.shape))
        board = ScalarField2D(window=w, h=1.0 / 32,
                              values=1.0 + (-1.0) ** (i + j))
        assert ac_energy(one) == pytest.approx(1.0, abs=1e-14)
        assert ac_energy(board) > ac_energy(one) + 1.0


class TestMinimize:
    def test_recovers_half_plane_small_grid(self):
        w = Window(-1.0, -1.0, 1.0, 1.0)
        h = 1.0 / 32
        sol = HalfPlane()
        res = minimize_ac(w, h, boundary=sol.eval_u)
        assert res.converged
        assert res.residual <= 1e-3
        for phase in res.energy_history:
            arr = np.asarray(phase)
            # monotone up to the line-search acceptance slack 1e-12·max(1,|E|)
            assert np.all(np.diff(arr) <= 1e-11 * max(1.0, abs(arr[0])))
        pts = np.array([[0.5, 0.0], [0.25, -0.4], [0.75, 0.6], [-0.5, 0.0]])
        expect = sol.eval_u(pts)
        assert np.max(np.abs(res.field.interpolate(pts) - expect)) < 2 * h

    def test_line_search_backtracks(self, monkeypatch):
        """Directions four times too long make the line search halve its
        step, and a first direction reversed and stretched 10⁶-fold, an
        ascent direction, exhausts it, so that phase takes no step.  The
        accepted energies still never rise, and the run converges."""
        true = variational._pcg
        calls = []

        def pcg(*args, **kw):
            d, ok = true(*args, **kw)
            calls.append(d)
            return (-1e6 if len(calls) == 1 else 4.0) * d, ok

        monkeypatch.setattr(variational, "_pcg", pcg)
        # one cascade level: 32 cells span the width
        res = minimize_ac(Window(-1.0, -1.0, 1.0, 1.0), 1.0 / 16,
                          HalfPlane().eval_u)
        assert res.converged
        assert len(res.energy_history[0]) == 1
        for phase in res.energy_history:
            assert np.all(np.diff(phase) <= 1e-11 * max(1.0, abs(phase[0])))

    def test_one_gradient_per_accepted_step_and_phase(self, monkeypatch):
        """Trial steps evaluate the energy only: the gradient is formed at
        the start of each phase and once per accepted Newton step."""
        true_gradient = variational._gradient
        calls = []

        def gradient(*args):
            calls.append(args[0].shape)
            return true_gradient(*args)

        monkeypatch.setattr(variational, "_gradient", gradient)
        # the cascade runs h = 1/16 → 1/32
        res = minimize_ac(Window(-1.0, -1.0, 1.0, 1.0), 1.0 / 32,
                          HalfPlane().eval_u)
        assert res.converged
        assert res.history_h == [1.0 / 16] * 3 + [1.0 / 32] * 3
        assert len(calls) == sum(map(len, res.energy_history))
        assert calls.count((65, 65)) == sum(map(len, res.energy_history[3:]))

    def test_positive_phase_is_discrete_harmonic(self):
        # non-square window whose cascade runs 32×24 → 64×48 cells
        w = Window(-1.0, -1.0, 1.0, 0.5)
        res = minimize_ac(w, 1.0 / 32, boundary=HalfPlane().eval_u)
        assert res.history_h == [1.0 / 16] * 3 + [1.0 / 32] * 3
        v = res.field.values
        Kv = 4.0 * v[1:-1, 1:-1] - (v[2:, 1:-1] + v[:-2, 1:-1]
                                    + v[1:-1, 2:] + v[1:-1, :-2])
        positive = v[1:-1, 1:-1] > 0.0
        assert positive.sum() > 100
        assert np.max(np.abs(Kv[positive])) < 1e-10

    def test_newton_steps_do_not_grow_with_the_grid(self):
        # the cascade runs h = 1/16 → 1/32 → 1/64
        res = minimize_ac(Window(-1.0, -1.0, 1.0, 1.0), 1.0 / 64,
                          HalfPlane().eval_u)
        assert res.converged
        assert max(map(len, res.energy_history)) <= 30
        steps = {}
        for level_h, phase in zip(res.history_h, res.energy_history):
            steps[level_h] = steps.get(level_h, 0) + len(phase) - 1
        assert steps[1.0 / 64] <= 2 * steps[1.0 / 16]

    def test_hairpin_reaches_recorded_energy(self):
        # a curved free boundary with zero-phase tongues beside the neck;
        # the reference is the sharp energy perfbench/reference.json records
        # for this run
        res = minimize_ac(Window(-1.0, -1.0, 1.0, 1.0), 1.0 / 64,
                          Hairpin(0.25).eval_u)
        assert res.converged
        for phase in res.energy_history:
            arr = np.asarray(phase)
            assert np.all(np.diff(arr) <= 1e-11 * max(1.0, abs(arr[0])))
        e_ref = 4.8179897823187705
        assert res.energy <= e_ref + 1e-3 * abs(e_ref)

    def test_same_run_at_any_blas_thread_count(self):
        # 105² nodes: OpenBLAS threads a dot product of this length
        code = """if True:
            import hashlib
            from onephase.solutions import HalfPlane, Window
            from onephase.variational import minimize_ac
            r = minimize_ac(Window(-1.0, -1.0, 1.0, 1.0), 2.0 / 104,
                            HalfPlane().eval_u)
            print(r.iterations, r.residual.hex(), r.energy_history,
                  hashlib.sha256(r.field.values.tobytes()).hexdigest())
        """
        outs = [subprocess.run([sys.executable, "-c", code], check=True,
                               env=dict(os.environ, OPENBLAS_NUM_THREADS=n),
                               capture_output=True, text=True).stdout
                for n in ("1", "2")]
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("sol, values, iterations, residual, history", [
        (HalfPlane(),
         "fd9d5bdacf587c1dba6207274a73fe80a96b5e7375ab915f3ad22ec803bc090c",
         36, "0x1.f929ce38c7c1ep-12",
         "792dbd7ead738ea6e9da13d6c353c2d1926dbd38118287f507b6bda0a5f2caff"),
        (Hairpin(0.25),
         "c246b0164057258bb4ebcf7c918e42c7b8a3bab53e4d0c53c3e64d87e2e05f1a",
         106, "0x1.4239a35be09d6p-13",
         "027140a0f547f49364b967488d17becea369cb1e1f4c277aebccc8872f64cf06")],
        ids=["half_plane", "hairpin_0.25"])
    def test_pinned_bits(self, sol, values, iterations, residual, history):
        """The field's bytes, the step count, the residual and every energy
        of the cascade h = 1/16 → 1/32, as recorded: a rewrite of the
        descent's storage keeps its arithmetic and its order."""
        res = minimize_ac(Window(-1.0, -1.0, 1.0, 1.0), 1.0 / 32, sol.eval_u)
        energies = repr([[e.hex() for e in p] for p in res.energy_history])
        assert hashlib.sha256(res.field.values.tobytes()).hexdigest() == values
        assert res.iterations == iterations
        assert res.residual.hex() == residual
        assert hashlib.sha256(energies.encode()).hexdigest() == history

    def test_negative_trace_rejected(self):
        w = Window(-1.0, -1.0, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            minimize_ac(w, 0.25, boundary=lambda p: p[..., 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_trace_rejected(self, bad):
        def trace(p):
            v = HalfPlane().eval_u(p)
            v[5] = bad
            return v

        with pytest.raises(InvalidInputError, match="finite"):
            minimize_ac(Window(-1.0, -1.0, 1.0, 1.0), 0.25, boundary=trace)

    def test_trace_of_wrong_length_rejected(self):
        with pytest.raises(InvalidInputError, match="shape"):
            minimize_ac(Window(-1.0, -1.0, 1.0, 1.0), 0.25,
                        boundary=lambda p: HalfPlane().eval_u(p)[:-1])

    def test_trace_is_read_on_boundary_nodes_only(self):
        # the cascade runs h = 1/16 → 1/32; a chart solve is pointwise, so
        # the boundary nodes alone get the values of a whole-grid call
        sol, w = Hairpin(0.25), Window(-1.0, -1.0, 1.0, 1.0)
        calls = []

        def trace(p):
            calls.append(np.array(p))
            return sol.eval_u(p)

        assert minimize_ac(w, 1.0 / 32, boundary=trace).converged
        assert len(calls) == 2
        for p, level_h in zip(calls, (1.0 / 16, 1.0 / 32)):
            pts = np.stack(np.meshgrid(*w.grid(level_h)), axis=-1)
            ny, nx = pts.shape[0] - 1, pts.shape[1] - 1
            fixed = np.ones((ny + 1, nx + 1), dtype=bool)
            fixed[1:-1, 1:-1] = False
            assert p.shape == (2 * (nx + ny), 2)
            assert np.array_equal(p, pts[fixed])
            assert np.array_equal(sol.eval_u(p), sol.eval_u(pts)[fixed])


def _k5_max_on_positive_phase(v):
    positive = v[1:-1, 1:-1] > 0.0
    return float(np.max(np.abs(_k5_interior(v)[positive])))


class TestMultigrid:
    """The Newton directions and the cleanup solve masked 2K₅ + diag(c)
    systems by CG preconditioned with one multigrid V(1,1) cycle."""

    @staticmethod
    def _system(shape, rng):
        """A mask with a disk-shaped hole, c = 24 on half the nodes (the
        zero phase's h²β″ at ε = h/2), and a random masked vector maker."""
        m, n = shape[0] - 2, shape[1] - 2
        Y, X = np.mgrid[0:m, 0:n]
        mask = (X - n / 2) ** 2 + (Y - m / 2) ** 2 > (min(m, n) / 4) ** 2
        c = np.where(X > n / 2, 24.0, 0.0)

        def vector():
            b = np.zeros(shape)
            b[1:-1, 1:-1] = np.where(mask, rng.normal(size=(m, n)), 0.0)
            return b
        return c, mask, vector

    @pytest.mark.parametrize("shape", [(33, 33), (129, 129), (35, 66),
                                       (106, 106), (6, 40)])
    def test_vcycle_is_symmetric_and_held_nodes_stay_zero(self, shape):
        rng = np.random.default_rng(shape[0] * shape[1])
        c, mask, vector = self._system(shape, rng)
        mg = _Multigrid(shape)
        mg.setup(c, mask)
        for _ in range(3):
            u, w = vector(), vector()
            Mu = mg.vcycle(u, np.empty(shape))
            Mw = mg.vcycle(w, np.empty(shape))
            assert abs(np.sum(w * Mu) - np.sum(u * Mw)) <= \
                1e-14 * abs(np.sum(w * Mu))
            assert np.sum(u * Mu) > 0.0
            assert np.all(Mu[1:-1, 1:-1][~mask] == 0.0)
            assert np.all(Mu[[0, -1]] == 0.0)
            assert np.all(Mu[:, [0, -1]] == 0.0)

    @pytest.mark.parametrize("shape", _STENCIL_SHAPES)
    def test_apply_is_the_kept_stencil(self, shape):
        """apply(x) = keep·((8 + c)·x − 2·(neighbour sum)) bit for bit,
        where keep is 1.0 on the free nodes and 0.0 on the held ones and
        on the ring, which apply leaves at 0."""
        rng = np.random.default_rng(shape[0] + shape[1])
        m, n = shape[0] - 2, shape[1] - 2
        c = rng.uniform(0.0, 24.0, size=(m, n))
        mask = rng.uniform(size=(m, n)) < 0.8
        x = np.zeros(shape)
        x[1:-1, 1:-1] = rng.normal(size=(m, n))
        mg = _Multigrid(shape)
        mg.setup(c, mask)
        keep = mg.keep[0]
        assert np.array_equal(keep[1:-1, 1:-1], mask.astype(float))
        assert not keep[[0, -1]].any() and not keep[:, [0, -1]].any()
        Ax = mg.apply(x)
        expect = keep[1:-1, 1:-1] * ((8.0 + c) * x[1:-1, 1:-1]
                                     - 2.0 * _slice_neighbour_sum(x))
        assert Ax[1:-1, 1:-1].tobytes() == expect.tobytes()
        assert np.all(Ax[[0, -1]] == 0.0) and np.all(Ax[:, [0, -1]] == 0.0)

    @pytest.mark.parametrize("shape", [(33, 33), (35, 66), (6, 40)])
    def test_vcycle_into_out_keeps_the_bits(self, shape):
        rng = np.random.default_rng(shape[0] + 3 * shape[1])
        c, mask, vector = self._system(shape, rng)
        mg = _Multigrid(shape)
        mg.setup(c, mask)
        for _ in range(2):
            b = vector()
            zeros, nans = np.zeros(shape), np.full(shape, np.nan)
            assert mg.vcycle(b, zeros) is zeros
            assert mg.vcycle(b, nans) is nans
            assert nans.tobytes() == zeros.tobytes()

    @pytest.mark.parametrize("shape", _STENCIL_SHAPES)
    def test_transfers_and_stencils_through_built_views(self, shape):
        """Through the views built once, on the multigrid's own arrays, the
        restrictions (of the residual and of c), the prolongation and the
        coarse levels' operator equal the 2-D slice references bit for bit,
        at odd and even node counts."""
        rng = np.random.default_rng(shape[0] * shape[1] + 1)
        m, n = shape[0] - 2, shape[1] - 2
        mg = _Multigrid(shape)
        mg.setup(rng.uniform(0.0, 24.0, size=(m, n)),
                 rng.uniform(size=(m, n)) < 0.8)
        for k in range(len(mg.r) - 1):
            (mf, nf), (mc, nc) = (a.shape for a in (mg.r[k], mg.r[k + 1]))
            for fine, coarse, views in ((mg.r[k], mg.b[k + 1], mg.down[k]),
                                        (mg.c[k], mg.c[k + 1], mg.c_down[k])):
                fine[...] = rng.normal(size=fine.shape)
                _restrict(views)
                assert coarse[1:-1, 1:-1].tobytes() == \
                    _slice_restrict(fine, mc - 2, nc - 2).tobytes()
            mg.x[k + 1][...] = rng.normal(size=(mc, nc))
            _prolong(mg.up[k])
            assert mg.r[k][1:-1, 1:-1].tobytes() == \
                _slice_prolong(mg.x[k + 1], mf - 2, nf - 2).tobytes()
        for k in range(1, len(mg.x)):
            x = mg.x[k]
            x[...] = 0.0
            x[1:-1, 1:-1] = rng.normal(size=(x.shape[0] - 2, x.shape[1] - 2))
            out = np.empty_like(x)
            mg._operate(k, x, out)
            expect = mg.keep[k][1:-1, 1:-1] * (
                mg.diag[k][1:-1, 1:-1] * x[1:-1, 1:-1]
                - 2.0 * _slice_neighbour_sum(x))
            assert out[1:-1, 1:-1].tobytes() == expect.tobytes()
            run = mg.runs[k][1]  # empty on a level with no interior row
            assert run.size == 0 or np.shares_memory(run, x)

    @pytest.mark.parametrize("shape", [(129, 129), (35, 66), (106, 106)])
    def test_pcg_reaches_round_off(self, shape):
        rng = np.random.default_rng(7)
        c, mask, vector = self._system(shape, rng)
        mg = _Multigrid(shape)
        mg.setup(c, mask)
        b = vector()
        x, ok = _pcg(mg.apply, mg.vcycle, b, 1e-12, 40,
                     work=[np.empty(shape) for _ in range(5)])
        assert ok
        r = b - mg.apply(x)
        assert np.sqrt(np.sum(r * r)) <= 1e-12 * np.sqrt(np.sum(b * b))

    @pytest.mark.parametrize("sol", [HalfPlane(), Hairpin(0.25)],
                             ids=["half_plane", "hairpin_0.25"])
    def test_pcg_steps_per_newton_direction(self, monkeypatch, sol):
        """At most 4 PCG steps (operator products) per Newton direction on
        each level of the cascade h = 1/16 → 1/128."""
        true_pcg = variational._pcg
        steps = {}

        def pcg(apply, precond, b, *tol, **kw):
            def counted(x):
                if not tol:  # a Newton direction, not the cleanup
                    counts[-1] += 1
                return apply(x)
            counts = steps.setdefault(2.0 / (b.shape[1] - 1), [])
            counts.append(0)
            return true_pcg(counted, precond, b, *tol, **kw)

        monkeypatch.setattr(variational, "_pcg", pcg)
        res = minimize_ac(Window(-1.0, -1.0, 1.0, 1.0), 1.0 / 128,
                          sol.eval_u)
        assert res.converged
        assert sorted(steps) == [1.0 / 128, 1.0 / 64, 1.0 / 32, 1.0 / 16]
        for level_h in (1.0 / 32, 1.0 / 64, 1.0 / 128):
            newton = steps[level_h][:-1]  # the last call is the cleanup
            assert len(newton) > 5
            assert max(newton) <= 4, level_h

    def test_cleanup_matches_splu(self):
        from scipy.sparse.linalg import splu
        res = minimize_ac(Window(-1.0, -1.0, 1.0, 1.0), 1.0 / 32,
                          Hairpin(0.25).eval_u)
        v = res.field.values
        free = np.zeros(v.shape, dtype=bool)
        free[1:-1, 1:-1] = v[1:-1, 1:-1] > 0.0
        K = _stiffness(v.shape).tocsr()
        idx, rest = np.flatnonzero(free), np.flatnonzero(~free)
        rhs = -(K[idx][:, rest] @ v.ravel()[rest])
        expect = splu(K[idx][:, idx].tocsc()).solve(rhs)
        assert idx.size > 500
        assert np.max(np.abs(v.ravel()[idx] - expect)) <= \
            1e-12 * np.max(np.abs(expect))

    def test_cleanup_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(variational, "_CLEANUP_STEPS", 2)
        with pytest.raises(ConvergenceError, match="relative residual"):
            minimize_ac(Window(-1.0, -1.0, 1.0, 1.0), 1.0 / 16,
                        HalfPlane().eval_u)

    @pytest.mark.parametrize("window, h", [
        (Window(-1.0, -1.0, 1.0, 0.03125), 1.0 / 32),
        (Window(-1.0, -1.0, 1.0, 1.0), 2.0 / 104)],
        ids=["64x33_cells", "104x104_cells"])
    def test_grids_that_do_not_coarsen_evenly(self, window, h):
        # 32 interior rows; 103 interior nodes, which coarsen to 12
        res = minimize_ac(window, h, Hairpin(0.25).eval_u)
        assert res.converged
        assert np.sum(res.field.values > 0.0) > 100
        assert _k5_max_on_positive_phase(res.field.values) <= 1e-10


def _sign_topology(v):
    """(components of {v > 0}, components of {v = 0}, isolated interior
    nodes): 4-connected, and a node is isolated when its sign status
    differs from that of all four axis neighbours."""
    pos = v > 0.0
    inner = pos[1:-1, 1:-1]
    isolated = ((inner != pos[:-2, 1:-1]) & (inner != pos[2:, 1:-1])
                & (inner != pos[1:-1, :-2]) & (inner != pos[1:-1, 2:]))
    return _label4(pos)[1], _label4(~pos)[1], int(np.sum(isolated))


class TestPhaseTopology:
    """The minimizer's phases have the exact solution's component counts:
    a discrete Dirichlet term blind to the checkerboard splits the grid
    into two sublattices, which breaks both phases into pieces."""

    @pytest.mark.parametrize("sol, h, counts", [
        (DiskComplement(0.5), 1.0 / 64, (1, 1)),
        (TwoPlane(0.5), 1.0 / 32, (2, 1))],
        ids=["disk_R0.5_res128", "two_plane_a0.5_res64"])
    def test_component_counts_match_exact(self, sol, h, counts):
        w = Window(-1.0, -1.0, 1.0, 1.0)
        res = minimize_ac(w, h, sol.eval_u)
        assert res.converged
        exact = field_from_solution(sol, w, h).values
        assert _sign_topology(exact) == counts + (0,)
        assert _sign_topology(res.field.values) == counts + (0,)


class TestOneSidedPlane:
    def test_values_and_phase(self):
        sol = OneSidedPlane(s=0.5)
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 3.0]])
        assert np.allclose(sol.eval_u(pts), [0.5, 0.0, 1.0])
        assert list(sol.in_positive_phase(pts)) == [True, False, True]

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            OneSidedPlane(s=0.0)
