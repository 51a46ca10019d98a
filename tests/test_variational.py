"""Discrete energy oracles, test-field calculus consistency, residual
behaviors (exact vs. one-sided competitor), Weiss functional, viscosity
slopes, and a small minimizer run."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onephase.errors import DomainError, InvalidInputError
from onephase.quad import gauss_nodes
from onephase.solutions import (DiskComplement, HalfPlane, Hairpin,
                                RigidMotion, Scherk, TwoPlane, Wedge, Window)
from onephase.variational import (OneSidedPlane, ScalarField2D,
                                  TestVectorField, _circle_integrals,
                                  _stiffness, ac_energy, minimize_ac,
                                  variational_residual, viscosity_slope,
                                  weiss_energy)


class TestScalarField:
    def test_from_solution_matches_eval(self, halfplane):
        w = Window(-1.0, -1.0, 1.0, 1.0)
        fld = ScalarField2D.from_solution(halfplane, w, h=0.25)
        X, Y = fld.nodes()
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

    def test_shape_validation(self):
        w = Window(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            ScalarField2D(window=w, h=0.5, values=np.zeros((4, 4)))

    def test_save_load_round_trip(self, tmp_path, halfplane):
        w = Window(-1.0, -1.0, 1.0, 1.0)
        fld = ScalarField2D.from_solution(halfplane, w, h=0.5)
        path = tmp_path / "field.csv"
        fld.save(path)
        back = ScalarField2D.load(path)
        assert back.window.as_tuple() == fld.window.as_tuple()
        assert back.h == fld.h
        assert np.array_equal(back.values, fld.values)


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
        fld = ScalarField2D.from_solution(HalfPlane(), w, h=h)
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
            TestVectorField.radial_bump(center=(0.2, -0.1), r0=0.4, r1=0.9),
            TestVectorField.directional_bump(center=(0.0, 0.3), r0=0.3,
                                             r1=1.1, direction=(0.6, -0.8)),
        ]

    @given(x=st.floats(-1.2, 1.2), y=st.floats(-1.2, 1.2))
    @settings(max_examples=60, deadline=None)
    def test_jacobian_matches_fd(self, x, y):
        p = np.array([x, y])
        h = 1e-6
        for psi in self._fields():
            J = psi.jac(p)
            fd = np.empty((2, 2))
            for j, e in enumerate(np.eye(2)):
                fd[:, j] = (psi.func(p + h * e) - psi.func(p - h * e)) / (2 * h)
            assert np.max(np.abs(J - fd)) < 5e-6

    @given(x=st.floats(-1.2, 1.2), y=st.floats(-1.2, 1.2))
    @settings(max_examples=60, deadline=None)
    def test_div_is_trace_of_jac(self, x, y):
        p = np.array([x, y])
        for psi in self._fields():
            assert psi.div(p) == pytest.approx(np.trace(psi.jac(p)),
                                               abs=1e-12)

    def test_compact_support(self):
        psi = TestVectorField.radial_bump(r0=0.3, r1=0.6)
        far = np.array([[0.7, 0.0], [0.0, -2.0], [0.61, 0.0]])
        assert np.all(psi.func(far) == 0.0)
        assert np.all(psi.div(far) == 0.0)
        assert np.all(psi.jac(far) == 0.0)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            TestVectorField.radial_bump(r0=1.0, r1=0.5)


class TestResidual:
    def test_exact_solutions_decay(self):
        w = Window(-1.0, -1.0, 1.0, 1.0)
        psi = TestVectorField.radial_bump(center=(0.05, 0.1), r0=0.4, r1=0.9)
        for sol in (HalfPlane(), TwoPlane(a=0.5), Wedge(s=1.0)):
            r_c = abs(variational_residual(sol, psi, w, 1.0 / 32))
            r_f = abs(variational_residual(sol, psi, w, 1.0 / 128))
            assert r_f < max(0.5 * r_c, 1e-10)

    def test_one_sided_plane_limit(self):
        # δJ → (s²−1)·∫ψ₁(0,x₂)dx₂; for the directional bump along e₁
        # centred on the line, the integral is r0 + r1.
        w = Window(-1.0, -1.0, 1.0, 1.0)
        r0, r1 = 0.3, 0.8
        psi = TestVectorField.directional_bump(center=(0.0, 0.0), r0=r0,
                                               r1=r1, direction=(1.0, 0.0))
        for s in (0.5, 2.0):
            expect = (s**2 - 1.0) * (r0 + r1)
            got = variational_residual(OneSidedPlane(s=s), psi, w, 1.0 / 256)
            assert got == pytest.approx(expect, rel=0.02)

    def test_slope_one_is_exact(self):
        w = Window(-1.0, -1.0, 1.0, 1.0)
        psi = TestVectorField.radial_bump(center=(0.0, 0.0), r0=0.4, r1=0.9)
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


class TestStiffness:
    @pytest.mark.parametrize("shape", [(5, 9), (17, 4), (33, 65)])
    def test_quadratic_form_is_gradient_term(self, shape):
        m, n = shape
        h = 0.125
        w = Window(0.0, 0.0, h * (n - 1), h * (m - 1))
        # v ≤ 0 leaves ac_energy only its cell-gradient term
        v = -np.random.default_rng(m * n).uniform(0.0, 1.0, size=shape)
        expect = ac_energy(ScalarField2D(window=w, h=h, values=v))
        got = v.ravel() @ (_stiffness(shape) @ v.ravel())
        assert got == pytest.approx(expect, rel=1e-12)


class TestMinimize:
    def test_recovers_half_plane_small_grid(self):
        w = Window(-1.0, -1.0, 1.0, 1.0)
        h = 1.0 / 32
        sol = HalfPlane()
        res = minimize_ac(w, h, boundary=sol.eval_u, rng=np.random.default_rng(3))
        assert res.converged
        assert res.residual <= 1e-3
        for phase in res.energy_history:
            arr = np.asarray(phase)
            # monotone up to the line-search acceptance slack 1e-12·max(1,|E|)
            assert np.all(np.diff(arr) <= 1e-11 * max(1.0, abs(arr[0])))
        pts = np.array([[0.5, 0.0], [0.25, -0.4], [0.75, 0.6], [-0.5, 0.0]])
        expect = sol.eval_u(pts)
        assert np.max(np.abs(res.field.interpolate(pts) - expect)) < 2 * h

    def test_positive_phase_is_discrete_harmonic(self):
        # non-square window whose cascade runs 32×24 → 64×48 cells
        w = Window(-1.0, -1.0, 1.0, 0.5)
        res = minimize_ac(w, 1.0 / 32, boundary=HalfPlane().eval_u)
        assert res.history_h == [1.0 / 16] * 3 + [1.0 / 32] * 3
        v = res.field.values
        # K·v by the diagonal-neighbour stencil of the cell-gradient form
        Kv = 2.0 * v[1:-1, 1:-1] - 0.5 * (v[2:, 2:] + v[:-2, :-2]
                                          + v[2:, :-2] + v[:-2, 2:])
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

    def test_negative_trace_rejected(self):
        w = Window(-1.0, -1.0, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            minimize_ac(w, 0.25, boundary=lambda p: p[..., 0])

    def test_init_shape_mismatch(self):
        w = Window(-1.0, -1.0, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            minimize_ac(w, 0.25, boundary=lambda p: np.abs(p[..., 0]),
                        init=np.zeros((3, 3)))


class TestOneSidedPlane:
    def test_values_and_phase(self):
        sol = OneSidedPlane(s=0.5)
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 3.0]])
        assert np.allclose(sol.eval_u(pts), [0.5, 0.0, 1.0])
        assert list(sol.in_positive_phase(pts)) == [True, False, True]

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            OneSidedPlane(s=0.0)
