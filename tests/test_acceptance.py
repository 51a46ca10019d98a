"""Acceptance gate: twelve end-to-end checks of the laboratory at pinned
tolerances.  Each test prints its wall time; the stated budgets are
advisory and recorded in the output rather than hard-asserted."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import qmc

from onephase.conformal import (HHPStrip, ScherkStrip, scherk_loop_implicit,
                                scherk_loop_point)
from onephase.errors import TopologyError
from onephase.geometry import (annulus_flat_check, classify_flat,
                               extract_boundary, flux_balance, hausdorff,
                               random_polygon_in_phase)
from onephase.solutions import (DiskComplement, Hairpin, HalfPlane,
                                OneSidedPlane, RigidMotion, Scherk, TwoPlane,
                                Wedge, Window)
from onephase.traizet import (canonical_mesh, mean_curvature,
                              orthogonality_check)
from onephase.variational import (ScalarField2D, TestVectorField,
                                  minimize_ac, variational_residual,
                                  viscosity_slope, weiss_energy)

from slit_chart import SlitHalfPlane, eval_u_slit


def _fb_interior_points(sol, window, step):
    """Analytic-parametrization FB vertices (clip artifacts dropped)."""
    pts = []
    for poly in sol.free_boundary_curves(window, step=step):
        pts.append(poly[2:-2])
    return np.vstack(pts)


def test_criterion_01_hairpin_boundary_exactness(stopwatch):
    """1000 sampled FB points per a ∈ {1/4, 1, 2} satisfy the catenary
    relation ||x₂|/a − (π/2 + cosh(x₁/a))| < 1e−8 (budget: 1 s)."""
    with stopwatch("criterion 1"):
        for a in (0.25, 1.0, 2.0):
            sol = Hairpin(a)
            window = Window(-3.0 * a, -12.0 * a, 3.0 * a, 12.0 * a)
            direct = _fb_interior_points(sol, window, step=6.0 * a / 600)
            # independent route: the slit chart maps the imaginary axis
            # onto the free boundary
            y = a * np.linspace(0.05, 8.0, 500)
            z = SlitHalfPlane(a=a).forward(1j * y)
            chart_pts = np.stack([z.real, z.imag], axis=-1)
            pts = np.vstack([direct, chart_pts])
            assert len(pts) >= 1000
            resid = np.abs(np.abs(pts[:, 1]) / a
                           - (np.pi / 2 + np.cosh(pts[:, 0] / a)))
            assert np.max(resid) < 1e-8, f"a={a}: max {np.max(resid):.3e}"


def test_criterion_02_hairpin_dual_route(stopwatch):
    """|Re cosh φ⁻¹(z) − Re Φ₁⁻¹(z)| < 1e−8 at 50 interior points (budget:
    1 s)."""
    with stopwatch("criterion 2"):
        sol = Hairpin(1.0)
        t = qmc.Halton(d=2, scramble=False, seed=0).random(50)
        zeta = (0.1 + 2.3 * t[:, 0]) + 1j * (0.9 * np.pi * (t[:, 1] - 0.5))
        z = HHPStrip().forward(zeta)
        pts = np.stack([z.real, z.imag], axis=-1)
        u_strip = sol.eval_u(pts)         # Re cosh φ⁻¹(z)
        u_slit = eval_u_slit(sol, pts)    # Re Φ₁⁻¹(z)
        assert np.all(u_strip > 0)
        assert np.max(np.abs(u_strip - u_slit)) < 1e-8


def _hairpin_fb_points(a=1.0, n_half=20):
    sigma = np.linspace(-2.0, 2.0, n_half)
    x1 = a * sigma
    x2 = a * (np.pi / 2 + np.cosh(sigma))
    return np.vstack([np.stack([x1, x2], axis=-1),
                      np.stack([x1, -x2], axis=-1)])


def _scherk_fb_points(s=0.5, a=1.0, n_half=20):
    chart = ScherkStrip(s=s)
    ut = np.linspace(-0.45, 0.45, n_half) * chart.l
    right = a * scherk_loop_point(s, ut)
    left = right.copy()
    left[:, 0] *= -1.0
    return np.vstack([right, left])


def test_criterion_03_slope_condition(stopwatch):
    """|∇u| = 1 ± 1e−6 at FB points via chart-derivative limits, and
    1 ± 5e−3 via finite differences at offset 1e−4 (budget: 1 s)."""
    with stopwatch("criterion 3"):
        cases = [(Hairpin(1.0), _hairpin_fb_points()),
                 (Scherk(0.5, 1.0), _scherk_fb_points())]
        for sol, pts in cases:
            g = sol.eval_grad(pts)
            speed = np.hypot(g[:, 0], g[:, 1])
            assert np.max(np.abs(speed - 1.0)) < 1e-6, sol.kind
            fd = np.array([viscosity_slope(sol, p, r=1e-4) for p in pts])
            assert np.max(np.abs(fd - 1.0)) < 5e-3, sol.kind


def test_criterion_04_scherk_printed_relations(stopwatch,
                                               measure_saddle_height):
    """Loop half-perimeter 2πsa, saddle value 2as·log(1/s), and the loop
    implicit equation, for s ∈ {1/8, 1/2, 7/8}, a = 1 (budget: 5 s)."""
    with stopwatch("criterion 4"):
        a = 1.0
        for s in (0.125, 0.5, 0.875):
            sol = Scherk(s, a)
            # half-perimeter: arclength of the closed-form right half
            ut = np.linspace(-np.pi * s, np.pi * s, 20001)
            half = a * scherk_loop_point(s, ut)
            seg = np.diff(half, axis=0)
            half_perim = float(np.sum(np.hypot(seg[:, 0], seg[:, 1])))
            assert abs(half_perim - 2.0 * np.pi * s * a) < 1e-6, s

            # saddle value: closed form and the measured chart route
            target = 2.0 * a * s * np.log(1.0 / s)
            assert abs(sol.saddle_value() - target) < 1e-12
            measured = a * measure_saddle_height(ScherkStrip(s=s))
            assert abs(measured - target) < 1e-6, s

            # implicit equation on the solution's own loop polyline
            window = Window(-3.0, -3.0, 3.0, 3.0)
            loops = sol.free_boundary_curves(window, step=1e-2)
            assert len(loops) == 1
            vals = scherk_loop_implicit(s, loops[0] / a)
            assert np.max(np.abs(vals)) < 1e-10, s


# -- criterion 5 -------------------------------------------------------------

def _fb_bump_family(centers, r0, r1):
    """Radial + two directional bumps at each center: averaging |δJ| over
    them decorrelates the FB/grid alignment phase that makes the single-bump
    O(h) constant oscillate between refinements."""
    out = []
    for c in centers:
        c = tuple(c)
        out.append(TestVectorField(c, r0, r1))
        out.append(TestVectorField(c, r0, r1, (1.0, 0.0)))
        out.append(TestVectorField(c, r0, r1, (0.0, 1.0)))
    return out


def _residual_cases():
    # (solution, window, FB bump centers, r0, r1); windows are offset from
    # the grid-aligned position so FB cells straddle rather than abut edges
    line = np.stack([np.zeros(5), np.linspace(-0.3, 0.3, 5)], axis=-1)
    th = np.linspace(0.1, 2.0 * np.pi, 5, endpoint=False)
    circle = np.stack([np.cos(th), np.sin(th)], axis=-1)
    sig = np.linspace(-0.8, 0.8, 5)
    catenary = np.stack([sig, np.pi / 2 + np.cosh(sig)], axis=-1)
    loop = scherk_loop_point(0.5, np.linspace(-0.4, 0.4, 5) * np.pi)
    return [
        (HalfPlane(), (-1.01, -1.01, 0.99, 0.99), line, 0.3, 0.6),
        (TwoPlane(0.5), (-1.01, -1.01, 0.99, 0.99), line, 0.3, 0.6),
        (Wedge(1.0), (-1.01, -1.01, 0.99, 0.99), line, 0.3, 0.6),
        (Hairpin(1.0), (-2.01, -0.51, 1.99, 4.49), catenary, 0.5, 1.0),
        (DiskComplement(1.0), (-2.01, -2.01, 1.99, 1.99), circle, 0.4, 0.8),
        (Scherk(0.5, 1.0), (-2.01, -2.01, 1.99, 1.99), loop, 0.35, 0.7),
    ]


def test_criterion_05_variational_discrimination(stopwatch):
    """Exact families: residual → 0 at observed order ≥ 1 over
    h ∈ {1/32, 1/64, 1/128}.  One-sided slope-0.5 plane: residual within
    10% of the analytic limit (s²−1)·∫ψ₁(0, x₂)dx₂ for three fixed test
    fields (budget: 30 s)."""
    with stopwatch("criterion 5"):
        hs = [1.0 / 32, 1.0 / 64, 1.0 / 128]
        for sol, win, centers, r0, r1 in _residual_cases():
            window = Window(*win)
            psis = _fb_bump_family(centers, r0, r1)
            means = [np.mean(np.abs(variational_residual(sol, psis,
                                                         window, h)))
                     for h in hs]
            if max(means) <= 1e-12:
                continue  # already at round-off: nothing left to fit
            order = np.polyfit(np.log(hs),
                               np.log(np.array(means) + 1e-300), 1)[0]
            assert order >= 1.0, \
                f"{sol.kind}: order {order:.2f}, res {means}"

        s = 0.5
        sol = OneSidedPlane(s=s)
        window = Window(-1.0, -1.0, 1.0, 1.0)
        fields = [
            TestVectorField((0.0, 0.0), 0.3, 0.8, (1.0, 0.0)),
            TestVectorField((0.1, 0.25), 0.25, 0.7, (1.0, 0.0)),
            TestVectorField((0.2, -0.2), 0.3, 0.75),
        ]
        for psi in fields:
            target = (s**2 - 1.0) * quad(
                lambda t: psi.func(np.array([0.0, t]))[0], -1.0, 1.0,
                epsabs=1e-12)[0]
            got = variational_residual(sol, psi, window, 1.0 / 128)
            assert abs(got - target) <= 0.1 * abs(target), \
                f"got {got:.5f}, target {target:.5f}"


def test_criterion_06_weiss_homogeneity(stopwatch):
    """Relative spread of W over r ∈ {0.25, 0.5, 1} at most 1e−5 for the
    half-plane and the two-sided wedges; W(P, 0, ·) = π/2 ± 1e−5 (budget:
    10 s)."""
    with stopwatch("criterion 6"):
        radii = [0.25, 0.5, 1.0]
        for sol in (HalfPlane(), Wedge(1.0), Wedge(0.7)):
            vals = [weiss_energy(sol, (0.0, 0.0), r) for r in radii]
            spread = (max(vals) - min(vals)) / abs(np.mean(vals))
            assert spread <= 1e-5, f"{sol.kind}: spread {spread:.2e}"
        for r in radii:
            assert abs(weiss_energy(HalfPlane(), (0.0, 0.0), r)
                       - np.pi / 2) <= 1e-5


_FLUX_CASES = [
    (HalfPlane(), (-2.0, -2.0, 2.0, 2.0)),
    (TwoPlane(0.5), (-2.0, -2.0, 2.0, 2.0)),
    (Wedge(1.0), (-2.0, -2.0, 2.0, 2.0)),
    (Hairpin(1.0), (-3.0, -3.0, 3.0, 3.0)),
    (DiskComplement(1.0), (-3.0, -3.0, 3.0, 3.0)),
    (Scherk(0.5, 1.0), (-2.0, -2.0, 2.0, 2.0)),
]


def test_criterion_07_flux_balance(stopwatch):
    """Net flux below 1e−7 over 20 random positive-phase polygons per
    family at quadrature step 1e−3, with the lemma inequality holding in
    every instance (budget: 30 s)."""
    with stopwatch("criterion 7"):
        for sol, win in _FLUX_CASES:
            rng = np.random.default_rng(7)
            window = Window(*win)
            for k in range(20):
                poly = random_polygon_in_phase(sol, window, rng)
                rep = flux_balance(sol, poly, step=1e-3)
                assert abs(rep.net_flux) < 1e-7, \
                    f"{sol.kind} #{k}: net {rep.net_flux:.2e}"
                assert rep.lemma_holds, f"{sol.kind} #{k}"
                assert rep.fb_measure <= (rep.lipschitz_bound
                                          * rep.rest_measure + 1e-2)


def _rotations(rng, n, theta_max):
    return rng.uniform(-theta_max, theta_max, n)


def test_criterion_08_flatness_trichotomy(stopwatch):
    """Case A for P, Case B for the centered TwoPlane(0.1), Case C for
    Hairpin(0.05), each under 8 random rotations small enough to keep the
    δ-hypothesis (budget: 20 s)."""
    with stopwatch("criterion 8"):
        rng = np.random.default_rng(8)

        # P: a rotation by θ moves the FB segment by up to 3·sin|θ| in B₃
        delta = 0.1
        for th in _rotations(rng, 8, delta / 3.0):
            rep = classify_flat(HalfPlane(motion=RigidMotion(angle=th)),
                                delta=delta)
            assert rep.case == "A", f"theta={th}"

        # centered TwoPlane(0.1): base distance a/2, rotation adds ~3|θ|
        a = 0.1
        for th in _rotations(rng, 8, (1.05 * delta - a / 2.0) / 3.0):
            c, s = np.cos(th), np.sin(th)
            shift = (c * a / 2.0, s * a / 2.0)
            sol = TwoPlane(a, motion=RigidMotion(angle=th, shift=shift))
            rep = classify_flat(sol, delta=delta)
            assert rep.case == "B", f"theta={th}"
            g1 = rep.graphs["g1"]["x1"]
            g2 = rep.graphs["g2"]["x1"]
            assert np.all(g1 < g2)

        # Hairpin(0.05): measured base distance ≈ 0.238 under δ = 0.25
        delta_c = 0.25
        base = 0.239
        for th in _rotations(rng, 8, (1.05 * delta_c - base) / 3.0):
            rep = classify_flat(Hairpin(0.05, motion=RigidMotion(angle=th)),
                                delta=delta_c)
            assert rep.case == "C", f"theta={th}"
            assert rep.arc_attachment_ok


def test_criterion_09_minimizer_recovery(stopwatch):
    """minimize_ac with half-plane data on [−1,1]² at h = 1/128: monotone
    energy, free boundary within 2h of {x₁ = 0}, viscosity slopes at 10 FB
    points inside [0.9, 1.1] (budget: 5 min)."""
    with stopwatch("criterion 9"):
        window = Window(-1.0, -1.0, 1.0, 1.0)
        h = 1.0 / 128
        sol = HalfPlane()
        result = minimize_ac(window, h, boundary=sol.eval_u)
        assert result.converged

        for phase in result.energy_history:
            arr = np.asarray(phase)
            assert np.all(np.diff(arr) <= 1e-11 * max(1.0, abs(arr[0])))

        fb = extract_boundary(result.field)
        verts = np.vstack([c.vertices for c in fb.components])
        band = verts[np.abs(verts[:, 1]) <= 0.9]
        assert len(band) > 0
        segment = np.array([[0.0, -0.9], [0.0, 0.9]])
        assert hausdorff(band, segment, densify_step=h) <= 2.0 * h

        idx = np.linspace(0, len(band) - 1, 10).astype(int)
        for p in band[idx]:
            slope = viscosity_slope(result.field, p, direction=(1.0, 0.0),
                                    r=8.0 * h)
            assert 0.9 <= slope <= 1.1, f"slope {slope:.3f} at {p}"


def test_criterion_10_blowdown_trends(stopwatch):
    """sup_{B₁}|H_a − W₁| strictly decreasing over a ∈ {0.2, 0.1, 0.05};
    the translated-rescaled hairpin approaches the shifted two-plane,
    with the sup distance decreasing over t ∈ {2, 4, 8} (budget: 30 s)."""
    with stopwatch("criterion 10"):
        xs = np.linspace(-1.0, 1.0, 401)
        X, Y = np.meshgrid(xs, xs)
        mask = X**2 + Y**2 <= 1.0
        pts = np.stack([X[mask], Y[mask]], axis=-1)

        wedge_u = Wedge(1.0).eval_u(pts)
        sups = []
        for a in (0.2, 0.1, 0.05):
            sups.append(float(np.max(np.abs(Hairpin(a).eval_u(pts)
                                            - wedge_u))))
        assert sups[0] > sups[1] > sups[2], sups

        # (a/t)·H(t x₁/a, t x₂/a + π/2 + cosh t) → TP_{2a}(x₁ − a, x₂)
        a = 0.5
        hp = Hairpin(1.0)
        tp = TwoPlane(2.0 * a)
        shifted = pts.copy()
        shifted[:, 0] -= a
        tp_u = tp.eval_u(shifted)
        dists = []
        for t in (2.0, 4.0, 8.0):
            scaled = (t / a) * pts
            scaled[:, 1] += np.pi / 2 + np.cosh(t)
            dists.append(float(np.max(np.abs((a / t) * hp.eval_u(scaled)
                                             - tp_u))))
        assert dists[0] > dists[1] > dists[2], dists


def test_criterion_11_traizet_minimality(stopwatch, catenoid_overlay):
    """Interior discrete mean curvature ≤ 1e−3 at resolution 128 and
    decreasing under 32 → 64 → 128; orthogonality defect at FB vertices
    ≤ 1e−3; disk-complement image on the catenoid R·cosh(X₃/R) within
    1e−6 (budget: 2 min)."""
    with stopwatch("criterion 11"):
        for sol in (DiskComplement(1.0), Hairpin(1.0), Scherk(0.5, 1.0)):
            sups = []
            mesh = None
            for res in (32, 64, 128):
                mesh = canonical_mesh(sol, resolution=res)
                H, interior = mean_curvature(mesh)
                sups.append(float(np.max(np.abs(H[interior]))))
            assert sups[0] > sups[1] > sups[2], f"{sol.kind}: {sups}"
            assert sups[2] <= 1e-3, f"{sol.kind}: {sups[2]:.2e}"
            _, defects = orthogonality_check(mesh)
            assert np.max(defects) <= 1e-3, sol.kind
            if isinstance(sol, DiskComplement):
                assert catenoid_overlay(mesh, R=sol.R) < 1e-6


def test_criterion_12_removable_singularity_probe(stopwatch):
    """annulus_flat_check on P and W₁ over B₁ ∖ B_{0.01}: |∇g| ≤ 1e−6 at
    every r ∈ {0.05, 0.1, 0.2, 0.4}; the topology precondition (A) is
    enforced by component counting (budget: 10 s)."""
    with stopwatch("criterion 12"):
        scales = [0.05, 0.1, 0.2, 0.4]
        for sol in (HalfPlane(), Wedge(1.0)):
            reports = annulus_flat_check(sol, delta=0.01, scales=scales)
            assert [r.r for r in reports] == scales
            for rep in reports:
                assert rep.max_graph_slope <= 1e-6, \
                    f"{sol.kind} r={rep.r}: {rep.max_graph_slope:.2e}"
        # the precondition rejects a second front crossing the annulus
        with pytest.raises(TopologyError):
            annulus_flat_check(TwoPlane(0.5), delta=0.01, scales=scales)
