"""Wirtinger derivative oracles, path-independence of the integrated map,
Scherk periods, mesh construction/welding, sphere-calibrated mean curvature,
free-boundary orthogonality, the catenoid overlay, and file outputs."""

import numpy as np
import pytest

from onephase.conformal import scherk_loop_implicit
from onephase.errors import DomainError, InvalidInputError, TopologyError
from onephase.solutions import (DiskComplement, Hairpin, HalfPlane, Scherk,
                                TwoPlane, Window)
from onephase.traizet import (SurfaceMesh, _segment_integral, _visible,
                              build_mesh, canonical_mesh, catenoid_overlay,
                              curvature_csv, mean_curvature,
                              orthogonality_check, patch_diskcomplement,
                              patch_hairpin, patch_halfplane, patch_scherk,
                              scherk_period, traizet_map, wirtinger)


def _disk_expected(z0, z1, R=1.0):
    """Closed-form T offset for the disk complement: (2u_z)² = R²/z² has the
    single-valued primitive −R²/z on r > R."""
    integral = (-R**2 / z1) - (-R**2 / z0)
    x12 = 0.5 * ((np.conj(z1) - np.conj(z0)) - integral)
    return x12


class TestWirtinger:
    def test_half_plane_constant(self, halfplane):
        pts = np.array([[0.5, 0.2], [1.0, -1.0], [0.001, 5.0]])
        assert np.allclose(wirtinger(halfplane, pts), 0.5 + 0.0j, atol=1e-14)

    def test_disk_closed_form(self, disk, rng):
        th = rng.uniform(0, 2 * np.pi, 25)
        r = rng.uniform(1.1, 4.0, 25)
        pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
        z = pts[:, 0] + 1j * pts[:, 1]
        assert np.allclose(wirtinger(disk, pts), 1.0 / (2.0 * z), atol=1e-12)

    def test_outside_phase_raises(self, disk):
        with pytest.raises(DomainError):
            wirtinger(disk, np.array([0.5, 0.0]))


class TestTraizetMap:
    def test_fixed_base(self, hairpin):
        p = np.array([0.3, 0.1])
        out = traizet_map(hairpin, p, p)
        assert out[0] == 0.0 and out[1] == 0.0
        assert out[2] == pytest.approx(float(hairpin.eval_u(p)))

    def test_half_plane_vertical_plane(self, halfplane):
        base = np.array([0.4, -0.3])
        z = np.array([1.2, 0.7])
        out = traizet_map(halfplane, base, z)
        # (2u_z)² ≡ 1 on the phase: X₁ = 0, X₂ = −Δx₂, X₃ = x₁
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(-(z[1] - base[1]), abs=1e-12)
        assert out[2] == pytest.approx(z[0], abs=1e-14)

    def test_disk_straight_path(self, disk):
        z0, z1 = complex(1.5, 0.5), complex(2.5, 1.0)
        out = traizet_map(disk, (z0.real, z0.imag), (z1.real, z1.imag))
        expect = _disk_expected(z0, z1)
        assert abs(complex(out[0], out[1]) - expect) < 1e-9
        assert out[2] == pytest.approx(np.log(abs(z1)), abs=1e-12)

    @pytest.mark.parametrize("pair", [
        ((-2.0, 0.0), (2.0, 0.0)),        # straight chord through the disk
        ((-1.5, -1.5), (1.5, 1.5)),       # diagonal through the disk
        ((-2.0, 0.3), (2.0, -0.4)),
    ])
    def test_disk_routed_path_matches_primitive(self, disk, pair):
        p0, p1 = pair
        z0, z1 = complex(*p0), complex(*p1)
        out = traizet_map(disk, p0, p1, resolution=96)
        expect = _disk_expected(z0, z1)
        assert abs(complex(out[0], out[1]) - expect) < 1e-8

    def test_route_reversal_antisymmetric(self, disk):
        p0, p1 = (-2.0, 0.1), (2.0, 0.2)
        fwd = traizet_map(disk, p0, p1)
        bwd = traizet_map(disk, p1, p0)
        assert np.allclose(fwd[:2], -bwd[:2], atol=1e-8)

    def test_disconnected_phase_raises(self):
        sol = TwoPlane(a=1.0)
        with pytest.raises(TopologyError):
            traizet_map(sol, (0.5, 0.0), (-1.5, 0.0), resolution=48)


class TestScherkPeriod:
    @pytest.mark.parametrize("s", [0.25, 0.5])
    def test_period_vanishes(self, s):
        per = scherk_period(Scherk(s=s, a=1.0))
        assert abs(per) < 1e-9

    def test_requires_scherk(self, halfplane):
        with pytest.raises(InvalidInputError):
            scherk_period(halfplane)


def _patch_cases():
    return [(HalfPlane(), patch_halfplane(resolution=16)),
            (DiskComplement(1.0), patch_diskcomplement(1.0, resolution=16)),
            (Hairpin(1.0), patch_hairpin(1.0, resolution=16)),
            (Scherk(0.5, 1.0), patch_scherk(0.5, 1.0, resolution=16)),
            (Scherk(0.875, 1.0), patch_scherk(0.875, 1.0, resolution=16))]


class TestPatchPrimitives:
    """Per-vertex primitives against the path integrals of (2u_z)² dz."""

    @pytest.mark.parametrize("case", range(5))
    def test_differences_match_segment_integrals(self, case):
        sol, patch = _patch_cases()[case]
        pts = patch.points.reshape(-1, 2)
        F = patch.primitive.ravel()
        inner = np.nonzero(~patch.fb_mask.ravel())[0]
        rng = np.random.default_rng(case)
        pairs = []
        if isinstance(sol, Scherk):
            # both halves, and pairs across the axis x₁ = 0
            left = inner[pts[inner, 0] < 0.0]
            right = inner[pts[inner, 0] > 0.0]
            for a, b in ((left, left), (right, right), (left, right)):
                pairs += list(zip(rng.choice(a, 6), rng.choice(b, 6)))
        else:
            pairs = list(zip(rng.choice(inner, 12), rng.choice(inner, 12)))
        checked = 0
        for i, j in pairs:
            if not _visible(sol, pts[i], pts[j]):
                continue
            path = _segment_integral(sol, complex(*pts[i]), complex(*pts[j]))
            assert abs((F[j] - F[i]) - path) < 1e-9, (i, j)
            checked += 1
        assert checked >= 4

    @pytest.mark.parametrize("s", [0.5, 0.875])
    def test_scherk_fb_ring_on_the_loop(self, s):
        # ring vertices lie on the loop, and their primitive agrees with
        # the path integral from the inward neighbour
        sol = Scherk(s, 1.0)
        patch = patch_scherk(s, 1.0, resolution=16)
        ring = patch.points[:, 0]
        assert np.max(np.abs(scherk_loop_implicit(s, ring))) < 1e-14
        for j in range(len(ring)):
            z0 = complex(*patch.points[j, 1])
            path = _segment_integral(sol, z0, complex(*ring[j]))
            diff = patch.primitive[j, 0] - patch.primitive[j, 1]
            assert abs(diff - path) < 1e-9, j

    @pytest.mark.parametrize("case", [1, 3, 4])
    def test_welded_seam_rows_carry_equal_primitives(self, case):
        _, patch = _patch_cases()[case]
        assert patch.weld_rows
        assert np.max(np.abs(patch.primitive[0] - patch.primitive[-1])) \
            < 1e-13

    def test_scherk_heights_are_the_solution(self):
        sol = Scherk(0.875, 1.0)
        patch = patch_scherk(0.875, 1.0, resolution=16)
        assert np.all(patch.u_vals[:, 0] == 0.0)
        assert np.array_equal(patch.u_vals[:, 1:],
                              sol.eval_u(patch.points[:, 1:]))


def _sphere_mesh(R=2.0, n_lat=28, n_lon=56):
    """Closed-seam latitude band of a sphere (poles excluded): top/bottom
    rings are mesh boundary, everything else interior."""
    theta = np.linspace(0.2, np.pi - 0.2, n_lat)
    phi = np.arange(n_lon) * 2.0 * np.pi / n_lon
    T, P = np.meshgrid(theta, phi, indexing="ij")
    verts = np.stack([R * np.sin(T) * np.cos(P),
                      R * np.sin(T) * np.sin(P),
                      R * np.cos(T)], axis=-1).reshape(-1, 3)
    vid = np.arange(n_lat * n_lon).reshape(n_lat, n_lon)
    tris = []
    for j in range(n_lat - 1):
        for i in range(n_lon):
            i2 = (i + 1) % n_lon
            v00, v01 = vid[j, i], vid[j, i2]
            v10, v11 = vid[j + 1, i], vid[j + 1, i2]
            # ordered so face normals point outward
            tris.append((v00, v10, v01))
            tris.append((v10, v11, v01))
    tris = np.array(tris, dtype=int)
    source = np.ones((len(verts), 3))
    return SurfaceMesh(vertices=verts, triangles=tris, vertex_source=source,
                       triangle_sheet=np.ones(len(tris), dtype=int))


class TestMeanCurvature:
    def test_sphere_calibration(self):
        R = 2.0
        mesh = _sphere_mesh(R=R)
        H, interior = mean_curvature(mesh)
        vals = H[interior]
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals - 1.0 / R)) < 5e-3 / R

    def test_boundary_nan(self, halfplane):
        mesh = canonical_mesh(halfplane, resolution=16)
        H, interior = mean_curvature(mesh)
        assert np.all(np.isnan(H[~interior]))
        assert np.all(np.isfinite(H[interior]))

    @pytest.mark.parametrize("fixture", ["disk", "hairpin", "scherk"])
    def test_minimality_refines(self, fixture, request):
        sol = request.getfixturevalue(fixture)
        sups = []
        for res in (32, 64):
            H, interior = mean_curvature(canonical_mesh(sol, resolution=res))
            sups.append(float(np.max(np.abs(H[interior]))))
        assert sups[1] < sups[0]
        assert sups[1] < 5e-3

    def test_half_plane_is_flat(self, halfplane):
        H, interior = mean_curvature(canonical_mesh(halfplane, resolution=24))
        assert np.max(np.abs(H[interior])) < 1e-10


class TestMeshStructure:
    def test_fb_vertices_on_symmetry_plane(self, hairpin):
        mesh = canonical_mesh(hairpin, resolution=24)
        fb = mesh.fb_vertices
        assert len(fb) > 0
        assert np.all(mesh.vertices[fb, 2] == 0.0)

    def test_reflection_symmetry(self, halfplane):
        mesh = canonical_mesh(halfplane, resolution=16)
        x3 = np.sort(mesh.vertices[:, 2])
        assert np.allclose(x3, -x3[::-1], atol=1e-12)

    def test_no_reflect_single_sheet(self):
        mesh = build_mesh(patch_halfplane(resolution=12), reflect=False)
        assert np.all(mesh.triangle_sheet == 1)
        assert np.all(mesh.vertices[:, 2] >= -1e-15)

    @pytest.mark.parametrize("patch", [
        patch_diskcomplement(1.0, resolution=16),
        patch_scherk(0.5, 1.0, resolution=16)], ids=["disk", "scherk"])
    def test_triangles_match_quad_loop(self, patch):
        # welded patches: the last row's ids repeat the first, and the
        # orphaned vertices are dropped and renumbered
        nt, ns, _ = patch.points.shape
        vid = np.arange(nt * ns).reshape(nt, ns)
        vid[-1, :] = vid[0, :]
        tris = []
        for j in range(nt - 1):
            for i in range(ns - 1):
                tris.append((vid[j, i], vid[j, i + 1], vid[j + 1, i + 1]))
                tris.append((vid[j, i], vid[j + 1, i + 1], vid[j + 1, i]))
        tris = np.array(tris)
        remap = np.cumsum(np.isin(np.arange(nt * ns), tris)) - 1
        mesh = build_mesh(patch, reflect=False)
        assert patch.weld_rows
        assert np.array_equal(mesh.triangles, remap[tris])

    def _euler(self, mesh):
        tri = mesh.triangles
        edges = np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]],
                                        tri[:, [2, 0]]]), axis=1)
        n_e = len(np.unique(edges, axis=0))
        return len(mesh.vertices) - n_e + len(tri)

    def test_topology_disk_band_is_annulus(self, disk):
        # welded periodic seam + neck weld: reflected band is an annulus
        assert self._euler(canonical_mesh(disk, resolution=16)) == 0

    def test_topology_half_plane_is_disk(self, halfplane):
        # rectangle reflected through one edge is still a topological disk
        assert self._euler(canonical_mesh(halfplane, resolution=16)) == 1

    def test_canonical_rejects_unmeshable(self):
        with pytest.raises(InvalidInputError):
            canonical_mesh(TwoPlane(a=0.5), resolution=16)


class TestOrthogonality:
    def test_half_plane_exact(self, halfplane):
        mesh = canonical_mesh(halfplane, resolution=16)
        idx, defects = orthogonality_check(mesh)
        assert len(idx) > 0
        assert np.max(defects) < 1e-12

    @pytest.mark.parametrize("fixture", ["disk", "hairpin", "scherk"])
    def test_families_small_defect(self, fixture, request):
        sol = request.getfixturevalue(fixture)
        _, defects = orthogonality_check(canonical_mesh(sol, resolution=64))
        assert np.max(defects) <= 1e-3


class TestCatenoid:
    def test_overlay_band(self, disk):
        mesh = canonical_mesh(disk, resolution=64)
        assert catenoid_overlay(mesh, R=1.0) < 1e-5

    def test_exact_profile_whole_mesh(self, disk):
        # image of the disk complement is the catenoid ρ = R cosh(X₃/R)
        mesh = canonical_mesh(disk, resolution=32)
        fb = mesh.fb_vertices
        center = mesh.vertices[fb, :2].mean(axis=0)
        xy = mesh.vertices[:, :2] - center[None, :]
        rho = np.hypot(xy[:, 0], xy[:, 1])
        assert np.max(np.abs(rho - np.cosh(mesh.vertices[:, 2]))) < 1e-10

    def test_requires_neck(self):
        mesh = build_mesh(patch_halfplane(resolution=8))
        mesh.vertex_source[:, 2] = 1.0  # no FB vertices
        with pytest.raises(InvalidInputError):
            catenoid_overlay(mesh, R=1.0)


class TestOutputs:
    def test_save_obj_round_trip(self, tmp_path, disk):
        mesh = canonical_mesh(disk, resolution=12)
        path = tmp_path / "mesh.obj"
        mesh.save_obj(path)
        verts, faces = [], []
        for line in path.read_text().splitlines():
            kind, *rest = line.split()
            if kind == "v":
                verts.append([float(v) for v in rest])
            elif kind == "f":
                faces.append([int(v) for v in rest])
            else:
                raise AssertionError(f"unexpected OBJ record {kind!r}")
        verts = np.array(verts)
        faces = np.array(faces) - 1
        assert np.array_equal(verts, mesh.vertices)
        assert np.array_equal(faces, mesh.triangles)
        assert faces.min() >= 0 and faces.max() < len(verts)

    def test_curvature_csv(self, tmp_path, halfplane):
        mesh = canonical_mesh(halfplane, resolution=12)
        path = tmp_path / "curv.csv"
        curvature_csv(mesh, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "vertex,H,is_boundary"
        assert len(lines) == 1 + len(mesh.vertices)
        bnd_rows = [ln for ln in lines[1:] if ln.endswith(",1")]
        assert all(ln.split(",")[1] == "nan" for ln in bnd_rows)
