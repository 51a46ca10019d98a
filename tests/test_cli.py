"""End-to-end command tests: exit codes, config merging, deterministic
reruns, and the external file formats."""

import json
import subprocess
import sys

import numpy as np
import pytest

from onephase.cli import (PARAMS, WINDOW_LIMIT, _emit, build_parser,
                          config_from_args, main)
from onephase.solutions import KINDS, HalfPlane, Window
from onephase.variational import (ScalarField2D, minimize_ac,
                                  variational_residual)

from helpers import field_from_solution


def run(*argv):
    return main(list(argv))


class TestBoundary:
    def test_single_family(self, tmp_path):
        assert run("boundary", "--family", "half_plane",
                   "--out", str(tmp_path)) == 0
        path = tmp_path / "boundary_half_plane.csv"
        data = path.read_bytes()
        assert b"\r" not in data
        text = data.decode("utf-8")
        lines = text.splitlines()
        assert lines[0] == "component,vertex,x,y"
        # every numeric token round-trips through %.17g unchanged
        for tok in lines[1].split(",")[2:]:
            assert "%.17g" % float(tok) == tok

    def test_dataset_mode(self, tmp_path):
        assert run("boundary", "--out", str(tmp_path)) == 0
        names = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert names == ["boundary_hairpin_a0p25.csv",
                         "boundary_hairpin_a1.csv",
                         "boundary_hairpin_a2.csv",
                         "boundary_scherk_s0p125.csv",
                         "boundary_scherk_s0p5.csv",
                         "boundary_scherk_s0p875.csv"]

    def test_rerun_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run("boundary", "--family", "hairpin", "--param", "a=0.5",
                       "--out", str(d)) == 0
        f1 = (d1 / "boundary_hairpin.csv").read_bytes()
        f2 = (d2 / "boundary_hairpin.csv").read_bytes()
        assert f1 == f2

    @pytest.mark.parametrize("a, x1", [(1.0, 1e5), (0.05, 1e4)])
    def test_hairpin_on_a_wide_window(self, tmp_path, a, x1):
        """A window 10⁵·a wide, inside the window limit: every vertex lies
        in the window, on the catenaries |x₂| = a(π/2 + cosh(x₁/a)) or, at
        a piece's ends, on a window edge between the last vertex and the
        catenary's own crossing of that edge."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "solution": {"family": "hairpin", "params": {"a": a}},
            "window": [-1, -1, x1, 1]}))
        assert run("boundary", "--config", str(cfg),
                   "--out", str(tmp_path)) == 0
        rows = (tmp_path / "boundary_hairpin.csv").read_text().splitlines()
        data = np.array([[float(t) for t in r.split(",")] for r in rows[1:]])
        if a == 1.0:
            # the catenaries stay at |x₂| ≥ π/2 + 1, above the window
            assert len(data) == 0
            return
        # one piece on each catenary
        assert sorted(np.sign(data[data[:, 1] == 0, 3])) == [-1.0, 1.0]
        bound = lambda x: a * (np.pi / 2.0 + np.cosh(x / a))
        crossing = a * np.arccosh(1.0 / a - np.pi / 2.0)
        for comp in np.unique(data[:, 0]):
            piece = data[data[:, 0] == comp][:, 2:]
            assert np.all((piece[:, 0] >= -1.0) & (piece[:, 0] <= x1))
            assert np.all(np.abs(piece[:, 1]) <= 1.0)
            mid = piece[1:-1]
            assert np.allclose(np.abs(mid[:, 1]), bound(mid[:, 0]),
                               rtol=1e-12, atol=0.0)
            for end, nb in ((piece[0], piece[1]), (piece[-1], piece[-2])):
                assert abs(end[1]) == 1.0
                assert abs(nb[0]) < abs(end[0]) <= crossing

    @pytest.mark.parametrize("kind", KINDS)
    def test_param_names_routed_to_family(self, kind):
        names = KINDS[kind].param_names()
        argv = ["boundary", "--family", kind, "--param", "step=0.01"]
        for name in names:
            argv += ["--param", f"{name}=0.5"]
        cfg = config_from_args(build_parser().parse_args(argv))
        assert cfg.solution["params"] == dict.fromkeys(names, 0.5)
        assert cfg.params == {"step": 0.01}
        assert cfg.get_solution().to_dict()["params"] == cfg.solution["params"]

    def test_param_routed_to_family(self, tmp_path):
        assert run("boundary", "--family", "disk_complement",
                   "--param", "R=0.5", "--out", str(tmp_path)) == 0
        data = np.loadtxt(tmp_path / "boundary_disk_complement.csv",
                          delimiter=",", skiprows=1, ndmin=2)
        r = np.hypot(data[:, 2], data[:, 3])
        assert np.allclose(r, 0.5, atol=1e-9)


class TestVerify:
    def test_two_plane_passes(self, tmp_path):
        assert run("verify", "--family", "two_plane", "--param", "a=0.5",
                   "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_passed"]
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["weiss_scaling"].get("skipped")
        assert by_name["mesh_minimality"].get("skipped")
        assert by_name["variational_residual"]["passed"]
        assert by_name["flux_balance"]["passed"]

    def test_moved_two_plane_passes_slope(self, tmp_path):
        # vertices of the moved fronts fall on either side of F by rounding;
        # each gets the limit gradient, so each has a growth direction
        cfg = tmp_path / "cfg.json"
        motion = {"angle": -2.785918327358423,
                  "shift": [0.014888820271370284, -0.0337939746747109]}
        cfg.write_text(json.dumps({"solution": {
            "family": "two_plane", "params": {"a": 0.5}, "motion": motion}}))
        assert run("verify", "--config", str(cfg),
                   "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        slope = {c["name"]: c for c in report["checks"]}["slope_condition"]
        assert slope["passed"] and slope["chart_deviation"] <= 1e-12

    def test_one_sided_plane_fails_by_design(self, tmp_path):
        assert run("verify", "--family", "one_sided_plane",
                   "--param", "s=0.5", "--out", str(tmp_path)) == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert not report["all_passed"]
        by_name = {c["name"]: c for c in report["checks"]}
        assert not by_name["variational_residual"]["passed"]
        assert not by_name["slope_condition"]["passed"]

    def test_mesh_sweep_config(self, tmp_path):
        # at resolution 32 max |H| (4.2e-3) misses the fixed 1e-3 bound
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "solution": {"family": "disk_complement", "params": {"R": 1.0}},
            "params": {"mesh_resolutions": [16, 32], "n_polygons": 2},
        }))
        assert run("verify", "--config", str(cfg), "--out", str(tmp_path)) == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        by_name = {c["name"]: c for c in report["checks"]}
        mesh = by_name.pop("mesh_minimality")
        assert not mesh["passed"]
        assert mesh["curvature_tol"] == 1e-3
        assert all(c.get("passed", True) for c in by_name.values())
        assert mesh["resolutions"] == [16, 32]
        assert mesh["max_abs_H"][1] < mesh["max_abs_H"][0]

    def test_unexpected_error_fails_one_entry(self, tmp_path, monkeypatch,
                                              capsys):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr("onephase.cli.flux_balance", broken)
        assert run("verify", "--family", "two_plane", "--param", "a=0.5",
                   "--out", str(tmp_path)) == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert not report["all_passed"]
        by_name = {c["name"]: c for c in report["checks"]}
        assert set(by_name) == {"variational_residual", "slope_condition",
                                "weiss_scaling", "flux_balance",
                                "circle_max", "mesh_minimality"}
        assert by_name["flux_balance"] == {
            "name": "flux_balance", "passed": False,
            "error": "ZeroDivisionError: division by zero"}
        assert by_name["variational_residual"]["passed"]
        assert "ZeroDivisionError" in capsys.readouterr().err

    def test_residual_grid_sampled_once_per_h(self, tmp_path, monkeypatch):
        """One variational_residual call per h serves all three bump
        fields, and the report holds what one call per field gives."""
        calls = []

        def spy(sol, psi, window, h):
            calls.append((sol, psi, window, h))
            return variational_residual(sol, psi, window, h)

        monkeypatch.setattr("onephase.cli.variational_residual", spy)
        assert run("verify", "--family", "hairpin", "--param", "a=0.25",
                   "--out", str(tmp_path)) == 0
        assert len(calls) == 3
        report = json.loads((tmp_path / "verify_report.json").read_text())
        rows = {c["name"]: c for c in report["checks"]}[
            "variational_residual"]["fields"]
        assert [r["field"] for r in rows] == ["radial", "e1", "e2"]
        for k, row in enumerate(rows):
            assert row["residuals"] == [
                variational_residual(sol, psi[k], window, h)
                for sol, psi, window, h in calls]

    @staticmethod
    def _verify_sweep(tmp_path, family, seed=0):
        """Run `verify` on a small config and return its report; the run
        must end in an exit code and a report, never an exception."""
        out = tmp_path / f"{family}_seed{seed}"
        cfg = tmp_path / f"{family}_seed{seed}.json"
        cfg.write_text(json.dumps({
            "solution": {"family": family, "params": {}},
            "seed": seed,
            "params": {"mesh_resolutions": [16, 32], "n_polygons": 2},
        }))
        code = run("verify", "--config", str(cfg), "--out", str(out))
        assert code in (0, 1)
        return json.loads((out / "verify_report.json").read_text())

    @pytest.mark.parametrize("family", sorted(KINDS))
    def test_every_family_reports_flux(self, tmp_path, family):
        # all_passed is not asserted: at these mesh resolutions the curved
        # families miss the curvature tolerance, and the default wedge and
        # one-sided plane fail the slope condition by definition
        report = self._verify_sweep(tmp_path, family)
        flux = {c["name"]: c for c in report["checks"]}["flux_balance"]
        assert flux["passed"]
        assert "error" not in flux

    def test_disk_complement_over_seeds(self, tmp_path):
        for seed in range(7, 17):
            report = self._verify_sweep(tmp_path, "disk_complement", seed)
            flux = {c["name"]: c for c in report["checks"]}["flux_balance"]
            assert flux["passed"], f"seed {seed}"
            assert "error" not in flux, f"seed {seed}"


class TestMinimize:
    def test_half_plane_converges(self, tmp_path):
        assert run("minimize", "--family", "half_plane",
                   "--resolution", "32", "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "minimize_report.json").read_text())
        assert report["converged"]
        assert (tmp_path / "minimize_field.csv").exists()
        assert (tmp_path / "minimize_field.csv.json").exists()
        assert (tmp_path / "minimize_boundary.csv").exists()
        energy = (tmp_path / "minimize_energy.csv").read_text().splitlines()
        assert energy[0] == "h,phase,iteration,energy"
        assert len(energy) > 10

    def test_same_field_as_library(self, tmp_path):
        assert run("minimize", "--family", "half_plane",
                   "--resolution", "64", "--out", str(tmp_path)) == 0
        res = minimize_ac(Window(-1.0, -1.0, 1.0, 1.0), 2.0 / 64,
                          HalfPlane().eval_u)
        out = ScalarField2D.load(tmp_path / "minimize_field.csv")
        assert np.array_equal(out.values, res.field.values)
        rows = np.loadtxt(tmp_path / "minimize_energy.csv", delimiter=",",
                          skiprows=1)
        assert sorted(set(rows[:, 0])) == [1.0 / 32, 1.0 / 16]
        assert set(rows[:, 1]) == {0.0, 1.0, 2.0}
        assert len(rows) == sum(map(len, res.energy_history))

    def test_odd_cell_count_in_y(self, tmp_path):
        # 64 × 33 cells: an even width alone must not halve the grid
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window": [-1.0, -1.0, 1.0, 0.03125]}))
        assert run("minimize", "--config", str(cfg), "--family", "half_plane",
                   "--resolution", "64", "--out", str(tmp_path)) == 0
        out = ScalarField2D.load(tmp_path / "minimize_field.csv")
        assert out.values.shape == (34, 65)

    def test_boundary_field_header_mismatch(self, tmp_path):
        fld = field_from_solution(HalfPlane(), Window(-2.0, -2.0, 2.0, 2.0),
                                  0.25)
        fpath = tmp_path / "trace.csv"
        fld.save(fpath)
        code = run("minimize", "--resolution", "32",
                   "--param", f"boundary_field={fpath}",
                   "--out", str(tmp_path))
        assert code == 2

    def test_boundary_field_matching(self, tmp_path):
        h = 2.0 / 32
        fld = field_from_solution(HalfPlane(), Window(-1.0, -1.0, 1.0, 1.0),
                                  h)
        fpath = tmp_path / "trace.csv"
        fld.save(fpath)
        assert run("minimize", "--resolution", "32",
                   "--param", f"boundary_field={fpath}",
                   "--out", str(tmp_path)) == 0

    def test_boundary_field_with_nan_exits_2(self, tmp_path, capsys):
        h = 2.0 / 32
        fld = field_from_solution(HalfPlane(), Window(-1.0, -1.0, 1.0, 1.0),
                                  h)
        fld.values[0, 20] = np.nan  # one node of the bottom edge
        fpath = tmp_path / "trace.csv"
        fld.save(fpath)
        assert run("minimize", "--resolution", "32",
                   "--param", f"boundary_field={fpath}",
                   "--out", str(tmp_path)) == 2
        assert "boundary trace must be finite" in capsys.readouterr().err

    def test_nan_inside_a_boundary_field_is_not_read(self, tmp_path):
        # only the boundary nodes are read, and a zero bilinear weight
        # keeps the NaN at interior node (1, 20) off boundary node (0, 20)
        h = 2.0 / 32
        fld = field_from_solution(HalfPlane(), Window(-1.0, -1.0, 1.0, 1.0),
                                  h)
        fld.values[1, 20] = np.nan
        fpath = tmp_path / "trace.csv"
        fld.save(fpath)
        assert run("minimize", "--resolution", "32",
                   "--param", f"boundary_field={fpath}",
                   "--out", str(tmp_path)) == 0
        out = ScalarField2D.load(tmp_path / "minimize_field.csv")
        assert np.all(np.isfinite(out.values))
        assert out.values[0, 20] == fld.values[0, 20]

    def test_boundary_field_that_is_no_path(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"resolution": 16,
                                   "params": {"boundary_field": 1}}))
        assert run("minimize", "--config", str(cfg),
                   "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith(
            "config error: boundary_field must be a path, got 1")

    def test_boundary_field_with_a_numeric_name(self, tmp_path,
                                                monkeypatch):
        # --param keeps a path as text, so a field saved as "1" loads
        field_from_solution(HalfPlane(), Window(-1.0, -1.0, 1.0, 1.0),
                            2.0 / 16).save(tmp_path / "1")
        monkeypatch.chdir(tmp_path)
        assert run("minimize", "--resolution", "16",
                   "--param", "boundary_field=1", "--out", "out") == 0
        assert (tmp_path / "out" / "minimize_report.json").exists()

    def test_zero_trace_gives_zero_field(self, tmp_path):
        h = 2.0 / 32
        w = Window(-1.0, -1.0, 1.0, 1.0)
        xs, ys = w.grid(h)
        fld = ScalarField2D(window=w, h=h,
                            values=np.zeros((len(ys), len(xs))))
        fpath = tmp_path / "zero.csv"
        fld.save(fpath)
        assert run("minimize", "--resolution", "32",
                   "--param", f"boundary_field={fpath}",
                   "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "minimize_report.json").read_text())
        assert report["energy"] == 0.0
        out = ScalarField2D.load(tmp_path / "minimize_field.csv")
        assert np.all(out.values == 0.0)


class TestTraizet:
    def test_disk_outputs(self, tmp_path):
        assert run("traizet", "--family", "disk_complement",
                   "--resolution", "24", "--out", str(tmp_path)) == 0
        report = json.loads(
            (tmp_path / "traizet_disk_complement_report.json").read_text())
        assert report["max_interior_abs_H"] < 0.05
        obj = (tmp_path / "traizet_disk_complement.obj").read_text()
        kinds = {line.split()[0] for line in obj.splitlines()}
        assert kinds == {"v", "f"}
        assert (tmp_path / "traizet_disk_complement_curvature.csv").exists()

    def test_unmeshable_family(self, tmp_path):
        assert run("traizet", "--family", "two_plane",
                   "--out", str(tmp_path)) == 2

    def test_one_sided_plane_has_no_mesh(self, tmp_path, capsys):
        # a HalfPlane subclass: meshing by type would mesh u = x₁ for any s
        assert run("traizet", "--family", "one_sided_plane",
                   "--out", str(tmp_path)) == 2
        assert "no canonical mesh" in capsys.readouterr().err


class TestClassify:
    def test_case_b_two_plane_centered(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "solution": {"family": "two_plane", "params": {"a": 0.1},
                         "motion": {"shift": [0.05, 0.0]}},
        }))
        assert run("classify", "--config", str(cfg),
                   "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "classify_report.json").read_text())
        assert report["case"] == "B"

    def test_case_c_hairpin(self, tmp_path):
        assert run("classify", "--family", "hairpin", "--param", "a=0.05",
                   "--param", "delta=0.25", "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "classify_report.json").read_text())
        assert report["case"] == "C"

    def test_no_boundary_is_check_failure(self, tmp_path):
        assert run("classify", "--family", "hairpin", "--param", "a=3.0",
                   "--out", str(tmp_path)) == 1

    def test_annulus_mode(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "solution": {"family": "wedge", "params": {"s": 1.0}},
            "params": {"mode": "annulus", "delta": 0.01,
                       "scales": [0.1, 0.4]},
        }))
        assert run("classify", "--config", str(cfg),
                   "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "classify_report.json").read_text())
        assert report["max_graph_slope"] <= 1e-6

    def test_bad_mode(self, tmp_path):
        assert run("classify", "--family", "half_plane",
                   "--param", "mode=nonsense", "--out", str(tmp_path)) == 2

    def test_trichotomy_reads_no_scales(self, tmp_path, capsys):
        assert run("classify", "--family", "half_plane",
                   "--param", "scales=[0.1]",
                   "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == \
            "config error: classify mode trichotomy reads no ['scales']\n"
        assert list(tmp_path.iterdir()) == []


class TestConfigHandling:
    def test_malformed_json(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert run("boundary", "--config", str(cfg)) == 2

    def test_missing_config(self, tmp_path):
        assert run("boundary", "--config", str(tmp_path / "absent.json")) == 2

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solutoin": {"family": "half_plane"}}))
        assert run("boundary", "--config", str(cfg)) == 2

    def test_unknown_family(self, tmp_path):
        assert run("boundary", "--family", "torus",
                   "--out", str(tmp_path)) == 2

    def test_param_needs_equals(self, tmp_path):
        assert run("boundary", "--family", "hairpin", "--param", "a0.5",
                   "--out", str(tmp_path)) == 2

    def test_resolution_floor(self, tmp_path):
        assert run("minimize", "--family", "half_plane", "--resolution", "4",
                   "--out", str(tmp_path)) == 2

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "solution": {"family": "half_plane", "params": {}},
            "window": [-1.0, -1.0, 1.0, 1.0],
            "resolution": 16,
        }))
        assert run("minimize", "--config", str(cfg), "--resolution", "32",
                   "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "minimize_report.json").read_text())
        assert report["h"] == 2.0 / 32

    def test_missing_solution(self, tmp_path):
        assert run("verify", "--out", str(tmp_path)) == 2

    def test_non_numeric_classify_param(self, tmp_path):
        assert run("classify", "--family", "half_plane",
                   "--param", "mode=annulus", "--param", "delta=abc",
                   "--out", str(tmp_path)) == 2

    def test_list_param_given_as_one_number(self, tmp_path):
        assert run("classify", "--family", "half_plane",
                   "--param", "mode=annulus", "--param", "scales=0.4",
                   "--out", str(tmp_path)) == 2

    def test_non_numeric_family_param(self, tmp_path):
        assert run("boundary", "--family", "hairpin", "--param", "a=x",
                   "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("solution", [
        "abc",
        {"family": "hairpin", "params": [1]},
        {"family": "half_plane", "motion": {"angle": "x"}},
        {"family": "half_plane", "motion": {"angle": "nan"}},
        {"family": "half_plane", "motion": {"shift": [1]}},
    ], ids=["not_an_object", "params_list", "angle_text", "angle_nan",
            "shift_one_number"])
    def test_malformed_solution(self, tmp_path, solution):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solution": solution}))
        assert run("boundary", "--config", str(cfg),
                   "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("raw", [
        {"tol": "abc"}, {"window": "abc"}, {"window": 5}, {"params": [1, 2]},
    ], ids=["tol_text", "window_text", "window_number", "params_list"])
    def test_malformed_config_value(self, tmp_path, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"solution": {"family": "half_plane"}, **raw}))
        assert run("boundary", "--config", str(cfg),
                   "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("window", [
        [-1.0, -1.0, 1e300, 1.0], [-1.0, -1.0, 1e150, 1.0],
        [-1.0, -1.0, float(np.nextafter(WINDOW_LIMIT, np.inf)), 1.0],
        [-2.0 * WINDOW_LIMIT, -1.0, 1.0, 1.0]],
        ids=["1e300", "1e150", "just_past", "left"])
    def test_window_beyond_limit(self, tmp_path, capsys, window):
        # rejected as a window before any boundary is sampled
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window": window}))
        assert run("boundary", "--family", "half_plane", "--config",
                   str(cfg), "--out", str(tmp_path)) == 2
        assert "window" in capsys.readouterr().err
        assert not (tmp_path / "boundary_half_plane.csv").exists()

    @pytest.mark.parametrize("window", [
        [-1.0, -1.0, WINDOW_LIMIT, 1.0],
        [-WINDOW_LIMIT, -WINDOW_LIMIT, WINDOW_LIMIT, WINDOW_LIMIT]],
        ids=["right", "square"])
    def test_window_at_limit(self, tmp_path, window):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window": window}))
        assert run("boundary", "--family", "half_plane", "--config",
                   str(cfg), "--out", str(tmp_path)) == 0
        assert (tmp_path / "boundary_half_plane.csv").exists()

    def test_mesh_resolutions_given_as_one_number(self, tmp_path):
        # rejected before any check runs: no report is written
        assert run("verify", "--family", "half_plane",
                   "--param", "mesh_resolutions=32",
                   "--out", str(tmp_path)) == 2
        assert not (tmp_path / "verify_report.json").exists()

    @pytest.mark.parametrize("argv", [
        ["traizet", "--family", "hairpin", "--param", "a=inf"],
        ["classify", "--family", "hairpin", "--param", "a=0.05",
         "--param", "mode=trichotomy", "--param", "delta=inf"],
        ["boundary", "--family", "two_plane", "--param", "a=inf"]],
        ids=["traizet_hairpin_a", "classify_delta", "boundary_two_plane_a"])
    def test_infinite_length(self, tmp_path, capsys, argv):
        # not a NaN mesh or an "Infinity" JSON report: no file is written
        assert run(*argv, "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("step", ["abc", "0", "-1"])
    def test_bad_boundary_step(self, tmp_path, step):
        assert run("boundary", "--family", "half_plane",
                   "--param", f"step={step}", "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("params", [
        {"n_polygons": 0}, {"n_polygons": -2},
        {"mesh_resolutions": [0]}, {"mesh_resolutions": [-8]},
        {"mesh_resolutions": [16, 4]}])
    def test_verify_sweep_floor(self, tmp_path, params):
        # rejected before any check runs: no report is written
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "solution": {"family": "hairpin", "params": {}},
            "params": params}))
        assert run("verify", "--config", str(cfg),
                   "--out", str(tmp_path)) == 2
        assert not (tmp_path / "verify_report.json").exists()

    @pytest.mark.parametrize("params", [
        {"n_polygons": 1.9}, {"mesh_resolutions": [16.7]},
        {"mesh_resolutions": [16, 32.5]}])
    def test_verify_fractional_count(self, tmp_path, capsys, params):
        # not truncated to 1 or 16: rejected before any check runs
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "solution": {"family": "hairpin", "params": {}},
            "params": params}))
        assert run("verify", "--config", str(cfg),
                   "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {next(iter(params))} must be an integer")
        assert not (tmp_path / "verify_report.json").exists()

    @pytest.mark.parametrize("key", ["resolution", "seed"])
    def test_non_integer_config_value(self, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "solution": {"family": "half_plane", "params": {}}, key: "abc"}))
        assert run("minimize", "--config", str(cfg),
                   "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("key, value", [("resolution", 16.9),
                                            ("seed", 3.7)])
    def test_fractional_config_value(self, tmp_path, capsys, key, value):
        # not truncated to 16 or 3: rejected before anything runs
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "solution": {"family": "half_plane", "params": {}}, key: value}))
        assert run("minimize", "--config", str(cfg),
                   "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}")
        assert not (tmp_path / "minimize_report.json").exists()

    @pytest.mark.parametrize("command, raw, flags", [
        ("verify", {}, ["--resolution", "16"]),
        ("boundary", {"resolution": 16}, []),
        ("traizet", {"window": [-1, -1, 1, 1]}, []),
        ("minimize", {"seed": 3}, []),
        ("classify", {"window": [5, 5, 6, 6], "seed": 9},
         ["--resolution", "8"])],
        ids=["verify", "boundary", "traizet", "minimize", "classify"])
    def test_unread_setting(self, tmp_path, capsys, command, raw, flags):
        # a setting the command does not read is rejected, not ignored
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"solution": {"family": "half_plane"}, **raw}))
        assert run(command, "--config", str(cfg), *flags,
                   "--out", str(tmp_path)) == 2
        unread = sorted(set(raw) | ({"resolution"} if flags else set()))
        assert capsys.readouterr().err == \
            f"config error: {command} reads no {unread}\n"
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("argv", [
        pytest.param(argv, id=name) for name, argv in [
            ("boundary", ["boundary", "--param", "a=0.5"]),
            ("verify", ["verify", "--family", "half_plane",
                        "--param", "curvature_tol=5e-3"]),
            ("minimize", ["minimize", "--family", "half_plane",
                          "--param", "descent_tol=0.1"]),
            ("traizet", ["traizet", "--family", "hairpin", "--param", "A=2"]),
            ("classify", ["classify", "--family", "half_plane",
                          "--param", "eps=1e-6"]),
            # settable once; the grid spacing is width / resolution, and
            # the verify steps are fixed
            ("minimize_h", ["minimize", "--family", "half_plane",
                            "--param", "h=0.03125"]),
            ("verify_slope_fd_offset", ["verify", "--family", "half_plane",
                                        "--param", "slope_fd_offset=1e-4"]),
            ("verify_flux_step", ["verify", "--family", "half_plane",
                                  "--param", "flux_step=1e-3"]),
            ("classify_seed_point", ["classify", "--family", "half_plane",
                                     "--param", "mode=annulus",
                                     "--param", "seed_point=0.5"])]])
    def test_unknown_param(self, tmp_path, capsys, argv):
        # the boundary dataset mode has no solution to give `a` to
        assert run(*argv, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unknown {argv[0]} parameters")
        assert f"(known: {sorted(PARAMS[argv[0]])})" in err
        assert list(tmp_path.iterdir()) == []

    def test_command_in_config_is_rejected(self, tmp_path, capsys):
        # the command comes from the command line only
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "command": "verify", "solution": {"family": "half_plane"},
            "resolution": 16}))
        assert run("minimize", "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.startswith(
            "config error: unknown config keys: ['command']")
        assert list(tmp_path.iterdir()) == [cfg]

    def test_tol_flag_is_gone(self, tmp_path, capsys):
        assert run("verify", "--family", "half_plane", "--tol", "1e-3",
                   "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith(
            "config error: unknown arguments: --tol 1e-3")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("raw", [{"tol": 1e-3},
                                     {"params": {"flux_tol": 1e-3}}],
                             ids=["tol", "flux_tol"])
    def test_tolerance_in_config_is_rejected(self, tmp_path, capsys, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "solution": {"family": "half_plane", "params": {}}, **raw}))
        assert run("verify", "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.startswith("config error: unknown")
        assert not (tmp_path / "out").exists()


class TestReportOutput:
    def test_numpy_values_print_as_written(self, tmp_path, capsys):
        # the printed text comes from the encoder that writes the file
        path = tmp_path / "report.json"
        _emit({"x": np.float64(0.1), "n": np.int64(3),
               "v": np.array([1.0, 2.5])}, path)
        text = path.read_text()
        assert capsys.readouterr().out == text
        assert json.loads(text) == {"x": 0.1, "n": 3, "v": [1.0, 2.5]}

    @pytest.mark.parametrize("argv, report", [
        (["verify", "--family", "two_plane", "--param", "a=0.5"],
         "verify_report.json"),
        (["minimize", "--family", "half_plane", "--resolution", "32"],
         "minimize_report.json"),
        (["traizet", "--family", "half_plane", "--resolution", "32"],
         "traizet_half_plane_report.json"),
        (["classify", "--family", "half_plane"], "classify_report.json")],
        ids=["verify", "minimize", "traizet", "classify"])
    def test_stdout_is_the_report(self, tmp_path, capsys, argv, report):
        assert run(*argv, "--out", str(tmp_path)) == 0
        assert capsys.readouterr().out == (tmp_path / report).read_text()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "onephase", "boundary", "--family",
             "wedge", "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "boundary_wedge.csv").exists()
        json.loads(proc.stdout)  # the emitted report is valid JSON
