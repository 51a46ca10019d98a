"""Batch command-line front end.

    onephase <command> [--config PATH] [--out DIR] [--resolution N]
                       [--tol X] [--family NAME] [--param k=v ...]

Commands
--------
boundary   Write free-boundary polylines as CSV.  Without a configured
           solution, emits the reference datasets: hairpin a ∈ {1/4, 1, 2}
           and Scherk s ∈ {1/8, 1/2, 7/8}.
verify     Run the verification suite on one solution (inner-variation
           residual, slope condition, Weiss scaling, flux balance, circle
           maxima, mesh mean-curvature/orthogonality sweeps) and write a
           machine-readable pass/fail report.
minimize   Minimize the discrete functional with a Dirichlet trace taken
           from a named solution or a saved field; write the converged
           field, its extracted free boundary, and the energy log.
traizet    Build the reflected minimal-surface mesh for a solution and
           write it as OBJ plus a per-vertex mean-curvature CSV.
classify   Run the flat trichotomy (mode "trichotomy") or the annulus
           flatness probe (mode "annulus") and write a JSON report.

Configuration is one JSON file (``--config``) with optional flag overrides;
every command is deterministic given its config (sampling uses a seeded
generator), so reruns produce byte-identical CSV/JSON/OBJ.

Exit codes: 0 success, 1 check/convergence failure, 2 config or I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .common import Window, format_float, write_csv_atomic, write_json_atomic
from .errors import DomainError, InvalidInputError, OnePhaseError
from .geometry import (FreeBoundary, classify_flat, annulus_flat_check,
                       circle_max, extract_boundary, flux_balance,
                       random_polygon_in_phase)
from .solutions import KINDS, Hairpin, Scherk, Solution, solution_from_dict
from .traizet import CANONICAL_PATCHES, canonical_mesh, curvature_csv, \
    mean_curvature, orthogonality_check
from .variational import (ScalarField2D, TestVectorField, minimize_ac,
                          variational_residual, viscosity_slope, weiss_energy)

__all__ = ["ExperimentConfig", "main",
           "cmd_boundary", "cmd_verify", "cmd_minimize", "cmd_traizet",
           "cmd_classify"]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

#: families the CLI can instantiate: the whole registry, so the one-sided
#: competitor can demonstrate a failing residual check.
CLI_FAMILIES = KINDS


@dataclass
class ExperimentConfig:
    """One experiment record: command, solution descriptor, window,
    resolution, tolerance override, output directory, seed, and free-form
    per-command parameters."""

    command: str = ""
    solution: dict | None = None
    window: tuple | None = None
    resolution: int = 64
    tol: float | None = None
    out: str = "."
    seed: int = 0
    params: dict = field(default_factory=dict)

    def validate(self) -> "ExperimentConfig":
        if self.resolution < 8:
            raise InvalidInputError(
                f"resolution must be >= 8, got {self.resolution}")
        if self.tol is not None and not self.tol > 0:
            raise InvalidInputError(f"tol must be > 0, got {self.tol}")
        if self.window is not None:
            w = tuple(float(v) for v in self.window)
            if len(w) != 4:
                raise InvalidInputError(
                    "window must be [x0, y0, x1, y1]")
            Window(*w)  # raises on degeneracy
            object.__setattr__(self, "window", w)
        return self

    def get_window(self, default=(-2.0, -2.0, 2.0, 2.0)) -> Window:
        return Window(*(self.window if self.window is not None else default))

    def get_solution(self) -> Solution:
        if self.solution is None:
            raise InvalidInputError(
                "this command needs a solution: pass --family/--param or put "
                'a {"family": ..., "params": ...} descriptor in the config')
        return solution_from_dict(self.solution)

    def tolerance(self, name: str, default: float) -> float:
        """Per-check tolerance: explicit params[name] wins, then the generic
        --tol override, then the check's default."""
        if name in self.params:
            v = float(self.params[name])
            if not v > 0:
                raise InvalidInputError(f"{name} must be > 0, got {v}")
            return v
        if self.tol is not None:
            return self.tol
        return default


def load_config(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as e:
        raise InvalidInputError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise InvalidInputError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise InvalidInputError(f"config {path} must be a JSON object")
    return raw


def config_from_args(args) -> ExperimentConfig:
    """Merge (defaults ← config file ← flags) into a validated config."""
    raw = load_config(args.config) if args.config else {}
    known = {"command", "solution", "window", "resolution", "tol", "out",
             "seed", "params"}
    unknown = set(raw) - known
    if unknown:
        raise InvalidInputError(
            f"unknown config keys: {sorted(unknown)} (known: {sorted(known)})")
    cfg = ExperimentConfig(
        command=args.command,
        solution=raw.get("solution"),
        window=raw.get("window"),
        resolution=int(raw.get("resolution", 64)),
        tol=raw.get("tol"),
        out=str(raw.get("out", ".")),
        seed=int(raw.get("seed", 0)),
        params=dict(raw.get("params", {})),
    )
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    if args.resolution is not None:
        cfg = replace(cfg, resolution=args.resolution)
    if args.tol is not None:
        cfg = replace(cfg, tol=args.tol)
    if args.family is not None:
        if args.family not in CLI_FAMILIES:
            raise InvalidInputError(
                f"unknown family {args.family!r}; known: "
                f"{sorted(CLI_FAMILIES)}")
        cfg = replace(cfg, solution={"family": args.family, "params": {}})
    for kv in args.param or []:
        if "=" not in kv:
            raise InvalidInputError(f"--param needs k=v, got {kv!r}")
        k, v = kv.split("=", 1)
        try:
            val = float(v)
        except ValueError:
            val = v
        if cfg.solution is not None and k in _family_param_names(
                cfg.solution.get("family", "")):
            cfg.solution.setdefault("params", {})[k] = val
        else:
            cfg.params[k] = val
    return cfg.validate()


def _family_param_names(family: str) -> set:
    cls = CLI_FAMILIES.get(family)
    if cls is None:
        return set()
    fields = getattr(cls, "__dataclass_fields__", {})
    return {k for k in fields if k != "motion"}


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise InvalidInputError(f"output directory {out} not writable: {e}") \
            from e
    return out


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


def _slug(x: float) -> str:
    return ("%g" % x).replace("-", "m").replace(".", "p")


# ---------------------------------------------------------------------------
# boundary
# ---------------------------------------------------------------------------

def cmd_boundary(cfg: ExperimentConfig) -> int:
    """Free-boundary polyline CSVs (component, vertex, x, y)."""
    out = _outdir(cfg)
    step = cfg.params.get("step")
    written = []

    def emit_one(sol, name):
        window = cfg.get_window(sol.boundary_window())
        pieces = sol.free_boundary_curves(window, step=step)
        path = out / f"boundary_{name}.csv"
        FreeBoundary(pieces).save(path)
        written.append(str(path))

    if cfg.solution is not None:
        sol = cfg.get_solution()
        emit_one(sol, sol.kind)
    else:
        for a in (0.25, 1.0, 2.0):
            emit_one(Hairpin(a), f"hairpin_a{_slug(a)}")
        for s in (0.125, 0.5, 0.875):
            emit_one(Scherk(s, 1.0), f"scherk_s{_slug(s)}")
    _emit({"command": "boundary", "written": written})
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _fb_sample_points(sol, window: Window, n: int = 10):
    """Up to n free-boundary points in `window`, evenly spread along the
    curves; clip-generated endpoints are dropped (they are chord points, not
    points of the analytic boundary)."""
    pts = []
    for poly in sol.free_boundary_curves(window):
        interior = poly[1:-1] if len(poly) > 4 else poly
        take = max(1, min(n, len(interior)))
        idx = np.linspace(0, len(interior) - 1, take).astype(int)
        pts.extend(interior[idx])
    if not pts:
        raise DomainError("no free boundary inside the window")
    pts = np.array(pts)
    idx = np.linspace(0, len(pts) - 1, min(n, len(pts))).astype(int)
    return pts[idx]


def _bump_fields(center, scale):
    c = tuple(center)
    r0, r1 = 0.45 * scale, 0.9 * scale
    return [("radial", TestVectorField.radial_bump(c, r0, r1)),
            ("e1", TestVectorField.directional_bump(c, r0, r1, (1.0, 0.0))),
            ("e2", TestVectorField.directional_bump(c, r0, r1, (0.0, 1.0)))]


def _check(name, fn):
    """Run one verification item; errors become failing entries.  A
    library error keeps its message; any other exception also prints its
    traceback to stderr, and the entry names its type."""
    try:
        entry = fn()
        entry["name"] = name
        return entry
    except OnePhaseError as e:
        return {"name": name, "passed": False, "error": str(e)}
    except Exception as e:
        traceback.print_exc(file=sys.stderr)
        return {"name": name, "passed": False,
                "error": f"{type(e).__name__}: {e}"}


def cmd_verify(cfg: ExperimentConfig) -> int:
    sol = cfg.get_solution()
    out = _outdir(cfg)
    window = cfg.get_window(default=sol.verify_window())
    rng = np.random.default_rng(cfg.seed)
    checks = []

    def check_residual():
        hc = window.width / 32.0
        if abs(round(window.height / hc) * hc - window.height) > 1e-9:
            raise InvalidInputError(
                "variational_residual needs a window whose sides are "
                "commensurable (use a square window)")
        fb = _fb_sample_points(sol, window)
        center = np.array([0.5 * (window.x0 + window.x1),
                           0.5 * (window.y0 + window.y1)])
        c = fb[np.argmin(np.hypot(*(fb - center).T))]
        # keep the bump supported strictly inside the window, else the inner
        # variation picks up uncontrolled boundary terms
        edge = min(c[0] - window.x0, window.x1 - c[0],
                   c[1] - window.y0, window.y1 - c[1])
        if edge <= 4.0 * hc:
            raise DomainError(
                "free boundary too close to the window edge for a compactly "
                "supported test field; widen the window")
        hs = [hc, hc / 2.0, hc / 4.0]
        # a genuine slope defect concentrates O(1) boundary mass; anything
        # at or below this floor is quadrature noise, not a defect
        floor = 1e-4
        rows = []
        ok = True
        for label, psi in _bump_fields(c, 0.95 * edge):
            res = [variational_residual(sol, psi, window, h) for h in hs]
            if max(abs(r) for r in res) <= floor:
                order = None
            else:
                # |r| ~ C·h^p: p is the slope of log|r| against log h
                order = float(np.polyfit(np.log(hs),
                                         np.log(np.abs(res) + 1e-300),
                                         1)[0])
            good = order is None or order >= 0.75
            ok = ok and good
            rows.append({"field": label, "h": hs, "residuals": res,
                         "observed_order": order, "passed": good})
        return {"passed": bool(ok), "fields": rows,
                "rule": "observed order >= 0.75 over three dyadic h, or "
                        f"all residuals <= {floor:g}"}

    def check_slope():
        tol_chart = cfg.tolerance("slope_chart_tol", 1e-6)
        tol_fd = cfg.tolerance("slope_fd_tol", 5e-3)
        offset = float(cfg.params.get("slope_fd_offset", 1e-4))
        pts = _fb_sample_points(sol, window)
        g = sol.eval_grad(pts, boundary_limit=True)
        chart_dev = float(np.max(np.abs(np.hypot(g[:, 0], g[:, 1]) - 1.0)))
        fd_dev = max(abs(viscosity_slope(sol, p, r=offset) - 1.0)
                     for p in pts)
        return {"passed": bool(chart_dev <= tol_chart and fd_dev <= tol_fd),
                "chart_deviation": chart_dev, "chart_tol": tol_chart,
                "fd_deviation": fd_dev, "fd_tol": tol_fd,
                "n_points": len(pts)}

    def check_weiss():
        if not sol.homogeneous or not sol.motion.is_identity():
            return {"skipped": True,
                    "reason": "Weiss scale-invariance holds for homogeneous "
                              "solutions about the origin only"}
        tol = cfg.tolerance("weiss_tol", 1e-5)
        radii = [0.25, 0.5, 1.0]
        vals = [weiss_energy(sol, (0.0, 0.0), r) for r in radii]
        spread = (max(vals) - min(vals)) / abs(np.mean(vals))
        return {"passed": bool(spread <= tol), "radii": radii,
                "values": vals, "relative_spread": float(spread),
                "tolerance": tol}

    def check_flux():
        tol = cfg.tolerance("flux_tol", 1e-7)
        step = float(cfg.params.get("flux_step", 1e-3))
        n_poly = int(cfg.params.get("n_polygons", 5))
        worst = 0.0
        lemma = True
        for _ in range(n_poly):
            poly = random_polygon_in_phase(sol, window, rng)
            rep = flux_balance(sol, poly, step=step)
            worst = max(worst, abs(rep.net_flux))
            lemma = lemma and rep.lemma_holds
        return {"passed": bool(worst <= tol and lemma),
                "max_abs_net_flux": worst, "tolerance": tol,
                "lemma_holds": lemma, "n_polygons": n_poly}

    def check_circle_max():
        tol = cfg.tolerance("circle_tol", 1e-6)
        r = 0.25 * min(window.width, window.height)
        centers = [np.array([0.5 * (window.x0 + window.x1),
                             0.5 * (window.y0 + window.y1)])]
        centers.extend(_fb_sample_points(sol, window, n=2))
        rows = []
        ok = True
        for c in centers:
            m, ratio = circle_max(sol, c, r)
            uc = float(sol.eval_u(np.asarray(c)[None, :])[0])
            # u subharmonic and 1-Lipschitz: u(c) <= max_{∂B_r} u <= u(c) + r
            good = (uc - tol <= m <= uc + r + tol)
            ok = ok and good
            rows.append({"center": [float(c[0]), float(c[1])], "max": m,
                         "ratio": ratio, "u_center": uc, "passed": good})
        return {"passed": bool(ok), "radius": r, "centers": rows}

    def check_mesh():
        if sol.kind not in CANONICAL_PATCHES:
            return {"skipped": True,
                    "reason": f"no canonical mesh for family {sol.kind}"}
        tol_h = cfg.tolerance("curvature_tol", 1e-3)
        tol_orth = cfg.tolerance("orthogonality_tol", 1e-3)
        res_list = cfg.params.get("mesh_resolutions", [32, 64, 128])
        res_list = [int(r) for r in res_list]
        maxes = []
        for res in res_list:
            mesh = canonical_mesh(sol, resolution=res)
            H, interior = mean_curvature(mesh)
            maxes.append(float(np.max(np.abs(H[interior]))))
        sweep_ok = all(b <= max(0.9 * a, tol_h)
                       for a, b in zip(maxes[:-1], maxes[1:]))
        _, defects = orthogonality_check(mesh)
        worst_orth = float(np.max(defects)) if len(defects) else 0.0
        return {"passed": bool(sweep_ok and maxes[-1] <= tol_h
                               and worst_orth <= tol_orth),
                "resolutions": res_list, "max_abs_H": maxes,
                "curvature_tol": tol_h,
                "max_orthogonality_defect": worst_orth,
                "orthogonality_tol": tol_orth}

    checks.append(_check("variational_residual", check_residual))
    checks.append(_check("slope_condition", check_slope))
    checks.append(_check("weiss_scaling", check_weiss))
    checks.append(_check("flux_balance", check_flux))
    checks.append(_check("circle_max", check_circle_max))
    checks.append(_check("mesh_minimality", check_mesh))

    all_passed = all(c.get("passed", True) for c in checks)
    report = {"command": "verify", "solution": sol.to_dict(),
              "window": list(window.as_tuple()),
              "checks": checks, "all_passed": all_passed}
    write_json_atomic(str(out / "verify_report.json"), report)
    _emit(report)
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# minimize
# ---------------------------------------------------------------------------

def cmd_minimize(cfg: ExperimentConfig) -> int:
    out = _outdir(cfg)
    window = cfg.get_window(default=(-1.0, -1.0, 1.0, 1.0))
    h = float(cfg.params.get("h", window.width / cfg.resolution))

    if "boundary_field" in cfg.params:
        fld = _load_field(cfg.params["boundary_field"])
        if (not np.allclose(fld.window.as_tuple(), window.as_tuple(),
                            rtol=0.0, atol=1e-12)
                or abs(fld.h - h) > 1e-12 * max(1.0, h)):
            raise InvalidInputError(
                "boundary_field grid header "
                f"(window={fld.window.as_tuple()}, h={fld.h}) does not match "
                f"the configured grid (window={window.as_tuple()}, h={h})")
        boundary = fld.interpolate
    else:
        sol = cfg.get_solution()
        boundary = sol.eval_u

    result = minimize_ac(window, h, boundary,
                         tol=float(cfg.params.get("descent_tol", 1e-3)))
    history_rows = []
    for k, (level_h, energies) in enumerate(zip(result.history_h,
                                                 result.energy_history)):
        phase = result.history_h[:k].count(level_h)
        history_rows += [[format_float(level_h), phase, it, e]
                         for it, e in enumerate(energies)]

    field_path = out / "minimize_field.csv"
    result.field.save(field_path)
    fb_path = out / "minimize_boundary.csv"
    extract_boundary(result.field).save(fb_path)
    energy_path = out / "minimize_energy.csv"
    write_csv_atomic(str(energy_path), ["h", "phase", "iteration", "energy"],
                     history_rows)

    report = {"command": "minimize", "h": h,
              "window": list(window.as_tuple()),
              "energy": result.energy, "residual": result.residual,
              "iterations": result.iterations,
              "converged": bool(result.converged),
              "written": [str(field_path), str(field_path) + ".json",
                          str(fb_path), str(energy_path)]}
    write_json_atomic(str(out / "minimize_report.json"), report)
    _emit(report)
    return 0 if result.converged else 1


def _load_field(path) -> ScalarField2D:
    try:
        return ScalarField2D.load(path)
    except OSError as e:
        raise InvalidInputError(f"cannot read field {path}: {e}") from e
    except (ValueError, KeyError, json.JSONDecodeError) as e:
        raise InvalidInputError(f"field {path} is malformed: {e}") from e


# ---------------------------------------------------------------------------
# traizet
# ---------------------------------------------------------------------------

def cmd_traizet(cfg: ExperimentConfig) -> int:
    sol = cfg.get_solution()
    out = _outdir(cfg)
    mesh = canonical_mesh(sol, resolution=cfg.resolution)
    obj_path = out / f"traizet_{sol.kind}.obj"
    mesh.save_obj(obj_path)
    csv_path = out / f"traizet_{sol.kind}_curvature.csv"
    curvature_csv(mesh, csv_path)

    H, interior = mean_curvature(mesh)
    _, defects = orthogonality_check(mesh)
    report = {"command": "traizet", "solution": sol.to_dict(),
              "resolution": cfg.resolution,
              "n_vertices": int(len(mesh.vertices)),
              "n_triangles": int(len(mesh.triangles)),
              "max_interior_abs_H": float(np.max(np.abs(H[interior]))),
              "max_orthogonality_defect":
                  float(np.max(defects)) if len(defects) else 0.0,
              "written": [str(obj_path), str(csv_path)]}
    write_json_atomic(str(out / f"traizet_{sol.kind}_report.json"), report)
    _emit(report)
    return 0


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def cmd_classify(cfg: ExperimentConfig) -> int:
    sol = cfg.get_solution()
    out = _outdir(cfg)
    mode = cfg.params.get("mode", "trichotomy")
    if mode == "trichotomy":
        delta = float(cfg.params.get("delta", 0.1))
        rep = classify_flat(sol, delta,
                            eps=float(cfg.params.get("eps", 1e-9)))
        body = rep.to_dict()
    elif mode == "annulus":
        delta = float(cfg.params.get("delta", 0.01))
        scales = [float(s) for s in
                  cfg.params.get("scales", [0.05, 0.1, 0.2, 0.4])]
        seed_point = cfg.params.get("seed_point")
        reports = annulus_flat_check(sol, delta, scales,
                                     seed_point=seed_point)
        body = {"scales": [r.to_dict() for r in reports],
                "max_graph_slope":
                    max(r.max_graph_slope for r in reports)}
    else:
        raise InvalidInputError(
            f"classify mode must be 'trichotomy' or 'annulus', got {mode!r}")
    report = {"command": "classify", "mode": mode,
              "solution": sol.to_dict(), **body}
    write_json_atomic(str(out / "classify_report.json"), report)
    _emit(report)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {"boundary": cmd_boundary, "verify": cmd_verify,
            "minimize": cmd_minimize, "traizet": cmd_traizet,
            "classify": cmd_classify}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onephase",
        description="Numerical laboratory for the planar one-phase "
                    "Bernoulli free boundary problem")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=(fn.__doc__ or "").splitlines()[0]
                           if fn.__doc__ else None)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (default '.')")
        p.add_argument("--resolution", type=int,
                       help="grid/mesh resolution (default 64)")
        p.add_argument("--tol", type=float,
                       help="override the default check tolerances")
        p.add_argument("--family",
                       help="solution family "
                            f"({', '.join(sorted(CLI_FAMILIES))})")
        p.add_argument("--param", action="append", metavar="K=V",
                       help="solution parameter (a=, s=, R=) or free-form "
                            "command parameter; repeatable")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except InvalidInputError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[cfg.command](cfg)
    except InvalidInputError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OnePhaseError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
