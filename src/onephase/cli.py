"""Batch command-line front end.

    onephase <command> [--config PATH] [--out DIR] [--resolution N]
                       [--family NAME] [--param k=v ...]

Commands, with the settings and then the parameters (``--param k=v`` or
the config's "params") each reads in brackets; any other is a config error
------------------------------------------------------------------------
boundary   Write free-boundary polylines as CSV.  Without a configured
           solution, emits the reference datasets: hairpin a ∈ {1/4, 1, 2}
           and Scherk s ∈ {1/8, 1/2, 7/8}.  [window; step]
verify     Run the verification suite on one solution (inner-variation
           residual, slope condition, Weiss scaling, flux balance, circle
           maxima, mesh mean-curvature/orthogonality sweeps) and write a
           machine-readable pass/fail report; its bounds and steps are
           fixed.  [window, seed; mesh_resolutions, n_polygons]
minimize   Minimize the discrete functional with a Dirichlet trace taken
           from a named solution or a saved field; write the converged
           field, its extracted free boundary, and the energy log; the
           grid spacing is the window width / resolution.
           [window, resolution; boundary_field]
traizet    Build the reflected minimal-surface mesh for a solution and
           write it as OBJ plus a per-vertex curvature CSV.  [resolution; none]
classify   Run the flat trichotomy (mode "trichotomy") or the annulus
           flatness probe (mode "annulus") and write a JSON report.
           [none; mode, delta, scales (annulus mode only)]

A ``--param`` named after a parameter of the chosen family (a=, s=, R=)
sets the solution instead.  resolution, seed, n_polygons and each of
mesh_resolutions must be whole numbers.

Configuration is one JSON file (``--config``) with optional flag overrides;
every command is deterministic given its config (sampling uses a seeded
generator), so reruns produce byte-identical CSV/JSON/OBJ.

A configured window [x0, y0, x1, y1] must have every coordinate within
±WINDOW_LIMIT = 1e6, far past every family's length scale.

Exit codes: 0 success, 1 check/convergence failure, 2 config or I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .common import Window, json_text, write_csv_atomic, write_text_atomic
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

#: bound on |coordinate| of a configured window; a window out to 1e150
#: overflows the free-boundary sampling, whose offsets are step × coordinate
WINDOW_LIMIT = 1e6


@dataclass
class ExperimentConfig:
    """One experiment record: the command (from the command line, never
    the config file), solution descriptor, window, resolution, output
    directory, seed, and the command's parameters (names from `PARAMS`)."""

    command: str = ""
    solution: dict | None = None
    window: tuple | None = None
    resolution: int = 64
    out: str = "."
    seed: int = 0
    params: dict = field(default_factory=dict)

    def validate(self) -> "ExperimentConfig":
        if self.resolution < 8:
            raise InvalidInputError(
                f"resolution must be >= 8, got {self.resolution}")
        if self.window is not None:
            w = _floats(self.window)
            if w is None or len(w) != 4:
                raise InvalidInputError(
                    f"window must be [x0, y0, x1, y1], got {self.window!r}")
            if not all(abs(v) <= WINDOW_LIMIT for v in w):
                raise InvalidInputError(
                    f"window {self.window!r} has a coordinate beyond "
                    f"±{WINDOW_LIMIT:g}")
            Window(*w)  # raises on degeneracy
            self.window = tuple(w)
        return self

    def get_window(self, default) -> Window:
        return Window(*(self.window if self.window is not None else default))

    def get_solution(self) -> Solution:
        if self.solution is None:
            raise InvalidInputError(
                "this command needs a solution: pass --family/--param or put "
                'a {"family": ..., "params": ...} descriptor in the config')
        return solution_from_dict(self.solution)

    def number(self, name: str, default: float | None) -> float | None:
        """params[name] as a float, `default` when absent; a value that is
        no number is a config error."""
        if name not in self.params:
            return default
        v = self.params[name]
        try:
            return float(v)
        except (TypeError, ValueError):
            raise InvalidInputError(
                f"{name} must be a number, got {v!r}") from None

    def numbers(self, name: str, default: list) -> list:
        """params[name] as a non-empty list of finite floats, `default` when
        absent; anything else, one number included, is a config error."""
        v = self.params.get(name, default)
        vals = _floats(v)
        if not vals or not np.all(np.isfinite(vals)):
            raise InvalidInputError(
                f"{name} must be a non-empty list of finite numbers, "
                f"got {v!r}")
        return vals


def _floats(v) -> list | None:
    """v as a list of floats, or None if v is no sequence of numbers."""
    if isinstance(v, (str, bytes)):
        return None
    try:
        return [float(x) for x in v]
    except (TypeError, ValueError, OverflowError):
        return None


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


def _whole(name: str, v) -> int:
    """v as an int; a value that is not a whole number, 16.9 included, is
    a config error."""
    try:
        n = int(v)
        whole = n == float(v)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise InvalidInputError(f"{name} must be an integer, got {v!r}")
    return n


def config_from_args(args) -> ExperimentConfig:
    """Merge (defaults ← config file ← flags) into a validated config."""
    raw = load_config(args.config) if args.config else {}
    known = {"solution", "window", "resolution", "out", "seed", "params"}
    unknown = set(raw) - known
    if unknown:
        raise InvalidInputError(
            f"unknown config keys: {sorted(unknown)} (known: {sorted(known)})")
    solution, params = raw.get("solution"), raw.get("params", {})
    if solution is not None and not (
            isinstance(solution, dict)
            and isinstance(solution.get("params", {}), dict)):
        raise InvalidInputError(
            'solution must be an object {"family": ..., "params": {...}}, '
            f"got {solution!r}")
    if not isinstance(params, dict):
        raise InvalidInputError(f"params must be an object, got {params!r}")
    cfg = ExperimentConfig(
        command=args.command,
        solution=solution,
        window=raw.get("window"),
        resolution=_whole("resolution", raw.get("resolution", 64)),
        out=str(raw.get("out", ".")),
        seed=_whole("seed", raw.get("seed", 0)),
        params=dict(params),
    )
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    if args.resolution is not None:
        cfg = replace(cfg, resolution=args.resolution)
    if args.family is not None:
        if args.family not in KINDS:
            raise InvalidInputError(
                f"unknown family {args.family!r}; known: {sorted(KINDS)}")
        cfg = replace(cfg, solution={"family": args.family, "params": {}})
    for kv in args.param or []:
        if "=" not in kv:
            raise InvalidInputError(f"--param needs k=v, got {kv!r}")
        k, v = kv.split("=", 1)
        try:
            val = v if k == "boundary_field" else float(v)  # a path stays text
        except ValueError:
            val = v
        if cfg.solution is not None and k in _family_param_names(
                cfg.solution.get("family", "")):
            cfg.solution.setdefault("params", {})[k] = val
        else:
            cfg.params[k] = val
    given = set(raw) if args.resolution is None else {*raw, "resolution"}
    unread = given & ({"resolution", "window", "seed"} - SETTINGS[cfg.command])
    if unread:
        raise InvalidInputError(f"{cfg.command} reads no {sorted(unread)}")
    unknown = set(cfg.params) - set(PARAMS[cfg.command])
    if unknown:
        raise InvalidInputError(
            f"unknown {cfg.command} parameters: {sorted(unknown)} "
            f"(known: {sorted(PARAMS[cfg.command])})")
    return cfg.validate()


def _family_param_names(family) -> set:
    cls = KINDS.get(family) if isinstance(family, str) else None
    return set() if cls is None else set(cls.param_names())


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise InvalidInputError(f"output directory {out} not writable: {e}") \
            from e
    return out


def _emit(report: dict, path=None) -> None:
    """Write the report's JSON text to `path`, when given, then print the
    same text."""
    text = json_text(report)
    if path is not None:
        write_text_atomic(str(path), text)
    print(text, end="")


def _slug(x: float) -> str:
    return ("%g" % x).replace("-", "m").replace(".", "p")


# ---------------------------------------------------------------------------
# boundary
# ---------------------------------------------------------------------------

def cmd_boundary(cfg: ExperimentConfig) -> int:
    """Free-boundary polyline CSVs (component, vertex, x, y)."""
    out = _outdir(cfg)
    step = cfg.number("step", None)
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

def _fb_sample_points(curves, n: int = 10):
    """Up to n points of the free-boundary polylines `curves`, evenly spread
    along them; clip-generated endpoints are dropped (they are chord points,
    not points of the analytic boundary)."""
    pts = []
    for poly in curves:
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
    r0, r1 = 0.45 * scale, 0.9 * scale
    return [("radial", TestVectorField(center, r0, r1)),
            ("e1", TestVectorField(center, r0, r1, (1.0, 0.0))),
            ("e2", TestVectorField(center, r0, r1, (0.0, 1.0)))]


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
    window = cfg.get_window(sol.verify_window())
    rng = np.random.default_rng(cfg.seed)
    # read before any check runs, so that a bad value is a config error
    res_list = [_whole("mesh_resolutions", r) for r in
                cfg.numbers("mesh_resolutions", [32, 64, 128])]
    if min(res_list) < 8:
        raise InvalidInputError(
            f"mesh_resolutions must each be >= 8, got {res_list}")
    n_poly = _whole("n_polygons", cfg.number("n_polygons", 5))
    if n_poly < 1:
        raise InvalidInputError(f"n_polygons must be >= 1, got {n_poly}")
    checks = []
    # traced and clipped once, on first use; a failure is not kept, so each
    # check that samples the free boundary reports it
    fb_curves = functools.cache(lambda: sol.free_boundary_curves(window))

    def check_residual():
        hc = window.width / 32.0
        fb = _fb_sample_points(fb_curves())
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
        fields = _bump_fields(c, 0.95 * edge)
        # one call per h samples the solution grid once for all the fields
        by_h = [variational_residual(sol, [psi for _, psi in fields], window,
                                     h) for h in hs]
        for k, (label, _) in enumerate(fields):
            res = [float(r[k]) for r in by_h]
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
        tol_chart, tol_fd = 1e-6, 5e-3  # criterion 3
        pts = _fb_sample_points(fb_curves())
        g = sol.eval_grad(pts)
        chart_dev = float(np.max(np.abs(np.hypot(g[:, 0], g[:, 1]) - 1.0)))
        fd_dev = max(abs(viscosity_slope(sol, p, r=1e-4) - 1.0)
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
        tol = 1e-5  # criterion 6
        radii = [0.25, 0.5, 1.0]
        vals = [weiss_energy(sol, (0.0, 0.0), r) for r in radii]
        spread = (max(vals) - min(vals)) / abs(np.mean(vals))
        return {"passed": bool(spread <= tol), "radii": radii,
                "values": vals, "relative_spread": float(spread),
                "tolerance": tol}

    def check_flux():
        tol = 1e-7  # criterion 7
        worst = 0.0
        lemma = True
        for _ in range(n_poly):
            poly = random_polygon_in_phase(sol, window, rng)
            rep = flux_balance(sol, poly, step=1e-3)
            worst = max(worst, abs(rep.net_flux))
            lemma = lemma and rep.lemma_holds
        return {"passed": bool(worst <= tol and lemma),
                "max_abs_net_flux": worst, "tolerance": tol,
                "lemma_holds": lemma, "n_polygons": n_poly}

    def check_circle_max():
        tol = 1e-6
        r = 0.25 * min(window.width, window.height)
        centers = [np.array([0.5 * (window.x0 + window.x1),
                             0.5 * (window.y0 + window.y1)])]
        centers.extend(_fb_sample_points(fb_curves(), n=2))
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
        tol_h = tol_orth = 1e-3  # criterion 11
        maxes = []
        for res in res_list:
            mesh = H = interior = None  # free the last before the next
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
    _emit(report, out / "verify_report.json")
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# minimize
# ---------------------------------------------------------------------------

def cmd_minimize(cfg: ExperimentConfig) -> int:
    out = _outdir(cfg)
    window = cfg.get_window((-1.0, -1.0, 1.0, 1.0))
    h = window.width / cfg.resolution

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

    result = minimize_ac(window, h, boundary)
    history_rows = []
    for k, (level_h, energies) in enumerate(zip(result.history_h,
                                                 result.energy_history)):
        phase = result.history_h[:k].count(level_h)
        history_rows += [[level_h, phase, it, e]
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
    _emit(report, out / "minimize_report.json")
    return 0 if result.converged else 1


def _load_field(path) -> ScalarField2D:
    if not isinstance(path, str):
        raise InvalidInputError(f"boundary_field must be a path, got {path!r}")
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
    H, interior = curvature_csv(mesh, csv_path)
    _, defects = orthogonality_check(mesh)
    report = {"command": "traizet", "solution": sol.to_dict(),
              "resolution": cfg.resolution,
              "n_vertices": int(len(mesh.vertices)),
              "n_triangles": int(len(mesh.triangles)),
              "max_interior_abs_H": float(np.max(np.abs(H[interior]))),
              "max_orthogonality_defect":
                  float(np.max(defects)) if len(defects) else 0.0,
              "written": [str(obj_path), str(csv_path)]}
    _emit(report, out / f"traizet_{sol.kind}_report.json")
    return 0


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def cmd_classify(cfg: ExperimentConfig) -> int:
    mode = cfg.params.get("mode", "trichotomy")
    if mode == "trichotomy" and "scales" in cfg.params:
        raise InvalidInputError("classify mode trichotomy reads no ['scales']")
    sol = cfg.get_solution()
    out = _outdir(cfg)
    if mode == "trichotomy":
        delta = cfg.number("delta", 0.1)
        body = asdict(classify_flat(sol, delta))
    elif mode == "annulus":
        delta = cfg.number("delta", 0.01)
        scales = cfg.numbers("scales", [0.05, 0.1, 0.2, 0.4])
        reports = annulus_flat_check(sol, delta, scales)
        body = {"scales": [asdict(r) for r in reports],
                "max_graph_slope":
                    max(r.max_graph_slope for r in reports)}
    else:
        raise InvalidInputError(
            f"classify mode must be 'trichotomy' or 'annulus', got {mode!r}")
    report = {"command": "classify", "mode": mode,
              "solution": sol.to_dict(), **body}
    _emit(report, out / "classify_report.json")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {"boundary": cmd_boundary, "verify": cmd_verify,
            "minimize": cmd_minimize, "traizet": cmd_traizet,
            "classify": cmd_classify}
#: the names in "params" (or --param) that each command reads
PARAMS = {"boundary": ("step",),
          "verify": ("mesh_resolutions", "n_polygons"),
          "minimize": ("boundary_field",),
          "traizet": (),
          "classify": ("mode", "delta", "scales")}
#: the settings besides "params" (and --resolution) each command reads
SETTINGS = {"boundary": {"window"}, "verify": {"window", "seed"},
            "minimize": {"window", "resolution"}, "traizet": {"resolution"},
            "classify": set()}


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
        p.add_argument("--family",
                       help="solution family "
                            f"({', '.join(sorted(KINDS))})")
        p.add_argument("--param", action="append", metavar="K=V",
                       help="solution parameter (a=, s=, R=) or one of "
                            f"{name}'s parameters: "
                            f"{', '.join(PARAMS[name]) or 'none'}; "
                            "repeatable")
    return parser


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    try:
        if extra:
            raise InvalidInputError(f"unknown arguments: {' '.join(extra)}")
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
