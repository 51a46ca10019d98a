"""The benchmark's workloads: pinned op lists on inputs made from a seed.

Each op drives `onephase` from outside, either as a CLI command run
in-process through ``onephase.cli.main`` on a config file written here, or
as a call to a public library function.  Every op has its own correctness
check; a check raises `CheckFailed`.

Workloads
---------
scherk    the Scherk chart in big batches and in small calls: a Scherk
          mesh, eval_u and eval_grad on a seeded point cloud, viscosity
          slopes at seeded free-boundary points, flux balance on seeded
          polygons.
minimize  the coarse-to-fine minimizer through ``onephase minimize`` with
          half-plane and hairpin data.
probes    the per-angle search loops over cheap families: the annulus
          probe, the Weiss energy of the hairpin, three verify runs, the
          flat trichotomy and a hairpin mesh.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import onephase
import onephase.cli
from onephase.common import Window
from onephase.conformal import scherk_loop_point
from onephase.geometry import extract_boundary, hausdorff
from onephase.solutions import DiskComplement, Hairpin, HalfPlane, Scherk, \
    TwoPlane
from onephase.variational import ScalarField2D

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: ops left out of the workloads, with the reason; each one goes back in, in
#: a change of its own, once it passes.
EXCLUDED_OPS = [
    {"op": "onephase verify --family hairpin",
     "reason": "raises NameError: _dist_to_polygon_edges is undefined "
               "(geometry.random_polygon_in_phase); while it fails, its time "
               "would make the fix read as a wall_s regression"},
    {"op": "onephase verify --family wedge",
     "reason": "fails its slope_condition check (exit code 1)"},
    {"op": "onephase verify --family scherk",
     "reason": "takes about 120 s at the default mesh sweep (32, 64, 128)"},
]

class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the op lists; `FULL` is the benchmark, `TINY` a smoke
    run of the same ops."""

    scherk_mesh: int = 32
    eval_points: int = 40_000
    slope_points: int = 30
    flux_polygons: int = 3
    minimize_resolution: int = 128
    annulus_scales: tuple = (0.05, 0.1, 0.2, 0.4)
    weiss_center: tuple = (0.0, np.pi / 2 + 1.0)
    hairpin_mesh: int = 128


FULL = Sizes()
TINY = Sizes(scherk_mesh=8, eval_points=200, slope_points=3, flux_polygons=1,
             minimize_resolution=32, annulus_scales=(0.4,),
             weiss_center=(0.0, 0.0), hairpin_mesh=32)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def weiss_key(sizes: Sizes) -> str:
    return "%r,%r" % sizes.weiss_center


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# ---------------------------------------------------------------------------
# set-up: build the solution objects and fill their lazy tables
# ---------------------------------------------------------------------------

def _touch(sol, point) -> None:
    sol.eval_u(np.array([point], dtype=float))


def setup_scherk() -> dict:
    sol = Scherk(0.5, 1.0)
    _touch(sol, (1.0, 0.5))  # fills the offset, anchor table and corner data
    return {"scherk": sol}


def setup_minimize() -> dict:
    objs = {"half_plane": HalfPlane(), "hairpin": Hairpin(0.25)}
    for sol in objs.values():
        _touch(sol, (0.5, 0.0))
    return objs


def setup_probes() -> dict:
    objs = {"hairpin": Hairpin(1.0), "half_plane": HalfPlane(),
            "two_plane": TwoPlane(0.5), "disk": DiskComplement(1.0),
            "thin_hairpin": Hairpin(0.05)}
    for sol in objs.values():
        _touch(sol, (0.5, 0.0))
    return objs


SETUPS = {"scherk": setup_scherk, "minimize": setup_minimize,
          "probes": setup_probes}


# ---------------------------------------------------------------------------
# op lists
# ---------------------------------------------------------------------------

def cli_op(name: str, workdir: Path, command: str, config: dict,
           report: str, check) -> Op:
    """`onephase <command> --config <file>` run through cli.main; `check`
    gets the parsed report and the output directory."""
    out = workdir / name
    cfg_path = workdir / f"{name}.json"
    cfg_path.write_text(json.dumps({**config, "out": str(out)}))
    argv = [command, "--config", str(cfg_path)]

    def run():
        return onephase.cli.main(argv)

    def verify(rc):
        require(rc == 0, f"exit code {rc}")
        check(json.loads((out / report).read_text()), out)

    return Op(name, run, verify)


def check_traizet(family: str, resolution: int, ref: dict):
    def check(rep, out):
        H = rep["max_interior_abs_H"]
        orth = rep["max_orthogonality_defect"]
        if resolution >= 128:
            # criterion 11's bounds at resolution 128
            require(H <= 1e-3, f"max |H| {H:.3e} > 1e-3")
            require(orth <= 1e-3, f"orthogonality defect {orth:.3e} > 1e-3")
            return
        r = ref["traizet"][f"{family}.{resolution}"]
        require(rep["n_vertices"] == r["n_vertices"],
                f"{rep['n_vertices']} vertices, recorded {r['n_vertices']}")
        for key in ("max_interior_abs_H", "max_orthogonality_defect"):
            require(rep[key] <= r[key] * (1.0 + 1e-3),
                    f"{key} {rep[key]:.6e} above recorded {r[key]:.6e}")
    return check


def _check_all_passed(rep, out):
    failed = [c["name"] for c in rep["checks"] if not c.get("passed", True)]
    require(rep["all_passed"], f"failed checks: {failed}")


def scherk_inputs(sol: Scherk, seed: int, sizes: Sizes, ref_points):
    """Seeded point cloud (plus the recorded reference points at its end),
    free-boundary points and polygons in the positive phase."""
    r_pts, r_fb, r_poly = (np.random.default_rng(s) for s in
                           np.random.SeedSequence(seed).spawn(3))
    pts = np.vstack([r_pts.uniform(-2.0, 2.0, (sizes.eval_points, 2)),
                     ref_points])

    n = sizes.slope_points
    ut = r_fb.uniform(-0.45, 0.45, n) * 2.0 * np.pi * sol.s
    fb = sol.a * scherk_loop_point(sol.s, ut)
    fb[:, 0] *= r_fb.choice([-1.0, 1.0], n)
    fb[:, 1] += 2.0 * np.pi * sol.a * r_fb.integers(-1, 1, n)

    # star polygons of radius about 0.36 inside a disc of radius 0.5 clear
    # of the free boundary (fixed size, so the work does not vary by seed)
    curve = np.vstack(sol.free_boundary_curves(Window(-3.0, -3.0, 3.0, 3.0),
                                               step=1e-3))
    polygons = []
    while len(polygons) < sizes.flux_polygons:
        c = r_poly.uniform(-2.0, 2.0, 2)
        if (not sol.in_positive_phase(c[None, :])[0]
                or np.min(np.hypot(*(curve - c).T)) < 0.5):
            continue
        k = int(r_poly.integers(5, 10))
        theta = 2.0 * np.pi * (np.arange(k)
                               + r_poly.uniform(-0.35, 0.35, k)) / k
        radius = 0.4 * r_poly.uniform(0.8, 1.0, k)
        polygons.append(c + np.stack([radius * np.cos(theta),
                                      radius * np.sin(theta)], axis=-1))
    return pts, fb, polygons


def scherk_ops(objs, seed, sizes, workdir, ref) -> list:
    sol = objs["scherk"]
    ref_pts = np.array(ref["scherk_eval"]["points"])
    ref_u = np.array(ref["scherk_eval"]["u"])
    pts, fb, polygons = scherk_inputs(sol, seed, sizes, ref_pts)

    def check_u(u):
        require(np.all(np.isfinite(u)) and np.all(u >= 0.0),
                "eval_u not finite and nonnegative")
        dev = float(np.max(np.abs(u[-len(ref_u):] - ref_u)))
        require(dev <= 1e-8, f"reference values off by {dev:.3e}")

    def check_grad(g):
        speed = np.hypot(g[:, 0], g[:, 1])
        require(np.all(np.isfinite(speed)), "eval_grad not finite")
        require(float(np.max(speed)) <= 1.0 + 1e-6,
                f"|grad u| = {np.max(speed):.9f} > 1")

    def check_slopes(slopes):
        dev = float(np.max(np.abs(np.asarray(slopes) - 1.0)))
        require(dev <= 5e-3, f"slope off by {dev:.3e}")  # criterion 3

    def check_flux(rep):  # criterion 7
        require(abs(rep.net_flux) < 1e-7, f"net flux {rep.net_flux:.3e}")
        require(rep.lemma_holds, "lemma fails")

    ops = [
        cli_op("traizet_scherk", workdir, "traizet",
               {"solution": {"family": "scherk", "params": {"s": 0.5}},
                "resolution": sizes.scherk_mesh},
               "traizet_scherk_report.json",
               check_traizet("scherk", sizes.scherk_mesh, ref)),
        Op("scherk_eval_u", lambda: sol.eval_u(pts), check_u),
        Op("scherk_eval_grad", lambda: sol.eval_grad(pts), check_grad),
        Op("scherk_viscosity_slope",
           lambda: [onephase.viscosity_slope(sol, p, r=1e-4) for p in fb],
           check_slopes),
    ]
    for i, poly in enumerate(polygons):
        ops.append(Op(f"scherk_flux_{i}",
                      lambda poly=poly: onephase.flux_balance(sol, poly,
                                                              step=1e-3),
                      check_flux))
    return ops


def minimize_ops(objs, seed, sizes, workdir, ref) -> list:
    res = sizes.minimize_resolution
    h = 2.0 / res

    def check_half_plane(rep, out):  # criterion 9's rules
        require(rep["converged"], "not converged")
        rows = np.loadtxt(out / "minimize_energy.csv", delimiter=",",
                          skiprows=1, ndmin=2)
        for key in {(r[0], r[1]) for r in rows}:
            e = rows[(rows[:, 0] == key[0]) & (rows[:, 1] == key[1]), 3]
            require(np.all(np.diff(e) <= 1e-11 * max(1.0, abs(e[0]))),
                    f"energy rises in phase {key}")
        fld = ScalarField2D.load(out / "minimize_field.csv")
        verts = np.vstack([c.vertices for c in
                           extract_boundary(fld).components])
        band = verts[np.abs(verts[:, 1]) <= 0.9]
        require(len(band) > 0, "no free boundary in |x2| <= 0.9")
        dist = hausdorff(band, np.array([[0.0, -0.9], [0.0, 0.9]]),
                         densify_step=h)
        require(dist <= 2.0 * h, f"free boundary {dist:.3e} from x1 = 0")

    def check_hairpin(rep, out):
        require(rep["converged"], "not converged")
        e_ref = ref["minimize_hairpin_energy"][str(res)]
        require(rep["energy"] <= e_ref + 1e-3 * abs(e_ref),
                f"energy {rep['energy']!r} above recorded {e_ref!r}")

    return [
        cli_op("minimize_half_plane", workdir, "minimize",
               {"solution": {"family": "half_plane"}, "resolution": res},
               "minimize_report.json", check_half_plane),
        cli_op("minimize_hairpin", workdir, "minimize",
               {"solution": {"family": "hairpin", "params": {"a": 0.25}},
                "resolution": res},
               "minimize_report.json", check_hairpin),
    ]


def probes_ops(objs, seed, sizes, workdir, ref) -> list:
    hairpin = objs["hairpin"]
    w_ref = ref["weiss_hairpin"][weiss_key(sizes)]

    def check_annulus(rep, out):  # criterion 12
        s = rep["max_graph_slope"]
        require(s <= 1e-6, f"max graph slope {s:.3e}")

    def check_weiss(w):  # criterion 6's tolerance
        require(abs(w - w_ref) <= 1e-5 * abs(w_ref),
                f"W = {w!r}, recorded {w_ref!r}")

    def check_trichotomy(rep, out):  # criterion 8
        require(rep["case"] == "C", f"case {rep['case']}")
        require(rep["arc_attachment_ok"], "arcs not attached")

    verify = [("half_plane", {}), ("two_plane", {"a": 0.5}),
              ("disk_complement", {"R": 1.0})]
    return [
        cli_op("classify_annulus", workdir, "classify",
               {"solution": {"family": "half_plane"},
                "params": {"mode": "annulus", "delta": 0.01,
                           "scales": list(sizes.annulus_scales)}},
               "classify_report.json", check_annulus),
        Op("weiss_hairpin",
           lambda: onephase.weiss_energy(hairpin, sizes.weiss_center, 0.5),
           check_weiss),
        # seed 0 is the CLI default; other seeds can place a polygon whose
        # clearance test reaches the NameError of the hairpin exclusion
        *[cli_op(f"verify_{fam}", workdir, "verify",
                 {"solution": {"family": fam, "params": params}, "seed": 0},
                 "verify_report.json", _check_all_passed)
          for fam, params in verify],
        cli_op("classify_trichotomy", workdir, "classify",
               {"solution": {"family": "hairpin", "params": {"a": 0.05}},
                "params": {"mode": "trichotomy", "delta": 0.25}},
               "classify_report.json", check_trichotomy),
        cli_op("traizet_hairpin", workdir, "traizet",
               {"solution": {"family": "hairpin"},
                "resolution": sizes.hairpin_mesh},
               "traizet_hairpin_report.json",
               check_traizet("hairpin", sizes.hairpin_mesh, ref)),
    ]


OP_LISTS = {"scherk": scherk_ops, "minimize": minimize_ops,
            "probes": probes_ops}
WORKLOADS = tuple(OP_LISTS)


def build_ops(workload: str, objs: dict, seed: int, sizes: Sizes,
              workdir: Path, ref: dict) -> list:
    workdir.mkdir(parents=True, exist_ok=True)
    return OP_LISTS[workload](objs, seed, sizes, workdir, ref)
