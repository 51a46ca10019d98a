"""Spans around the public functions of each `onephase` layer, recorded from
outside the package.

`Tracer.install()` wraps each function in every module namespace that bound
it (``onephase.cli.canonical_mesh``, ``onephase.conformal.segment_quad``, ...)
and the class methods listed in `METHODS`; `uninstall()` puts the originals
back.  A span records its name, start, end, parent and one work count
(points, nodes, bytes, iterations or vertices).  Spans stay in memory;
`layer_metrics` turns them into the per-layer metrics of the benchmark.

A span's layer is its name up to the first dot.  Its self time is its
duration minus the durations of its direct children (calls are sequential,
so children never overlap), and the self times of all spans add up to the
durations of the root spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    work: float = 0.0


def _first_arg_points(args, kwargs, out):
    """Number of points in the (..., 2) array passed to a Solution method."""
    return int(np.size(args[1] if len(args) > 1 else kwargs["points"])) // 2


def _first_arg_size(args, kwargs, out):
    return int(np.size(args[1]))


def _written_bytes(args, kwargs, out):
    return os.path.getsize(args[0])


def _mesh_vertices(args, kwargs, out):
    return len(out.vertices)


def _iterations(args, kwargs, out):
    return out.iterations


@functools.lru_cache(maxsize=None)
def _quad_signature():
    # follows __wrapped__, so it also works once segment_quad is patched
    return inspect.signature(importlib.import_module("onephase.quad")
                             .segment_quad)


def _quad_nodes(args, kwargs, out):
    b = _quad_signature().bind(*args, **kwargs)
    b.apply_defaults()
    return int(np.size(out)) * b.arguments["order"] * b.arguments["pieces"]


#: (module, function, work count) for module-level functions.
FUNCTIONS = [
    ("cli", "main", None),
    ("cli", "cmd_traizet", None),
    ("cli", "cmd_minimize", None),
    ("cli", "cmd_verify", None),
    ("cli", "cmd_classify", None),
    ("common", "write_json_atomic", _written_bytes),
    ("common", "write_csv_atomic", _written_bytes),
    ("common", "write_text_atomic", _written_bytes),
    ("quad", "segment_quad", _quad_nodes),
    ("variational", "minimize_ac", _iterations),
    ("variational", "weiss_energy", None),
    ("variational", "variational_residual", None),
    ("variational", "viscosity_slope", None),
    ("geometry", "annulus_flat_check", None),
    ("geometry", "classify_flat", None),
    ("geometry", "flux_balance", None),
    ("geometry", "extract_boundary", None),
    ("geometry", "circle_max", None),
    ("traizet", "canonical_mesh", _mesh_vertices),
    ("traizet", "mean_curvature", None),
    ("traizet", "orthogonality_check", None),
]

#: (module, class, method, span name or None for per-family, work count).
METHODS = [
    ("solutions", "Solution", "eval_u", None, _first_arg_points),
    ("solutions", "Solution", "eval_grad", None, _first_arg_points),
    ("conformal", "ScherkStrip", "inverse", "conformal.scherk.inverse",
     _first_arg_size),
    ("conformal", "ScherkStrip", "forward", "conformal.scherk.forward",
     _first_arg_size),
    ("conformal", "ScherkStrip", "integrand", "conformal.scherk.integrand",
     _first_arg_size),
    ("conformal", "HHPStrip", "inverse", "conformal.hhp.inverse",
     _first_arg_size),
]


class Tracer:
    """In-memory span recorder; single-threaded callers only."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording --------------------------------------------------------
    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, 0.0)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name` (a root span when no span is
        open)."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, name, fn, measure=None, namer=None):
        """fn traced inside root spans opened by `call`, and passed through
        outside them."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(namer(args) if namer else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if measure is not None:
                span.work = measure(args, kwargs, out)
            return out
        return traced

    # -- patching -----------------------------------------------------------
    def install(self) -> None:
        """Wrap the traced functions in every `onephase` namespace."""
        import onephase
        modules = [onephase] + [
            importlib.import_module(f"onephase.{m.name}")
            for m in pkgutil.iter_modules(onephase.__path__)
            if m.name != "__main__"]
        cli = importlib.import_module("onephase.cli")
        for mod_name, fn_name, measure in FUNCTIONS:
            orig = getattr(importlib.import_module(f"onephase.{mod_name}"),
                           fn_name)
            wrapped = self.wrap(f"{mod_name}.{fn_name}", orig, measure)
            for owner in modules:
                for attr, val in list(vars(owner).items()):
                    if val is orig:
                        self._set(owner, attr, wrapped)
            for key, val in list(cli.COMMANDS.items()):
                if val is orig:
                    self._undo.append(
                        lambda k=key, v=val: cli.COMMANDS.__setitem__(k, v))
                    cli.COMMANDS[key] = wrapped
        for mod_name, cls_name, meth, span_name, measure in METHODS:
            cls = getattr(importlib.import_module(f"onephase.{mod_name}"),
                          cls_name)
            namer = None
            if span_name is None:
                namer = (lambda args, m=meth:
                         f"solutions.{args[0].kind}.{m}")
            self._set(cls, meth, self.wrap(span_name, vars(cls)[meth],
                                           measure, namer))

    def _set(self, owner, attr, value) -> None:
        old = vars(owner)[attr]
        self._undo.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans) -> list:
    """Per-span duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_self_times(spans) -> dict:
    totals: dict = {}
    for s, t in zip(spans, self_times(spans)):
        layer = s.name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + t
    return totals


def _has_ancestor(spans, i, name, memo) -> bool:
    """Whether a proper ancestor of span i is called `name`.  `memo` maps a
    span to whether it or one of its ancestors is called `name`."""
    p = spans[i].parent
    path = []
    found = False
    while p >= 0:
        if p in memo:
            found = memo[p]
            break
        path.append(p)
        if spans[p].name == name:
            found = True
            break
        p = spans[p].parent
    for q in path:
        memo[q] = found
    return found


def _ratio(num, den) -> float:
    return num / den if den else 0.0


#: layers whose self time is reported.
LAYERS = ("bench", "cli", "common", "solutions", "conformal", "quad",
          "variational", "geometry", "traizet")


def layer_metrics(spans) -> dict:
    """Per-layer metric values (plain numbers) from a list of spans."""
    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def work(name):
        return float(sum(spans[i].work for i in by_name.get(name, ())))

    def seconds(name):
        """Time inside `name`, not counting calls nested in another one."""
        memo: dict = {}
        return float(sum(spans[i].end - spans[i].start
                         for i in by_name.get(name, ())
                         if not _has_ancestor(spans, i, name, memo)))

    def under(ancestor, names):
        memo: dict = {}
        idx = [i for n in names for i in by_name.get(n, ())]
        return [i for i in idx if _has_ancestor(spans, i, ancestor, memo)]

    m = {}
    for cmd in ("traizet", "minimize", "verify", "classify"):
        m[f"cli.{cmd}_s"] = seconds(f"cli.cmd_{cmd}")
    writes = [f"common.write_{k}_atomic" for k in ("json", "csv", "text")]
    m["common.write_s"] = sum(seconds(n) for n in writes)
    m["common.write_bytes"] = sum(work(n) for n in writes)

    eval_names = [n for n in by_name if n.startswith("solutions.")]
    for fam in ("scherk", "hairpin"):
        names = [f"solutions.{fam}.eval_u", f"solutions.{fam}.eval_grad"]
        pts = sum(work(n) for n in names)
        m[f"solutions.{fam}.eval_points"] = pts
        m[f"solutions.{fam}.eval_calls"] = sum(calls(n) for n in names)
        m[f"solutions.{fam}.us_per_point"] = _ratio(
            1e6 * sum(seconds(n) for n in names), pts)
    m["solutions.points_per_call"] = _ratio(
        sum(work(n) for n in eval_names), sum(calls(n) for n in eval_names))

    m["conformal.scherk.inverse_s"] = seconds("conformal.scherk.inverse")
    m["conformal.scherk.inverse_points"] = work("conformal.scherk.inverse")
    m["conformal.scherk.forward_points"] = work("conformal.scherk.forward")
    m["conformal.scherk.integrand_points"] = work("conformal.scherk.integrand")
    m["conformal.scherk.integrand_per_point"] = _ratio(
        m["conformal.scherk.integrand_points"],
        m["conformal.scherk.inverse_points"])
    m["conformal.hhp.inverse_s"] = seconds("conformal.hhp.inverse")
    m["conformal.hhp.inverse_calls"] = calls("conformal.hhp.inverse")

    m["quad.segment_quad_calls"] = calls("quad.segment_quad")
    m["quad.segment_quad_nodes"] = work("quad.segment_quad")
    m["quad.segment_quad_s"] = seconds("quad.segment_quad")

    m["variational.minimize_ac_s"] = seconds("variational.minimize_ac")
    m["variational.minimize_ac_iterations"] = work("variational.minimize_ac")
    m["variational.minimize_ac_s_per_iter"] = _ratio(
        m["variational.minimize_ac_s"],
        m["variational.minimize_ac_iterations"])
    m["variational.weiss_energy_s"] = seconds("variational.weiss_energy")
    m["variational.weiss_energy_slices"] = len(under(
        "variational.weiss_energy",
        [n for n in eval_names if n.endswith(".eval_grad")]))
    m["variational.variational_residual_s"] = seconds(
        "variational.variational_residual")
    m["variational.viscosity_slope_s"] = seconds("variational.viscosity_slope")

    m["geometry.annulus_flat_check_s"] = seconds("geometry.annulus_flat_check")
    m["geometry.annulus_eval_points"] = float(sum(
        spans[i].work for i in under("geometry.annulus_flat_check",
                                     eval_names)))
    for fn in ("classify_flat", "flux_balance", "extract_boundary",
               "circle_max"):
        m[f"geometry.{fn}_s"] = seconds(f"geometry.{fn}")

    for fn in ("canonical_mesh", "mean_curvature", "orthogonality_check"):
        m[f"traizet.{fn}_s"] = seconds(f"traizet.{fn}")
    m["traizet.mesh_vertices"] = work("traizet.canonical_mesh")

    selfs = layer_self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return m
