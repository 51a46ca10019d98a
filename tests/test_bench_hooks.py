"""The benchmark's tracer (perfbench/tracing.py) wraps `onephase` functions
and methods that it names by string, and its workloads (perfbench/
workloads.py) drive `onephase` through the CLI and the library.  Installing
the tracer and running every op here makes a deleted or renamed name, or a
broken op output, fail the test suite, not a benchmark run."""

import importlib
from pathlib import Path

import pytest

import onephase.quad
from onephase.conformal import ScherkStrip

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_hooks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert hasattr(onephase.quad.segment_quad, "__wrapped__")
        assert hasattr(vars(ScherkStrip)["inverse"], "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(onephase.quad.segment_quad, "__wrapped__")
    assert not hasattr(vars(ScherkStrip)["inverse"], "__wrapped__")


#: every op of the three workloads at TINY sizes, by workload
WORKLOAD_OPS = {
    "scherk": ["traizet_scherk", "scherk_eval_u", "scherk_eval_grad",
               "scherk_viscosity_slope", "scherk_flux_0"],
    "minimize": ["minimize_half_plane", "minimize_hairpin"],
    "probes": ["classify_annulus", "weiss_hairpin", "verify_half_plane",
               "verify_two_plane", "verify_disk_complement",
               "classify_trichotomy", "traizet_hairpin"],
}
STALE_REFERENCE = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1a: the recorded resolution-32 energy "
    "4.73789 predates the 5-point stencil; the run gives 4.74788")


@pytest.mark.parametrize("workload, name", [
    pytest.param(workload, name, id=name,
                 marks=STALE_REFERENCE if name == "minimize_hairpin" else ())
    for workload, names in WORKLOAD_OPS.items() for name in names])
def test_workload_op_passes_its_check(workload, name, monkeypatch, tmp_path):
    """Each benchmark op runs at TINY sizes and passes its own check, so a
    renamed import or a wrong output fails here, not in a benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.chdir(tmp_path)
    workloads = importlib.import_module("workloads")
    ops = workloads.build_ops(workload, workloads.SETUPS[workload](), 0,
                              workloads.TINY, tmp_path,
                              workloads.load_reference())
    assert [op.name for op in ops] == WORKLOAD_OPS[workload]
    op = ops[WORKLOAD_OPS[workload].index(name)]
    op.check(op.run())
