"""The benchmark's tracer (perfbench/tracing.py) wraps `onephase` functions
and methods that it names by string.  Installing it here makes a deleted or
renamed traced name fail the test suite, not a traced benchmark run."""

import importlib
from pathlib import Path

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
