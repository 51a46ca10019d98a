"""Shared fixtures: one instance per family, a seeded generator, a
wall-clock reporter used by the acceptance suite, the measured Scherk
saddle height, and the catenoid overlay of a disk-complement mesh."""

import time

import numpy as np
import pytest
from scipy.optimize import brentq

from onephase.errors import InvalidInputError
from onephase.solutions import (DiskComplement, Hairpin, HalfPlane, Scherk,
                                TwoPlane, Wedge)

from helpers import upper_line_x2


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def halfplane():
    return HalfPlane()


@pytest.fixture(scope="session")
def twoplane():
    return TwoPlane(0.5)


@pytest.fixture(scope="session")
def wedge():
    return Wedge(1.0)


@pytest.fixture(scope="session")
def hairpin():
    return Hairpin(1.0)


@pytest.fixture(scope="session")
def disk():
    return DiskComplement(1.0)


@pytest.fixture(scope="session")
def scherk():
    return Scherk(0.5, 1.0)


@pytest.fixture
def stopwatch():
    """Context manager printing the elapsed wall time of a named block."""

    class _Watch:
        def __init__(self):
            self.elapsed = {}

        def __call__(self, label):
            watch = self

            class _Ctx:
                def __enter__(self):
                    self.t0 = time.perf_counter()
                    return self

                def __exit__(self, *exc):
                    dt = time.perf_counter() - self.t0
                    watch.elapsed[label] = dt
                    print(f"[time] {label}: {dt:.2f} s")
                    return False

            return _Ctx()

    return _Watch()


def _measure_saddle_height(chart, target_x2=np.pi):
    """Measured chart height u* of the saddle point of a `ScherkStrip`.

    Since Φ_s′ blows up like an inverse square root at the corner
    b + il/2, the preimage of x₂ = target − ε satisfies
    u(ε) = u* − K ε² + O(ε³); two roots and a Richardson step remove
    the ε² term.  Roots are found in the substituted variable
    σ = √(b − u), where x₂ depends on σ with a nonzero slope.
    """
    b = chart.b

    def root_for(e):
        g = lambda sg: upper_line_x2(chart, b - sg**2) - (target_x2 - e)
        sg = brentq(g, 0.0, np.sqrt(b) * (1.0 - 1e-12),
                    xtol=1e-15, rtol=8.9e-16)
        return b - sg**2

    eps = 1e-4
    t1 = root_for(eps)
    t2 = root_for(2.0 * eps)
    return (4.0 * t1 - t2) / 3.0


@pytest.fixture(scope="session")
def measure_saddle_height():
    """The saddle-height measurement, a function of a `ScherkStrip`."""
    return _measure_saddle_height


def _catenoid_overlay(mesh, R):
    """Max residual |√(X₁²+X₂²) − R·cosh(X₃/R)| over all mesh vertices,
    after translating the neck ring (X₃ = 0 vertices) to be centered on the
    axis: the disk-complement image is the catenoid of neck radius R."""
    fb = mesh.fb_vertices
    if len(fb) == 0:
        raise InvalidInputError("catenoid_overlay: mesh has no neck ring")
    center = mesh.vertices[fb, :2].mean(axis=0)
    xy = mesh.vertices[:, :2] - center[None, :]
    rho = np.hypot(xy[:, 0], xy[:, 1])
    target = R * np.cosh(mesh.vertices[:, 2] / R)
    return float(np.max(np.abs(rho - target)))


@pytest.fixture(scope="session")
def catenoid_overlay():
    """The catenoid overlay, a function of a `SurfaceMesh` and R."""
    return _catenoid_overlay
