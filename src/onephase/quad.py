"""Quadrature helpers for complex path integrals.

No chart or mesh routine integrates numerically: the conformal charts and
the Traizet primitives are closed forms.  What is left here serves the
path-integral checks and the tests, as an independent oracle for those
closed forms:

* `gauss_nodes` — Gauss–Legendre nodes and weights on [0, 1], for the
  composite rule of `traizet._segment_integral` and the radial rule of
  `variational.weiss_energy`;

* `segment_quad` — composite Gauss–Legendre along straight segments in the
  complex plane, vectorized over many segments at once;

* `adaptive_complex_quad` — adaptive Gauss–Kronrod (scipy QUADPACK) applied
  to real and imaginary parts, for one-off high-accuracy integrals.
"""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np
from scipy.integrate import IntegrationWarning, quad

__all__ = [
    "gauss_nodes",
    "segment_quad",
    "adaptive_complex_quad",
]


@lru_cache(maxsize=None)
def gauss_nodes(order: int):
    """Gauss–Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


def segment_quad(f, a, b, order: int = 12, pieces: int = 1):
    """∫_a^b f(z) dz along straight segments, vectorized.

    a, b: complex arrays of identical shape (or scalars); f maps a complex
    ndarray to a complex ndarray of the same shape.  Returns an array shaped
    like a.  `pieces` splits each segment into equal subsegments.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    x, w = gauss_nodes(order)
    total = np.zeros(np.broadcast(a, b).shape, dtype=complex)
    for k in range(pieces):
        lo = a + (b - a) * (k / pieces)
        hi = a + (b - a) * ((k + 1) / pieces)
        d = hi - lo
        # nodes shape: (..., order)
        z = lo[..., None] + d[..., None] * x
        vals = f(z)
        total = total + d * np.sum(vals * w, axis=-1)
    return total


def adaptive_complex_quad(f, t0: float, t1: float, tol: float = 1e-12,
                          limit: int = 200, points=None):
    """∫_{t0}^{t1} f(t) dt for complex-valued f of a real parameter, via
    QUADPACK on real and imaginary parts (absolute tolerance `tol`).

    The relative tolerance is matched to `tol` so QUADPACK can stop once
    round-off dominates; its slow-convergence warnings are suppressed
    (accuracy is asserted directly by the oracle tests).
    """
    kw = dict(epsabs=tol, epsrel=max(tol, 1e-13), limit=limit)
    if points is not None:
        kw["points"] = points
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        re, _ = quad(lambda t: f(t).real, t0, t1, **kw)
        im, _ = quad(lambda t: f(t).imag, t0, t1, **kw)
    return re + 1j * im
