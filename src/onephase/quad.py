"""Gauss–Legendre quadrature.

No chart or mesh routine integrates numerically: the conformal charts and
the Traizet primitives are closed forms.  What is left here serves the
path-integral checks and the tests, as an independent oracle for those
closed forms:

* `gauss_nodes` — Gauss–Legendre nodes and weights on [0, 1], for the
  composite rule of `traizet._segment_integral` and the radial and arc
  rules of `variational.weiss_energy`;

* `segment_quad` — composite Gauss–Legendre along straight segments in the
  complex plane, vectorized over many segments at once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "gauss_nodes",
    "segment_quad",
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

