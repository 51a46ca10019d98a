"""Small shared utilities: windows, polylines, deterministic serialization.

Conventions used throughout the package:

* points are ndarrays of shape (..., 2), float64;
* a *polyline* is an (n, 2) array of consecutive vertices;
* a *window* is an axis-aligned rectangle [x0, x1] x [y0, y1];
* floats round-trip IEEE double exactly: CSV cells are written with
  '%.17g' and JSON numbers by Python's repr; files are written atomically
  (temp file + rename) so re-runs are byte-identical;
* lengths, points and directions are checked by `finite_positive` (0 < x <
  inf, a direction by its norm) and `finite_points` only; bounded ranges such
  as Wedge's 0 < s ≤ 1 stay chained comparisons, which reject NaN and ±inf,
  on `as_number`'s float; all three reject a value that is no number.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "Window",
    "as_number",
    "finite_positive",
    "finite_points",
    "format_float",
    "write_text_atomic",
    "json_text",
    "write_json_atomic",
    "write_csv_atomic",
    "points_in_polygon",
    "clip_polyline_to_window",
    "densify_polyline",
    "smoothstep5",
]


@dataclass(frozen=True)
class Window:
    """Axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.as_tuple())):
            raise InvalidInputError(
                f"window bounds must be finite, got {self.as_tuple()}")
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise InvalidInputError(
                f"degenerate window [{self.x0},{self.x1}]x[{self.y0},{self.y1}]"
            )

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    def contains(self, p) -> np.ndarray:
        """Vectorized membership test for points of shape (..., 2)."""
        p = np.asarray(p, dtype=float)
        return (
            (p[..., 0] >= self.x0)
            & (p[..., 0] <= self.x1)
            & (p[..., 1] >= self.y0)
            & (p[..., 1] <= self.y1)
        )

    def grid(self, h: float):
        """Node coordinates (xs, ys) at spacing h; endpoints included.

        The node counts are round((extent)/h) + 1; h must divide the window
        extents to within 1e-9 relative, otherwise the grid would silently
        misrepresent the window.
        """
        finite_positive("Window.grid", "h", h)
        nx = round(self.width / h)
        ny = round(self.height / h)
        if abs(nx * h - self.width) > 1e-9 * max(1.0, self.width) or nx < 1:
            raise InvalidInputError(f"h={h} does not divide window width {self.width}")
        if abs(ny * h - self.height) > 1e-9 * max(1.0, self.height) or ny < 1:
            raise InvalidInputError(f"h={h} does not divide window height {self.height}")
        xs = self.x0 + h * np.arange(nx + 1)
        ys = self.y0 + h * np.arange(ny + 1)
        return xs, ys

    def as_tuple(self):
        return (self.x0, self.y0, self.x1, self.y1)


def as_number(where: str, name: str, value, convert=float):
    """convert(value), a float by default; an InvalidInputError when the
    value is no number (or, for an array conversion, no array of them)."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(
            f"{where} requires a number {name}, got {value!r}") from None


def finite_positive(where: str, name: str, value) -> float:
    """`value` as a float; an InvalidInputError unless 0 < value < inf."""
    if not 0 < (value := as_number(where, name, value)) < np.inf:
        raise InvalidInputError(
            f"{where} requires 0 < {name} < inf, got {value}")
    return value


def finite_points(where: str, name: str, value) -> np.ndarray:
    """`value` as a float array; an InvalidInputError unless all finite."""
    p = as_number(where, name, value, lambda v: np.asarray(v, dtype=float))
    if (bad := p[~np.isfinite(p)]).size:
        raise InvalidInputError(
            f"{where} requires a finite {name}, got {bad[0]}")
    return p


def format_float(x) -> str:
    """Serialize one float with <= 17 significant digits (exact round-trip)."""
    return "%.17g" % float(x)


def _atomic_write(path: str, data: str):
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path: str, text: str):
    _atomic_write(path, text)


class _FloatEncoder(json.JSONEncoder):
    """JSON encoder that also takes numpy scalars and arrays, as Python
    floats, ints and lists; floats are written by `json`'s own repr."""

    def default(self, o):
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        return super().default(o)


def json_text(obj) -> str:
    """`obj` as the package's JSON text: sorted keys, indent 2, numpy
    values as Python numbers and lists, one final newline."""
    return json.dumps(obj, cls=_FloatEncoder, indent=2, sort_keys=True) + "\n"


def write_json_atomic(path: str, obj):
    _atomic_write(path, json_text(obj))


def write_csv_atomic(path: str, header, rows):
    """rows: iterable of tuples; floats formatted with format_float."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for c in row:
            if isinstance(c, (float, np.floating)):
                cells.append(format_float(c))
            else:
                cells.append(str(c))
        lines.append(",".join(cells))
    _atomic_write(path, "\n".join(lines) + "\n")


def points_in_polygon(points, polygon) -> np.ndarray:
    """Crossing-number point-in-polygon test, vectorized over points.

    points: (..., 2); polygon: (m, 2) simple polygon (implicitly closed).
    Points on the boundary may land on either side (callers that care use
    sign refinement, not membership, near edges).
    """
    p = np.asarray(points, dtype=float)
    poly = np.asarray(polygon, dtype=float)
    x = p[..., 0][..., None]
    y = p[..., 1][..., None]
    x0, y0 = poly[:, 0], poly[:, 1]
    x1 = np.roll(x0, -1)
    y1 = np.roll(y0, -1)
    # Edge straddles the horizontal ray through y
    straddle = (y0 <= y) != (y1 <= y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_int = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
    crossings = np.sum(straddle & (x < x_int), axis=-1)
    return (crossings % 2) == 1


def smoothstep5(t):
    """Quintic smoothstep, clipped: 0 for t ≤ 0, 1 for t ≥ 1, and two
    vanishing derivatives at both ends."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def densify_polyline(poly, step: float) -> np.ndarray:
    """Resample a polyline so consecutive points are at most `step` > 0 apart
    (original vertices are kept; step = inf keeps only them, not an error).

    A segment of length ℓ gets n = max(1, ⌈ℓ/step⌉) points: t_k = k·(1/n)
    for k < n and its end vertex at t = 1, as np.linspace(0, 1, n + 1)[1:]
    places them, built for all segments in one array pass.  ℓ is taken by
    the BLAS dot that np.linalg.norm uses (`np.vecdot`), so a step that
    divides a segment gives the same n as a per-segment norm would.
    """
    poly = np.asarray(poly, dtype=float)
    if not step > 0:
        raise InvalidInputError(f"densify step must be positive, got {step}")
    if len(poly) < 2:
        return poly.copy()
    a, b = poly[:-1], poly[1:]
    d = b - a
    with np.errstate(over="ignore"):
        q = np.ceil(np.sqrt(np.vecdot(d, d)) / step)
    if not np.all(np.isfinite(q)):
        raise InvalidInputError("densify_polyline: segment length / step "
                                "is not finite")
    n = np.maximum(q, 1.0).astype(np.intp)
    ends = np.cumsum(n)
    seg = np.repeat(np.arange(len(n)), n)
    t = (np.arange(1, ends[-1] + 1) - (ends - n)[seg]) * (1.0 / n)[seg]
    t[ends - 1] = 1.0
    t = t[:, None]
    out = np.empty((ends[-1] + 1,) + poly.shape[1:])
    out[0] = poly[0]
    out[1:] = a[seg] * (1 - t) + b[seg] * t
    return out


def clip_polyline_to_window(poly, window: Window):
    """Clip a polyline to a window, splitting it into the pieces that lie
    inside.  Returns a list of (k, 2) arrays.

    Each segment is clipped by Liang–Barsky, in one array pass over all
    segments, so the crossings with the window sides are exact.  A clipped
    segment continues the piece before it when the segment before it
    survived too and ended, to np.allclose's default rtol with atol 1e-14,
    where this one starts.
    """
    poly = np.asarray(poly, dtype=float)
    a, d = poly[:-1], np.diff(poly, axis=0)
    t0, t1 = np.zeros(len(a)), np.ones(len(a))
    alive = np.ones(len(a), dtype=bool)
    for q, dq in (
        (a[:, 0] - window.x0, d[:, 0]),
        (window.x1 - a[:, 0], -d[:, 0]),
        (a[:, 1] - window.y0, d[:, 1]),
        (window.y1 - a[:, 1], -d[:, 1]),
    ):
        # inside condition: q + t*dq >= 0 on [t0, t1].  q is compared
        # against t·dq, and the crossing −q/dq is formed only when it lies
        # in [t0, t1]: for a subnormal dq the quotient overflows.
        zero, pos = dq == 0.0, dq > 0
        neg = ~zero & ~pos
        alive &= ~(zero & (q < 0))
        alive &= ~(pos & (-q > t1 * dq))
        np.divide(-q, dq, out=t0, where=alive & pos & (-q > t0 * dq))
        alive &= ~(neg & (q < -t0 * dq))
        np.divide(-q, dq, out=t1, where=alive & neg & (q < -t1 * dq))
        alive &= ~(t0 > t1)
    keep = np.flatnonzero(alive)
    if len(keep) == 0:
        return []
    pa = a[keep] + t0[keep, None] * d[keep]
    pb = a[keep] + t1[keep, None] * d[keep]
    new = np.ones(len(keep), dtype=bool)
    new[1:] = ((np.diff(keep) != 1)
               | ~np.all(np.isclose(pb[:-1], pa[1:], atol=1e-14), axis=1))
    starts = np.flatnonzero(new)
    # each piece is its first segment's start followed by every segment's end
    pts = np.insert(pb, starts, pa[starts], axis=0)
    return np.split(pts, starts[1:] + np.arange(1, len(starts)))
