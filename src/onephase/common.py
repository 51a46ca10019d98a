"""Small shared utilities: windows, polylines, deterministic serialization.

Conventions used throughout the package:

* points are ndarrays of shape (..., 2), float64;
* a *polyline* is an (n, 2) array of consecutive vertices;
* a *window* is an axis-aligned rectangle [x0, x1] x [y0, y1];
* floats are serialized with at most 17 significant digits ('%.17g'),
  which round-trips IEEE double exactly, and files are written atomically
  (temp file + rename) so re-runs are byte-identical.
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
    "format_float",
    "write_text_atomic",
    "write_json_atomic",
    "write_csv_atomic",
    "points_in_polygon",
    "clip_polyline_to_window",
    "polyline_length",
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
    """JSON encoder that caps float precision at 17 significant digits and
    understands numpy scalars/arrays."""

    def default(self, o):
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        return super().default(o)


def write_json_atomic(path: str, obj):
    text = json.dumps(obj, cls=_FloatEncoder, indent=2, sort_keys=True)
    _atomic_write(path, text + "\n")


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


def polyline_length(poly) -> float:
    poly = np.asarray(poly, dtype=float)
    if len(poly) < 2:
        return 0.0
    return float(np.sum(np.linalg.norm(np.diff(poly, axis=0), axis=1)))


def densify_polyline(poly, step: float) -> np.ndarray:
    """Resample a polyline so consecutive points are at most `step` apart
    (original vertices are kept)."""
    poly = np.asarray(poly, dtype=float)
    if step <= 0:
        raise InvalidInputError("densify step must be positive")
    if len(poly) < 2:
        return poly.copy()
    out = [poly[:1]]
    for a, b in zip(poly[:-1], poly[1:]):
        seg = np.linalg.norm(b - a)
        n = max(1, int(np.ceil(seg / step)))
        ts = np.linspace(0.0, 1.0, n + 1)[1:, None]
        out.append(a[None, :] * (1 - ts) + b[None, :] * ts)
    return np.concatenate(out, axis=0)


def clip_polyline_to_window(poly, window: Window):
    """Clip a polyline to a window, splitting it into the pieces that lie
    inside.  Segment/boundary intersection points are inserted exactly
    (Liang–Barsky per segment).  Returns a list of (k, 2) arrays.
    """
    poly = np.asarray(poly, dtype=float)
    pieces = []
    current: list[np.ndarray] = []

    def flush():
        nonlocal current
        if len(current) >= 2:
            pieces.append(np.asarray(current))
        current = []

    for a, b in zip(poly[:-1], poly[1:]):
        seg = _clip_segment(a, b, window)
        if seg is None:
            flush()
            continue
        pa, pb = seg
        if current and np.allclose(current[-1], pa, atol=1e-14):
            current.append(pb)
        else:
            flush()
            current = [pa, pb]
    flush()
    return pieces


def _clip_segment(a, b, w: Window):
    """Liang–Barsky: the portion of segment [a,b] inside w, or None."""
    d = b - a
    t0, t1 = 0.0, 1.0
    for q, dq in (
        (a[0] - w.x0, d[0]),
        (w.x1 - a[0], -d[0]),
        (a[1] - w.y0, d[1]),
        (w.y1 - a[1], -d[1]),
    ):
        # inside condition: q + t*dq >= 0 on [t0, t1].  q is compared
        # against t·dq, and the crossing −q/dq is formed only when it lies
        # in [t0, t1]: for a subnormal dq the quotient overflows.
        if dq == 0.0:
            if q < 0:
                return None
        elif dq > 0:
            if -q > t1 * dq:
                return None
            if -q > t0 * dq:
                t0 = -q / dq
        else:
            if q < -t0 * dq:
                return None
            if q < -t1 * dq:
                t1 = -q / dq
        if t0 > t1:
            return None
    return a + t0 * d, a + t1 * d
