"""Compare two sets of run records (run.py --compare BASE_DIR NEW_DIR).

For each workload, one row per metric: each side's median and quartiles,
and the ratio new/base with the base value.  An end-to-end metric reads

  unresolved  when either side's spread (interquartile range / median) is
              wider than the metric's bound, unless every new run is better
              than every base run;
  WORSE       when the new median is worse than the base by more than the
              bound;
  better      when the new run wins at least 9 in 10 of the pairs (same
              seed, else the same position) and the medians differ by more
              than the base's interquartile range;
  same        otherwise.

Per-layer metrics have no bound; a row is marked "exact" when every run on
both sides read the same value (a count that repeats), else it shows the
ratio only.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load_records(directory: Path) -> list:
    return [json.loads(p.read_text())
            for p in sorted(Path(directory).glob("*.json"))]


def quartiles(values) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def _pairs(base: list, new: list) -> list:
    """(base, new) metric dicts paired by seed where both sides ran it,
    else by position."""
    by_seed = {r["seed"]: r for r in base}
    common = [r for r in new if r["seed"] in by_seed]
    if common:
        return [(by_seed[r["seed"]], r) for r in common]
    return list(zip(base, new))


def verdict(b: list, n: list, pairs: list, better: str, bound) -> str:
    if bound is None:
        return "exact" if len(set(b + n)) == 1 else ""
    sign = 1.0 if better == "lower" else -1.0  # sign * change < 0: better
    q1, bm, q3 = quartiles(b)
    nm = statistics.median(n)
    if max(spread(b), spread(n)) > bound:
        every = max(sign * y for y in n) < min(sign * x for x in b)
        return "better (every run)" if every else "unresolved"
    if sign * (nm - bm) > bound * abs(bm):
        return "WORSE"
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(nm - bm) > q3 - q1:
        return "better"
    return "same"


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def report(base_dir: Path, new_dir: Path, spec: dict) -> str:
    base, new = load_records(base_dir), load_records(new_dir)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    better["failed_frac"] = "lower"
    rows = [("workload", "metric", "base median [q1, q3]",
             "new median [q1, q3]", "new/base (base)", "verdict")]
    for wl in sorted({r["workload"] for r in base + new}):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            bs = [r for r in base if r["workload"] == wl
                  and r["trace"] == trace]
            ns = [r for r in new if r["workload"] == wl
                  and r["trace"] == trace]
            if not bs or not ns:
                continue
            names = list(bs[0][key]) + (["failed_frac"] if not trace else [])
            for name in names:
                def get(r):
                    return r[key][name] if name in r[key] else r[name]
                b = [get(r) for r in bs]
                n = [get(r) for r in ns]
                pairs = [(get(x), get(y)) for x, y in _pairs(bs, ns)]
                bq, nq = quartiles(b), quartiles(n)
                ratio = nq[1] / bq[1] if bq[1] else float("nan")
                bound = bounds.get(name) if not trace else None
                if name == "failed_frac":
                    v = "WORSE" if nq[1] > bq[1] else "same"
                else:
                    v = verdict(b, n, pairs, better[name], bound)
                rows.append((wl, name,
                             f"{_fmt(bq[1])} [{_fmt(bq[0])}, {_fmt(bq[2])}]",
                             f"{_fmt(nq[1])} [{_fmt(nq[0])}, {_fmt(nq[2])}]",
                             f"{ratio:.4f} ({_fmt(bq[1])})", v))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
             for r in rows]
    counts = f"base: {len(base)} records, new: {len(new)} records"
    return "\n".join([counts] + lines)
