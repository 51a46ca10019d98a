"""One workload run in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py setup --workload W
    python3 perfbench/worker.py run --workload W --seed N --seconds S
                                    --trace 0|1 --result FILE

`setup` prints {"setup_s": ...}: the time to import `onephase`, build the
workload's solution objects and evaluate each at one point.  `run` does the
same set-up, then runs the op list in rounds, one op after another, until
the next round would end after `--seconds` (at least one round).  With
`--trace 1` it then runs one more round with spans around every layer and
reports the per-layer metrics.  The result goes to FILE as JSON.

Only the standard library is imported before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"


def cpu_seconds() -> float:
    """User + system CPU time of this process, all threads included."""
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def import_onephase():
    """Import the package from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import onephase
    if Path(onephase.__file__).resolve().parent != SRC / "onephase":
        raise ImportError(f"onephase imported from {onephase.__file__}, "
                          f"not from {SRC}")
    return onephase


def timed_setup(workload: str):
    t0 = time.perf_counter()
    import_onephase()
    import workloads
    objs = workloads.SETUPS[workload]()
    return time.perf_counter() - t0, objs


def run_round(ops, tracer=None) -> dict:
    """Run every op once, in order.  An op fails if it raises (a non-zero
    exit of a CLI op included) or fails its check; a failure is recorded
    and the round goes on.  Only op calls are timed, not their checks."""
    wall = cpu = 0.0
    op_wall = {}
    failures = []
    for op in ops:
        c0, t0 = cpu_seconds(), time.perf_counter()
        error = None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                out = (tracer.call(f"bench.{op.name}", op.run) if tracer
                       else op.run())
        except (Exception, SystemExit):
            error = traceback.format_exc(limit=-3)
        op_wall[op.name] = time.perf_counter() - t0
        wall += op_wall[op.name]
        cpu += cpu_seconds() - c0
        if error is None:
            try:
                op.check(out)
            except Exception:
                error = traceback.format_exc(limit=-3)
        if error is not None:
            failures.append({"op": op.name, "error": error})
    return {"wall_s": wall, "cpu_s": cpu, "op_wall_s": op_wall,
            "attempted": len(ops), "failures": failures}


def blas_threads():
    """Thread count of the OpenBLAS library bundled with numpy, as it
    reports it (None when it cannot be asked)."""
    import numpy as np
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def program_record() -> dict:
    import numpy as np
    import scipy
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads()}


def run(args) -> dict:
    setup_s, objs = timed_setup(args.workload)
    import workloads
    workdir = RUNS / "work" / f"{args.workload}-{os.getpid()}"
    try:
        ops = workloads.build_ops(args.workload, objs, args.seed,
                                  workloads.FULL, workdir,
                                  workloads.load_reference())
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(run_round(ops))
            elapsed = time.perf_counter() - start
            if elapsed + rounds[-1]["wall_s"] > args.seconds:
                break
        result = {"setup_s": setup_s, "rounds": rounds,
                  "excluded_ops": workloads.EXCLUDED_OPS}
        if args.trace:
            result["traced"], spans = traced_round(ops)
            path = RUNS / "spans" / (f"{args.workload}-s{args.seed}"
                                     f"-{os.getpid()}.json")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(
                {"fields": ["name", "parent", "start", "end", "work"],
                 "spans": [[s.name, s.parent, s.start, s.end, s.work]
                           for s in spans]}))
            result["traced"]["spans_file"] = str(path.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["program"] = program_record()
    return result


def traced_round(ops):
    """One round with every layer traced; returns the round and its
    spans."""
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rnd = run_round(ops, tracer)
    finally:
        tracer.uninstall()
    roots = [s for s in tracer.spans if s.parent < 0]
    rnd["metrics"] = tracing.layer_metrics(tracer.spans)
    rnd["root_wall_s"] = sum(s.end - s.start for s in roots)
    rnd["spans"] = len(tracer.spans)
    return rnd, tracer.spans


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "run"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result")
    args = p.parse_args(argv)
    if args.mode == "setup":
        setup_s, _ = timed_setup(args.workload)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result = run(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
