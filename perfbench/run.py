"""Benchmark entry point for `onephase`.

    python3 perfbench/run.py --workload {scherk,minimize,probes} --seed N
                             --seconds S --trace {0,1}
    python3 perfbench/run.py --compare BASE_DIR NEW_DIR

A run measures the set-up time in fresh interpreters (worker.py setup,
repeated; the median is reported), then starts one more fresh interpreter
that runs the workload (worker.py run).  Ops run one after another from a
single client, with numpy's default BLAS threads.  The last line printed is
one JSON object: with --trace 0 it holds the end-to-end metrics, with
--trace 1 the per-layer ones.  Every run also writes a record with the
machine and program details to .perfbench_runs/records/; --compare reads
two directories of such records.

The program is imported from src/ of the checkout this file sits in; the
run fails (exit code 2) when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
WORKER = HERE / "worker.py"
WORKLOADS = ("scherk", "minimize", "probes")

#: fresh interpreters timed for setup_s; the workload's own interpreter
#: adds one more sample.
SETUP_PROBES = 4
#: a run must end within this many seconds.
RUN_LIMIT_S = 175.0

def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def _worker(args, timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, TMPDIR=str(RUNS / "tmp"))
    return subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=timeout, check=True)


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run the workload once; returns the run record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    (RUNS / "tmp").mkdir(parents=True, exist_ok=True)
    setup = []
    for _ in range(SETUP_PROBES):
        out = _worker(["setup", "--workload", workload],
                      timeout=max(1.0, deadline - time.monotonic()))
        setup.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    with tempfile.NamedTemporaryFile(dir=RUNS / "tmp", suffix=".json") as f:
        _worker(["run", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace),
                 "--result", f.name],
                timeout=max(1.0, deadline - time.monotonic()))
        res = json.loads(Path(f.name).read_text())
    record = summarize(res, setup + [res["setup_s"]], trace)
    record.update(workload=workload, seed=seed, seconds=seconds)
    record["machine"]["src_lines"] = src_lines()
    return record


def summarize(res: dict, setup: list, trace: int) -> dict:
    """Run record from a worker result and the set-up samples."""
    untraced = res["rounds"]
    rounds = untraced + ([res["traced"]] if trace else [])
    attempted = sum(r["attempted"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    e2e = {"wall_s": statistics.median(r["wall_s"] for r in untraced),
           "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
           "setup_s": statistics.median(setup),
           "peak_rss_mb": res["peak_rss_mb"]}
    record = {
        "trace": trace, "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted, "failures": failures,
        "end_to_end": e2e,
        "round_wall_s": [r["wall_s"] for r in untraced],
        "round_cpu_s": [r["cpu_s"] for r in untraced],
        "op_wall_s": [r["op_wall_s"] for r in untraced],
        "setup_samples_s": setup,
        "machine": {"nproc": os.cpu_count(), **res["program"]},
        "excluded_ops": res["excluded_ops"],
    }
    if trace:
        t = res["traced"]
        layers = dict(t["metrics"])
        layers["trace.wall_s"] = t["root_wall_s"]
        layers["trace.untraced_wall_s"] = e2e["wall_s"]
        layers["trace.overhead_s"] = t["root_wall_s"] - e2e["wall_s"]
        layers["trace.spans"] = t["spans"]
        self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        record["per_layer"] = layers
        record["spans_file"] = t["spans_file"]
        record["self_sum_error_s"] = self_sum - t["root_wall_s"]
    return record


def result_line(record: dict, spec: dict) -> dict:
    """The last line of output: metrics of the kind the trace flag asks
    for, by name and unit."""
    if record["trace"]:
        values, wanted = record["per_layer"], spec["per_layer"]
    else:
        values, wanted = record["end_to_end"], spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = record["failed"] == 0
    if record["trace"]:
        # self times must account for the traced wall time
        correct = correct and abs(record["self_sum_error_s"]) <= \
            1e-9 * max(1.0, record["per_layer"]["trace.wall_s"])
    return {"correct": correct, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def save_record(record: dict) -> Path:
    d = RUNS / "records"
    d.mkdir(parents=True, exist_ok=True)
    path = d / (f"{record['workload']}-t{record['trace']}-s{record['seed']}"
                f"-{time.time_ns()}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "NEW_DIR"),
                   help="compare two directories of run records")
    args = p.parse_args(argv)

    spec = load_spec()
    if args.compare:
        import compare
        print(compare.report(*(Path(d) for d in args.compare), spec))
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if not (ROOT / "src" / "onephase" / "__init__.py").is_file():
        print(f"no onephase package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        record = measure(args.workload, args.seed, seconds, args.trace)
    except subprocess.CalledProcessError as e:
        print(f"worker failed with exit code {e.returncode}:\n{e.stderr}",
              file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as e:
        print(f"worker timed out after {e.timeout:.0f} s", file=sys.stderr)
        return 1
    path = save_record(record)
    e2e = " ".join(f"{m['name']}={record['end_to_end'][m['name']]:.4g}"
                   f"{m['unit']}" for m in spec["end_to_end"])
    print(f"{record['workload']} seed={record['seed']}: "
          f"failed_frac={record['failed_frac']:g} {e2e} "
          f"record={path.relative_to(ROOT)}")
    for x in record["excluded_ops"]:
        print(f"excluded: {x['op']}: {x['reason']}")
    for f in record["failures"]:
        print(f"FAILED {f['op']}: {f['error'].strip().splitlines()[-1]}")
    print(json.dumps(result_line(record, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
