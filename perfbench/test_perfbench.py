"""Fast tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import compare
import run
import tracing
import worker
from tracing import Span

worker.import_onephase()
import workloads  # noqa: E402  (needs onephase on the path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _spans():
    # bench.op [0, 10]
    #   cli.main [1, 9]
    #     variational.minimize_ac [2, 6]
    #       variational.minimize_ac [3, 4]   (nested call of the same name)
    #     common.write_json_atomic [7, 8]
    return [Span("bench.op", -1, 0.0, 10.0),
            Span("cli.main", 0, 1.0, 9.0),
            Span("variational.minimize_ac", 1, 2.0, 6.0, work=5),
            Span("variational.minimize_ac", 2, 3.0, 4.0, work=2),
            Span("common.write_json_atomic", 1, 7.0, 8.0, work=100)]


def test_self_times_of_a_hand_built_tree():
    assert tracing.self_times(_spans()) == [2.0, 3.0, 3.0, 1.0, 1.0]
    layers = tracing.layer_self_times(_spans())
    assert layers == {"bench": 2.0, "cli": 3.0, "variational": 4.0,
                      "common": 1.0}
    assert sum(layers.values()) == 10.0  # the root span's duration

    m = tracing.layer_metrics(_spans())
    assert m["variational.minimize_ac_s"] == 4.0  # outermost call only
    assert m["variational.minimize_ac_iterations"] == 7
    assert m["variational.minimize_ac_s_per_iter"] == 4.0 / 7
    assert m["common.write_s"] == 1.0 and m["common.write_bytes"] == 100
    assert m["cli.minimize_s"] == 0.0
    assert m["variational.self_s"] == 4.0 and m["quad.self_s"] == 0.0


def test_raising_op_is_counted_and_the_round_goes_on():
    ran = []

    def fail_check(out):
        raise workloads.CheckFailed("wrong")

    ops = [workloads.Op("ok", lambda: ran.append("ok"), lambda out: None),
           workloads.Op("raises", lambda: 1 / 0, lambda out: None),
           workloads.Op("wrong", lambda: 1, fail_check),
           workloads.Op("exits", lambda: sys.exit(3), lambda out: None),
           workloads.Op("last", lambda: ran.append("last"),
                        lambda out: None)]
    rnd = worker.run_round(ops)
    assert ran == ["ok", "last"]
    assert [f["op"] for f in rnd["failures"]] == ["raises", "wrong", "exits"]
    assert "ZeroDivisionError" in rnd["failures"][0]["error"]

    res = {"setup_s": 1.0, "rounds": [rnd], "peak_rss_mb": 50.0,
           "program": {}, "excluded_ops": []}
    record = run.summarize(res, [1.0, 2.0, 3.0], trace=0)
    assert record["attempted"] == 5 and record["failed"] == 3
    assert record["failed_frac"] == pytest.approx(0.6)
    assert record["end_to_end"]["setup_s"] == 2.0
    line = run.result_line(record, SPEC)
    assert line["correct"] is False
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_op_list_at_tiny_sizes(name, tmp_path):
    objs = workloads.SETUPS[name]()
    ops = workloads.build_ops(name, objs, 3, workloads.TINY, tmp_path,
                              workloads.load_reference())
    rnd = worker.run_round(ops)
    assert rnd["failures"] == []

    traced, spans = worker.traced_round(ops)
    assert traced["failures"] == [] and len(spans) == traced["spans"]
    layers = traced["metrics"]
    wanted = {m["name"] for m in SPEC["per_layer"]}
    assert set(layers) == {n for n in wanted if not n.startswith("trace.")}
    self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(traced["root_wall_s"], rel=1e-9)
    # patches are gone after the traced round
    import onephase.cli
    assert not hasattr(onephase.cli.main, "__wrapped__")


def test_counts_repeat_between_traced_rounds(tmp_path):
    objs = workloads.SETUPS["scherk"]()
    ops = workloads.build_ops("scherk", objs, 5, workloads.TINY, tmp_path,
                              workloads.load_reference())
    a, b = (worker.traced_round(ops)[0]["metrics"] for _ in range(2))
    for key in ("conformal.scherk.integrand_points",
                "quad.segment_quad_nodes", "solutions.scherk.eval_points"):
        assert a[key] == b[key] > 0


def test_compare_marks_better_worse_and_exact(tmp_path):
    def write(side, walls, count):
        d = tmp_path / side
        d.mkdir()
        for seed, w in enumerate(walls):
            rec = {"workload": "minimize", "seed": seed, "trace": 0,
                   "failed_frac": 0.0,
                   "end_to_end": {"wall_s": w, "cpu_s": 10.0,
                                  "setup_s": 1.0, "peak_rss_mb": 90.0}}
            (d / f"{seed}.json").write_text(json.dumps(rec))
            rec = {"workload": "minimize", "seed": seed, "trace": 1,
                   "per_layer": {"variational.minimize_ac_iterations":
                                 count}}
            (d / f"{seed}t.json").write_text(json.dumps(rec))
        return d

    base = write("base", [10.0, 10.1, 9.9, 10.05, 9.95], 100)
    new = write("new", [5.0, 5.1, 4.9, 5.05, 4.95], 100)
    rows = {tuple(line.split()[:2]): line for line in
            compare.report(base, new, SPEC).splitlines()[2:]}
    assert rows[("minimize", "wall_s")].endswith("better")
    assert rows[("minimize", "cpu_s")].endswith("same")
    assert rows[("minimize",
                 "variational.minimize_ac_iterations")].endswith("exact")
    rows = {tuple(line.split()[:2]): line for line in
            compare.report(new, base, SPEC).splitlines()[2:]}
    assert rows[("minimize", "wall_s")].endswith("WORSE")


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "minimize", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
