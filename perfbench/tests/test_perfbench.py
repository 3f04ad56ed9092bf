"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests

They use a handful of columns and the graph workload without BFS, so the
whole file runs in well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)

TINY_COLUMNS = {"columns": 2}
NO_BFS_GRAPH = {"bfs_sources": 0, "bfs_targets": 0}


def _result(workload, sizes, trace):
    """The result line of a one-second run at the given sizes."""
    return run.result_line(run.run_workload(workload, 1, 1, trace, sizes))


def _in_process(workload, sizes, gate, seed=1):
    spec = {"workload": workload, "seed": seed, "sizes": sizes,
            "spawned": time.monotonic()}
    return worker.run(spec, gate)


@pytest.mark.parametrize("workload, sizes, trace, section", [
    ("columns", TINY_COLUMNS, False, "end_to_end"),
    ("columns", TINY_COLUMNS, True, "per_layer"),
    ("graph", NO_BFS_GRAPH, True, "per_layer"),
])
def test_every_metric_is_emitted_with_its_unit(workload, sizes, trace,
                                               section):
    res = _result(workload, sizes, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {n: m["unit"] for n, m in res["metrics"].items()} == want
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_graph_attributes_time_to_its_layers():
    m = {n: v["value"] for n, v in _result("graph", NO_BFS_GRAPH,
                                           True)["metrics"].items()}
    assert m["grassmann.structure_constants.self_s"] > 0
    assert m["kernels.rref2.calls"] > 0 and m["kernels.rrefp.calls"] == 0
    assert m["operators.matmul.calls"] == 0 and m["scalars.ops"] == 0
    layers = ("kernels", "gf", "geometry", "relations", "operators",
              "scalars", "grassmann", "cli", "reports", "bench")
    total = sum(m[f"{layer}.self_s"] for layer in layers)
    assert m["geometry.self_s"] + m["kernels.self_s"] > total / 2


def test_scalar_ops_counts_each_field_operation_once():
    # in a fresh process: installing the tracer rebinds grassver's names
    code = """if True:
        import grassver.cli, layertrace  # every layer loaded first
        from grassver.scalars import QSqrtScalar, scalar_add
        tracer = layertrace.Tracer()
        tracer.install()
        x = QSqrtScalar(1, 2, 3)
        1 - x                   # __rsub__ negates, then adds: one op
        scalar_add(x, x) * x    # two ops
        x.inverse(), x.is_zero(), x == x, bool(x)  # one op
        print(tracer.metrics()["scalars.ops"])
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [BENCH, os.path.join(ROOT, "src")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 4


def test_reference_seconds_follow_the_probed_speed():
    probe = worker.SpeedProbe()
    ref = worker.PROBE_REF_S
    # host at half speed for [0, 1): each probe took twice its reference
    probe.samples = [(t / 10, 2 * ref, 2 * ref) for t in range(10)]
    probe.samples.append((1.5, ref, ref))  # outside the interval
    wall, cpu = probe.reference_s(0.0, 1.0, 1.0, 0.8)
    assert wall == pytest.approx((1.0 - 20 * ref) / 2)
    assert cpu == pytest.approx((0.8 - 20 * ref) / 2)


def test_forced_wrong_expectation_is_counted():
    gate = worker.Gate(expected_failures={"REL-1[col 0]"})
    rec = _in_process("columns", TINY_COLUMNS, gate)
    assert rec["attempted"] == 18
    assert rec["failed"] == 1 and rec["failed"] / rec["attempted"] > 0


def test_exception_counts_as_failed_check(monkeypatch):
    from grassver import relations

    real = relations.verify_relation

    def broken(rid, *args, **kwargs):
        if rid == "REL-2":
            raise ArithmeticError("injected")
        return real(rid, *args, **kwargs)

    monkeypatch.setattr(relations, "verify_relation", broken)
    rec = _in_process("columns", TINY_COLUMNS, worker.Gate())
    assert rec["attempted"] == 18 and rec["failed"] == 2


@pytest.mark.parametrize("workload, sizes", [
    ("columns", TINY_COLUMNS),
    ("graph", NO_BFS_GRAPH),
])
def test_two_seeds_give_identical_verdicts(workload, sizes):
    verdicts = []
    for seed in (1, 2):
        gate = worker.Gate()
        rec = _in_process(workload, sizes, gate, seed=seed)
        assert rec["failed"] == 0
        verdicts.append(gate.verdicts)
    assert verdicts[0] == verdicts[1] and verdicts[0]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "columns",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and not proc.stdout.strip()


def test_compare_refuses_different_backends(tmp_path):
    def record(backend):
        return {"header": {"backend": backend, "workload": "graph",
                           "trace": 0},
                "metrics": {"verdict_s": 1.0}, "check_fail_frac": 0.0}

    for name, backend in (("a.json", "python"), ("b.json", "cython")):
        (tmp_path / name).write_text(json.dumps(record(backend)))
    argv = ["compare.py", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    assert compare.main(argv) == 2
    argv[2] = argv[1]
    assert compare.main(argv) == 0
