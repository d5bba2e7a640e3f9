"""Toy-size smoke run of the benchmark: every workload, plain and traced.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

from perfbench import speed
from perfbench.tracer import Tracer, layer_breakdown, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweep", "stream", "serve")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plain_run_reports_every_end_to_end_metric(workload):
    out = result_of(run_bench(workload, 0))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    out = result_of(run_bench(workload, 1))
    assert out["correct"] and out["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == wanted
    values = {k: v["value"] for k, v in out["metrics"].items()}
    assert values["trace_overhead"] > 0
    if workload == "serve":
        assert values["serve.connections"] > 0
        assert values["serve.requests.store_scan"] > 0
        assert values["store.scan.s"] > 0
        return
    assert values["coverage"] >= 0.95
    assert values["taq.quotes"] > 0 and values["mpi.collectives"] > 0
    if workload == "sweep":
        assert values["strategy.cells"] == 3 * 42
        assert values["corr.pair_windows"] > 0
    else:
        assert values["faults.epochs"] == 7  # 130 intervals, 20 an epoch
        assert values["mpi.messages"] > 0


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run_bench("sweep", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_the_union_of_parallel_children():
    tracer = Tracer()
    world = tracer.open("mpi.world")

    def rank(r):
        span = tracer.open("rank", parent=world)
        span.rank = r
        time.sleep(0.05)
        tracer.close(span)

    threads = [threading.Thread(target=rank, args=(r,)) for r in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
    tracer.close(world)
    spans = tracer.spans
    selfs = self_times(spans)
    assert 0 <= selfs[id(world)] < 0.04
    assert layer_breakdown(spans)["rank_skew"] == pytest.approx(1.0, abs=0.2)


def test_speed_reference_catches_a_busy_background_thread():
    wall, other = speed.reference()
    assert wall > 0 and speed.scale([(wall, other)])[1]

    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(range(1000))

    spinner = threading.Thread(target=spin)
    spinner.start()
    try:
        busy = speed.reference()
    finally:
        stop.set()
        spinner.join(timeout=5)
    slowdown, quiet = speed.scale([(wall, other), busy])
    assert not quiet
    assert slowdown == pytest.approx((wall + busy[0]) / 2 / speed.NOMINAL_S)
