"""Tier-1 contract test of the benchmark (``--scale smoke``, toy sizes).

Checks the declarations in ``BENCHMARK.json`` against the limits the
driver enforces, that every workload emits exactly the declared metrics
and a well-formed last line, that each correctness check fires on a
corrupted result, and that a run leaves nothing outside ``bench/out/``.
No assertion depends on a measured time.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from typing import Any, Dict, Set, Tuple

import pytest

from bench import ROOT, load_benchmark, load_sizes
from bench import run as bench_run
from bench.compare import compare
from bench.measure import stop_resource_tracker
from bench.probes import run_probes
from bench.run import run_workload
from bench.workloads import BATCH

SPEC = load_benchmark()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SECONDS = 0.05
_LEFTOVERS = {".git", "out", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"}


def _tree() -> Set[Tuple[str, int, int]]:
    """Every file of the checkout outside the ignored directories."""
    found = set()
    for folder, subdirs, files in os.walk(ROOT):
        subdirs[:] = [d for d in subdirs if d not in _LEFTOVERS]
        for name in files:
            info = os.stat(os.path.join(folder, name))
            found.add((os.path.join(folder, name), info.st_size, info.st_mtime_ns))
    return found


@pytest.fixture(scope="module")
def tree_before() -> Set[Tuple[str, int, int]]:
    return _tree()


TRACED = ["pagerank_chromatic_recover", "serve_mixed"]


def _corrupt(name: str, ready: Any) -> None:
    if name == "als_locking":
        vertex = next(iter(ready.graph.vertices()))
        ready.graph.set_vertex_data(vertex, ready.graph.vertex_data(vertex) * 1e3)
    else:
        ready.graph.compiled.vdata[0] += 1.0


def _smoke_report() -> Dict[str, Any]:
    """Everything that runs an engine, for the child process to execute."""
    probes = run_probes()
    bench_run.run_probes = lambda: dict(probes)  # the traced runs reuse them
    report: Dict[str, Any] = {"probes": probes, "e2e": {}, "traced": {}, "verify": {}}
    for name in WORKLOADS:
        report["e2e"][name] = run_workload(name, 3, SECONDS, trace=False, scale="smoke")
    for name in TRACED:
        report["traced"][name] = run_workload(name, 3, SECONDS, trace=True, scale="smoke")
    for name in sorted(BATCH):
        workload = BATCH[name](load_sizes("smoke")[name], seed=5)
        ready = workload.setup()
        try:
            result = ready.run()
        finally:
            ready.cleanup()
        clean = workload.verify(ready, result)
        _corrupt(name, ready)
        report["verify"][name] = {"clean": clean, "corrupted": workload.verify(ready, result)}
    return report


@pytest.fixture(scope="module")
def smoke(tree_before: Any) -> Dict[str, Any]:
    """The smoke runs, made in a child interpreter.

    Not in this process: tests that run later in the same pytest process
    must find it as cold as without this module (a warm interpreter loses
    the race between warm start and first write in ``tests/test_serve.py::
    TestServingBasics::test_read_write_read_with_versions``).
    """
    done = subprocess.run(
        [sys.executable, "-m", "bench.test_bench_contract"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_emits_exactly_the_end_to_end_metrics(
    name: str, smoke: Dict[str, Any]
) -> None:
    record = smoke["e2e"][name]
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    assert list(record["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(metric["value"] > 0 for metric in record["metrics"].values())
    assert {"nproc", "cpu_model", "python", "numpy", "git_sha", "REPRO_NO_SHM",
            "loadavg_1m"} <= set(record["env"])
    # A record compared with itself is never a regression.
    rows = compare({name: record}, {name: record}, SPEC)
    assert rows and all(row["verdict"] != "REGRESSION" for row in rows)


def test_probes_emit_every_probe_metric(smoke: Dict[str, Any]) -> None:
    probes = smoke["probes"]
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(probes) <= declared
    assert all(value > 0 for value in probes.values())
    assert {f"runtime.transport.empty_round_us.{wire}"
            for wire in ("inproc", "mp", "tcp", "tcp-loopback")} <= set(probes)


@pytest.mark.parametrize("name", TRACED)
def test_traced_run_emits_exactly_the_layer_metrics(
    name: str, smoke: Dict[str, Any]
) -> None:
    record = smoke["traced"][name]
    assert record["correct"] and record["failed"] == 0
    metrics = record["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["runtime.coord.rounds"]["value"] > 0
    assert metrics["runtime.worker.attribution"]["value"] > 0
    if name in BATCH:
        assert metrics["budget.explained_share"]["value"] > 0
        assert metrics["serve.service.barriers"]["value"] == 0
    else:
        assert metrics["serve.service.barriers"]["value"] > 0
        assert metrics["serve.client.write_p50_ms"]["value"] > 0
    recovers = name == "pagerank_chromatic_recover"
    assert metrics["runtime.checkpoint.recoveries"]["value"] == int(recovers)
    spans = [
        json.loads(line)
        for line in open(ROOT / "bench" / "out" / f"{name}.trace.jsonl")
    ]
    assert spans and all(
        set(span) == {"name", "start", "end", "parent", "execution"} for span in spans
    )


@pytest.mark.parametrize("name", sorted(BATCH))
def test_correctness_check_fires_on_a_corrupted_result(
    name: str, smoke: Dict[str, Any]
) -> None:
    assert smoke["verify"][name]["clean"] == []
    assert smoke["verify"][name]["corrupted"]


def test_serve_check_fires_on_a_corrupted_report() -> None:
    good = {"rejected": 0, "served": 10, "converged": True, "l1": 1e-6}
    for damage in ({"l1": 0.5}, {"served": 9}, {"rejected": 1}, {"converged": False}):
        tally = bench_run._Tally()
        bench_run._check_report(dict(good, **damage), tally, 10, 1e-3)
        assert tally.problems
    tally = bench_run._Tally()
    bench_run._check_report(good, tally, 10, 1e-3)
    assert not tally.problems


def test_last_line_is_the_contracts_json_object() -> None:
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "pagerank_locking", "--seed", "7",
         "--seconds", str(SECONDS), "--trace", "0", "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert all(set(metric) == {"value", "unit"} for metric in last["metrics"].values())


def test_refuses_to_run_under_an_ambient_fault_plan() -> None:
    for knob in ("REPRO_FAULT", "REPRO_CHAOS_SEED"):
        done = subprocess.run(
            [sys.executable, "-m", "bench", "--workload", "pagerank_locking",
             "--scale", "smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            env=dict(os.environ, **{knob: "1:3"}),
        )
        assert done.returncode != 0 and knob in done.stderr and not done.stdout


def test_runs_wrote_nothing_outside_bench_out(tree_before: Any) -> None:
    assert _tree() == tree_before
    scratch = ROOT / "bench" / "out" / "tmp"
    assert not scratch.exists() or not any(scratch.iterdir())


if __name__ == "__main__":
    print(json.dumps(_smoke_report()))
    stop_resource_tracker()
