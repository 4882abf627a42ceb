"""Telemetry budgets, asserted on the benchmark's own records.

The three promises of ROADMAP "Observability": tracing costs at most
10 % of the untraced wall, a traced run attributes at least 95 % of
worker time to its phases, and telemetry switched off is near-free.
Each guard reads what ``python3 -m bench`` measures — a traced
``run_workload`` record, or executions set up by the bench's own
``BATCH`` workloads — at full scale: at smoke sizes a run is too short
for a share to mean anything.

Not tier-1 (the ``perf`` marker is opt-in): ``make perf``, ~1 min.
"""

import time

import pytest

from bench import load_benchmark, load_sizes
from bench.run import run_workload
from bench.timing import SpanLog
from bench.workloads import BATCH

pytestmark = pytest.mark.perf

SECONDS = load_benchmark()["run_seconds"]


def _traced_record(name):
    record = run_workload(name, 0, SECONDS, trace=True)
    assert record["correct"], record["problems"]
    return {key: metric["value"] for key, metric in record["metrics"].items()}


def test_tracing_costs_at_most_ten_percent():
    """Traced vs untraced wall of the chromatic PageRank workload."""
    share = _traced_record("pagerank_chromatic")["obs.trace_overhead_share"]
    assert share <= 0.10, share


def test_traced_locking_run_attributes_worker_time():
    """Worker wall covered by the six phases on the ALS locking workload
    (lockwait overlaps busy spans by design and is not counted)."""
    attribution = _traced_record("als_locking")["runtime.worker.attribution"]
    assert attribution >= 0.95, attribution


def _execute(workload, log):
    """One execution as the bench runs it: set up, run, clean up, verify."""
    ready = workload.setup(log)
    begun = time.perf_counter()
    try:
        result = ready.run()
    finally:
        wall = time.perf_counter() - begun
        ready.cleanup()
    assert not workload.verify(ready, result)
    return result, wall


def test_telemetry_off_is_near_free():
    """Dormant cost = sites a traced run hits x one falsy ``_obs`` check,
    with a 3x safety factor for guard branches that never record; it
    must stay under 2 % of the untraced wall."""

    class _Dormant:
        __slots__ = ("_obs",)

        def __init__(self):
            self._obs = None

    obj = _Dormant()
    loops = 200_000
    start = time.perf_counter()
    for _ in range(loops):
        if obj._obs is not None:  # pragma: no cover - never taken
            raise AssertionError
    per_check = (time.perf_counter() - start) / loops

    name = "pagerank_chromatic"
    workload = BATCH[name](load_sizes("full")[name], 0)
    traced, _ = _execute(workload, SpanLog())
    _, untraced_wall = _execute(workload, None)
    # One dormant check per recorded span, plus a few per observed
    # round for the counter sites (counter *values* count ring entries,
    # not checks — the increment happens once per round per name).
    telemetry = traced.telemetry
    rounds = sum(
        counters.get("plane_rounds", 0)
        for counters in telemetry.counters.values()
    )
    sites_hit = len(telemetry.events) + 4 * rounds
    dormant_cost = 3 * sites_hit * per_check
    assert dormant_cost < 0.02 * untraced_wall, (
        dormant_cost,
        untraced_wall,
        sites_hit,
        per_check,
    )
