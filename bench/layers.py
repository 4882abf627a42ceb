"""Per-layer metrics of one traced execution.

Everything here is read from outside the program: the run result, the
spans the timing transport recorded, and ``repro.obs.summarize()`` of
the run's telemetry. Names use the repo's module names; a workload that
never enters a layer reports that layer's metrics as 0.
"""

from __future__ import annotations

from typing import Any, Dict

from bench.timing import SpanLog
from repro.obs import RunTelemetry, percentile

_PHASES = ("compute", "ghost", "ser", "idle", "snap")


def engine_layers(
    result: Any, log: SpanLog, execution: int, wall: float, summary: Dict[str, Any]
) -> Dict[str, float]:
    """Coordinator, transport, worker, locking, plane, checkpoint layers."""
    rounds = [
        end - start
        for name, start, end, _parent, exe in log.spans
        if exe == execution and name.startswith("round:")
    ]
    launch = log.seconds(execution, "launch")
    inside = (
        launch
        + sum(rounds)
        + log.seconds(execution, "recover")
        + log.seconds(execution, "shutdown")
    )
    count = max(result.rounds, 1)
    metrics = {
        "runtime.coord.rounds": result.rounds,
        "runtime.coord.updates": result.num_updates,
        "runtime.coord.updates_per_round": result.num_updates / count,
        "runtime.coord.rounds_per_sweep": result.rounds_per_sweep,
        "runtime.coord.launch_s": launch,
        "runtime.coord.self_s": wall - inside,
        "runtime.coord.updates_per_s": result.updates_per_sec,
        "runtime.transport.round_p50_ms": percentile(rounds, 50) * 1e3,
        "runtime.transport.round_p95_ms": percentile(rounds, 95) * 1e3,
        "runtime.transport.round_total_s": sum(rounds),
        "runtime.transport.bytes_on_pipe": result.bytes_on_pipe,
        "runtime.transport.bytes_per_round": result.bytes_on_pipe / count,
        "runtime.transport.reconnects": result.extra.get("reconnects", 0),
        "runtime.transport.retries": result.extra.get("retries", 0),
        "runtime.worker.attribution": summary["attribution"],
        "runtime.worker.load_imbalance": summary["load_imbalance"],
        "runtime.checkpoint.snapshots": result.extra.get("snapshots", 0),
        "runtime.checkpoint.snapshot_total_s": summary["snapshots"]["seconds"],
        "runtime.checkpoint.snapshot_bytes": result.extra.get("snapshot_bytes", 0),
        "runtime.checkpoint.recoveries": result.extra.get("recoveries", 0),
        "runtime.checkpoint.recovery_s": result.extra.get("recovery_seconds", 0.0),
        "obs.dropped": summary["dropped"],
    }
    for phase in _PHASES:
        metrics[f"runtime.worker.{phase}_share"] = summary["phases"][phase]["share"]
    grants = [
        end - start
        for _track, kind, start, end, _a, _b in result.telemetry.events
        if kind == "lockwait"
    ]
    metrics["runtime.locking.grant_count"] = len(grants)
    metrics["runtime.locking.grant_p50_ms"] = percentile(grants, 50) * 1e3
    metrics["runtime.locking.grant_p95_ms"] = percentile(grants, 95) * 1e3
    metrics["runtime.locking.pipeline_occupancy_mean"] = summary["grant_latency"].get(
        "occupancy_mean", 0.0
    )
    plane = summary["plane"]
    metrics["runtime.plane.plane_rounds"] = plane.get("rounds", 0)
    metrics["runtime.plane.ring_occupancy_max"] = max(
        plane.get("ring_v_occupancy", 0.0), plane.get("ring_e_occupancy", 0.0)
    )
    metrics["runtime.plane.overflow_batches"] = plane.get("overflow_batches", 0)
    return metrics


def queue_depth_p95(telemetry: RunTelemetry, since: float) -> float:
    """p95 of the queue depth requests saw at admission after ``since``."""
    depths = [
        a
        for _track, kind, start, _end, a, _b in telemetry.events
        if kind in ("read", "write") and start >= since
    ]
    return float(percentile(depths, 95))
