"""Aggregation over an assembled run timeline.

Turns a :class:`~repro.obs.timeline.RunTelemetry` into the quantities
the paper's evaluation is built on: per-phase time shares (where does a
worker's round go — compute, lock-wait, ghost-apply, serialize,
barrier-idle, snapshot), per-worker load imbalance, lock-chain
grant-latency histograms tagged with pipeline occupancy (the Fig. 3b/8b
quantity), plane ring occupancy/overflow, and snapshot/recovery cost.

Attribution rule: a worker's wall time is ``last end - first start`` on
its track; its attributed time is the sum of the six busy/idle phase
kinds (``compute``+``kernel`` fold into "compute"), capped at wall.
``lockwait`` spans are *excluded* from attribution — they measure
request→grant latency of pipelined chains and deliberately overlap
busy spans (that overlap *is* latency hiding) — and are reported
separately as the grant-latency distribution.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.metrics import log2_histogram, percentile
from repro.obs.timeline import COORDINATOR_TRACK, RunTelemetry

#: Phases that partition a worker's wall time in reports. ``kernel``
#: spans are folded into ``compute``.
PHASES = ("compute", "lockwait", "ghost", "ser", "idle", "snap")

_ATTRIBUTED = {"compute", "kernel", "ghost", "ser", "idle", "snap"}


def _phase_of(kind: str) -> Optional[str]:
    if kind == "kernel":
        return "compute"
    if kind in PHASES and kind != "lockwait":
        return kind
    return None


def summarize(telemetry: RunTelemetry) -> Dict[str, Any]:
    """Aggregate one run's timeline into a plain JSON-able report dict.

    Keys: ``meta``, ``phases`` (per-phase seconds + share of total
    worker wall), ``attribution`` (fraction of worker wall covered by
    phase spans — the >= 95 % acceptance quantity), ``workers``
    (per-worker wall/busy/share rows), ``load_imbalance`` (max busy /
    mean busy), ``grant_latency`` (count/percentiles/log2 histogram of
    lock-chain latencies, with occupancy stats), ``plane`` (ring
    occupancy + overflow), ``snapshots`` / ``recoveries`` (coordinator
    span totals), ``coordinator`` (launch/round/run seconds),
    ``serving`` (request latencies and queue depth, plus ``warm_ms``
    when the service warmed in process) and ``dropped``.
    """
    per_worker: Dict[int, Dict[str, float]] = {}
    walls: Dict[int, List[float]] = {}
    grant_lat: List[float] = []
    grant_occ: List[int] = []
    grant_hops: List[int] = []
    coord_secs: Dict[str, float] = {}
    coord_counts: Dict[str, int] = {}
    serve_lat: Dict[str, List[float]] = {"read": [], "write": []}
    serve_depth: List[int] = []

    for (track, kind, start, end, a, b) in telemetry.events:
        dur = end - start
        if track == COORDINATOR_TRACK:
            if kind in serve_lat:
                # Serving request spans (repro.serve): admission ->
                # reply, with the queue depth at admission in `a`. Kept
                # out of the coordinator phase totals — requests overlap
                # rounds by design.
                serve_lat[kind].append(dur)
                serve_depth.append(a)
                continue
            coord_secs[kind] = coord_secs.get(kind, 0.0) + dur
            coord_counts[kind] = coord_counts.get(kind, 0) + 1
            continue
        bounds = walls.get(track)
        if bounds is None:
            walls[track] = [start, end]
        else:
            if start < bounds[0]:
                bounds[0] = start
            if end > bounds[1]:
                bounds[1] = end
        if kind == "lockwait":
            grant_lat.append(dur)
            grant_occ.append(a)
            grant_hops.append(b)
            continue
        phase = _phase_of(kind)
        if phase is None:
            continue
        acc = per_worker.setdefault(track, {})
        acc[phase] = acc.get(phase, 0.0) + dur

    worker_rows: List[Dict[str, Any]] = []
    phase_secs = {phase: 0.0 for phase in PHASES}
    total_wall = 0.0
    total_attr = 0.0
    busies: List[float] = []
    for w in sorted(walls):
        wall = max(0.0, walls[w][1] - walls[w][0])
        acc = per_worker.get(w, {})
        raw = sum(acc.values())
        attributed = min(wall, raw) if wall > 0.0 else raw
        scale = attributed / raw if raw > 0.0 else 0.0
        for phase, secs in acc.items():
            phase_secs[phase] += secs * scale
        busy = sum(
            acc.get(p, 0.0) for p in ("compute", "ghost", "ser", "snap")
        )
        busies.append(busy)
        total_wall += wall
        total_attr += attributed
        worker_rows.append(
            {
                "worker": w,
                "wall_seconds": wall,
                "attributed_seconds": attributed,
                "busy_seconds": busy,
                "phases": {p: acc.get(p, 0.0) for p in PHASES if acc.get(p)},
            }
        )

    phases = {
        phase: {
            "seconds": phase_secs[phase],
            "share": (phase_secs[phase] / total_wall) if total_wall > 0 else 0.0,
        }
        for phase in PHASES
    }
    attribution = (total_attr / total_wall) if total_wall > 0 else 0.0
    mean_busy = (sum(busies) / len(busies)) if busies else 0.0
    load_imbalance = (max(busies) / mean_busy) if busies and mean_busy > 0 else 1.0

    grant: Dict[str, Any] = {"count": len(grant_lat)}
    if grant_lat:
        grant.update(
            {
                "p50_us": percentile(grant_lat, 50) * 1e6,
                "p90_us": percentile(grant_lat, 90) * 1e6,
                "p99_us": percentile(grant_lat, 99) * 1e6,
                "max_us": max(grant_lat) * 1e6,
                "hist_us": log2_histogram(grant_lat, scale=1e6),
                "occupancy_mean": sum(grant_occ) / len(grant_occ),
                "occupancy_max": max(grant_occ),
                "hops_max": max(grant_hops),
            }
        )

    plane: Dict[str, Any] = {}
    ring_rounds = 0
    ring_v = ring_e = overflow = 0
    for track, counters in telemetry.counters.items():
        if track == COORDINATOR_TRACK:
            continue
        ring_rounds += counters.get("plane_rounds", 0)
        ring_v += counters.get("plane_ring_v", 0)
        ring_e += counters.get("plane_ring_e", 0)
        overflow += counters.get("plane_overflow_batches", 0)
    if ring_rounds:
        plane["rounds"] = ring_rounds
        plane["ring_v_entries"] = ring_v
        plane["ring_e_entries"] = ring_e
        plane["overflow_batches"] = overflow
        cap_v = telemetry.meta.get("ring_v") or 0
        cap_e = telemetry.meta.get("ring_e") or 0
        if cap_v:
            plane["ring_v_occupancy"] = ring_v / (ring_rounds * cap_v)
        if cap_e:
            plane["ring_e_occupancy"] = ring_e / (ring_rounds * cap_e)

    serving: Dict[str, Any] = {}
    if serve_lat["read"] or serve_lat["write"]:
        for op, lats in serve_lat.items():
            if not lats:
                continue
            serving[op] = {
                "count": len(lats),
                "p50_ms": percentile(lats, 50) * 1e3,
                "p95_ms": percentile(lats, 95) * 1e3,
                "p99_ms": percentile(lats, 99) * 1e3,
                "max_ms": max(lats) * 1e3,
                "hist_us": log2_histogram(lats, scale=1e6),
            }
        serving["requests"] = len(serve_lat["read"]) + len(serve_lat["write"])
        serving["queue_depth_mean"] = sum(serve_depth) / len(serve_depth)
        serving["queue_depth_max"] = max(serve_depth)
        coord_counters = telemetry.counters.get(COORDINATOR_TRACK, {})
        serving["rejected"] = coord_counters.get("serve_rejected", 0)
        serving["plane_reads"] = coord_counters.get("serve_plane_reads", 0)
    if "warm" in coord_secs:
        # The serving warm start, when it ran in process (before launch).
        serving["warm_ms"] = coord_secs["warm"] * 1e3

    report = {
        "meta": dict(telemetry.meta),
        "serving": serving,
        "phases": phases,
        "attribution": attribution,
        "workers": worker_rows,
        "load_imbalance": load_imbalance,
        "grant_latency": grant,
        "plane": plane,
        "snapshots": {
            "count": coord_counts.get("snap", 0),
            "seconds": coord_secs.get("snap", 0.0),
        },
        "recoveries": {
            "count": coord_counts.get("recover", 0),
            "seconds": coord_secs.get("recover", 0.0),
        },
        "coordinator": {
            "launch_seconds": coord_secs.get("launch", 0.0),
            "rounds": coord_counts.get("round", 0),
            "round_seconds": coord_secs.get("round", 0.0),
            "run_seconds": coord_secs.get("run", 0.0),
        },
        "dropped": telemetry.total_dropped(),
    }
    return report


def _fmt_secs(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s"
    return f"{seconds * 1e3:7.2f}ms"


def format_report(report: Dict[str, Any]) -> str:
    """Render a summarize() dict as the CLI's phase-breakdown table."""
    meta = report.get("meta", {})
    lines = []
    header = "run telemetry"
    tags = [
        str(meta.get(k))
        for k in ("engine", "backend", "num_workers", "pipeline_window")
        if meta.get(k) is not None
    ]
    if tags:
        header += "  [" + " ".join(tags) + "]"
    lines.append(header)
    lines.append("")
    lines.append("phase breakdown (share of total worker wall):")
    lines.append(f"  {'phase':<10} {'seconds':>10} {'share':>8}")
    for phase in PHASES:
        entry = report["phases"][phase]
        lines.append(
            f"  {phase:<10} {_fmt_secs(entry['seconds']):>10} "
            f"{entry['share'] * 100:7.2f}%"
        )
    lines.append(f"  attribution: {report['attribution'] * 100:.2f}% of worker wall")
    lines.append(f"  load imbalance (max busy / mean busy): {report['load_imbalance']:.3f}")
    grant = report.get("grant_latency") or {}
    if grant.get("count"):
        lines.append("")
        lines.append(
            "lock grant latency: "
            f"n={grant['count']} p50={grant['p50_us']:.1f}us "
            f"p90={grant['p90_us']:.1f}us p99={grant['p99_us']:.1f}us "
            f"max={grant['max_us']:.1f}us"
        )
        lines.append(
            "  pipeline occupancy: "
            f"mean={grant['occupancy_mean']:.2f} max={grant['occupancy_max']}"
        )
        lines.append("  latency histogram (us, log2 buckets):")
        for floor, count in grant["hist_us"]:
            label = f"<1" if floor == 0 else f">={floor:g}"
            lines.append(f"    {label:>10} {count:>8}")
    executing = meta.get("executing_workers")
    if executing:
        # Locking engine: lstep rounds by how many workers executed at
        # least one update in them — turn-taking shows as no rounds at
        # the top index.
        lines.append("")
        lines.append(
            "locking: lstep rounds by executing workers "
            + " ".join(f"{n}={count}" for n, count in enumerate(executing))
        )
    plane = report.get("plane") or {}
    if plane:
        occ_bits = []
        if "ring_v_occupancy" in plane:
            occ_bits.append(f"v={plane['ring_v_occupancy'] * 100:.1f}%")
        if "ring_e_occupancy" in plane:
            occ_bits.append(f"e={plane['ring_e_occupancy'] * 100:.1f}%")
        occ = (" occupancy " + " ".join(occ_bits)) if occ_bits else ""
        lines.append("")
        lines.append(
            f"shm plane: rounds={plane['rounds']} "
            f"ring_v={plane['ring_v_entries']} ring_e={plane['ring_e_entries']} "
            f"overflow_batches={plane['overflow_batches']}{occ}"
        )
    serving = report.get("serving") or {}
    if serving:
        lines.append("")
        lines.append(
            f"serving: requests={serving.get('requests', 0)} "
            f"rejected={serving.get('rejected', 0)} "
            f"plane_reads={serving.get('plane_reads', 0)} "
            f"queue_depth mean={serving.get('queue_depth_mean', 0.0):.2f} "
            f"max={serving.get('queue_depth_max', 0)} "
            f"warm_ms={serving.get('warm_ms', 0.0):.2f}"
        )
        for op in ("read", "write"):
            entry = serving.get(op)
            if not entry:
                continue
            lines.append(
                f"  {op:<5} n={entry['count']} "
                f"p50={entry['p50_ms']:.3f}ms "
                f"p95={entry['p95_ms']:.3f}ms "
                f"p99={entry['p99_ms']:.3f}ms "
                f"max={entry['max_ms']:.3f}ms"
            )
    snaps = report.get("snapshots") or {}
    if snaps.get("count"):
        lines.append(
            f"snapshots: {snaps['count']} totalling {snaps['seconds'] * 1e3:.2f}ms"
        )
    recov = report.get("recoveries") or {}
    if recov.get("count"):
        lines.append(
            f"recoveries: {recov['count']} totalling {recov['seconds'] * 1e3:.2f}ms"
        )
    coord = report.get("coordinator") or {}
    lines.append("")
    lines.append(
        "coordinator: "
        f"launch={coord.get('launch_seconds', 0.0) * 1e3:.2f}ms "
        f"rounds={coord.get('rounds', 0)} "
        f"round_total={_fmt_secs(coord.get('round_seconds', 0.0)).strip()} "
        f"run={_fmt_secs(coord.get('run_seconds', 0.0)).strip()}"
    )
    if report.get("dropped"):
        lines.append(f"dropped spans (ring cap overflow): {report['dropped']}")
    return "\n".join(lines)
