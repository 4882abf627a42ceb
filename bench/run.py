"""One run of one workload: set up, warm up, measure, check, report.

A *run* is what one ``python3 -m bench --workload ...`` process does.
Batch workloads repeat whole executions (fresh set-up, ``engine.run()``,
verification) until ``--seconds`` of measured wall has accumulated;
serve workloads replay one fixed segment of requests. The
first execution (or a fixed request warm-up) is discarded: the first
launch in a process is 1.5-2.5x slower than the rest. Every metric is
reported as the median of its samples with min, max and sample count.

With ``trace`` on, executions alternate untraced / traced (telemetry on,
timing transport in place). Layer metrics come from the traced ones,
``obs.trace_overhead_share`` from the two medians, and the probes and
the budget are appended; end-to-end metrics never come from a traced
execution.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

from bench import load_benchmark, load_sizes
from bench.layers import engine_layers
from bench.measure import BenchError, env_block, peak_rss_mb, stats
from bench.probes import budget, run_probes
from bench.serve_load import (
    CONNECTIONS,
    Host,
    latency_ms,
    run_segment,
    segment_requests,
    segment_wall,
)
from bench.timing import SpanLog
from bench.workloads import BATCH, OUT_DIR, BatchWorkload
from repro.obs import summarize

#: Timed samples a metric needs before a run may report it.
MIN_SAMPLES = 2
#: Serve streams are cut into at least this many segments.
MIN_SEGMENTS = 3
#: Upper limit on executions or segments of one run, whatever ``--seconds``.
MAX_SAMPLES = 64


class _Tally:
    """Attempted and failed operations of a run, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, count: int, *reasons: str) -> None:
        self.failed += count
        self.problems.extend(reasons)


def _run_batch(
    workload: BatchWorkload, seconds: float, trace: bool, log: SpanLog
) -> Dict[str, Any]:
    tally = _Tally()
    e2e: Dict[str, List[float]] = {
        "setup_s": [],
        "time_to_solution_s": [],
        "exec_s": [],
    }
    traced_walls: List[float] = []
    layer_rows: List[Dict[str, float]] = []
    last: Dict[str, Any] = {}

    def execute(traced: bool, keep: bool) -> float:
        """One execution; the wall of its ``run()`` for the time box."""
        tally.attempted += 1
        log.execution += 1
        begun = time.perf_counter()
        try:
            ready = workload.setup(log if traced else None)
            set_up = time.perf_counter()
            try:
                result = ready.run()
            finally:
                done = time.perf_counter()
                ready.cleanup()
            found = workload.verify(ready, result)
        except Exception:  # the run goes on; the failure is counted and shown
            tally.fail(1, traceback.format_exc())
            return time.perf_counter() - begun
        if found:
            tally.fail(1, *found)
        elif keep:
            wall = done - set_up
            e2e["setup_s"].append(set_up - begun)
            if traced:
                log.add("setup", begun, set_up)
                log.add("run", set_up, done)
                traced_walls.append(wall)
                summary = summarize(result.telemetry)
                layer_rows.append(
                    engine_layers(result, log, log.execution, wall, summary)
                )
                last.update(summary=summary, traced=result)
            else:
                e2e["time_to_solution_s"].append(wall)
                e2e["exec_s"].append(result.exec_seconds)
                last.update(result=result, graph=ready.graph)
        return done - set_up

    execute(traced=False, keep=False)
    spent = 0.0
    for index in range(MAX_SAMPLES):
        sampled = len(e2e["exec_s"]) >= MIN_SAMPLES or (
            trace and e2e["exec_s"] and traced_walls
        )
        if spent >= seconds and sampled:
            break
        spent += execute(traced=trace and index % 2 == 1, keep=True)

    out: Dict[str, Any] = {"tally": tally, "e2e": e2e, "layers": {}}
    result = last.get("result")
    if result is not None:
        out["counts"] = {
            "runtime.coord.rounds": result.rounds,
            "runtime.coord.updates": result.num_updates,
            "runtime.checkpoint.recoveries": result.extra.get("recoveries", 0),
        }
    if trace and layer_rows and e2e["time_to_solution_s"]:
        layers = {
            name: statistics.median(row[name] for row in layer_rows)
            for name in layer_rows[0]
        }
        untraced = statistics.median(e2e["time_to_solution_s"])
        layers["obs.trace_overhead_share"] = (
            statistics.median(traced_walls) / untraced - 1.0
        )
        probes = run_probes()
        layers.update(probes)
        traced, summary = last["traced"], last["summary"]
        plane = traced.data_plane is not None
        entries = (
            summary["plane"].get("ring_v_entries", 0)
            + summary["plane"].get("ring_e_entries", 0)
            if plane
            else traced.bytes_on_pipe / probes["runtime.shard.flat_bytes_per_entry"]
        )
        layers.update(
            budget(
                probes,
                wire=workload.wire,
                rounds=traced.rounds,
                updates=traced.num_updates,
                update_seconds=workload.update_seconds(probes, last["graph"]),
                entries=entries,
                plane=plane,
                exec_seconds=statistics.median(e2e["exec_s"]),
            )
        )
        out["layers"] = layers
    return out


def _serve_stream(
    host: Host,
    size: Dict[str, Any],
    seed: int,
    seconds: float,
    tally: _Tally,
    log: Optional[SpanLog],
) -> Any:
    """Warm up, mark, then measured segments until the time box is full.

    Returns the complete segments and how many requests were answered.
    """
    requests = [segment_requests(size, seed, c) for c in range(CONNECTIONS)]
    warmup = [listed[: size["warmup_requests"]] for listed in requests]
    sent = [run_segment(host, warmup)]
    host.command("mark")
    segments: List[List[Any]] = []
    spent = 0.0
    while len(segments) < MAX_SAMPLES and (
        spent < seconds or len(segments) < MIN_SEGMENTS
    ):
        samples = run_segment(host, requests)
        sent.append(samples)
        if len(samples) < CONNECTIONS * size["segment_requests"]:
            break  # a connection stopped early; the shortfall is counted below
        segments.append(samples)
        spent += segment_wall(samples)
        if log is not None:
            begun = min(s[1] for s in samples)
            log.add("segment", begun, begun + segment_wall(samples), "stream")
            for kind, start, end, _ok in samples:
                log.add(kind, start, end, "segment")
    expected = sum(len(listed) for listed in warmup) + (len(sent) - 1) * sum(
        len(listed) for listed in requests
    )
    answered = sum(1 for samples in sent for s in samples if s[3])
    tally.attempted += expected
    if answered != expected:
        tally.fail(
            expected - answered, f"{expected - answered} requests unanswered or shed"
        )
    return segments, answered


def _check_report(
    report: Dict[str, Any], tally: _Tally, answered: int, l1_max: float
) -> None:
    """The host's own view of a stream must agree with the clients'."""
    if report["rejected"]:
        tally.fail(0, f"host shed {report['rejected']} requests")
    if report["served"] != answered:
        tally.fail(0, f"host served {report['served']}, clients got {answered} replies")
    if not report["converged"]:
        tally.fail(0, "service closed before quiescence")
    if not report["l1"] < l1_max:
        tally.fail(0, f"L1 to the dense fixed point {report['l1']:.3g} >= {l1_max}")


def _run_serve(
    size: Dict[str, Any], seed: int, seconds: float, trace: bool, log: SpanLog
) -> Dict[str, Any]:
    tally = _Tally()
    setup_s: List[float] = []
    idle_updates: List[int] = []
    # Hosts started and stopped idle: more ``setup_s`` samples, and the
    # warm-start update count that ``heal_updates`` is measured against.
    # A traced run starts two streaming hosts, so one idle host is enough.
    for _ in range(1 if trace else size["idle_hosts"]):
        host = Host(size, telemetry=False)
        setup_s.append(host.start_s)
        report = host.close()
        _check_report(report, tally, 0, size["l1_max"])
        idle_updates.append(report["updates"])

    def stream(telemetry: bool, box: float) -> Any:
        host = Host(size, telemetry)
        setup_s.append(host.start_s)
        answered = 0
        try:
            segments, answered = _serve_stream(
                host, size, seed, box, tally, log if telemetry else None
            )
        finally:
            report = host.close()
        _check_report(report, tally, answered, size["l1_max"])
        return segments, report

    segments, report = stream(False, seconds / 2 if trace else seconds)
    if not segments:
        raise BenchError("no complete segment: " + "; ".join(tally.problems))
    walls = [segment_wall(samples) for samples in segments]
    e2e = {
        "setup_s": setup_s,
        "exec_s": walls,
        # Time until every reply is out and the writes they acknowledged
        # have healed: one segment plus the final drain.
        "time_to_solution_s": [wall + report["drain_s"] for wall in walls],
    }
    out: Dict[str, Any] = {"tally": tally, "e2e": e2e, "layers": {}}
    if not trace:
        return out

    traced_segments, traced = stream(True, seconds / 2)
    if not traced_segments:
        raise BenchError("no complete traced segment: " + "; ".join(tally.problems))
    for name, start, end, parent, _execution in traced["spans"]:
        log.add(name, start, end, parent)
    measured = [s for samples in traced_segments for s in samples]
    layers = dict(traced["layers"])
    served = traced["served"]
    layers.update(
        {
            "serve.service.batch_mean": served / max(layers["serve.service.barriers"], 1),
            "serve.service.heal_updates": traced["updates"]
            - statistics.median(idle_updates),
            "serve.client.queries_per_s": statistics.median(
                len(samples) / segment_wall(samples) for samples in traced_segments
            ),
            "obs.trace_overhead_share": statistics.median(
                segment_wall(samples) for samples in traced_segments
            )
            / statistics.median(walls)
            - 1.0,
        }
    )
    for kind in ("read", "write"):
        layers[f"serve.client.{kind}_p50_ms"] = statistics.median(
            latency_ms(samples, kind, 50) for samples in traced_segments
        )
        layers[f"serve.frontend.{kind}_p95_ms"] = latency_ms(measured, kind, 95)
        layers[f"serve.frontend.{kind}_p99_ms"] = latency_ms(measured, kind, 99)
        layers[f"serve.frontend.{kind}_samples"] = sum(
            1 for s in measured if s[0] == kind
        )
    layers["serve.frontend.overhead_ms"] = (
        layers["serve.client.read_p50_ms"] - layers["serve.service.read_p50_ms"]
    )
    layers.update(run_probes())
    out["layers"] = layers
    return out


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale: str = "full"
) -> Dict[str, Any]:
    """Run ``name`` once; the full record (see ``bench/README.md``)."""
    spec = load_benchmark()
    sizes = load_sizes(scale)
    if name not in sizes:
        raise BenchError(f"unknown workload {name!r}; known: {sorted(sizes)}")
    env = env_block()
    log = SpanLog()
    if name in BATCH:
        out = _run_batch(BATCH[name](sizes[name], seed), seconds, trace, log)
    else:
        out = _run_serve(sizes[name], seed, seconds, trace, log)
    tally: _Tally = out["tally"]

    for sample_list in out["e2e"].values():
        if len(sample_list) < (1 if trace else MIN_SAMPLES):
            raise BenchError("too few samples: " + "; ".join(tally.problems))
    if trace and not out["layers"]:
        raise BenchError("no traced sample: " + "; ".join(tally.problems))
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace:
        for declared in spec["per_layer"]:
            value = out["layers"].get(declared["name"], 0.0)
            metrics[declared["name"]] = {"value": value, "unit": declared["unit"]}
        log.write_jsonl(OUT_DIR / f"{name}.trace.jsonl")
    else:
        samples = dict(out["e2e"], peak_rss_mb=[peak_rss_mb()])
        for declared in spec["end_to_end"]:
            metrics[declared["name"]] = dict(
                stats(samples[declared["name"]]), unit=declared["unit"]
            )
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "trace": int(trace),
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "metrics": metrics,
        "counts": out.get("counts", {}),
        "env": env,
    }


def flags(record: Dict[str, Any]) -> List[str]:
    """Traced-run conditions worth a look that are not failures."""
    metrics = record["metrics"]
    found = []
    if record["trace"]:
        attribution = metrics["runtime.worker.attribution"]["value"]
        overhead = metrics["obs.trace_overhead_share"]["value"]
        if attribution < 0.95:
            found.append(f"runtime.worker.attribution {attribution:.3f} < 0.95")
        if overhead > 0.10:
            found.append(f"obs.trace_overhead_share {overhead:.3f} > 0.10")
    return found


def print_record(record: Dict[str, Any], stream: Any = sys.stdout) -> None:
    """Every metric by name with its unit, then the contract's JSON line."""
    print(
        f"# {record['workload']} seed={record['seed']} scale={record['scale']} "
        f"trace={record['trace']}",
        file=stream,
    )
    for name, metric in record["metrics"].items():
        spread = (
            f"  (min {metric['min']:.6g} max {metric['max']:.6g} n={metric['n']}"
            f" spread {metric['spread']:.3f})"
            if "n" in metric
            else ""
        )
        print(f"{name:<48} {metric['value']:.6g} {metric['unit']}{spread}", file=stream)
    for name, count in record["counts"].items():
        print(f"{name:<48} {count} count (exact)", file=stream)
    for flag in flags(record):
        print(f"FLAG {flag}", file=stream)
    for problem in record["problems"]:
        print(f"FAIL {problem}", file=stream)
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in record["metrics"].items()
                },
            }
        ),
        file=stream,
    )
