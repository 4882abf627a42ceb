"""The serving process the serve workloads talk to.

``python3 -m bench.serve_host --vertices N --seed S --epsilon E --telemetry 0|1``
builds the seeded serving graph, starts a ``GraphService`` (locking
engine, two ``mp`` workers) behind a ``SocketFrontend`` once the warm
start has converged, and prints one JSON line with the address. It then
obeys lines on stdin — ``mark`` (the measured stream starts now) and
``close`` — and after ``close`` drains the service, checks the healed
ranks against the dense fixed point, and prints one JSON report line.
With ``--telemetry 1`` the engine records telemetry and its transport
is wrapped in the timing transport; the report then carries the layer
metrics and the spans.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict

from bench.layers import engine_layers, queue_depth_p95
from bench.measure import stop_resource_tracker
from bench.timing import SpanLog, TimingTransport
from repro.apps.pagerank import exact_pagerank, l1_error
from repro.obs import summarize
from repro.runtime import MpTransport, named_program
from repro.serve import GraphService, SocketFrontend, build_serving_graph


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.serve_host")
    parser.add_argument("--vertices", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--epsilon", type=float, required=True)
    parser.add_argument("--telemetry", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    born = time.perf_counter()
    log = SpanLog()
    transport: Any = MpTransport(2)
    if args.telemetry:
        transport = TimingTransport(transport, log, parent="service")
    graph = build_serving_graph(args.vertices, seed=args.seed)
    service = GraphService(
        graph,
        named_program("pagerank_delta", epsilon=args.epsilon),
        engine="locking",
        num_workers=2,
        transport=transport,
        # A written vertex recomputes itself first, so client noise
        # heals back to the fixed point the final check compares with.
        touch="self",
        telemetry=bool(args.telemetry),
    )
    service.start()
    while not service.stats()["quiescent"]:
        time.sleep(0.002)  # the warm start converges on the service thread
    frontend = SocketFrontend(service)
    ready = time.perf_counter()
    print(json.dumps({"address": list(frontend.address)}), flush=True)

    mark = ready
    for line in sys.stdin:
        command = line.strip()
        if command == "mark":
            mark = time.perf_counter()
        elif command == "close":
            break

    stats = service.stats()
    frontend.close()
    drain_start = time.perf_counter()
    result = service.close()
    done = time.perf_counter()
    log.add("service", born, done)

    report: Dict[str, Any] = {
        "served": stats["served"],
        "rejected": stats["rejected"],
        "converged": bool(result.converged),
        "l1": l1_error(graph, exact_pagerank(graph)),
        "updates": result.num_updates,
        "drain_s": done - drain_start,
    }
    if result.telemetry is not None:
        summary = summarize(result.telemetry)
        report["layers"] = engine_layers(result, log, 0, done - born, summary)
        report["layers"].update(
            {
                "serve.service.barriers": len(log.of(0, "round:serve")),
                "serve.service.heal_rounds": sum(
                    1 for span in log.of(0, "round:lstep") if span[1] >= ready
                ),
                "serve.service.queue_depth_p95": queue_depth_p95(
                    result.telemetry, since=mark
                ),
                "serve.service.read_p50_ms": stats.get("read", {}).get("p50_ms", 0.0),
                "serve.service.drain_s": done - drain_start,
            }
        )
        report["spans"] = log.spans
    print(json.dumps(report), flush=True)
    stop_resource_tracker()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
