"""Seeded load generation for the serving subsystem.

One shared driver behind the CLI smoke (``python -m repro.serve``) and
any test that wants a realistic mixed stream: build a seeded random graph,
stand a :class:`~repro.serve.service.GraphService` in front of it, and
replay a deterministic read/write mix through whichever client the
caller hands in. Everything is driven by one :class:`random.Random`
seed, so a failing run is replayable bit-for-bit.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from repro.apps.pagerank import initialize_ranks
from repro.core.graph import DataGraph
from repro.serve.protocol import ReadReply, Rejection, WriteReply

#: Default shape of the synthetic serving graph.
DEFAULT_OUT_DEGREE = 3


def build_serving_graph(
    num_vertices: int,
    seed: int = 0,
    out_degree: int = DEFAULT_OUT_DEGREE,
) -> DataGraph:
    """Seeded random digraph with PageRank-ready typed columns.

    Every vertex links to ``out_degree`` distinct random targets plus
    its ring successor (so the graph is strongly connected and no
    vertex is a rank sink); edge weights are ``1/out_degree(u)`` and
    ranks start uniform — the same convention as the PageRank tests.
    """
    if num_vertices < 2:
        raise ValueError("serving graph needs at least 2 vertices")
    rng = random.Random(seed)
    graph = DataGraph()
    for v in range(num_vertices):
        graph.add_vertex(v, data=0.0)
    targets: Dict[int, List[int]] = {}
    for v in range(num_vertices):
        outs = {(v + 1) % num_vertices}
        while len(outs) < min(out_degree + 1, num_vertices - 1):
            u = rng.randrange(num_vertices)
            if u != v:
                outs.add(u)
        targets[v] = sorted(outs)
    for v, outs in targets.items():
        weight = 1.0 / len(outs)
        for u in outs:
            graph.add_edge(v, u, data=weight)
    graph.finalize(vertex_dtype=float, edge_dtype=float)
    initialize_ranks(graph)
    return graph


def run_mixed_load(
    client: Any,
    num_vertices: int,
    requests: int,
    write_frac: float = 0.2,
    scope_frac: float = 0.1,
    seed: int = 0,
) -> Dict[str, Any]:
    """Replay a seeded mixed stream through one client; tally outcomes.

    ``client`` is anything with the shared front-end surface
    (``read``/``write`` returning protocol replies): an
    :class:`~repro.serve.frontend.InprocClient` or
    :class:`~repro.serve.frontend.SocketClient`. Writes perturb a
    random vertex's rank by a seeded factor; reads sample uniformly,
    a ``scope_frac`` of them asking for the full consistent scope.
    Returns outcome counts (reads/writes/rejections) — latency numbers
    come from the service's own stats and telemetry, not wall-clocked
    here, so both front ends report through one pipeline.
    """
    rng = random.Random(seed)
    out: Dict[str, Any] = {
        "requests": requests,
        "reads": 0,
        "scope_reads": 0,
        "writes": 0,
        "rejected": 0,
        "scheduled": 0,
        "checksum": 0.0,
    }
    for _ in range(requests):
        vertex = rng.randrange(num_vertices)
        if rng.random() < write_frac:
            value = rng.uniform(0.5, 2.0) / num_vertices
            reply = client.write(vertex, value)
            if isinstance(reply, WriteReply):
                out["writes"] += 1
                out["scheduled"] += reply.scheduled
            elif isinstance(reply, Rejection):
                out["rejected"] += 1
        else:
            want_scope = rng.random() < scope_frac
            reply = client.read(vertex, scope=want_scope)
            if isinstance(reply, ReadReply):
                out["reads"] += 1
                if want_scope:
                    out["scope_reads"] += 1
                out["checksum"] += float(reply.value)
            elif isinstance(reply, Rejection):
                out["rejected"] += 1
    return out
