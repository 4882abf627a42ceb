"""Online serving: the resident graph answering reads while it heals.

Stands a :class:`repro.serve.GraphService` on a random web-ish graph —
the runtime engine launches once and stays parked between requests,
keeping the finalized graph resident in its workers — then exercises
the serving loop end to end: the warm start converges the incremental
PageRank with color sweeps of its batch kernel before the workers
launch, clients read the ranks with version tags, a burst of writes
perturbs a few vertices, and the residual-scheduled delta program
re-converges the neighborhood in the background while reads keep
flowing. Finishes with the service's own latency percentiles, the
engine's update count (the write heals alone: the warm start ran
before launch) and a check that the drained graph healed back to the
exact fixed point.

Run:  python examples/serve_pagerank.py
"""

import random

from repro.apps import exact_pagerank, l1_error
from repro.runtime import named_program
from repro.serve import GraphService, InprocClient, build_serving_graph


def main(num_vertices: int = 200, num_workers: int = 2, seed: int = 7) -> None:
    graph = build_serving_graph(num_vertices, seed=seed)
    truth = exact_pagerank(graph)
    service = GraphService(
        graph,
        named_program("pagerank_delta", epsilon=1e-6),
        num_workers=num_workers,
        transport="inproc",
        touch="self",
    )
    service.start()
    client = InprocClient(service)
    print(
        f"serving {graph.num_vertices} vertices on {num_workers} resident "
        "workers"
    )

    # Reads are version-tagged, consistent snapshots.
    top = max(truth, key=truth.get)
    reply = client.read(top, scope=True)
    print(
        f"top page {reply.vertex}: rank={reply.value:.5f} "
        f"(version {reply.version}, {len(reply.neighbors)} in-neighbors)"
    )

    # Writes perturb ranks; the delta program heals them in background.
    rng = random.Random(seed)
    for _ in range(8):
        vertex = rng.randrange(num_vertices)
        ack = client.write(vertex, rng.uniform(0.5, 2.0) / num_vertices)
        print(f"wrote {ack.vertex} (scheduled {ack.scheduled} updates)")
    after = client.read(top)
    print(f"read-your-storm: rank={after.value:.5f} v{after.version}")

    stats = service.stats()
    result = service.close()
    for op in ("read", "write"):
        row = stats[op]
        print(
            f"{op:5s} latency: n={row['count']} p50={row['p50_ms']:.2f}ms "
            f"p99={row['p99_ms']:.2f}ms"
        )
    print(
        f"drained: {result.num_updates} background updates healing the "
        "writes, "
        f"healed L1 vs exact = {l1_error(graph, truth):.2e}"
    )


if __name__ == "__main__":
    main()
