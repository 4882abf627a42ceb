"""Round-free serving reads: the data plane answers what the barrier would.

A batch of reads only, on an engine with a data plane, takes no worker
round — the coordinator reads each datum from whichever segment holds
its highest version (``repro.runtime.shard.PlaneReader``). These tests
pin that this is *exactly* the ``serve`` round's answer: during a
seeded write storm with heal rounds in between, every vertex's point
read and scope read from the plane equals the barrier read — values,
versions, neighbors and in-edges — on the locking engine under EDGE and
FULL consistency (FULL makes ghost writes at non-owners) and on the
chromatic fallback, at 2 and 3 workers. Every read here happens between
commands on the driving thread — the condition the rule rests on.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Consistency
from repro.core.graph import DataGraph
from repro.obs.report import format_report, summarize
from repro.runtime.engine import RuntimeChromaticEngine
from repro.runtime.locking import RuntimeLockingEngine
from repro.runtime.plane import shm_available
from repro.serve import GraphService, InprocClient, build_serving_graph

from tests.helpers import assert_torn_down, plane_segments

#: Churn stops raising a vertex past this stamp, so every heal drains.
LIMIT = 6.0


def churn_update(scope):
    """Write everything the consistency model allows; reschedule below
    ``LIMIT``.

    The vertex, every in-edge (whose journal owner is the *source's*
    worker — the case that makes "read the owner's segment" wrong) and
    every out-edge; under FULL also the in-neighbors' data, a ghost
    write at a non-owner. Values only rise, capped at ``LIMIT``, and
    even the last update of a heal writes, so its entries are still
    in flight when the heal ends.
    """
    value = min(scope.data + 1.0, LIMIT)
    scope.data = value
    for u in scope.in_neighbors:
        scope.set_edge(u, scope.vertex, value)
        if scope.model is Consistency.FULL and scope.neighbor(u) < value - 1.0:
            scope.set_neighbor(u, value - 1.0)
    for w in scope.out_neighbors:
        scope.set_edge(scope.vertex, w, -value)
    if value < LIMIT:
        return list(scope.out_neighbors) + [scope.vertex]
    return None


def churn_graph(n: int, seed: int) -> DataGraph:
    rng = random.Random(seed)
    graph = DataGraph()
    for v in range(n):
        graph.add_vertex(v, data=float(rng.randrange(3)))
    edges = {(v, (v + 1) % n) for v in range(n)}
    while len(edges) < 2 * n:
        u, w = rng.randrange(n), rng.randrange(n)
        if u != w:
            edges.add((u, w))
    for u, w in sorted(edges):
        graph.add_edge(u, w, data=0.0)
    return graph.finalize(vertex_dtype=float, edge_dtype=float)


def assert_plane_equals_barrier(engine, n):
    """Every vertex, point and scope: plane read == serve-round read."""
    __tracebackhide__ = True
    reads = [(("point", v), v, False) for v in range(n)]
    reads += [(("scope", v), v, True) for v in range(n)]
    before = engine.plane_reads
    plane = engine.service_barrier(reads=reads)
    assert engine.plane_reads == before + len(reads), "plane not used"
    barrier = engine._serve_round([], reads)
    assert engine.plane_reads == before + len(reads)
    assert set(plane) == set(barrier)
    for key, want in barrier.items():
        assert plane[key] == want, (key, plane[key], want)
    # The barrier delivered pending inboxes; the freshest copy is the
    # same datum after delivery as before it.
    assert engine.service_barrier(reads=reads) == plane


def storm(engine, n, seed, pump):
    rng = random.Random(seed)
    for _step in range(5):
        writes = [
            (rng.randrange(n), float(rng.randrange(int(LIMIT))))
            for _ in range(rng.randint(1, 3))
        ]
        engine.service_barrier(writes=writes)
        engine.service_schedule([(v, 1.0) for v, _value in writes])
        pump(rng)
        assert_plane_equals_barrier(engine, n)


@given(
    seed=st.integers(0, 1 << 16),
    workers=st.sampled_from([2, 3]),
    consistency=st.sampled_from([Consistency.EDGE, Consistency.FULL]),
)
@settings(max_examples=12, deadline=None)
def test_locking_plane_reads_equal_barrier_reads(seed, workers, consistency):
    n = 12
    engine = RuntimeLockingEngine(
        churn_graph(n, seed),
        churn_update,
        num_workers=workers,
        transport="inproc",
        consistency=consistency,
        scheduler="priority",
        round_budget=2,  # heal rounds end with updates still in flight
    )
    engine.open_service(range(n))
    try:
        assert_plane_equals_barrier(engine, n)

        def heal(rng):
            for _ in range(rng.randint(0, 3)):
                engine.service_pump_round()

        storm(engine, n, seed, heal)
    finally:
        result = engine.close_service()
    assert result.converged


@given(
    seed=st.integers(0, 1 << 16),
    workers=st.sampled_from([2, 3]),
    consistency=st.sampled_from([Consistency.EDGE, Consistency.FULL]),
)
@settings(max_examples=10, deadline=None)
def test_chromatic_plane_reads_equal_barrier_reads(seed, workers, consistency):
    n = 16
    engine = RuntimeChromaticEngine(
        churn_graph(n, seed),
        churn_update,
        num_workers=workers,
        transport="inproc",
        consistency=consistency,
    )
    engine.open_service(range(n))

    def to_quiescence(_rng):
        engine.service_pump_round()

    try:
        to_quiescence(None)
        assert_plane_equals_barrier(engine, n)
        storm(engine, n, seed, to_quiescence)
    finally:
        result = engine.close_service()
    assert result.converged


# ----------------------------------------------------------------------
# Through the service: the counter, the telemetry counter, the report.
# ----------------------------------------------------------------------
def read_only_stream(service, n, count):
    client = InprocClient(service)
    for i in range(count):
        client.read(i % n, scope=i % 3 == 0)


def test_stats_count_every_plane_read():
    graph = build_serving_graph(24, seed=3)
    with GraphService(graph, num_workers=2, telemetry=True) as service:
        read_only_stream(service, 24, 30)
        stats = service.stats()
        assert stats["plane_reads"] == stats["read"]["count"] == 30
    report = summarize(service.close().telemetry)
    assert report["serving"]["plane_reads"] == 30
    assert "plane_reads=30" in format_report(report)


def test_without_a_plane_every_read_takes_a_round():
    graph = build_serving_graph(24, seed=3)
    with GraphService(
        graph, num_workers=2, telemetry=True, use_plane=False
    ) as service:
        read_only_stream(service, 24, 10)
        assert service.stats()["plane_reads"] == 0
    assert summarize(service.close().telemetry)["serving"]["plane_reads"] == 0


def test_batches_with_writes_take_the_round():
    graph = build_serving_graph(16, seed=4)
    engine = RuntimeLockingEngine(
        graph, churn_update, num_workers=2, transport="inproc"
    )
    engine.open_service()
    try:
        rounds = engine.transport.rounds_completed
        reply = engine.service_barrier(writes=[(3, 0.5)], reads=[(0, 3, False)])
        assert reply[0]["value"] == 0.5
        assert engine.plane_reads == 0
        engine.service_barrier()  # the empty-barrier probe: one round
        assert engine.transport.rounds_completed == rounds + 2
        engine.service_barrier(reads=[(1, 3, True)])
        assert engine.transport.rounds_completed == rounds + 2
        assert engine.plane_reads == 1
    finally:
        engine.close_service()


def test_mp_service_with_plane_reads_closes_clean():
    before = plane_segments()
    graph = build_serving_graph(32, seed=5)
    service = GraphService(
        graph, num_workers=2, transport="mp", telemetry=False
    ).start()
    try:
        read_only_stream(service, 32, 20)
        plane_reads = service.stats()["plane_reads"]
    finally:
        service.close()
    # REPRO_NO_SHM leaves mp without a plane: then every read is a round.
    assert plane_reads == (20 if shm_available() else 0)
    assert_torn_down(before)
