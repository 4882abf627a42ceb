"""Serving subsystem (PR 10): GraphService, front ends, drain, and the
single-use transport contract.

The serving-semantics trio the PR pins down:

* **consistent reads** — a scope snapshot taken during a concurrent
  write storm never shows a half-applied update (every in-edge stamp
  equals the vertex stamp, because the update wrote them atomically);
* **backpressure** — a full queue sheds with a structured 429-style
  :class:`Rejection` instead of queueing unboundedly;
* **lossless drain** — ``close()`` completes every accepted request
  before tearing the runtime down, and the writes are visible in the
  collected graph.

Each runs over both front ends (in-process and socket), seeded.
"""

import random
import threading
import time

import numpy as np
import pytest

from repro.apps.pagerank import (
    exact_pagerank,
    l1_error,
    make_pagerank_delta_update,
)
from repro.core import Consistency, SequentialEngine, coloring_for
from repro.core.graph import DataGraph
from repro.datasets import synthetic_ner
from repro.errors import EngineError, TransportError
from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.obs.report import format_report, summarize
from repro.runtime.engine import RuntimeChromaticEngine
from repro.runtime.locking import RuntimeLockingEngine
from repro.runtime.oracle import ColorSweepScheduler
from repro.runtime.program import REGISTERED_PROGRAMS, named_program
from repro.runtime.transport import make_transport
from repro.serve import (
    REJECT_BAD_REQUEST,
    REJECT_DRAINING,
    REJECT_QUEUE_FULL,
    GraphService,
    InprocClient,
    ReadReply,
    ReadRequest,
    Rejection,
    SocketClient,
    SocketFrontend,
    WriteReply,
    WriteRequest,
    build_serving_graph,
    run_mixed_load,
)

from helpers import ring_graph


# ----------------------------------------------------------------------
# Satellite: transports are single-use, and say so.
# ----------------------------------------------------------------------
class TestTransportSingleUse:
    @pytest.mark.parametrize("backend", ["inproc", "mp", "tcp", "tcp-loopback"])
    def test_launch_after_shutdown_is_structured(self, backend):
        transport = make_transport(backend, 1)
        transport.shutdown()
        with pytest.raises(TransportError, match="transport is single-use"):
            transport.launch([])

    def test_relaunch_after_run_is_structured(self):
        g = ring_graph(6)
        engine = RuntimeLockingEngine(
            g, named_program("pagerank"), num_workers=2, transport="inproc"
        )
        engine.run(initial=g.vertices())
        with pytest.raises(TransportError, match="transport is single-use"):
            engine.transport.launch([])

    def test_transport_error_is_an_engine_error(self):
        # Existing except EngineError handlers keep catching it.
        assert issubclass(TransportError, EngineError)


# ----------------------------------------------------------------------
# Read/write basics through the in-process front end.
# ----------------------------------------------------------------------
def wait_quiescent(service, timeout=30.0):
    """Bounded poll until the engine's own termination detector has
    witnessed quiescence — not a sleep and a hope."""
    deadline = time.monotonic() + timeout
    while not service.stats()["quiescent"]:
        assert time.monotonic() < deadline, "service never went quiescent"
        time.sleep(0.002)


class TestServingBasics:
    def test_read_write_read_with_versions(self):
        graph = build_serving_graph(16, seed=1)
        with GraphService(graph, num_workers=2, telemetry=False) as service:
            client = InprocClient(service)
            # A schedule=False write only stays readable once no
            # background update can still overwrite vertex 3.
            wait_quiescent(service)
            first = client.read(3)
            assert isinstance(first, ReadReply)
            assert first.vertex == 3
            ack = client.write(3, 0.5, schedule=False)
            assert isinstance(ack, WriteReply)
            assert ack.scheduled == 0
            second = client.read(3)
            assert second.value == 0.5
            assert second.version > first.version

    def test_scope_read_carries_neighborhood(self):
        graph = build_serving_graph(16, seed=2)
        with GraphService(graph, num_workers=2, telemetry=False) as service:
            reply = InprocClient(service).read(5, scope=True)
            assert set(reply.neighbors) == set(graph.in_neighbors(5))
            assert set(reply.in_edges) == set(graph.in_neighbors(5))
            for _value, version in reply.neighbors.values():
                assert version >= 0

    def test_write_schedules_touched_neighborhood(self):
        graph = build_serving_graph(16, seed=3)
        with GraphService(graph, num_workers=2, telemetry=False) as service:
            ack = InprocClient(service).write(7, 0.25)
            # The default touch="out": the written vertex plus its
            # out-neighbors.
            assert ack.scheduled == 1 + len(graph.out_neighbors(7))

    def test_unknown_vertex_rejects_400(self):
        graph = build_serving_graph(8, seed=4)
        with GraphService(graph, num_workers=1, telemetry=False) as service:
            reply = InprocClient(service).read("nope")
            assert isinstance(reply, Rejection)
            assert reply.code == REJECT_BAD_REQUEST

    def test_stats_surface(self):
        graph = build_serving_graph(8, seed=5)
        with GraphService(graph, num_workers=1, telemetry=False) as service:
            client = InprocClient(service)
            client.read(0)
            client.write(1, 0.1, schedule=False)
            stats = client.stats()
            assert stats["served"] == 2
            assert stats["rejected"] == 0
            assert stats["read"]["count"] == 1
            assert stats["write"]["count"] == 1
            assert stats["queue_limit"] == service.queue_limit

    def test_service_is_single_use(self):
        graph = build_serving_graph(8, seed=6)
        service = GraphService(graph, num_workers=1, telemetry=False)
        service.start()
        service.close()
        with pytest.raises(EngineError, match="single-use"):
            service.start()

    def test_chromatic_fallback_serves(self):
        graph = build_serving_graph(12, seed=7)
        with GraphService(
            graph, engine="chromatic", num_workers=2, telemetry=False
        ) as service:
            client = InprocClient(service)
            assert isinstance(client.read(2), ReadReply)
            assert isinstance(client.write(2, 0.3), WriteReply)
            assert isinstance(client.read(2), ReadReply)


# ----------------------------------------------------------------------
# Consistent reads under a concurrent write storm (seeded, both front
# ends). The resident program stamps a vertex and all its in-edges with
# the same value in one update; a scope snapshot that ever disagrees
# has observed a half-applied update.
# ----------------------------------------------------------------------
STAMP_LIMIT = 12.0


def stamp_update(scope):
    value = scope.data + 1.0
    scope.data = value
    for u in scope.in_neighbors:
        scope.set_edge(u, scope.vertex, value)
    if value < STAMP_LIMIT:
        return (scope.vertex,)
    return None


def _stamp_graph(n: int) -> DataGraph:
    graph = DataGraph()
    for v in range(n):
        graph.add_vertex(v, data=0.0)
    for v in range(n):
        for hop in (1, 2, 3):
            graph.add_edge(v, (v + hop) % n, data=0.0)
    return graph.finalize(vertex_dtype=float, edge_dtype=float)


def _assert_scope_consistent(reply):
    __tracebackhide__ = True
    assert isinstance(reply, ReadReply)
    for u, (edge_value, _ver) in reply.in_edges.items():
        assert edge_value == reply.value, (
            f"half-applied scope at {reply.vertex}: vertex stamp "
            f"{reply.value} but in-edge {u} has {edge_value}"
        )


class TestConsistentReads:
    #: Read-only batches come off the data plane; the ``...OnTheRound``
    #: subclasses below rerun the trio with every read in a serve round.
    use_plane = True

    @pytest.mark.parametrize("frontend", ["inproc", "socket"])
    def test_scope_reads_never_half_applied(self, frontend):
        n, seed = 18, 11
        graph = _stamp_graph(n)
        service = GraphService(
            graph,
            stamp_update,
            num_workers=3,
            telemetry=False,
            consistency=Consistency.EDGE,
            warm=True,
            use_plane=self.use_plane,
        )
        service.start()
        sock_front = None
        try:
            rng = random.Random(seed)
            failures = []

            def make_client():
                if frontend == "socket":
                    return SocketClient(sock_front.address)
                return InprocClient(service)

            if frontend == "socket":
                sock_front = SocketFrontend(service)

            def storm(reader_seed):
                r = random.Random(reader_seed)
                client = make_client()
                try:
                    for _ in range(40):
                        reply = client.read(r.randrange(n), scope=True)
                        try:
                            _assert_scope_consistent(reply)
                        except AssertionError as exc:
                            failures.append(exc)
                            return
                finally:
                    client.close()

            readers = [
                threading.Thread(target=storm, args=(rng.randrange(1 << 30),))
                for _ in range(4)
            ]
            for t in readers:
                t.start()
            for t in readers:
                t.join()
            assert not failures, failures[0]
            plane_reads = service.stats()["plane_reads"]
            assert plane_reads == (4 * 40 if self.use_plane else 0)
        finally:
            if sock_front is not None:
                sock_front.close()
            result = service.close()
        assert result.converged
        # No kernel: the launched engine ran the warm start, so the
        # storm raced real background updates.
        assert result.num_updates >= n
        # Quiesced state: every vertex and every edge carries the limit.
        for v in range(n):
            assert graph.vertex_data(v) == STAMP_LIMIT
            for u in graph.in_neighbors(v):
                assert graph.edge_data(u, v) == STAMP_LIMIT

    def test_scope_reads_consistent_on_chromatic(self):
        n = 12
        graph = _stamp_graph(n)
        service = GraphService(
            graph,
            stamp_update,
            engine="chromatic",
            num_workers=2,
            telemetry=False,
            warm=True,
            use_plane=self.use_plane,
        )
        service.start()
        client = InprocClient(service)
        for v in range(n):
            _assert_scope_consistent(client.read(v, scope=True))
        result = service.close()
        assert result.converged


class TestConsistentReadsOnTheRound(TestConsistentReads):
    use_plane = False


# ----------------------------------------------------------------------
# Backpressure: bounded queue, structured shed, nothing lost.
# ----------------------------------------------------------------------
class TestBackpressure:
    use_plane = True

    def test_full_queue_sheds_429_style(self):
        graph = build_serving_graph(16, seed=21)
        service = GraphService(
            graph,
            num_workers=1,
            telemetry=False,
            queue_limit=2,
            batch_max=1,
            warm=False,
            use_plane=self.use_plane,
        )
        service.start()
        tickets, rejections = [], []
        for i in range(300):
            out = service.submit(ReadRequest(i % 16))
            if isinstance(out, Rejection):
                rejections.append(out)
            else:
                tickets.append(out)
        # A submit loop outruns barrier rounds by orders of magnitude:
        # the 2-deep queue must have shed most of the flood.
        assert rejections, "queue never filled — backpressure is broken"
        for rejection in rejections:
            assert rejection.code == REJECT_QUEUE_FULL
            assert rejection.limit == 2
            assert 0 <= rejection.depth <= 2
        # ...and every admitted request still resolves with a reply.
        for ticket in tickets:
            assert isinstance(ticket.wait(30.0), ReadReply)
        stats = service.stats()
        assert stats["rejected"] == len(rejections)
        assert stats["rejected_by_code"] == {
            REJECT_QUEUE_FULL: len(rejections)
        }
        assert stats["plane_reads"] == (len(tickets) if self.use_plane else 0)
        service.close()

    def test_submit_after_close_sheds_draining(self):
        graph = build_serving_graph(8, seed=22)
        service = GraphService(
            graph, num_workers=1, telemetry=False, use_plane=self.use_plane
        )
        service.start()
        service.close()
        out = service.submit(ReadRequest(0))
        assert isinstance(out, Rejection)
        assert out.code == REJECT_DRAINING


class TestBackpressureOnTheRound(TestBackpressure):
    use_plane = False


# ----------------------------------------------------------------------
# Graceful drain: every accepted request completes, writes survive into
# the collected graph, the final snapshot lands.
# ----------------------------------------------------------------------
class TestGracefulDrain:
    use_plane = True

    def test_drain_loses_no_accepted_request(self):
        n, seed = 24, 31
        graph = build_serving_graph(n, seed=seed)
        # warm=False + schedule=False: no background program runs, so
        # the accepted write values are the vertices' final state.
        service = GraphService(
            graph, num_workers=2, telemetry=False, warm=False,
            use_plane=self.use_plane,
        )
        service.start()
        rng = random.Random(seed)
        expected = {}
        tickets = []
        for i in range(60):
            vertex = rng.randrange(n)
            if i % 2 == 0:
                value = round(rng.uniform(0.1, 0.9), 6)
                expected[vertex] = value
                out = service.submit(
                    WriteRequest(vertex, value, schedule=False)
                )
            else:
                out = service.submit(ReadRequest(vertex))
            assert not isinstance(out, Rejection)
            tickets.append(out)
        result = service.close()  # drain begins with the queue loaded
        for ticket in tickets:
            assert ticket.done(), "drain abandoned an accepted request"
            assert not isinstance(ticket.reply, Rejection)
        assert result.converged
        # schedule=False writes are the last touch on their vertices:
        # the collected graph must carry exactly the accepted values.
        for vertex, value in expected.items():
            assert graph.vertex_data(vertex) == value

    def test_drain_over_socket_answers_every_wire_request(self):
        n, seed = 16, 32
        graph = build_serving_graph(n, seed=seed)
        service = GraphService(
            graph, num_workers=2, telemetry=False, use_plane=self.use_plane
        )
        service.start()
        frontend = SocketFrontend(service)
        outcomes = []
        lock = threading.Lock()

        def hammer(client_seed):
            rng = random.Random(client_seed)
            client = SocketClient(frontend.address)
            try:
                for _ in range(25):
                    if rng.random() < 0.3:
                        reply = client.write(
                            rng.randrange(n), rng.random(), schedule=False
                        )
                    else:
                        reply = client.read(rng.randrange(n))
                    with lock:
                        outcomes.append(reply)
            finally:
                client.close()

        threads = [
            threading.Thread(target=hammer, args=(seed + i,))
            for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        frontend.close()
        result = service.close()
        assert result.converged
        assert len(outcomes) == 75  # no hang, no dropped connection
        for reply in outcomes:
            assert isinstance(reply, (ReadReply, WriteReply))

    def test_drain_takes_final_snapshot(self, tmp_path):
        graph = build_serving_graph(12, seed=33)
        service = GraphService(
            graph,
            num_workers=2,
            telemetry=False,
            snapshot_every=10_000,  # cadence never fires: only the drain
            snapshot_dir=str(tmp_path),
            use_plane=self.use_plane,
        )
        service.start()
        InprocClient(service).write(0, 0.5)
        before = list(tmp_path.iterdir())
        service.close(snapshot=True)
        after = list(tmp_path.iterdir())
        assert after, "drain did not write the final checkpoint"
        assert len(after) >= len(before)


class TestGracefulDrainOnTheRound(TestGracefulDrain):
    use_plane = False


# ----------------------------------------------------------------------
# Serving telemetry: request spans + shed counter flow through
# repro.obs into the report's serving section.
# ----------------------------------------------------------------------
class TestServingTelemetry:
    def test_report_serving_section(self):
        n = 16
        graph = build_serving_graph(n, seed=41)
        service = GraphService(graph, num_workers=2, telemetry=True)
        service.start()
        client = InprocClient(service)
        outcome = run_mixed_load(client, n, 40, write_frac=0.25, seed=41)
        result = service.close()
        assert result.telemetry is not None
        report = summarize(result.telemetry)
        serving = report["serving"]
        assert serving["requests"] == outcome["reads"] + outcome["writes"]
        assert serving["read"]["count"] == outcome["reads"]
        assert serving["write"]["count"] == outcome["writes"]
        assert serving["rejected"] == 0
        for op in ("read", "write"):
            section = serving[op]
            assert 0 < section["p50_ms"] <= section["p99_ms"]
            assert section["p99_ms"] <= section["max_ms"]

    def test_shed_requests_become_counter(self):
        graph = build_serving_graph(12, seed=42)
        service = GraphService(
            graph,
            num_workers=1,
            telemetry=True,
            queue_limit=1,
            batch_max=1,
            warm=False,
        )
        service.start()
        shed = 0
        for i in range(200):
            if isinstance(service.submit(ReadRequest(i % 12)), Rejection):
                shed += 1
        result = service.close()
        assert shed > 0
        assert summarize(result.telemetry)["serving"]["rejected"] == shed


# ----------------------------------------------------------------------
# The resident program: incremental PageRank stays warm under writes.
# ----------------------------------------------------------------------
class TestDeltaPageRank:
    def test_registry_has_delta_program(self):
        assert "pagerank_delta" in REGISTERED_PROGRAMS
        assert callable(named_program("pagerank_delta").resolve())

    def test_writes_heal_back_to_exact_ranks(self):
        n, seed = 32, 51
        graph = build_serving_graph(n, seed=seed)
        truth = exact_pagerank(graph)
        service = GraphService(
            graph,
            named_program("pagerank_delta", epsilon=1e-6),
            num_workers=2,
            telemetry=False,
            touch="self",  # a perturbed vertex recomputes itself first
        )
        service.start()
        client = InprocClient(service)
        rng = random.Random(seed)
        for _ in range(10):
            client.write(rng.randrange(n), rng.uniform(0.5, 2.0) / n)
        result = service.close()
        assert result.converged
        # The delta program recomputes every perturbed vertex from its
        # neighborhood, so the client noise is fully absorbed and the
        # graph drains back to the unique PageRank fixed point.
        assert l1_error(graph, truth) < 1e-3

    @pytest.mark.parametrize("touch", ["out", "all", "self"])
    def test_every_healing_touch_policy_heals(self, touch):
        """Each policy that reschedules anything reschedules the written
        vertex too — otherwise its noise would stand forever. Source
        vertices (no in-edges) make that sharp: no residual wave ever
        comes back to reschedule a written source."""
        n, sources, seed = 24, 4, 52
        graph = _graph_with_sources(n, sources, seed)
        truth = exact_pagerank(graph)
        service = GraphService(
            graph,
            named_program("pagerank_delta", epsilon=1e-6),
            num_workers=2,
            telemetry=False,
            touch=touch,
        )
        service.start()
        client = InprocClient(service)
        rng = random.Random(seed)
        size = n + sources
        written = list(range(n, size)) + [rng.randrange(size) for _ in range(6)]
        for vertex in written:
            client.write(vertex, rng.uniform(0.5, 2.0) / size)
        assert service.close().converged
        assert l1_error(graph, truth) < 1e-3


def _graph_with_sources(n, sources, seed):
    """A strongly connected PageRank graph on ``0..n-1`` plus ``sources``
    feed vertices with out-edges only."""
    rng = random.Random(seed)
    graph = DataGraph()
    out = {}
    for v in range(n):
        out[v] = {(v + 1) % n} | {rng.randrange(n) for _ in range(2)} - {v}
    for s in range(n, n + sources):
        out[s] = {rng.randrange(n) for _ in range(2)}
    for v in out:
        graph.add_vertex(v, data=1.0 / len(out))
    for v, targets in out.items():
        for w in sorted(targets):
            graph.add_edge(v, w, data=1.0 / len(targets))
    return graph.finalize(vertex_dtype=float, edge_dtype=float)


# ----------------------------------------------------------------------
# Warm start: a kernel program converges in process before the launch
# (color sweeps of its batch kernel), so the service opens quiescent;
# everything else warms on the launched engine.
# ----------------------------------------------------------------------
WARM_EPSILON = 1e-6

_scalar_delta = make_pagerank_delta_update(epsilon=WARM_EPSILON)


def kernelless_delta(scope):
    """The delta program's scalar update with no batch kernel attached."""
    return _scalar_delta(scope)


def _ranks(graph):
    return [graph.vertex_data(v) for v in graph.vertices()]


def _color_sweep_ranks(graph, coloring):
    """The in-process oracle: SequentialEngine over ColorSweepScheduler."""
    oracle = graph.copy()
    SequentialEngine(
        oracle,
        named_program("pagerank_delta", epsilon=WARM_EPSILON).resolve(),
        scheduler=ColorSweepScheduler(coloring),
    ).run(initial=oracle.vertices())
    return _ranks(oracle)


class TestWarmStart:
    @pytest.mark.parametrize(
        "consistency, coloring_model",
        [
            (Consistency.EDGE, Consistency.EDGE),
            # VERTEX's own coloring is constant, which never batches.
            (Consistency.VERTEX, Consistency.EDGE),
            (Consistency.FULL, Consistency.FULL),
        ],
    )
    def test_locking_service_opens_quiescent(self, consistency, coloring_model):
        n = 60
        graph = build_serving_graph(n, seed=71)
        truth = exact_pagerank(graph)
        expected = _color_sweep_ranks(
            graph, coloring_for(graph, coloring_model)
        )
        service = GraphService(
            graph,
            named_program("pagerank_delta", epsilon=WARM_EPSILON),
            num_workers=2,
            telemetry=False,
            consistency=consistency,
        )
        service.start()
        result = service.close()
        assert result.converged
        # The launched engine found no work: the warm start ran before it.
        assert result.num_updates == 0
        assert [r.hex() for r in _ranks(graph)] == [
            r.hex() for r in expected
        ]
        assert l1_error(graph, truth) < 1e-3

    def test_chromatic_warm_is_the_engine_run_bit_for_bit(self):
        n = 60
        graph = build_serving_graph(n, seed=72)
        reference = graph.copy()
        program = named_program("pagerank_delta", epsilon=WARM_EPSILON)
        coloring = coloring_for(graph, Consistency.EDGE)
        service = GraphService(
            graph, program, engine="chromatic", num_workers=2,
            telemetry=False, coloring=coloring,
        )
        # The on-engine warm start warm=True used to run: every vertex
        # scheduled on the launched chromatic engine, same coloring.
        RuntimeChromaticEngine(
            reference, program, num_workers=2, transport="inproc",
            coloring=coloring,
        ).run(initial=reference.vertices())
        service.start()
        assert service.close().num_updates == 0
        assert [r.hex() for r in _ranks(graph)] == [
            r.hex() for r in _ranks(reference)
        ]

    def test_use_kernel_false_warms_on_the_engine(self):
        n = 60
        graph = build_serving_graph(n, seed=73)
        expected = _color_sweep_ranks(
            graph, coloring_for(graph, Consistency.EDGE)
        )
        service = GraphService(
            graph,
            named_program("pagerank_delta", epsilon=WARM_EPSILON),
            engine="chromatic",
            num_workers=2,
            telemetry=False,
            use_kernel=False,
        )
        service.start()
        result = service.close()
        assert result.num_updates >= n
        # Same chromatic order, so the same ranks as the kernel warm.
        assert [r.hex() for r in _ranks(graph)] == [
            r.hex() for r in expected
        ]

    def test_program_without_kernel_warms_on_the_engine(self):
        n = 60
        graph = build_serving_graph(n, seed=74)
        truth = exact_pagerank(graph)
        service = GraphService(
            graph, kernelless_delta, num_workers=2, telemetry=False
        )
        service.start()
        result = service.close()
        assert result.converged
        assert result.num_updates >= n
        assert l1_error(graph, truth) < 1e-3

    def test_warm_span_reaches_the_report_and_trace(self):
        n = 40
        graph = build_serving_graph(n, seed=75)
        service = GraphService(graph, num_workers=2, telemetry=True)
        service.start()
        InprocClient(service).read(0)
        tel = service.close().telemetry
        ((_track, _kind, start, end, updates, colors),) = tel.spans("warm")
        ((_, _, run_start, _, _, _),) = tel.spans("run")
        # The warm start runs before the launch, so before the run span.
        assert end <= run_start
        assert updates >= n and colors >= 2
        report = summarize(tel)
        assert report["serving"]["warm_ms"] == pytest.approx(
            (end - start) * 1e3
        )
        assert "warm_ms=" in format_report(report)
        assert validate_chrome_trace(chrome_trace(tel)) == []

    def test_no_warm_records_no_warm_span(self):
        graph = build_serving_graph(16, seed=76)
        before = _ranks(graph)
        service = GraphService(graph, num_workers=1, warm=False)
        service.start()
        tel = service.close().telemetry
        assert list(tel.spans("warm")) == []
        assert _ranks(graph) == before


# ----------------------------------------------------------------------
# Satellite: CoEM registered + engine equivalence.
# ----------------------------------------------------------------------
class TestCoEMProgram:
    def test_registry_has_coem(self):
        assert "coem" in REGISTERED_PROGRAMS

    def test_runtime_matches_sequential_fixed_point(self):
        data = synthetic_ner(phrases_per_type=8, num_contexts=24, seed=61)
        sequential = data.graph.copy()
        runtime = data.graph.copy()
        program = named_program("coem", data.seeds)
        seq_result = SequentialEngine(
            sequential, program.resolve(), scheduler="fifo",
            max_updates=100000,
        ).run(initial=sequential.vertices())
        assert seq_result.converged
        run_result = RuntimeLockingEngine(
            runtime,
            program,
            num_workers=3,
            transport="inproc",
            scheduler="priority",
            consistency=Consistency.EDGE,
        ).run(initial=runtime.vertices())
        assert run_result.converged
        # Both engines drain the same epsilon-gated EM iteration; the
        # clamped seeds anchor one fixed point, so the distributions
        # agree to within the scheduling tolerance.
        for v in sequential.vertices():
            delta = float(
                np.abs(
                    sequential.vertex_data(v) - runtime.vertex_data(v)
                ).sum()
            )
            assert delta < 5e-2, f"engines disagree at {v}: L1 {delta}"
