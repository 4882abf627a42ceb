"""Integration tests: chromatic and locking engines vs the reference
engine, locks, termination detection, snapshots, and recovery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Consistency, SequentialEngine, greedy_coloring
from repro.core.consistency import LockKind
from repro.core.graph import DataGraph
from repro.distributed import (
    ChromaticEngine,
    DataSizeModel,
    LockingEngine,
    VertexLockTable,
    constant_cost,
    deploy,
    install_termination,
    run_recovery,
)
from repro.errors import ColoringError, EngineError, SimulationError
from repro.sim import Cluster, SimKernel

from tests.helpers import grid_graph, ring_graph

SIZES = DataSizeModel(16, 8)
COST = constant_cost(1e6)


def flood_max(scope):
    best = scope.data
    for u in scope.neighbors:
        best = max(best, scope.neighbor(u))
    if best != scope.data:
        scope.data = best
        return [(u, best) for u in scope.neighbors]


def counting(scope):
    scope.data = scope.data + 1.0


def _grid(n=6):
    g = grid_graph(n, n)
    g.set_vertex_data((0, 0), 10.0)
    return g


class TestVertexLockTable:
    def test_readers_share(self):
        k = SimKernel()
        t = VertexLockTable(k, [0])
        a = t.request(0, LockKind.READ)
        b = t.request(0, LockKind.READ)
        k.run()
        assert a.done and b.done
        assert t.holders(0) == (2, False)

    def test_writer_excludes(self):
        k = SimKernel()
        t = VertexLockTable(k, [0])
        w = t.request(0, LockKind.WRITE)
        r = t.request(0, LockKind.READ)
        k.run()
        assert w.done and not r.done
        t.release(0, LockKind.WRITE)
        k.run()
        assert r.done

    def test_fifo_no_reader_overtake(self):
        """A reader queued behind a writer must wait (no starvation)."""
        k = SimKernel()
        t = VertexLockTable(k, [0])
        r1 = t.request(0, LockKind.READ)
        w = t.request(0, LockKind.WRITE)
        r2 = t.request(0, LockKind.READ)
        k.run()
        assert r1.done and not w.done and not r2.done
        t.release(0, LockKind.READ)
        k.run()
        assert w.done and not r2.done

    def test_release_without_hold(self):
        k = SimKernel()
        t = VertexLockTable(k, [0])
        with pytest.raises(SimulationError):
            t.release(0, LockKind.WRITE)

    def test_unknown_vertex(self):
        k = SimKernel()
        t = VertexLockTable(k, [0])
        with pytest.raises(SimulationError):
            t.request(9, LockKind.READ)


class TestTermination:
    def test_quiet_cluster_terminates(self):
        cluster = Cluster(4)
        done = []
        control = install_termination(
            cluster,
            wait_idle=lambda m: _resolved(cluster.kernel),
            take_black=lambda m: False,
            on_terminate=done.append,
        )
        control["start"]()
        cluster.kernel.run()
        assert control["state"]["terminated"]
        assert sorted(done) == [0, 1, 2, 3]

    def test_black_machine_resets_count(self):
        cluster = Cluster(3)
        blacks = {0: True, 1: False, 2: False}

        def take_black(m):
            was = blacks[m]
            blacks[m] = False
            return was

        control = install_termination(
            cluster,
            wait_idle=lambda m: _resolved(cluster.kernel),
            take_black=take_black,
            on_terminate=lambda m: None,
        )
        control["start"]()
        cluster.kernel.run()
        assert control["state"]["terminated"]
        # one reset => more hops than a single clean round
        assert control["state"]["hops"] > 3


def _resolved(kernel):
    f = kernel.event()
    f.resolve()
    return f


class TestChromaticEngine:
    def _engine(self, g, machines=3, **kw):
        dep = deploy(g, machines, partitioner="grid", skip_ingress_io=True)
        coloring = greedy_coloring(g)
        return (
            ChromaticEngine(
                dep.cluster, g, kw.pop("fn", flood_max), dep.stores,
                dep.owner, COST, SIZES, coloring=coloring, **kw
            ),
            dep,
        )

    def test_matches_sequential_reference(self):
        g1 = _grid()
        g2 = g1.copy()
        SequentialEngine(g1, flood_max).run(initial=g1.vertices())
        engine, _ = self._engine(g2)
        result = engine.run(initial=g2.vertices())
        assert result.converged
        values = engine.gather_vertex_data()
        for v in g1.vertices():
            assert values[v] == g1.vertex_data(v)

    def test_each_seed_runs_once_when_static(self):
        g = grid_graph(4, 4)
        engine, _ = self._engine(g, fn=counting)
        result = engine.run(initial=g.vertices())
        assert result.num_updates == 16
        assert all(v == 1.0 for v in engine.gather_vertex_data().values())

    def test_invalid_coloring_rejected(self):
        g = grid_graph(3, 3)
        dep = deploy(g, 2, partitioner="grid", skip_ingress_io=True)
        with pytest.raises(ColoringError):
            ChromaticEngine(
                dep.cluster, g, counting, dep.stores, dep.owner,
                COST, SIZES, coloring={v: 0 for v in g.vertices()},
            )

    def test_max_sweeps_caps(self):
        g = _grid()
        engine, _ = self._engine(g, max_sweeps=1)
        result = engine.run(initial=g.vertices())
        assert not result.converged
        assert result.sweeps == 1

    def test_network_bytes_flow(self):
        g = _grid()
        engine, dep = self._engine(g)
        result = engine.run(initial=g.vertices())
        assert sum(result.bytes_sent_per_machine.values()) > 0
        assert result.runtime > 0
        assert result.cost_dollars > 0

    def test_sync_published_to_all_machines(self):
        from repro.core import sum_sync

        g = grid_graph(4, 4)
        total = sum_sync("total", map_fn=lambda s: s.data)
        dep = deploy(g, 2, partitioner="grid", skip_ingress_io=True)
        engine = ChromaticEngine(
            dep.cluster, g, counting, dep.stores, dep.owner,
            COST, SIZES, coloring=greedy_coloring(g), syncs=[total],
        )
        result = engine.run(initial=g.vertices())
        assert result.globals["total"] == 16.0
        for m in range(2):
            assert engine.globals[m]["total"] == 16.0


class TestLockingEngine:
    def _engine(self, g, machines=3, **kw):
        dep = deploy(g, machines, partitioner="grid", skip_ingress_io=True)
        return (
            LockingEngine(
                dep.cluster, g, kw.pop("fn", flood_max), dep.stores,
                dep.owner, COST, SIZES, **kw
            ),
            dep,
        )

    def test_matches_sequential_fixed_point(self):
        g1 = _grid()
        g2 = g1.copy()
        SequentialEngine(g1, flood_max).run(initial=g1.vertices())
        engine, _ = self._engine(g2, scheduler="priority")
        result = engine.run(initial=g2.vertices())
        assert result.converged
        values = engine.gather_vertex_data()
        for v in g1.vertices():
            assert values[v] == g1.vertex_data(v)

    def test_trace_is_serializable(self):
        g = _grid(5)
        engine, _ = self._engine(g, trace=True)
        result = engine.run(initial=g.vertices())
        trace = result.extra["trace"]
        assert len(trace) == result.num_updates
        trace.check()

    def test_trace_records_real_access_sets(self):
        """Regression: the pooled per-machine scope must record reads /
        writes when the engine traces — empty access sets would make
        trace.check() pass for any interleaving."""
        g = _grid(4)
        engine, _ = self._engine(g, trace=True)
        result = engine.run(initial=g.vertices())
        trace = result.extra["trace"]
        assert len(trace) > 0
        # flood_max reads D_v and every neighbor on each execution, and
        # writes D_v whenever the flooded value changes.
        assert all(e.reads for e in trace.executions)
        assert any(e.writes for e in trace.executions)

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=8, deadline=None)
    def test_any_pipeline_length_terminates(self, pipeline):
        g = _grid(4)
        engine, _ = self._engine(g, pipeline_length=pipeline)
        result = engine.run(initial=g.vertices())
        assert result.converged
        values = engine.gather_vertex_data()
        assert all(v == 10.0 for v in values.values())

    def test_full_consistency_supported(self):
        g = _grid(4)
        engine, _ = self._engine(g, consistency=Consistency.FULL, trace=True)
        result = engine.run(initial=g.vertices())
        assert result.converged
        result.extra["trace"].check()

    def test_max_updates_stops(self):
        g = grid_graph(4, 4)

        def forever(scope):
            scope.data = scope.data + 1
            return [scope.vertex]

        engine, _ = self._engine(g, fn=forever, max_updates=40)
        result = engine.run(initial=g.vertices())
        assert not result.converged
        assert result.num_updates >= 40

    def test_pipeline_validation(self):
        g = grid_graph(3, 3)
        dep = deploy(g, 2, partitioner="grid", skip_ingress_io=True)
        with pytest.raises(EngineError):
            LockingEngine(
                dep.cluster, g, counting, dep.stores, dep.owner,
                COST, SIZES, pipeline_length=0,
            )

    def test_snapshot_requires_dfs(self):
        g = grid_graph(3, 3)
        dep = deploy(g, 2, partitioner="grid", skip_ingress_io=True)
        with pytest.raises(EngineError):
            LockingEngine(
                dep.cluster, g, counting, dep.stores, dep.owner,
                COST, SIZES, snapshot_plan=[(5, "async")],
            )


class TestSnapshotsAndRecovery:
    def _run_with_snapshot(self, mode):
        g = _grid(5)
        dep = deploy(g, 2, partitioner="grid", skip_ingress_io=True)
        engine = LockingEngine(
            dep.cluster, g, flood_max, dep.stores, dep.owner,
            COST, SIZES, dfs=dep.dfs, snapshot_plan=[(10, mode)],
        )
        result = engine.run(initial=g.vertices())
        return result, dep, engine

    def test_async_snapshot_completes_and_journals(self):
        result, dep, _ = self._run_with_snapshot("async")
        assert len(result.snapshots) == 1
        snap = result.snapshots[0]
        assert snap.mode == "async"
        assert snap.bytes_written > 0
        assert any(
            name.startswith("snapshot/0/") for name in dep.dfs.listing()
        )

    def test_sync_snapshot_completes_and_journals(self):
        result, dep, _ = self._run_with_snapshot("sync")
        assert len(result.snapshots) == 1
        assert result.snapshots[0].mode == "sync"

    def test_recovery_restores_values(self):
        result, dep, engine = self._run_with_snapshot("sync")
        # Corrupt everything, then restore.
        for store in dep.stores.values():
            for v in store.owned_vertices:
                store.set_vertex_data(v, -1.0)
        info = run_recovery(dep.dfs, 0, dep.stores)
        assert info["machines"] == 2
        assert info["seconds"] >= 0
        merged = engine.gather_vertex_data()
        assert all(value != -1.0 for value in merged.values())
        # Re-running from the recovered state reconverges exactly.
        engine2 = LockingEngine(
            dep.cluster, dep.graph, flood_max, dep.stores, dep.owner,
            COST, SIZES,
        )
        engine2.run(initial=sorted(info["reschedule"], key=repr))
        values = engine2.gather_vertex_data()
        assert all(value == 10.0 for value in values.values())

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_recovery_rolls_ghosts_back_with_their_owners(self, mode):
        """Every machine applies every journal, so after recovery each
        ghost equals its owner's restored copy in value *and* version —
        a ghost left ahead of its owner would make the stale-version
        filter drop the owner's next writes."""
        _result, dep, _engine = self._run_with_snapshot(mode)
        run_recovery(dep.dfs, 0, dep.stores)
        stores, owner = dep.stores, dep.owner
        ghosts = 0
        for store in stores.values():
            for v in store.ghost_vertices:
                key = ("v", v)
                primary = stores[owner[v]]
                assert (store.vertex_data(v), store.version(key)) == (
                    primary.vertex_data(v), primary.version(key)
                ), (key, store.machine_id)
                ghosts += 1
        assert ghosts
        for (a, b) in dep.graph.edges():
            if owner[a] != owner[b]:
                key = ("e", a, b)
                src, dst = stores[owner[a]], stores[owner[b]]
                assert (src.edge_data(a, b), src.version(key)) == (
                    dst.edge_data(a, b), dst.version(key)
                ), key

    def test_recovery_missing_snapshot(self):
        from repro.errors import SnapshotError

        g = grid_graph(3, 3)
        dep = deploy(g, 2, partitioner="grid", skip_ingress_io=True)
        with pytest.raises(SnapshotError):
            run_recovery(dep.dfs, 7, dep.stores)


class TestEngineEquivalenceProperty:
    @given(st.integers(min_value=2, max_value=4), st.integers(0, 3))
    @settings(max_examples=6, deadline=None)
    def test_locking_equals_chromatic_fixed_point(self, machines, seed):
        g1 = grid_graph(4, 4)
        g1.set_vertex_data((seed % 4, seed % 4), 5.0)
        g2 = g1.copy()
        e1, _ = (
            ChromaticEngine(
                (dep1 := deploy(g1, machines, partitioner="grid",
                                skip_ingress_io=True)).cluster,
                g1, flood_max, dep1.stores, dep1.owner, COST, SIZES,
                coloring=greedy_coloring(g1),
            ),
            None,
        )
        e1.run(initial=g1.vertices())
        dep2 = deploy(g2, machines, partitioner="hash",
                      skip_ingress_io=True)
        e2 = LockingEngine(
            dep2.cluster, g2, flood_max, dep2.stores, dep2.owner,
            COST, SIZES,
        )
        e2.run(initial=g2.vertices())
        assert e1.gather_vertex_data() == e2.gather_vertex_data()
