"""Runtime backend tests: real-process execution must be bit-identical
to the reference engines.

The load-bearing property (ISSUE 2, paper Sec. 4.2.1): with a coloring
valid for the consistency model, same-color scopes never observe each
other's writes, so the chromatic execution order is deterministic and a
:class:`SequentialEngine` driven by :class:`ColorSweepScheduler` is a
ground-truth oracle for the parallel backends. Every comparison here is
exact equality — values, update counts, per-vertex histograms — across:

* the sequential oracle,
* the simulated :class:`ChromaticEngine` (same color-step semantics on
  the discrete-event cluster),
* :class:`RuntimeChromaticEngine` on ``InprocTransport``,
* :class:`RuntimeChromaticEngine` on ``MpTransport`` (real processes).
"""

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Consistency,
    SequentialEngine,
    greedy_coloring,
    second_order_coloring,
    sum_sync,
)
from repro.core.graph import DataGraph
from repro.core.kernels import in_gather
from repro.distributed import (
    ChromaticEngine,
    DataSizeModel,
    constant_cost,
    deploy,
)
from repro.distributed.deploy import plan_ownership
from repro.apps.lbp import init_lbp_data, make_lbp_update, potts_potential
from repro.apps.pagerank import make_pagerank_update, total_rank_sync_map
from repro.errors import EngineError, SchedulerError
from repro.runtime import (
    ColorSweepScheduler,
    CSRShardStore,
    InprocTransport,
    RuntimeChromaticEngine,
    UpdateProgram,
    WorkerFailure,
)
from repro.datasets.webgraph import power_law_web_graph

from tests.helpers import grid_graph, ring_graph


def flood_max(scope):
    best = scope.data
    for u in scope.neighbors:
        best = max(best, scope.neighbor(u))
    if best != scope.data:
        scope.data = best
        return [(u, best) for u in scope.neighbors]


def edge_accumulate(scope):
    """Edge-writing update (legal under EDGE/FULL): pushes D_v onto every
    adjacent edge and bumps D_v by the incoming edge sum."""
    total = scope.data
    for (a, b) in scope.adjacent_edges():
        total += scope.edge(a, b)
    for (a, b) in scope.adjacent_edges():
        scope.set_edge(a, b, scope.edge(a, b) + 1.0)
    if total != scope.data:
        scope.data = total
        return None
    return None


def exploding(scope):
    raise RuntimeError("boom at vertex %r" % (scope.vertex,))


def push_to_neighbors(scope):
    """FULL-consistency update writing *neighbor* vertex data — the
    ghost-write path: a worker mutates vertices it does not own."""
    share = scope.data
    if share:
        for u in scope.neighbors:
            scope.set_neighbor(u, scope.neighbor(u) + share)
        scope.data = 0.0
        return list(scope.neighbors)
    return None


def vertex_only_max(scope):
    """Writes D_v only (legal under every model, incl. VERTEX)."""
    best = scope.data
    for u in scope.neighbors:
        best = max(best, scope.neighbor(u))
    if best != scope.data:
        scope.data = best
        return list(scope.neighbors)
    return None


def graph_values(graph):
    vdata = {v: graph.vertex_data(v) for v in graph.vertices()}
    edata = {(a, b): graph.edge_data(a, b) for (a, b) in graph.edges()}
    return vdata, edata


def random_graph(num_vertices, num_edges, seed, default=0.0, typed=False):
    """Seeded random simple digraph with numeric data on both levels
    (``typed``: float64 columns instead of object lists)."""
    rng = random.Random(seed)
    g = DataGraph()
    for i in range(num_vertices):
        g.add_vertex(i, data=float(rng.randrange(8)))
    added = set()
    attempts = 0
    while len(added) < num_edges and attempts < num_edges * 10:
        attempts += 1
        a = rng.randrange(num_vertices)
        b = rng.randrange(num_vertices)
        if a != b and (a, b) not in added:
            added.add((a, b))
            g.add_edge(a, b, data=float(rng.randrange(4)))
    if typed:
        return g.finalize(vertex_dtype=float, edge_dtype=float)
    return g.finalize()


class TestColorSweepScheduler:
    def test_pops_in_color_order(self):
        g = grid_graph(3, 3)
        coloring = greedy_coloring(g)
        sched = ColorSweepScheduler(coloring)
        for v in g.vertices():
            sched.add(v)
        popped = [sched.pop()[0] for _ in range(g.num_vertices)]
        assert not sched
        # Every vertex exactly once, grouped by ascending color.
        assert sorted(popped, key=repr) == sorted(g.vertices(), key=repr)
        colors = [coloring[v] for v in popped]
        assert colors == sorted(colors)

    def test_reschedule_during_own_color_waits_a_sweep(self):
        g = ring_graph(4)
        coloring = greedy_coloring(g)
        sched = ColorSweepScheduler(coloring)
        first = next(iter(g.vertices()))
        sched.add(first)
        vertex, _prio = sched.pop()
        assert vertex == first
        # Re-adding mid-"step" parks it for the color's next visit.
        sched.add(first)
        assert first in sched
        assert len(sched) == 1
        assert sched.pop()[0] == first

    def test_unknown_vertex_rejected(self):
        sched = ColorSweepScheduler({0: 0})
        with pytest.raises(SchedulerError):
            sched.add(99)

    def test_empty_pop_raises(self):
        sched = ColorSweepScheduler({0: 0})
        with pytest.raises(SchedulerError):
            sched.pop()


class TestTransports:
    def test_make_transport_rejects_unknown(self):
        with pytest.raises(EngineError):
            RuntimeChromaticEngine(
                grid_graph(2, 2), flood_max, num_workers=2, transport="bogus"
            )

    def test_transport_is_single_use(self):
        g = grid_graph(3, 3)
        transport = InprocTransport(2)
        engine = RuntimeChromaticEngine(
            g, flood_max, num_workers=2, transport=transport
        )
        engine.run(initial=g.vertices())
        with pytest.raises(EngineError):
            engine.run(initial=g.vertices())

    def test_worker_failure_carries_traceback(self):
        g = grid_graph(3, 3)
        engine = RuntimeChromaticEngine(
            g, exploding, num_workers=2, transport="mp"
        )
        with pytest.raises(WorkerFailure) as info:
            engine.run(initial=g.vertices())
        assert "boom at vertex" in str(info.value)

    def test_closure_program_fails_with_hint(self):
        g = grid_graph(2, 2)
        bump = 2.0

        def closure(scope):  # captures `bump`: unpicklable by reference
            scope.data = scope.data + bump

        with pytest.raises(EngineError) as info:
            RuntimeChromaticEngine(g, closure, num_workers=2)
        assert "UpdateProgram" in str(info.value)


class TestRuntimeEquivalence:
    """Exact cross-backend agreement on fixed workloads."""

    def _oracle(self, graph, fn, coloring, consistency=Consistency.EDGE):
        engine = SequentialEngine(
            graph,
            fn,
            consistency=consistency,
            scheduler=ColorSweepScheduler(coloring),
        )
        return engine.run(initial=graph.vertices())

    def test_inproc_and_mp_match_oracle_flood(self):
        g0 = grid_graph(6, 6)
        g0.set_vertex_data((0, 0), 10.0)
        coloring = greedy_coloring(g0)
        g1, g2, g3 = g0.copy(), g0.copy(), g0.copy()
        r1 = self._oracle(g1, flood_max, coloring)
        r2 = RuntimeChromaticEngine(
            g2, flood_max, num_workers=3, transport="inproc", coloring=coloring
        ).run(initial=g2.vertices())
        r3 = RuntimeChromaticEngine(
            g3, flood_max, num_workers=3, transport="mp", coloring=coloring
        ).run(initial=g3.vertices())
        assert r2.converged and r3.converged
        assert graph_values(g1) == graph_values(g2) == graph_values(g3)
        assert (
            r1.updates_per_vertex
            == r2.updates_per_vertex
            == r3.updates_per_vertex
        )
        assert r3.backend == "mp" and r3.num_workers == 3

    def test_matches_simulated_chromatic_engine(self):
        g = power_law_web_graph(200, out_degree=4, seed=7)
        coloring = greedy_coloring(g)
        fn = make_pagerank_update(epsilon=1e-4)
        g_sim, g_rt = g.copy(), g.copy()
        dep = deploy(g_sim, 3, partitioner="hash", skip_ingress_io=True)
        sim = ChromaticEngine(
            dep.cluster, g_sim, fn, dep.stores, dep.owner,
            constant_cost(1e6), DataSizeModel(16, 8), coloring=coloring,
        )
        r_sim = sim.run(initial=g_sim.vertices())
        rt = RuntimeChromaticEngine(
            g_rt,
            UpdateProgram(make_pagerank_update, kwargs={"epsilon": 1e-4}),
            num_workers=3,
            transport="inproc",
            coloring=coloring,
            partitioner="hash",
        )
        r_rt = rt.run(initial=g_rt.vertices())
        # Same deterministic placement pipeline -> same ownership.
        assert dict(dep.owner) == dict(rt.owner)
        assert r_sim.num_updates == r_rt.num_updates
        assert sim.gather_vertex_data() == {
            v: g_rt.vertex_data(v) for v in g_rt.vertices()
        }

    def test_lbp_bit_identical_on_processes(self):
        rows = cols = 6
        labels = 3
        g = grid_graph(rows, cols)
        rng = random.Random(3)
        unaries = {
            v: [rng.random() + 0.1 for _ in range(labels)]
            for v in g.vertices()
        }
        psi = potts_potential(labels, smoothing=1.5)
        coloring = greedy_coloring(g)
        g1, g2 = g.copy(), g.copy()
        init_lbp_data(g1, unaries)
        init_lbp_data(g2, unaries)
        r1 = self._oracle(g1, make_lbp_update(psi, epsilon=1e-3), coloring)
        r2 = RuntimeChromaticEngine(
            g2,
            UpdateProgram(make_lbp_update, args=(psi,), kwargs={"epsilon": 1e-3}),
            num_workers=2,
            transport="mp",
            coloring=coloring,
        ).run(initial=g2.vertices())
        assert r1.num_updates == r2.num_updates
        for v in g1.vertices():
            assert np.array_equal(
                g1.vertex_data(v)["belief"], g2.vertex_data(v)["belief"]
            )
        for key in g1.edges():
            for direction in (0, 1):
                assert np.array_equal(
                    g1.edge_data(*key)[direction], g2.edge_data(*key)[direction]
                )

    def test_sync_aggregation_matches_sequential(self):
        g = power_law_web_graph(120, out_degree=3, seed=2)
        coloring = greedy_coloring(g)
        total = sum_sync("total", map_fn=total_rank_sync_map)
        g_rt = g.copy()
        result = RuntimeChromaticEngine(
            g_rt,
            UpdateProgram(make_pagerank_update, kwargs={"epsilon": 1e-4}),
            num_workers=2,
            transport="mp",
            coloring=coloring,
            syncs=[total],
        ).run(initial=g_rt.vertices())
        # Final published value == the aggregate over the final data.
        expected = sum(g_rt.vertex_data(v) for v in g_rt.vertices())
        assert result.globals["total"] == pytest.approx(expected, abs=1e-2)

    def test_full_consistency_ghost_writes_reach_owner(self):
        """Regression: under FULL consistency a worker may write a
        *ghost* (``set_neighbor`` on a remote-owned vertex); the write
        must propagate to the owner and every other mirror, on both the
        runtime engine and the simulated one (both on CSRShardStore)."""
        g = grid_graph(4, 4)
        g.set_vertex_data((0, 0), 8.0)
        coloring = second_order_coloring(g)
        cap = 3 * g.num_vertices
        results = {}
        for backend in ("inproc", "mp"):
            copy = g.copy()
            run = RuntimeChromaticEngine(
                copy,
                push_to_neighbors,
                num_workers=3,
                transport=backend,
                consistency=Consistency.FULL,
                coloring=coloring,
                partitioner="hash",
                max_updates=cap,
            ).run(initial=copy.vertices())
            results[backend] = (run.num_updates, graph_values(copy))
        assert results["inproc"] == results["mp"]
        executed = results["mp"][0]
        # Sequential oracle replayed to the same executed prefix.
        oracle = g.copy()
        SequentialEngine(
            oracle,
            push_to_neighbors,
            consistency=Consistency.FULL,
            scheduler=ColorSweepScheduler(coloring),
            max_updates=executed,
        ).run(initial=oracle.vertices())
        assert graph_values(oracle) == results["mp"][1]
        # Simulated chromatic engine agrees too (same store semantics).
        sim_graph = g.copy()
        dep = deploy(sim_graph, 3, partitioner="hash", skip_ingress_io=True)
        sim = ChromaticEngine(
            dep.cluster,
            sim_graph,
            push_to_neighbors,
            dep.stores,
            dep.owner,
            constant_cost(1e6),
            DataSizeModel(16, 8),
            consistency=Consistency.FULL,
            coloring=coloring,
            max_updates=cap,
        )
        sim_run = sim.run(initial=sim_graph.vertices())
        assert sim_run.num_updates == executed
        assert sim.gather_vertex_data() == {
            v: value for v, value in results["mp"][1][0].items()
        }

    def test_max_sweeps_and_round_robin_cap(self):
        g = power_law_web_graph(100, out_degree=3, seed=5)
        coloring = greedy_coloring(g)
        sweeps = 4
        g1, g2 = g.copy(), g.copy()
        r1 = SequentialEngine(
            g1,
            make_pagerank_update(schedule="self"),
            scheduler=ColorSweepScheduler(coloring),
            max_updates=sweeps * g.num_vertices,
        ).run(initial=g1.vertices())
        r2 = RuntimeChromaticEngine(
            g2,
            UpdateProgram(make_pagerank_update, kwargs={"schedule": "self"}),
            num_workers=2,
            transport="inproc",
            coloring=coloring,
            max_sweeps=sweeps,
        ).run(initial=g2.vertices())
        assert r1.num_updates == r2.num_updates == sweeps * g.num_vertices
        assert not r2.converged and r2.sweeps == sweeps
        assert graph_values(g1) == graph_values(g2)


class TestRuntimeProperties:
    """Property: bit-identical to the oracle on random graphs, across
    vertex/edge/full consistency and worker counts (ISSUE 2 satellite)."""

    @given(
        seed=st.integers(0, 10_000),
        num_workers=st.integers(1, 4),
        model=st.sampled_from(
            [Consistency.VERTEX, Consistency.EDGE, Consistency.FULL]
        ),
    )
    @settings(max_examples=12, deadline=None)
    def test_bit_identical_to_oracle(self, seed, num_workers, model):
        rng = random.Random(seed)
        n = rng.randrange(4, 18)
        g = random_graph(n, num_edges=2 * n, seed=seed)
        # A proper (or second-order, for FULL) coloring makes the
        # chromatic order deterministic under every model.
        coloring = (
            second_order_coloring(g)
            if model is Consistency.FULL
            else greedy_coloring(g)
        )
        fn = vertex_only_max if model is Consistency.VERTEX else edge_accumulate
        g1, g2 = g.copy(), g.copy()
        r1 = SequentialEngine(
            g1,
            fn,
            consistency=model,
            scheduler=ColorSweepScheduler(coloring),
            max_updates=4 * n,
        ).run(initial=g1.vertices())
        r2 = RuntimeChromaticEngine(
            g2,
            fn,
            num_workers=num_workers,
            transport="inproc",
            consistency=model,
            coloring=coloring,
            partitioner="hash",
            max_updates=4 * n,
        ).run(initial=g2.vertices())
        if r1.converged and r2.converged:
            assert r1.updates_per_vertex == r2.updates_per_vertex
            assert graph_values(g1) == graph_values(g2)
        else:
            # Caps bind at different boundaries (mid-sweep vs sweep
            # edge); the executed prefix still agrees: replay the oracle
            # to the runtime's exact update count.
            g3 = g.copy()
            SequentialEngine(
                g3,
                fn,
                consistency=model,
                scheduler=ColorSweepScheduler(coloring),
                max_updates=r2.num_updates,
            ).run(initial=g3.vertices())
            assert graph_values(g3) == graph_values(g2)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None)
    def test_mp_equals_inproc(self, seed):
        g = random_graph(12, num_edges=24, seed=seed)
        coloring = greedy_coloring(g)
        g1, g2 = g.copy(), g.copy()
        r1 = RuntimeChromaticEngine(
            g1, flood_max, num_workers=2, transport="inproc", coloring=coloring
        ).run(initial=g1.vertices())
        r2 = RuntimeChromaticEngine(
            g2, flood_max, num_workers=2, transport="mp", coloring=coloring
        ).run(initial=g2.vertices())
        assert r1.updates_per_vertex == r2.updates_per_vertex
        assert graph_values(g1) == graph_values(g2)


class TestShardStore:
    def _store(self, g, workers=2):
        plan = plan_ownership(g, workers, partitioner="hash")
        return CSRShardStore(0, g, plan.owner), plan

    def test_versions_and_dirty_tracking(self):
        g = ring_graph(6)
        store, plan = self._store(g)
        v = store.owned_vertices[0]
        assert store.version(("v", v)) == 0
        store.set_vertex_data(v, 42.0)
        assert store.vertex_data(v) == 42.0
        assert store.version(("v", v)) == 1
        assert store.dirty_count == 1

    def test_apply_remote_is_version_filtered(self):
        g = ring_graph(6)
        store, plan = self._store(g)
        ghost = next(iter(store.ghost_vertices))
        key = ("v", ghost)
        assert store.apply_remote(key, 5.0, version=2)
        assert store.vertex_data(ghost) == 5.0
        # Stale and duplicate pushes are dropped.
        assert not store.apply_remote(key, -1.0, version=2)
        assert not store.apply_remote(key, -1.0, version=1)
        assert store.vertex_data(ghost) == 5.0

    def test_collect_dirty_matches_flat_routing(self):
        g = ring_graph(8)
        store, plan = self._store(g, workers=3)
        for v in store.owned_vertices:
            store.set_vertex_data(v, 7.0)
        flat = store.collect_dirty_flat()
        # Rebuild the same writes and compare against the legacy format.
        store2 = CSRShardStore(0, g, plan.owner)
        for v in store2.owned_vertices:
            store2.set_vertex_data(v, 7.0)
        legacy = store2.collect_dirty()
        assert set(flat) == set(legacy)
        index_of = g.vertex_index()
        for dst in legacy:
            legacy_v = [
                (index_of[key[1]], value, version)
                for (key, value, version, _b) in legacy[dst]
                if key[0] == "v"
            ]
            flat_v = list(
                zip(flat[dst].v_index, flat[dst].v_value, flat[dst].v_version)
            )
            assert sorted(legacy_v) == sorted(flat_v)

    def test_checkpoint_covers_owned_data(self):
        """Across the shards' journals: every owned vertex and every
        source-owned edge, exactly once, in slot form."""
        g = grid_graph(3, 3)
        plan = plan_ownership(g, 2, partitioner="hash")
        csr = g.compiled
        v_seen, e_seen = [], []
        for w in range(2):
            store = CSRShardStore(w, g, plan.owner)
            payload = store.checkpoint_payload()
            assert {csr.vertex_ids[i] for i in payload.v_index} == set(
                store.owned_vertices
            )
            for slot in payload.e_slot:
                assert plan.owner[csr.edge_keys[slot][0]] == w
            for name in ("v_index", "v_version", "e_slot", "e_version"):
                assert getattr(payload, name).dtype == np.int32
            assert len(payload.v_value) == len(payload.v_index)
            assert len(payload.e_value) == len(payload.e_slot)
            v_seen += payload.v_index.tolist()
            e_seen += payload.e_slot.tolist()
        assert sorted(v_seen) == list(range(len(csr.vertex_ids)))
        assert sorted(e_seen) == list(range(len(csr.edge_keys)))


    @given(
        seed=st.integers(0, 10_000),
        workers=st.integers(2, 4),
        typed=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_restoring_the_journals_rolls_every_held_slot_back(
        self, seed, workers, typed
    ):
        """``restore(journal(store))`` over a whole cluster: owned slots
        come back to their journaled value and version, *ghost* slots
        and their version clocks roll back to the owner's, dirty bits
        clear — whatever happened in between, delivered or not."""
        g = random_graph(12, num_edges=26, seed=seed, typed=typed)
        plan = plan_ownership(g, workers, partitioner="hash")
        owner = plan.owner
        stores = [CSRShardStore(w, g, owner) for w in range(workers)]
        rng = random.Random(seed)

        def scribble(deliver):
            """Owners write some of their vertices and source-owned
            edges; ghosts hear about it only when ``deliver``."""
            for store in stores:
                for v in store.owned_vertices:
                    if rng.random() < 0.6:
                        store.set_vertex_data(v, float(rng.randrange(100)))
                    for u in g.out_neighbors(v):
                        if rng.random() < 0.4:
                            store.set_edge_data(
                                v, u, float(rng.randrange(100))
                            )
            if deliver:
                for store in stores:
                    for dst, batch in store.collect_dirty_flat().items():
                        stores[dst].apply_flat(batch)

        def owner_view():
            """(value, version) of every datum at its journaling owner."""
            view = {}
            for v in g.vertices():
                s = stores[owner[v]]
                view["v", v] = (s.vertex_data(v), s.version(("v", v)))
            for (a, b) in g.edges():
                s = stores[owner[a]]
                view["e", a, b] = (s.edge_data(a, b), s.version(("e", a, b)))
            return view

        scribble(deliver=True)
        scribble(deliver=False)  # ghosts are stale at journal time
        journals = [store.checkpoint_payload() for store in stores]
        truth = owner_view()
        if typed:
            for journal in journals:
                for name in type(journal).__slots__:
                    assert isinstance(getattr(journal, name), np.ndarray)
        scribble(deliver=True)
        scribble(deliver=False)  # and dirty at restore time
        assert owner_view() != truth
        for store in stores:
            for journal in journals:
                store.restore_checkpoint(journal)
        assert owner_view() == truth
        for store in stores:
            assert store.dirty_count == 0
            assert store.collect_dirty_flat() == {}
            for key, (value, version) in truth.items():
                held = store.version(key)
                if held == -1:
                    continue
                assert held == version
                if key[0] == "v":
                    assert store.vertex_data(key[1]) == value
                else:
                    assert store.edge_data(key[1], key[2]) == value


class TestPicklability:
    def test_csr_graph_roundtrip_rebuilds_views(self):
        g = grid_graph(4, 5)
        # Warm a memo cache; it must NOT travel.
        g.neighbor_set((1, 1))
        csr = g.compiled
        csr.bind_cache_for(Consistency.EDGE)["sentinel"] = object()
        clone = pickle.loads(pickle.dumps(g))
        csr2 = clone.compiled
        assert clone.finalized
        assert csr2.vertex_ids == csr.vertex_ids
        assert csr2.edge_keys == csr.edge_keys
        assert csr2.out_ids == csr.out_ids
        assert csr2.in_ids == csr.in_ids
        assert csr2.nbr_ids == csr.nbr_ids
        assert csr2.nbr_sets == csr.nbr_sets
        assert csr2.adj_edges == csr.adj_edges
        assert [in_gather(csr2, i) for i in range(len(csr.vertex_ids))] == [
            in_gather(csr, i) for i in range(len(csr.vertex_ids))
        ]
        assert csr2.edge_slot == csr.edge_slot
        assert np.array_equal(csr2.out_offsets, csr.out_offsets)
        assert np.array_equal(csr2.nbr_targets, csr.nbr_targets)
        assert csr2.vdata == csr.vdata and csr2.edata == csr.edata
        # Memo caches are process-local: fresh and empty after the trip.
        assert csr2.bind_cache == {} and csr2.write_set_cache == {}

    def test_update_program_roundtrip(self):
        prog = UpdateProgram(make_pagerank_update, kwargs={"epsilon": 1e-2})
        clone = pickle.loads(pickle.dumps(prog))
        scopeless = clone.resolve()
        assert callable(scopeless)
