"""Property tests for the finalize-time CSR compilation (repro.core.csr).

Two guarantees are pinned down here:

* **representation equivalence** — a compiled graph answers every
  structure and data query identically to the pre-finalize dict-backed
  representation, across random graphs (vertex ids both dense ints and
  hashable tuples);
* **execution equivalence** — the pooled-scope ``SequentialEngine`` hot
  loop produces an ``EngineResult`` and final ranks bit-identical to a
  reference loop that allocates a fresh :class:`Scope` per update (the
  seed implementation's behavior) on the Fig. 1a-style PageRank
  workload.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.consistency import Consistency, edge_key, vertex_key
from repro.core.engine import SequentialEngine
from repro.core.graph import DataGraph
from repro.core.scheduler import make_scheduler
from repro.core.scope import Scope
from repro.core.update import normalize_schedule, run_update
from repro.apps.pagerank import make_pagerank_update
from repro.runtime.shard import CSRShardStore


@st.composite
def random_graph_pair(draw):
    """The same random graph twice: one finalized (CSR), one building."""
    n = draw(st.integers(min_value=2, max_value=16))
    tuple_ids = draw(st.booleans())
    ids = [("v", i) if tuple_ids else i for i in range(n)]
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=50,
        )
    )
    edges = []
    seen = set()
    for a, b in pairs:
        if a != b and (a, b) not in seen:
            seen.add((a, b))
            edges.append((ids[a], ids[b], float(len(edges))))
    vertices = [(v, float(i)) for i, v in enumerate(ids)]
    compiled = DataGraph(vertices=vertices, edges=edges).finalize()
    building = DataGraph(vertices=vertices, edges=edges)
    return compiled, building


class TestRepresentationEquivalence:
    @given(random_graph_pair())
    @settings(max_examples=80, deadline=None)
    def test_structure_queries_identical(self, graphs):
        compiled, building = graphs
        assert compiled.num_vertices == building.num_vertices
        assert compiled.num_edges == building.num_edges
        assert list(compiled.vertices()) == list(building.vertices())
        assert list(compiled.edges()) == list(building.edges())
        assert compiled.vertex_index() == building.vertex_index()
        for v in building.vertices():
            assert compiled.has_vertex(v) and v in compiled
            assert compiled.neighbors(v) == building.neighbors(v)
            assert compiled.out_neighbors(v) == building.out_neighbors(v)
            assert compiled.in_neighbors(v) == building.in_neighbors(v)
            assert compiled.degree(v) == building.degree(v)
            assert compiled.out_degree(v) == building.out_degree(v)
            assert compiled.in_degree(v) == building.in_degree(v)
            assert tuple(compiled.adjacent_edges(v)) == tuple(
                building.adjacent_edges(v)
            )
            assert compiled.neighbor_set(v) == frozenset(building.neighbors(v))

    @given(random_graph_pair())
    @settings(max_examples=80, deadline=None)
    def test_data_queries_identical(self, graphs):
        compiled, building = graphs
        for v in building.vertices():
            assert compiled.vertex_data(v) == building.vertex_data(v)
        for (a, b) in building.edges():
            assert compiled.has_edge(a, b)
            assert compiled.edge_data(a, b) == building.edge_data(a, b)

    @given(random_graph_pair())
    @settings(max_examples=40, deadline=None)
    def test_csr_arrays_consistent_with_queries(self, graphs):
        compiled, _building = graphs
        csr = compiled.compiled
        index_of = csr.index_of
        for v in compiled.vertices():
            i = index_of[v]
            out_ids = [
                csr.vertex_ids[j]
                for j in csr.out_targets[csr.out_offsets[i]:csr.out_offsets[i + 1]]
            ]
            assert tuple(out_ids) == compiled.out_neighbors(v)
            in_ids = [
                csr.vertex_ids[j]
                for j in csr.in_sources[csr.in_offsets[i]:csr.in_offsets[i + 1]]
            ]
            assert tuple(in_ids) == compiled.in_neighbors(v)
            nbr_ids = [
                csr.vertex_ids[j]
                for j in csr.nbr_targets[csr.nbr_offsets[i]:csr.nbr_offsets[i + 1]]
            ]
            assert tuple(nbr_ids) == compiled.neighbors(v)
        for slot, (a, b) in enumerate(csr.edge_keys):
            assert csr.edge_slot[(a, b)] == slot
            assert csr.vertex_ids[csr.edge_src_index[slot]] == a
            assert csr.vertex_ids[csr.edge_dst_index[slot]] == b

    def test_data_writes_go_to_flat_arrays(self):
        g = DataGraph(vertices=[0, 1], edges=[(0, 1, 0.5)]).finalize()
        g.set_vertex_data(0, 42.0)
        g.set_edge_data(0, 1, -1.0)
        csr = g.compiled
        assert csr.vdata[csr.index_of[0]] == 42.0
        assert csr.edata[csr.edge_slot[(0, 1)]] == -1.0

    def test_copy_shares_structure_not_data(self):
        g = DataGraph(vertices=[0, 1, 2], edges=[(0, 1), (1, 2)]).finalize()
        h = g.copy()
        assert h.compiled is not g.compiled
        # Structure arrays and memo caches are the very same objects.
        assert h.compiled.index_of is g.compiled.index_of
        assert h.compiled.adj_edges is g.compiled.adj_edges
        assert h.compiled.write_set_cache is g.compiled.write_set_cache
        # Data is independent.
        h.set_vertex_data(0, "changed")
        assert g.vertex_data(0) is None


def _fig1a_style_graph(n=120, out_degree=4, seed=11):
    """Small random web graph with 1/out-degree weights (Fig. 1a shape)."""
    rng = random.Random(seed)
    edges = set()
    for i in range(n):
        while len([e for e in edges if e[0] == i]) < out_degree:
            j = rng.randrange(n)
            if j != i:
                edges.add((i, j))
    out_count = {}
    for (i, _j) in edges:
        out_count[i] = out_count.get(i, 0) + 1
    g = DataGraph()
    for i in range(n):
        g.add_vertex(i, data=1.0 / n)
    for (i, j) in sorted(edges):
        g.add_edge(i, j, data=1.0 / out_count[i])
    return g.finalize()


def _reference_run(graph, update_fn, initial, scheduler_name="fifo"):
    """The seed engine loop: fresh Scope per update, run_update choke
    point — the behavior the pooled hot loop must match bit-for-bit."""
    scheduler = make_scheduler(scheduler_name)
    scheduler.add_all(normalize_schedule(initial, graph=graph))
    counts = {}
    while scheduler:
        vertex, _prio = scheduler.pop()
        scope = Scope(graph, vertex, model=Consistency.EDGE)
        result = run_update(update_fn, scope)
        scheduler.add_all(result.scheduled)
        counts[vertex] = counts.get(vertex, 0) + 1
    return counts


class TestExecutionEquivalence:
    def test_pagerank_bit_identical_to_reference_loop(self):
        g_pooled = _fig1a_style_graph()
        g_reference = g_pooled.copy()
        update = make_pagerank_update(epsilon=1e-5)

        engine = SequentialEngine(g_pooled, update, scheduler="fifo")
        result = engine.run(initial=list(g_pooled.vertices()))

        ref_counts = _reference_run(
            g_reference, update, list(g_reference.vertices())
        )

        assert result.converged
        assert result.updates_per_vertex == ref_counts
        assert result.num_updates == sum(ref_counts.values())
        for v in g_pooled.vertices():
            # Bit-identical floats, not approximately equal.
            assert g_pooled.vertex_data(v) == g_reference.vertex_data(v)

    def test_pagerank_identical_across_graph_copies(self):
        g1 = _fig1a_style_graph(seed=23)
        g2 = g1.copy()
        update = make_pagerank_update(epsilon=1e-4)
        r1 = SequentialEngine(g1, update, scheduler="fifo").run(
            initial=list(g1.vertices())
        )
        r2 = SequentialEngine(g2, update, scheduler="fifo").run(
            initial=list(g2.vertices())
        )
        assert r1.num_updates == r2.num_updates
        assert r1.updates_per_vertex == r2.updates_per_vertex
        for v in g1.vertices():
            assert g1.vertex_data(v) == g2.vertex_data(v)

    @pytest.mark.parametrize("scheduler", ["fifo", "priority"])
    def test_gather_matches_per_call_reads(self, scheduler):
        """scope.gather_in() must equal the element-wise scope reads."""
        g = _fig1a_style_graph(n=40, seed=5)
        for v in g.vertices():
            scope = Scope(g, v, model=Consistency.EDGE)
            gathered = scope.gather_in()
            elementwise = [
                (u, scope.edge(u, v), scope.neighbor(u))
                for u in scope.in_neighbors
            ]
            assert gathered == elementwise

    def test_gather_records_reads_when_tracing(self):
        g = DataGraph(
            vertices=[0, 1, 2], edges=[(1, 0, 0.5), (2, 0, 0.25)]
        ).finalize()
        scope = Scope(g, 0, model=Consistency.EDGE, record=True)
        scope.gather_in()
        assert ("v", 1) in scope.reads and ("v", 2) in scope.reads
        assert ("e", 1, 0) in scope.reads and ("e", 2, 0) in scope.reads


class TestGathersOnEveryStore:
    """``Scope.gather_in`` / ``gather_out`` against their per-call reads
    on the three gather paths — the compiled graph, a ``CSRShardStore``
    and the recording path — and against the building graph's slow
    path."""

    @staticmethod
    def _scopes(graph):
        """``(scope, recording)`` per gather path."""
        store = CSRShardStore(0, graph, {v: 0 for v in graph.vertices()})
        return [
            (Scope(graph, None), False),
            (Scope(graph, None, store=store), False),
            (Scope(graph, None, record=True), True),
            (Scope(graph, None, store=store, record=True), True),
        ]

    @given(random_graph_pair())
    @settings(max_examples=60, deadline=None)
    def test_gathers_match_per_call_reads(self, pair):
        compiled, building = pair
        for scope, recording in self._scopes(compiled):
            for v in compiled.vertices():
                scope.rebind(v)
                ins = scope.gather_in()
                outs = scope.gather_out()
                expected_reads = {
                    key
                    for u in scope.in_neighbors
                    for key in (edge_key(u, v), vertex_key(u))
                } | {
                    key
                    for w in scope.out_neighbors
                    for key in (edge_key(v, w), vertex_key(w))
                }
                assert scope.reads == (expected_reads if recording else set())
                assert ins == [
                    (u, scope.edge(u, v), scope.neighbor(u))
                    for u in scope.in_neighbors
                ]
                assert outs == [
                    (w, scope.edge(v, w), scope.neighbor(w))
                    for w in scope.out_neighbors
                ]
                slow = Scope(building, v)
                assert outs == slow.gather_out()
                assert ins == slow.gather_in()


class TestUnboundScopeFailsLoudly:
    def test_unbound_pooled_scope_data_raises(self):
        g = DataGraph(vertices=[0, 1], edges=[(0, 1)]).finalize()
        scope = Scope(g, None, model=Consistency.EDGE)
        with pytest.raises(TypeError):
            scope.data
        with pytest.raises(TypeError):
            scope.data = 1.0
        # After rebinding it behaves normally.
        scope.rebind(0)
        scope.data = 2.5
        assert scope.data == 2.5


class TestRecordingOnlyOnSuccess:
    def test_failed_edge_read_is_not_recorded(self):
        """A probe of a nonexistent edge direction (the get_message
        pattern) must not pollute the trace with a phantom read."""
        g = DataGraph(vertices=[0, 1], edges=[(0, 1, 1.0)]).finalize()
        scope = Scope(g, 0, model=Consistency.EDGE, record=True)
        with pytest.raises(Exception):
            scope.edge(1, 0)  # stored direction is 0 -> 1
        assert ("e", 1, 0) not in scope.reads
        scope.edge(0, 1)
        assert ("e", 0, 1) in scope.reads
