"""Property-based tests of the distributed invariants (DESIGN.md Sec. 5).

Hypothesis drives random graphs, partitions, and operation sequences
against the invariants the paper's correctness rests on: deadlock-free
lock acquisition, monotone version coherence, atom-journal round-trips,
and serializability of the locking engine under arbitrary topologies.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Consistency, SequentialEngine
from repro.core.consistency import LockKind, lock_plan, vertex_key
from repro.core.graph import DataGraph
from repro.distributed import (
    Atom,
    DataSizeModel,
    LockingEngine,
    build_atoms,
    constant_cost,
    deploy,
    random_hash_assignment,
)
from repro.distributed.locks import VertexLockTable
from repro.runtime.shard import CSRShardStore
from repro.sim import SimKernel

SIZES = DataSizeModel(8, 8)


@st.composite
def small_graphs(draw):
    """Connected-ish random graphs with 4-12 vertices."""
    n = draw(st.integers(min_value=4, max_value=12))
    g = DataGraph(vertices=[(i, float(i)) for i in range(n)])
    # spanning path keeps things connected
    for i in range(n - 1):
        g.add_edge(i, i + 1, data=1.0)
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ),
            max_size=10,
        )
    )
    for (u, v) in extra:
        if u != v and not g.has_edge(u, v) and not g.has_edge(v, u):
            g.add_edge(u, v, data=1.0)
    return g.finalize()


class TestLockOrderingDeadlockFreedom:
    @given(small_graphs(), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_concurrent_scope_acquisitions_all_complete(self, g, seed):
        """Random concurrent edge-consistency acquisitions in canonical
        order never deadlock: every requester eventually holds and
        releases its whole plan."""
        import random

        rng = random.Random(seed)
        kernel = SimKernel()
        table = VertexLockTable(kernel, list(g.vertices()))
        vertices = list(g.vertices())
        completed = []

        def acquire_scope(v):
            plan = lock_plan(g, v, Consistency.EDGE)
            for vid, kind in plan:
                yield table.request(vid, kind)
            yield kernel.timeout(rng.random())
            for vid, kind in plan:
                table.release(vid, kind)
            completed.append(v)

        requests = [rng.choice(vertices) for _ in range(12)]
        for v in requests:
            kernel.spawn(acquire_scope(v))
        kernel.run()
        assert sorted(map(str, completed)) == sorted(map(str, requests))
        for v in vertices:
            assert table.holders(v) == (0, False)
            assert table.queue_length(v) == 0


class TestVersionMonotonicity:
    @given(
        small_graphs(),
        st.lists(st.tuples(st.integers(0, 11), st.floats(-5, 5)), max_size=30),
    )
    @settings(max_examples=30, deadline=None)
    def test_versions_never_decrease_and_pushes_idempotent(self, g, writes):
        owner = random_hash_assignment(g, 2)
        stores = [CSRShardStore(m, g, owner) for m in range(2)]
        last = {}
        for (raw, value) in writes:
            v = raw % g.num_vertices
            store = stores[owner[v]]
            store.set_vertex_data(v, value)
            key = vertex_key(v)
            version = store.version(key)
            assert version > last.get((owner[v], key), 0) - 1
            last[(owner[v], key)] = version
        # All pushes apply exactly once; re-application is a no-op.
        for m in (0, 1):
            for dst, entries in stores[m].collect_dirty().items():
                for (key, value, version, _b) in entries:
                    assert stores[dst].apply_remote(key, value, version)
                    assert not stores[dst].apply_remote(key, value, version)

    @given(small_graphs())
    @settings(max_examples=20, deadline=None)
    def test_flush_reconciles_all_ghosts(self, g):
        """After writing everywhere and exchanging all dirty data, every
        ghost equals its primary."""
        owner = random_hash_assignment(g, 3)
        stores = [CSRShardStore(m, g, owner) for m in range(3)]
        for v in g.vertices():
            stores[owner[v]].set_vertex_data(v, float(hash(v) % 97))
        for m in range(3):
            for dst, entries in stores[m].collect_dirty().items():
                for (key, value, version, _b) in entries:
                    stores[dst].apply_remote(key, value, version)
        for v in g.vertices():
            primary = stores[owner[v]].vertex_data(v)
            for m in range(3):
                if m != owner[v] and stores[m].has_vertex(v):
                    assert stores[m].vertex_data(v) == primary


class TestAtomRoundTrip:
    @given(small_graphs(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_encode_decode_preserves_everything(self, g, k):
        assignment = random_hash_assignment(g, k)
        atoms, index = build_atoms(g, assignment, k, sizes=SIZES)
        for atom in atoms:
            decoded = Atom.decode(atom.encode())
            assert decoded.owned_vertices == atom.owned_vertices
            assert decoded.ghost_vertices == atom.ghost_vertices
            assert [c.op for c in decoded.commands] == [
                c.op for c in atom.commands
            ]
        # Index invariants: counts partition |V|; connectivity symmetric
        # keys are ordered pairs.
        assert sum(index.vertex_counts.values()) == g.num_vertices
        for (a, b) in index.connectivity:
            assert a < b


class TestLockingEngineSerializability:
    @given(small_graphs(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_random_graphs_random_partitions_serializable(self, g, machines):
        def bump(scope):
            total = sum(scope.neighbor(u) for u in scope.neighbors)
            scope.data = scope.data + 1.0 + 0.0 * total

        dep = deploy(
            g, machines, partitioner="hash", skip_ingress_io=True
        )
        engine = LockingEngine(
            dep.cluster, g, bump, dep.stores, dep.owner,
            constant_cost(1e6), SIZES, trace=True,
        )
        result = engine.run(initial=g.vertices())
        assert result.converged
        assert result.num_updates == g.num_vertices
        result.extra["trace"].check()
        # The distributed result matches the sequential reference.
        reference = g.copy()
        SequentialEngine(reference, bump).run(initial=reference.vertices())
        values = engine.gather_vertex_data()
        for v in g.vertices():
            assert values[v] == reference.vertex_data(v)
