"""Tests for atoms, partitioning, ingress, and the ghosted graph store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.consistency import edge_key, vertex_key
from repro.distributed import (
    Atom,
    DataSizeModel,
    build_atoms,
    balance,
    bfs_assignment,
    cut_edges,
    deploy,
    frame_assignment,
    grid_assignment,
    random_hash_assignment,
    stripe_assignment,
)
from repro.distributed.atom import ADD_EDGE, ADD_VERTEX
from repro.errors import AtomFormatError, GraphStructureError, PartitionError
from repro.runtime.shard import CSRShardStore

from tests.helpers import grid_graph, ring_graph


class TestPartitioners:
    def test_hash_assignment_covers_all(self):
        g = ring_graph(20)
        a = random_hash_assignment(g, 4)
        assert set(a) == set(g.vertices())
        assert all(0 <= x < 4 for x in a.values())

    def test_hash_deterministic(self):
        g = ring_graph(20)
        assert random_hash_assignment(g, 4) == random_hash_assignment(g, 4)

    def test_bfs_balanced_and_low_cut(self):
        g = grid_graph(8, 8)
        bfs = bfs_assignment(g, 4)
        hashed = random_hash_assignment(g, 4)
        assert balance(bfs, 4) <= 1.2
        assert cut_edges(g, bfs) < cut_edges(g, hashed)

    def test_grid_assignment_contiguous(self):
        g = grid_graph(8, 4)
        a = grid_assignment(g, 4)
        assert balance(a, 4) <= 1.2
        # Row-major slabs: few cut edges.
        assert cut_edges(g, a) <= 3 * 4 + 4

    def test_stripe_is_worst_case(self):
        g = grid_graph(6, 6)
        stripe = stripe_assignment(g, 4)
        good = grid_assignment(g, 4)
        assert cut_edges(g, stripe) > 2 * cut_edges(g, good)

    def test_frame_assignment_blocks(self):
        g = grid_graph(8, 3)  # rows act as frames
        a = frame_assignment(g, 4, frame_fn=lambda v: v[0], num_frames=8)
        assert balance(a, 4) <= 1.2
        # vertices of the same frame stay together
        for v in g.vertices():
            for u in g.vertices():
                if v[0] == u[0]:
                    assert a[v] == a[u]

    def test_frame_assignment_validates(self):
        g = grid_graph(2, 2)
        with pytest.raises(PartitionError):
            frame_assignment(g, 2, frame_fn=lambda v: 99, num_frames=2)

    def test_k_validation(self):
        g = ring_graph(4)
        with pytest.raises(PartitionError):
            random_hash_assignment(g, 0)

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_every_partitioner_is_total(self, k):
        g = grid_graph(5, 5)
        for fn in (random_hash_assignment, bfs_assignment, grid_assignment):
            a = fn(g, k)
            assert set(a) == set(g.vertices())
            assert all(0 <= x < k for x in a.values())


class TestAtoms:
    def test_build_atoms_round_trip(self):
        g = ring_graph(12, vdata=2.0, edata=0.25)
        assignment = bfs_assignment(g, 3)
        atoms, index = build_atoms(g, assignment, 3)
        assert len(atoms) == 3
        total_owned = sum(len(a.owned_vertices) for a in atoms)
        assert total_owned == g.num_vertices
        total_edges = sum(
            1 for a in atoms for c in a.commands if c.op == ADD_EDGE
        )
        assert total_edges == g.num_edges

    def test_ghosts_cover_boundaries(self):
        g = ring_graph(10)
        assignment = {v: v % 2 for v in g.vertices()}
        atoms, _ = build_atoms(g, assignment, 2)
        # Alternating assignment: every vertex is a ghost of the other.
        assert len(atoms[0].ghost_vertices) == 5
        assert len(atoms[1].ghost_vertices) == 5

    def test_atom_encode_decode(self):
        g = ring_graph(6, vdata=1.5)
        atoms, _ = build_atoms(g, bfs_assignment(g, 2), 2)
        blob = atoms[0].encode()
        decoded = Atom.decode(blob)
        assert decoded.atom_id == atoms[0].atom_id
        assert decoded.owned_vertices == atoms[0].owned_vertices
        assert len(decoded.commands) == len(atoms[0].commands)
        assert decoded.commands[0].op == ADD_VERTEX

    def test_decode_rejects_garbage(self):
        with pytest.raises(AtomFormatError):
            Atom.decode(b"not an atom")

    def test_incomplete_assignment_rejected(self):
        g = ring_graph(4)
        with pytest.raises(PartitionError):
            build_atoms(g, {0: 0}, 2)

    def test_out_of_range_atom_rejected(self):
        g = ring_graph(3)
        with pytest.raises(PartitionError):
            build_atoms(g, {0: 0, 1: 5, 2: 0}, 2)

    def test_index_connectivity_counts_cut_edges(self):
        g = ring_graph(8)
        assignment = {v: v // 4 for v in g.vertices()}
        _, index = build_atoms(g, assignment, 2)
        assert index.connectivity.get((0, 1)) == 2  # the two seam edges

    def test_placement_balances(self):
        g = grid_graph(8, 8)
        atoms, index = build_atoms(g, bfs_assignment(g, 8), 8)
        placement = index.place(4)
        loads = [0] * 4
        for atom_id, machine in placement.items():
            loads[machine] += index.vertex_counts[atom_id]
        assert max(loads) <= 1.5 * (sum(loads) / 4)

    def test_placement_reusable_across_cluster_sizes(self):
        """Two-phase partitioning: one atom cut, any machine count."""
        g = grid_graph(6, 6)
        atoms, index = build_atoms(g, bfs_assignment(g, 8), 8)
        for machines in (1, 2, 4, 8):
            placement = index.place(machines)
            assert set(placement) == set(range(8))
            assert all(0 <= m < machines for m in placement.values())


def _stores(g, owner, num_machines):
    return {m: CSRShardStore(m, g, owner) for m in range(num_machines)}


class TestShardStoreGhosts:
    """The per-machine store's ghosts and per-key coherence wire, as the
    simulated engines use them (slot-level cases live in
    ``tests/test_runtime_engine.py::TestShardStore``)."""

    def _stores(self):
        g = ring_graph(8, vdata=1.0, edata=0.5)
        owner = {v: v % 2 for v in g.vertices()}
        return g, _stores(g, owner, 2)

    def test_owned_and_ghosts(self):
        g, stores = self._stores()
        assert sorted(stores[0].owned_vertices) == [0, 2, 4, 6]
        # Alternating ring: all opposite vertices are ghosts.
        assert stores[0].ghost_vertices == frozenset({1, 3, 5, 7})

    def test_reads_cover_scope(self):
        g, stores = self._stores()
        assert stores[0].vertex_data(0) == 1.0
        assert stores[0].vertex_data(1) == 1.0  # ghost copy
        assert stores[0].edge_data(0, 1) == 0.5

    def test_unknown_vertex_rejected(self):
        g = ring_graph(6)
        owner = {v: 0 if v < 3 else 1 for v in g.vertices()}
        stores = _stores(g, owner, 2)
        with pytest.raises(GraphStructureError):
            stores[0].vertex_data(99)
        # ring: 0-1-2 owned, ghosts 3 (nbr of 2) and 5 (nbr of 0); 4 is
        # in the graph but not held — reads are not checked (Scope's
        # adjacency checks are the guard), heldness is reported.
        assert stores[0].has_vertex(3)
        assert not stores[0].has_vertex(4)
        assert stores[0].version(vertex_key(4)) == -1
        assert not stores[0].apply_remote(vertex_key(4), 7.0, 1)

    def test_ghost_staleness_until_applied(self):
        g, stores = self._stores()
        stores[1].set_vertex_data(1, 7.0)  # owner writes
        assert stores[0].vertex_data(1) == 1.0  # ghost is stale
        pushes = stores[1].collect_dirty()
        for (key, value, version, _size) in pushes[0]:
            stores[0].apply_remote(key, value, version)
        assert stores[0].vertex_data(1) == 7.0

    def test_collect_dirty_targets_mirrors_only(self):
        g = ring_graph(8)
        owner = {v: v // 4 for v in g.vertices()}  # halves
        stores = _stores(g, owner, 2)
        stores[0].set_vertex_data(1, 3.0)  # interior: no mirrors
        assert stores[0].collect_dirty() == {}
        stores[0].set_vertex_data(0, 3.0)  # boundary: mirrored on 1
        pushes = stores[0].collect_dirty()
        assert set(pushes) == {1}

    def test_collect_dirty_clears(self):
        g, stores = self._stores()
        stores[0].set_vertex_data(0, 2.0)
        stores[0].collect_dirty()
        assert stores[0].dirty_count == 0
        assert stores[0].collect_dirty() == {}

    def test_edge_dirty_goes_to_other_endpoint_owner(self):
        g, stores = self._stores()
        stores[0].set_edge_data(0, 1, 0.9)
        pushes = stores[0].collect_dirty()
        assert set(pushes) == {1}
        (key, value, _v, _s) = pushes[1][0]
        assert key == edge_key(0, 1)
        assert value == 0.9


class TestDeploy:
    def test_deploy_builds_consistent_ownership(self):
        g = grid_graph(6, 6)
        dep = deploy(g, 3, partitioner="bfs", atoms_per_machine=2)
        assert set(dep.owner) == set(g.vertices())
        for m, store in dep.stores.items():
            for v in store.owned_vertices:
                assert dep.owner[v] == m

    def test_deploy_charges_ingress_time(self):
        g = grid_graph(6, 6)
        dep = deploy(g, 2, partitioner="grid")
        assert dep.ingress.load_seconds > 0
        assert dep.dfs.exists("atom/0")

    def test_skip_ingress_io_is_free(self):
        g = grid_graph(4, 4)
        dep = deploy(g, 2, partitioner="grid", skip_ingress_io=True)
        assert dep.ingress.load_seconds == 0.0
        assert dep.cluster.kernel.now == 0.0

    def test_unknown_partitioner(self):
        g = ring_graph(4)
        with pytest.raises(PartitionError):
            deploy(g, 2, partitioner="magic")

    def test_explicit_assignment_respected(self):
        g = ring_graph(8)
        assignment = {v: v % 4 for v in g.vertices()}
        dep = deploy(g, 2, assignment=assignment, atoms_per_machine=2)
        assert len(dep.atoms) == 4
