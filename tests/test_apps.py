"""Tests for the applications: PageRank, ALS, LBP, GMM/CoSeg, CoEM."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    exact_pagerank,
    initialize_factors,
    initialize_gmm,
    initialize_ranks,
    jacobi_pagerank_sweep,
    l1_error,
    labeling_accuracy,
    make_als_update,
    make_coem_update,
    make_lbp_update,
    make_pagerank_update,
    map_labels,
    phrase_labels,
    potts_potential,
    prepare_coseg,
    segmentation_accuracy,
    segmentation_labels,
    synchronous_lbp_sweep,
    test_rmse,
    top_words_per_type,
    total_residual,
    training_rmse,
)
from repro.apps.lbp import get_message, init_lbp_data, set_message
from repro.core import Consistency, DataGraph, Scope, SequentialEngine
from repro.core.consistency import edge_key
from repro.datasets import (
    grid_2d,
    mesh_3d,
    power_law_web_graph,
    synthetic_ner,
    synthetic_netflix,
    synthetic_video,
)
from repro.errors import ConsistencyError
from repro.runtime.shard import CSRShardStore


def loop_als_update(d, regularization=0.05, epsilon=0.01):
    """The scalar-loop ALS update: per neighbor, three scope reads, one
    ``np.outer`` and two ``+=`` — the oracle the one-pass update must
    equal bit for bit."""

    def rating(scope, u):
        v = scope.vertex
        if scope.graph.has_edge(v, u):
            return scope.edge(v, u)
        return scope.edge(u, v)

    def update(scope):
        neighbors = scope.neighbors
        if not neighbors:
            return None
        xtx = regularization * len(neighbors) * np.eye(d)
        xty = np.zeros(d)
        for u in neighbors:
            factor = scope.neighbor(u)
            xtx += np.outer(factor, factor)
            xty += rating(scope, u) * factor
        new_factor = np.linalg.solve(xtx, xty)
        old_factor = scope.data
        scope.data = new_factor
        change = float(np.abs(new_factor - old_factor).mean())
        if change > epsilon:
            return [(u, change) for u in neighbors]
        return None

    return update


def random_ratings_graph(seed, d, bipartite):
    """Random rating graph with isolated vertices: user -> movie edges
    only when ``bipartite``, else any direction, reciprocal pairs
    included (each direction with its own rating)."""
    rng = random.Random(seed)
    factors = np.random.default_rng(seed)
    g = DataGraph()
    n = rng.randrange(4, 16)
    for i in range(n):
        g.add_vertex(i, data=0.5 * factors.standard_normal(d))
    edges = set()
    for _ in range(rng.randrange(0, 3 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if bipartite:
            a, b = a - a % 2, b | 1  # even users rate odd movies
        if a != b and (a, b) not in edges and b < n:
            edges.add((a, b))
            g.add_edge(a, b, data=float(rng.randrange(1, 6)))
    if not bipartite:
        for a, b in sorted(edges)[: len(edges) // 3]:
            if (b, a) not in edges:
                edges.add((b, a))
                g.add_edge(b, a, data=float(rng.randrange(1, 6)))
    return g.finalize()


def _als_scopes(graph, kind):
    """``(scope, vertex_data)`` over one path: the compiled graph, a
    ``CSRShardStore`` holding everything, or the recording path (over
    the compiled graph or the shard)."""
    if kind.startswith("shard"):
        store = CSRShardStore(0, graph, {v: 0 for v in graph.vertices()})
        scope = Scope(graph, None, store=store, record=kind.endswith("rec"))
        return scope, store.vertex_data
    scope = Scope(graph, None, record=kind.endswith("rec"))
    return scope, graph.vertex_data


class TestPageRank:
    def test_converges_to_exact(self):
        g = power_law_web_graph(150, seed=1)
        truth = exact_pagerank(g)
        update = make_pagerank_update(epsilon=1e-7)
        SequentialEngine(g, update, scheduler="priority").run(
            initial=g.vertices()
        )
        assert l1_error(g, truth) < 1e-3

    def test_ranks_sum_to_one(self):
        g = power_law_web_graph(100, seed=2)
        truth = exact_pagerank(g)
        assert sum(truth.values()) == pytest.approx(1.0, abs=1e-6)

    def test_update_respects_edge_consistency(self):
        """PageRank needs only reads of neighbors: runs under EDGE."""
        g = power_law_web_graph(30, seed=3)
        update = make_pagerank_update()
        scope = Scope(g, 0, model=Consistency.EDGE)
        update(scope)  # must not raise ConsistencyError

    def test_jacobi_sweep_reduces_error(self):
        g = power_law_web_graph(100, seed=4)
        truth = exact_pagerank(g)
        initialize_ranks(g)
        before = l1_error(g, truth)
        jacobi_pagerank_sweep(g)
        assert l1_error(g, truth) < before

    def test_schedule_policy_validation(self):
        with pytest.raises(ValueError):
            make_pagerank_update(schedule="sideways")

    def test_initialize_ranks(self):
        g = power_law_web_graph(10, seed=5)
        initialize_ranks(g, value=0.5)
        assert all(g.vertex_data(v) == 0.5 for v in g.vertices())


class TestALS:
    def test_recovers_planted_structure(self):
        data = synthetic_netflix(num_users=100, num_movies=40, seed=6)
        initialize_factors(data.graph, 4, seed=1)
        update = make_als_update(d=4, epsilon=1e-3)
        SequentialEngine(
            data.graph, update, scheduler="priority", max_updates=4000
        ).run(initial=data.graph.vertices())
        # Training error near the noise floor; test error close behind.
        assert training_rmse(data.graph) < 0.2
        assert test_rmse(data.graph, data.test_ratings) < 0.45

    def test_static_update_never_schedules(self):
        data = synthetic_netflix(num_users=20, num_movies=10, seed=7)
        initialize_factors(data.graph, 3, seed=2)
        update = make_als_update(d=3, dynamic=False)
        result = SequentialEngine(data.graph, update).run(
            initial=data.graph.vertices()
        )
        assert result.num_updates == data.graph.num_vertices

    @given(
        seed=st.integers(0, 10_000),
        d=st.sampled_from([1, 3, 5]),
        bipartite=st.booleans(),
        kind=st.sampled_from(["graph", "graph-rec", "shard", "shard-rec"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_one_pass_equals_scalar_loop(self, seed, d, bipartite, kind):
        """Same factors bit for bit, same schedules and — where no
        neighbor is joined both ways — the same read sets as the
        scalar loop; a reciprocal neighbor adds only its in-edge read."""
        graph = random_ratings_graph(seed, d, bipartite)
        oracle_graph = graph.copy()
        scope, values = _als_scopes(graph, kind)
        oracle_scope, oracle_values = _als_scopes(oracle_graph, kind)
        update = make_als_update(d, epsilon=1e-3)
        oracle = loop_als_update(d, epsilon=1e-3)
        order = list(graph.vertices())
        random.Random(seed).shuffle(order)
        for v in order * 2:
            assert update(scope.rebind(v)) == oracle(oracle_scope.rebind(v))
            if kind.endswith("rec"):
                reciprocal = {
                    edge_key(u, v)
                    for u in graph.in_neighbors(v)
                    if graph.has_edge(v, u)
                }
                assert scope.reads == oracle_scope.reads | reciprocal
        for v in graph.vertices():
            assert np.array_equal(values(v), oracle_values(v))

    def test_bipartite_two_colorable(self):
        from repro.core import bipartite_coloring, num_colors

        data = synthetic_netflix(num_users=30, num_movies=10, seed=8)
        colors = bipartite_coloring(data.graph, side_fn=data.side_fn)
        assert num_colors(colors) == 2

    def test_deterministic_generation(self):
        a = synthetic_netflix(num_users=20, num_movies=8, seed=9)
        b = synthetic_netflix(num_users=20, num_movies=8, seed=9)
        assert a.graph.num_edges == b.graph.num_edges
        assert a.test_ratings == b.test_ratings


class TestLBP:
    def test_messages_normalized_and_positive(self):
        g, psi = grid_2d(5, 5, num_labels=3, seed=10)
        update = make_lbp_update(psi, epsilon=1e-4)
        SequentialEngine(g, update, scheduler="fifo", max_updates=500).run(
            initial=g.vertices()
        )
        for (u, w) in g.edges():
            fwd, bwd = g.edge_data(u, w)
            assert fwd.sum() == pytest.approx(1.0)
            assert bwd.sum() == pytest.approx(1.0)
            assert (fwd > 0).all() and (bwd > 0).all()

    def test_converges_to_low_residual(self):
        g, psi = grid_2d(6, 6, num_labels=2, seed=11)
        update = make_lbp_update(psi, epsilon=1e-5)
        result = SequentialEngine(
            g, update, scheduler="priority", max_updates=20000
        ).run(initial=g.vertices())
        assert result.converged
        assert total_residual(g, psi) < 1e-4

    def test_strong_unary_wins_map_labels(self):
        g, psi = grid_2d(4, 4, num_labels=2, seed=12, unary_strength=4.0)
        update = make_lbp_update(psi, epsilon=1e-5)
        SequentialEngine(
            g, update, scheduler="priority", max_updates=20000
        ).run(initial=g.vertices())
        labels = map_labels(g)
        for v in g.vertices():
            unary = g.vertex_data(v)["unary"]
            if unary.max() / unary.min() > 50:  # decisive evidence
                assert labels[v] == int(np.argmax(unary))

    def test_fifo_run_is_deterministic(self):
        g1, psi = grid_2d(6, 6, num_labels=3, seed=3)
        g2, _ = grid_2d(6, 6, num_labels=3, seed=3)
        update = make_lbp_update(psi, epsilon=1e-3)
        r1, r2 = (
            SequentialEngine(g, update, scheduler="fifo", max_updates=800).run(
                initial=g.vertices()
            )
            for g in (g1, g2)
        )
        assert r1.num_updates == r2.num_updates
        assert r1.updates_per_vertex == r2.updates_per_vertex
        for (u, w) in g1.edges():
            for m1, m2 in zip(g1.edge_data(u, w), g2.edge_data(u, w)):
                assert np.array_equal(m1, m2)

    def test_sync_sweep_matches_message_semantics(self):
        g, psi = grid_2d(3, 3, num_labels=2, seed=13)
        r1 = synchronous_lbp_sweep(g, psi)
        r2 = synchronous_lbp_sweep(g, psi)
        assert r2 <= r1 + 1e-9  # contraction on this attractive model

    def test_get_set_message_both_directions(self):
        g, psi = grid_2d(2, 2, num_labels=2, seed=14)
        scope = Scope(g, (0, 0), model=Consistency.EDGE)
        msg = np.array([0.9, 0.1])
        set_message(scope, (0, 0), (0, 1), msg)
        got = get_message(scope, (0, 0), (0, 1))
        assert np.allclose(got, msg)
        # And the reverse direction is stored independently.
        rev = get_message(scope, (0, 1), (0, 0))
        assert np.allclose(rev, np.array([0.5, 0.5]))

    def test_mesh_3d_shapes(self):
        g, psi = mesh_3d(3, connectivity=6, seed=15)
        assert g.num_vertices == 27
        center_degree = g.degree((1, 1, 1))
        assert center_degree == 6
        g26, _ = mesh_3d(3, connectivity=26, seed=15)
        assert g26.degree((1, 1, 1)) == 26

    def test_mesh_validation(self):
        with pytest.raises(ValueError):
            mesh_3d(1)
        with pytest.raises(ValueError):
            mesh_3d(3, connectivity=8)


class TestGMMCoSeg:
    def test_gmm_separates_planted_clusters(self):
        rng = np.random.default_rng(0)
        cluster_a = rng.normal(0.0, 0.1, size=(50, 3))
        cluster_b = rng.normal(5.0, 0.1, size=(50, 3))
        gmm = initialize_gmm(list(cluster_a) + list(cluster_b), 2, seed=1)
        una = gmm.unary(np.zeros(3))
        unb = gmm.unary(np.full(3, 5.0))
        assert int(np.argmax(una)) != int(np.argmax(unb))

    def test_coseg_end_to_end_accuracy(self):
        video = synthetic_video(frames=4, rows=8, cols=12, num_labels=3, seed=5)
        setup = prepare_coseg(
            video, seed=5, sync_interval_updates=video.graph.num_vertices
        )
        engine = SequentialEngine(
            video.graph,
            setup["update_fn"],
            scheduler="priority",
            syncs=[setup["sync"]],
            initial_globals=setup["initial_globals"],
            max_updates=30000,
        )
        engine.run(initial=video.graph.vertices())
        labels = segmentation_labels(video.graph)
        acc = segmentation_accuracy(labels, video.truth, video.num_labels)
        assert acc > 0.9

    def test_accuracy_is_permutation_invariant(self):
        truth = {0: 0, 1: 1, 2: 2}
        labels = {0: 2, 1: 0, 2: 1}  # a pure relabeling
        assert segmentation_accuracy(labels, truth, 3) == 1.0

    def test_accuracy_label_limit(self):
        with pytest.raises(ValueError):
            segmentation_accuracy({0: 0}, {0: 0}, 10)

    def test_features_preserved_through_updates(self):
        video = synthetic_video(frames=2, rows=4, cols=4, num_labels=2, seed=6)
        setup = prepare_coseg(video, seed=6)
        engine = SequentialEngine(
            video.graph,
            setup["update_fn"],
            initial_globals=setup["initial_globals"],
            max_updates=50,
        )
        engine.run(initial=video.graph.vertices())
        v = next(iter(video.graph.vertices()))
        assert "features" in video.graph.vertex_data(v)


class TestCoEM:
    def test_high_accuracy_with_seeds(self):
        data = synthetic_ner(phrases_per_type=15, num_contexts=50, seed=3)
        update = make_coem_update(data.seeds)
        result = SequentialEngine(
            data.graph, update, scheduler="fifo", max_updates=100000
        ).run(initial=data.graph.vertices())
        assert result.converged
        labels = phrase_labels(data.graph)
        assert labeling_accuracy(labels, data.truth) > 0.85

    def test_seeds_stay_clamped(self):
        data = synthetic_ner(phrases_per_type=10, num_contexts=30, seed=4)
        update = make_coem_update(data.seeds)
        SequentialEngine(
            data.graph, update, max_updates=5000
        ).run(initial=data.graph.vertices())
        for seed_vertex, seed_type in data.seeds.items():
            dist = data.graph.vertex_data(seed_vertex)
            assert dist[seed_type] == 1.0

    def test_distributions_normalized(self):
        data = synthetic_ner(phrases_per_type=8, num_contexts=24, seed=5)
        update = make_coem_update(data.seeds)
        SequentialEngine(
            data.graph, update, max_updates=3000
        ).run(initial=data.graph.vertices())
        for v in data.graph.vertices():
            assert data.graph.vertex_data(v).sum() == pytest.approx(1.0)

    def test_top_words_structure(self):
        data = synthetic_ner(phrases_per_type=10, num_contexts=30, seed=6)
        top = top_words_per_type(data.graph, data.types, k=3)
        assert set(top) == set(data.types)
        for words in top.values():
            assert len(words) == 3
            assert all(isinstance(w, str) for (w, _s) in words)
