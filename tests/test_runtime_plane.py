"""Shared-memory data plane and the chromatic barrier schedule.

Tested against the one property that matters: **bit-identity to the
``SequentialEngine`` + ``ColorSweepScheduler`` oracle** —

* the data plane (shared columns + double-buffered dirty rings, or the
  inproc in-process emulation) must be semantically indistinguishable
  from the pickled ``FlatEntries`` wire, including ring overflow and
  the ``REPRO_NO_SHM`` fallback;
* the chromatic engine runs one barrier per nonempty color, so the
  round count is pinned exactly, and frontiers that touch across
  workers, skip colors or reschedule themselves stay bit-identical;
* shared segments must never leak into ``/dev/shm``, on any exit path.
"""

import os
import random

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
from repro.apps.pagerank import total_rank_sync_map
from repro.core.graph import DataGraph
from repro.errors import EngineError
from repro.runtime import (
    ColorSweepScheduler,
    MpTransport,
    RuntimeChromaticEngine,
    RuntimeLockingEngine,
    UpdateProgram,
    WorkerFailure,
    shm_available,
)
from repro.runtime import plane
from repro.runtime.plane import NO_SHM_ENV
from repro.runtime.worker_base import empty_inbox

from tests.helpers import grid_graph, ring_graph


needs_shm = pytest.mark.skipif(
    not shm_available(),
    reason="POSIX shared memory unavailable (or disabled via REPRO_NO_SHM)",
)


# ----------------------------------------------------------------------
# Update functions (module-level: they cross process boundaries).
# ----------------------------------------------------------------------
def flood_max(scope):
    best = scope.data
    for u in scope.neighbors:
        best = max(best, scope.neighbor(u))
    if best != scope.data:
        scope.data = best
        return [(u, best) for u in scope.neighbors]


def edge_accumulate(scope):
    """Edge-writing update (legal under EDGE/FULL)."""
    total = scope.data
    for (a, b) in scope.adjacent_edges():
        total += scope.edge(a, b)
    for (a, b) in scope.adjacent_edges():
        scope.set_edge(a, b, scope.edge(a, b) + 1.0)
    if total != scope.data:
        scope.data = total
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


def push_to_neighbors(scope):
    """FULL-consistency ghost-write update."""
    share = scope.data
    if share:
        for u in scope.neighbors:
            scope.set_neighbor(u, scope.neighbor(u) + share)
        scope.data = 0.0
        return list(scope.neighbors)
    return None


def decay_and_spread(scope):
    """Schedules neighbors only while energy remains — produces
    shrinking, wandering frontiers that leave colors empty."""
    value = scope.data
    if value >= 1.0:
        scope.data = value - 1.0
        return list(scope.neighbors)
    return None


def broken_factory():
    raise RuntimeError("factory exploded on purpose")


def remote_then_self_resched(scope):
    """Vertex 0 schedules remote vertex 2 (color 1) in the same sweep
    in which vertex 1 (color 1) reschedules itself: the self-scheduled
    vertex is both in its step's executed frontier and in its fresh
    schedules, and must stay scheduled for the color's next visit."""
    value = scope.data
    scope.data = value + 1.0
    if scope.vertex == 0 and value == 0.0:
        return [2]
    if scope.vertex == 1 and value < 2.0:
        return [1]
    return None


def typed_random_graph(num_vertices, num_edges, seed):
    """Seeded random digraph compiled onto float64 data columns."""
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
    return g.finalize(vertex_dtype=float, edge_dtype=float)


def smooth_and_stay(scope):
    """Average with the neighbors, stamp every adjacent edge, and always
    reschedule itself: every color is nonempty in every sweep."""
    total = scope.data
    for u in scope.neighbors:
        total += scope.neighbor(u)
    value = total / (1 + len(scope.neighbors))
    scope.data = value
    for (a, b) in scope.adjacent_edges():
        scope.set_edge(a, b, value)
    return [scope.vertex]


def typed_grid_graph(rows, cols):
    """4-connected grid on ``r * cols + c`` ids, float64 columns."""
    g = DataGraph()
    for r in range(rows):
        for c in range(cols):
            g.add_vertex(r * cols + c, data=float((7 * r + 3 * c) % 11))
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if r + 1 < rows:
                g.add_edge(v, v + cols, data=0.0)
            if c + 1 < cols:
                g.add_edge(v, v + 1, data=0.0)
    return g.finalize(vertex_dtype=float, edge_dtype=float)


def graph_values(graph):
    vdata = {v: graph.vertex_data(v) for v in graph.vertices()}
    edata = {key: graph.edge_data(*key) for key in graph.edges()}
    return vdata, edata


def run_oracle(graph, fn, coloring, consistency=Consistency.EDGE,
               max_updates=None):
    engine = SequentialEngine(
        graph,
        fn,
        consistency=consistency,
        scheduler=ColorSweepScheduler(coloring),
        max_updates=max_updates,
        use_kernel=False,
    )
    return engine.run(initial=graph.vertices())


# ----------------------------------------------------------------------
# Bit-identity of the plane (the load-bearing property).
# ----------------------------------------------------------------------
class TestPlaneEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_typed_inproc_matches_oracle(self, workers):
        g = typed_random_graph(18, 40, seed=11)
        coloring = greedy_coloring(g)
        g1, g2 = g.copy(), g.copy()
        r1 = run_oracle(g1, flood_max, coloring)
        engine = RuntimeChromaticEngine(
            g2, flood_max, num_workers=workers, transport="inproc",
            coloring=coloring,
        )
        r2 = engine.run(initial=g2.vertices())
        assert engine._plane is not None  # the plane really was active
        assert r2.data_plane == "local"
        assert r1.updates_per_vertex == r2.updates_per_vertex
        assert graph_values(g1) == graph_values(g2)

    @needs_shm
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_typed_mp_matches_oracle(self, workers):
        g = typed_random_graph(16, 36, seed=3)
        coloring = greedy_coloring(g)
        g1, g2 = g.copy(), g.copy()
        r1 = run_oracle(g1, flood_max, coloring)
        r2 = RuntimeChromaticEngine(
            g2, flood_max, num_workers=workers, transport="mp",
            coloring=coloring,
        ).run(initial=g2.vertices())
        assert r2.data_plane == "shm"
        assert r1.updates_per_vertex == r2.updates_per_vertex
        assert graph_values(g1) == graph_values(g2)

    @given(
        seed=st.integers(0, 10_000),
        num_workers=st.integers(1, 4),
        model=st.sampled_from(
            [Consistency.VERTEX, Consistency.EDGE, Consistency.FULL]
        ),
    )
    @settings(max_examples=15, deadline=None)
    def test_bit_identical_across_models(self, seed, num_workers, model):
        """Plane vs the oracle, across every model.

        Mirrors the runtime engine's property test but on typed columns
        (plane active). Caps may bind mid-sweep on the runtime side, in
        which case the oracle replayed to the same executed count must
        agree.
        """
        rng = random.Random(seed)
        n = rng.randrange(5, 16)
        g = typed_random_graph(n, num_edges=2 * n, seed=seed)
        coloring = (
            second_order_coloring(g)
            if model is Consistency.FULL
            else greedy_coloring(g)
        )
        fn = (
            vertex_only_max
            if model is Consistency.VERTEX
            else (push_to_neighbors if model is Consistency.FULL
                  else edge_accumulate)
        )
        cap = 4 * n
        g1, g2 = g.copy(), g.copy()
        r1 = run_oracle(g1, fn, coloring, consistency=model, max_updates=cap)
        r2 = RuntimeChromaticEngine(
            g2,
            fn,
            num_workers=num_workers,
            transport="inproc",
            consistency=model,
            coloring=coloring,
            partitioner="hash",
            max_updates=cap,
        ).run(initial=g2.vertices())
        if r1.converged and r2.converged:
            assert r1.updates_per_vertex == r2.updates_per_vertex
            assert graph_values(g1) == graph_values(g2)
        else:
            g3 = g.copy()
            run_oracle(
                g3, fn, coloring, consistency=model,
                max_updates=r2.num_updates,
            )
            assert graph_values(g3) == graph_values(g2)

    def test_ring_overflow_falls_back_to_pipe(self, monkeypatch):
        """A 1-entry ring forces the overflow contract every round, on
        both engines."""
        g = typed_random_graph(14, 30, seed=9)
        coloring = greedy_coloring(g)
        g1, g2 = g.copy(), g.copy()
        r1 = run_oracle(g1, flood_max, coloring)
        wide = {}
        for engine_cls, kwargs in (
            (RuntimeChromaticEngine, {"coloring": coloring}),
            (RuntimeLockingEngine, {}),
        ):
            copy = g.copy()
            wide[engine_cls] = engine_cls(
                copy, flood_max, num_workers=3, transport="inproc", **kwargs
            ).run(initial=copy.vertices())
        monkeypatch.setattr(plane, "DEFAULT_RING_CAP", 1)
        r2 = RuntimeChromaticEngine(
            g2, flood_max, num_workers=3, transport="inproc",
            coloring=coloring,
        ).run(initial=g2.vertices())
        assert r1.updates_per_vertex == r2.updates_per_vertex
        assert graph_values(g1) == graph_values(g2)
        assert r2.bytes_on_pipe > wide[RuntimeChromaticEngine].bytes_on_pipe
        g3 = g.copy()
        r3 = RuntimeLockingEngine(
            g3, flood_max, num_workers=3, transport="inproc"
        ).run(initial=g3.vertices())
        assert r3.converged
        assert graph_values(g3) == graph_values(g1)
        assert r3.bytes_on_pipe > wide[RuntimeLockingEngine].bytes_on_pipe

    def test_plane_off_matches_plane_on(self):
        g = typed_random_graph(15, 32, seed=21)
        coloring = greedy_coloring(g)
        results = {}
        for use_plane in (False, True):
            copy = g.copy()
            engine = RuntimeChromaticEngine(
                copy, flood_max, num_workers=2, transport="inproc",
                coloring=coloring, use_plane=use_plane,
            )
            run = engine.run(initial=copy.vertices())
            results[use_plane] = (run.updates_per_vertex, graph_values(copy))
            if not use_plane:
                assert engine._plane is None and run.data_plane is None
        assert results[False] == results[True]

    def test_plane_shrinks_pipe_bytes(self):
        """The point of the plane, measured: same run, fewer pipe bytes."""
        g = typed_random_graph(60, 200, seed=5)
        coloring = greedy_coloring(g)
        byte_counts = {}
        for use_plane in (False, True):
            copy = g.copy()
            run = RuntimeChromaticEngine(
                copy, flood_max, num_workers=3, transport="inproc",
                coloring=coloring, use_plane=use_plane,
            ).run(initial=copy.vertices())
            byte_counts[use_plane] = run.bytes_on_pipe
        assert byte_counts[True] < byte_counts[False]

    def test_untyped_graph_gets_no_plane(self):
        g = grid_graph(4, 4)
        engine = RuntimeChromaticEngine(
            g, flood_max, num_workers=2, transport="inproc",
        )
        run = engine.run(initial=g.vertices())
        assert engine._plane is None and run.data_plane is None

    def test_vertex_only_typed_columns(self):
        """Partial plane: typed vertex column, object edge data."""
        rng = random.Random(4)
        g = DataGraph()
        for i in range(10):
            g.add_vertex(i, data=float(rng.randrange(5)))
        for i in range(10):
            g.add_edge(i, (i + 3) % 10)
        g.finalize(vertex_dtype=float)
        coloring = greedy_coloring(g)
        g1, g2 = g.copy(), g.copy()
        r1 = run_oracle(g1, vertex_only_max, coloring)
        engine = RuntimeChromaticEngine(
            g2, vertex_only_max, num_workers=2, transport="inproc",
            coloring=coloring,
        )
        r2 = engine.run(initial=g2.vertices())
        assert engine._plane is not None
        assert engine._plane.spec.has_v and not engine._plane.spec.has_e
        assert r1.updates_per_vertex == r2.updates_per_vertex
        assert graph_values(g1) == graph_values(g2)


# ----------------------------------------------------------------------
# One barrier per nonempty color.
# ----------------------------------------------------------------------
def _alternating_ring():
    """Every edge crosses workers and the two colors always touch."""
    g = ring_graph(8)
    g.set_vertex_data(0, 9.0)
    alternate = {v: i % 2 for i, v in enumerate(g.vertices())}
    kwargs = {"num_workers": 2, "assignment": alternate}
    return g, flood_max, alternate, list(g.vertices()), kwargs


def _one_worker_random():
    """One worker: nothing is cross-worker."""
    g = typed_random_graph(20, 50, seed=13)
    return g, flood_max, greedy_coloring(g), list(g.vertices()), {
        "num_workers": 1
    }


def _path_colors_0_and_2():
    """Only colors 0 and 2 of a 3-colored path start scheduled; the
    updates schedule the color-1 vertices between them mid-sweep."""
    g = DataGraph()
    for i in range(9):
        g.add_vertex(i, data=float(9 - i))
    for i in range(8):
        g.add_edge(i, i + 1)
    g.finalize()
    coloring = {i: i % 3 for i in range(9)}
    initial = [i for i in range(9) if i % 3 != 1]
    return g, flood_max, coloring, initial, {"num_workers": 1}


def _no_edge_self_resched():
    """No edges; vertex 2 is remote to vertex 0's worker."""
    g = DataGraph()
    for i in range(3):
        g.add_vertex(i, data=0.0)
    g.finalize()
    coloring = {0: 0, 1: 1, 2: 1}
    kwargs = {"num_workers": 2, "assignment": {0: 0, 1: 1, 2: 1}}
    return g, remote_then_self_resched, coloring, [0, 1], kwargs


FIXED_CASES = {
    "alternating_ring": _alternating_ring,
    "one_worker_random": _one_worker_random,
    "path_colors_0_and_2": _path_colors_0_and_2,
    "no_edge_self_resched": _no_edge_self_resched,
}


class TestOneBarrierPerColor:
    @pytest.mark.parametrize("transport", ["inproc", "mp"])
    def test_round_count_is_one_per_nonempty_color(self, transport):
        """A 4-colored grid whose every vertex reschedules itself: each
        sweep runs all four colors, each in its own barrier, and the run
        ends with one collect round."""
        g = typed_grid_graph(6, 6)
        coloring = {v: 2 * ((v // 6) % 2) + v % 2 for v in g.vertices()}
        sweeps = 3
        g1, g2 = g.copy(), g.copy()
        run_oracle(g1, smooth_and_stay, coloring, max_updates=sweeps * 36)
        result = RuntimeChromaticEngine(
            g2, smooth_and_stay, num_workers=2, transport=transport,
            coloring=coloring, max_sweeps=sweeps,
        ).run(initial=g2.vertices())
        assert result.sweeps == sweeps
        assert result.rounds == sweeps * 4 + 1
        assert graph_values(g1) == graph_values(g2)

    @pytest.mark.parametrize("case", sorted(FIXED_CASES))
    def test_fixed_frontiers_match_oracle(self, case):
        g, fn, coloring, initial, kwargs = FIXED_CASES[case]()
        g1, g2 = g.copy(), g.copy()
        r1 = SequentialEngine(
            g1, fn, scheduler=ColorSweepScheduler(coloring), use_kernel=False,
        ).run(initial=list(initial))
        r2 = RuntimeChromaticEngine(
            g2, fn, transport="inproc", coloring=coloring, **kwargs
        ).run(initial=list(initial))
        assert r1.num_updates == r2.num_updates
        assert r1.updates_per_vertex == r2.updates_per_vertex
        assert graph_values(g1) == graph_values(g2)

    @given(seed=st.integers(0, 10_000), num_workers=st.integers(1, 4))
    @settings(max_examples=10, deadline=None)
    def test_dynamic_frontiers_bit_identical(self, seed, num_workers):
        """Shrinking, wandering frontiers leave colors empty mid-run;
        eliding their steps must not change any result."""
        rng = random.Random(seed)
        n = rng.randrange(6, 20)
        g = typed_random_graph(n, num_edges=2 * n, seed=seed)
        g.set_vertex_data(rng.randrange(n), float(3 * n))
        coloring = greedy_coloring(g)
        g1, g2 = g.copy(), g.copy()
        r1 = run_oracle(g1, decay_and_spread, coloring)
        r2 = RuntimeChromaticEngine(
            g2, decay_and_spread, num_workers=num_workers,
            transport="inproc", coloring=coloring,
        ).run(initial=g2.vertices())
        assert r1.num_updates == r2.num_updates
        assert r1.updates_per_vertex == r2.updates_per_vertex
        assert graph_values(g1) == graph_values(g2)

    def test_idle_pump_sends_no_round(self):
        """An empty task set is free to pump, even with a sync
        configured; the first scheduled task brings rounds back."""
        g = typed_random_graph(12, 24, seed=4)
        engine = RuntimeChromaticEngine(
            g, flood_max, num_workers=2, transport="inproc",
            coloring=greedy_coloring(g),
            syncs=[sum_sync("total", map_fn=total_rank_sync_map)],
        )
        engine.open_service(initial=())
        try:
            before = engine.transport.rounds_completed
            for _ in range(5):
                assert engine.service_pump_round()
            assert engine.transport.rounds_completed == before
            engine.service_schedule([0])
            assert engine.service_pump_round()
            assert engine.transport.rounds_completed > before
        finally:
            result = engine.close_service()
        assert result.converged


# ----------------------------------------------------------------------
# Lifecycle: worker death, shm cleanup, REPRO_NO_SHM fallback.
# ----------------------------------------------------------------------
def _repro_segments():
    try:
        return {
            name for name in os.listdir("/dev/shm")
            if name.startswith("repro-plane-")
        }
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


class TestLifecycle:
    @needs_shm
    def test_worker_death_is_diagnosed_not_hung(self):
        """Kill a worker mid-run: the next round must raise a
        WorkerFailure naming the worker and its last command, shutdown
        must return promptly, and the shm segments must be unlinked."""
        g = typed_random_graph(12, 24, seed=2)
        transport = MpTransport(2, reply_timeout=10.0)
        engine = RuntimeChromaticEngine(
            g, flood_max, num_workers=2, transport=transport,
            coloring=greedy_coloring(g),
        )
        engine._provision_plane()
        names = set(engine._plane.spec.names)
        transport.launch(engine._encoded_inits())
        assert _repro_segments() >= {n.lstrip("/") for n in names}
        transport._procs[0].terminate()
        transport._procs[0].join(timeout=5.0)
        with pytest.raises(WorkerFailure) as info:
            transport.round(
                [("sync_count", {"inbox": empty_inbox()})] * 2
            )
        message = str(info.value)
        assert "worker 0" in message
        assert "sync_count" in message
        transport.shutdown()  # must not block on the dead pipe
        assert not (_repro_segments() & {n.lstrip("/") for n in names})

    @needs_shm
    def test_shm_cleaned_after_successful_run(self):
        g = typed_random_graph(12, 24, seed=6)
        engine = RuntimeChromaticEngine(
            g, flood_max, num_workers=2, transport="mp",
            coloring=greedy_coloring(g),
        )
        engine.run(initial=g.vertices())
        spec = engine._plane.spec
        assert spec.kind == "shm"
        assert not (
            _repro_segments() & {n.lstrip("/") for n in spec.names}
        )

    @needs_shm
    def test_shm_cleaned_when_launch_fails(self):
        g = typed_random_graph(10, 20, seed=8)
        engine = RuntimeChromaticEngine(
            g, UpdateProgram(broken_factory), num_workers=2,
            transport="mp", coloring=greedy_coloring(g),
        )
        with pytest.raises((WorkerFailure, EngineError)):
            engine.run(initial=g.vertices())
        spec = engine._plane.spec
        assert not (
            _repro_segments() & {n.lstrip("/") for n in spec.names}
        )

    def test_no_shm_env_forces_pipe_wire(self, monkeypatch):
        monkeypatch.setenv(NO_SHM_ENV, "1")
        assert not shm_available()
        g = typed_random_graph(12, 24, seed=12)
        coloring = greedy_coloring(g)
        g1, g2 = g.copy(), g.copy()
        r1 = run_oracle(g1, flood_max, coloring)
        engine = RuntimeChromaticEngine(
            g2, flood_max, num_workers=2, transport="mp",
            coloring=coloring,
        )
        r2 = engine.run(initial=g2.vertices())
        assert engine._plane is None and r2.data_plane is None
        assert r1.updates_per_vertex == r2.updates_per_vertex
        assert graph_values(g1) == graph_values(g2)

    def test_counters_are_recorded(self):
        g = typed_random_graph(12, 24, seed=14)
        run = RuntimeChromaticEngine(
            g, flood_max, num_workers=2, transport="inproc",
            coloring=greedy_coloring(g),
        ).run(initial=g.vertices())
        assert run.rounds > 0
        assert run.bytes_on_pipe > 0
        assert run.rounds_per_sweep > 0
