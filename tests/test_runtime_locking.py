"""Runtime pipelined locking engine: sequential consistency on real
processes (ISSUE 5, paper Sec. 4.2.2).

The contract under test is **serializability**, not bit-identity: the
distributed readers-writer locks must guarantee every run is equivalent
to some serial schedule of the executed updates. Three layers of
checks:

* **write-set disjointness** — no two scopes executing concurrently
  (same round, different workers) may intersect write sets, under every
  consistency model including VERTEX (whose racy neighbor *reads* are
  allowed by design, Fig. 1d);
* **conflict-serializability + serial replay** — under EDGE/FULL, no
  concurrent pair may conflict at all (W ∩ (R ∪ W)), and replaying the
  recorded executions in commit order ``(round, worker, position)`` on
  a single-threaded graph must land on the *identical* final values —
  the end-to-end proof that grants never outrun the ghost data they
  were serialized against;
* **fixed-point equivalence** — deterministic workloads reach the
  sequential oracle's fixed point at any worker count, and a
  single-worker run reproduces ``SequentialEngine``'s FIFO execution
  bit for bit (same values, same per-vertex histogram).

The same suite runs again under ``REPRO_NO_SHM=1`` in CI, pinning the
pickled pipe wire instead of the shared-memory plane.
"""

import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.als import (
    als_program,
    initialize_factors,
    make_als_update,
    training_rmse,
)
from repro.apps.pagerank import exact_pagerank, l1_error, make_pagerank_update
from repro.core import Consistency, SequentialEngine
from repro.core.consistency import LockKind, read_set, write_set
from repro.core.graph import DataGraph
from repro.core.scope import Scope
from repro.datasets.netflix import synthetic_netflix
from repro.datasets.webgraph import power_law_web_graph
from repro.distributed.consensus import misra_visit
from repro.distributed.locks import RWQueueCore, build_lock_chain, compile_chain
from repro.errors import EngineError, SimulationError
from repro.obs import format_report, summarize, write_jsonl
from repro.obs.__main__ import main as obs_cli
from repro.runtime import (
    RuntimeLockingEngine,
    UpdateProgram,
    named_program,
)
from repro.runtime.locking_worker import LockingWorker, LockWorkerInit

from tests.helpers import grid_graph, ring_graph


# ----------------------------------------------------------------------
# Module-level update functions (must pickle by reference for mp).
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


def trigger_countdown(scope):
    """Trigger vertex hands off to a countdown vertex that then
    self-schedules many purely-local executions (no routed messages)."""
    if scope.vertex == "t":
        return ["c"]
    if scope.data > 0:
        scope.data = scope.data - 1.0
        return [scope.vertex]
    return None


def push_to_neighbors(scope):
    """FULL-consistency ghost writes (remote-owned neighbor data)."""
    share = scope.data
    if share:
        for u in scope.neighbors:
            scope.set_neighbor(u, scope.neighbor(u) + share)
        scope.data = 0.0
        return list(scope.neighbors)
    return None


def graph_values(graph):
    vdata = {v: graph.vertex_data(v) for v in graph.vertices()}
    edata = {(a, b): graph.edge_data(a, b) for (a, b) in graph.edges()}
    return vdata, edata


def random_graph(num_vertices, num_edges, seed, typed=False):
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


# ----------------------------------------------------------------------
# Shared extraction: the pure lock core and the consensus token.
# ----------------------------------------------------------------------
class TestRWQueueCore:
    def test_writer_is_exclusive_and_fifo(self):
        core = RWQueueCore([1])
        assert core.request(1, LockKind.WRITE, "w1")
        assert not core.request(1, LockKind.READ, "r1")
        assert not core.request(1, LockKind.WRITE, "w2")
        assert core.holders(1) == (0, True)
        # Release grants strictly FIFO: the queued reader first.
        assert core.release(1, LockKind.WRITE) == ["r1"]
        assert core.holders(1) == (1, False)
        assert core.release(1, LockKind.READ) == ["w2"]

    def test_reader_never_overtakes_queued_writer(self):
        core = RWQueueCore(["v"])
        assert core.request("v", LockKind.READ, "r1")
        assert not core.request("v", LockKind.WRITE, "w")
        # A late reader queues behind the writer (no starvation).
        assert not core.request("v", LockKind.READ, "r2")
        assert core.release("v", LockKind.READ) == ["w"]
        assert core.release("v", LockKind.WRITE) == ["r2"]

    def test_consecutive_readers_grant_together(self):
        core = RWQueueCore(["v"])
        assert core.request("v", LockKind.WRITE, "w")
        assert not core.request("v", LockKind.READ, "r1")
        assert not core.request("v", LockKind.READ, "r2")
        assert core.release("v", LockKind.WRITE) == ["r1", "r2"]

    def test_release_without_hold_raises(self):
        core = RWQueueCore(["v"])
        with pytest.raises(SimulationError):
            core.release("v", LockKind.WRITE)
        with pytest.raises(SimulationError):
            core.release("v", LockKind.READ)

    def test_unowned_key_raises(self):
        core = RWQueueCore(["v"])
        with pytest.raises(SimulationError):
            core.request("other", LockKind.READ, "t")


class DequeLockTable:
    """Reference model: the deque-per-key ``RWQueueCore`` that the
    int-per-key table replaced — holder counts plus a FIFO queue per
    key, every request pumped through the queue."""

    class _State:
        def __init__(self):
            self.readers = 0
            self.writer = False
            self.queue = deque()

    def __init__(self, keys):
        self._locks = {k: self._State() for k in keys}

    def _state(self, key):
        try:
            return self._locks[key]
        except KeyError:
            raise SimulationError(
                f"lock request for vertex {key!r} not owned here"
            ) from None

    def request(self, key, kind, token):
        state = self._state(key)
        state.queue.append((kind, token))
        return bool(self._pump(state))

    def release(self, key, kind):
        state = self._state(key)
        if kind is LockKind.WRITE:
            if not state.writer:
                raise SimulationError(f"write-release without hold on {key!r}")
            state.writer = False
        else:
            if state.readers <= 0:
                raise SimulationError(f"read-release without hold on {key!r}")
            state.readers -= 1
        return self._pump(state)

    def _pump(self, state):
        granted = []
        while state.queue:
            kind, token = state.queue[0]
            if kind is LockKind.WRITE:
                if state.writer or state.readers:
                    break
                state.queue.popleft()
                state.writer = True
                granted.append(token)
                break
            if state.writer:
                break
            state.queue.popleft()
            state.readers += 1
            granted.append(token)
        return granted

    def holders(self, key):
        state = self._state(key)
        return state.readers, state.writer

    def queue_length(self, key):
        return len(self._state(key).queue)

    # A group is its keys' single-key calls in order, callbacks fired
    # after each key's release.
    def request_group(self, keys, kinds, token):
        waiting = 0
        for key, kind in zip(keys, kinds):
            if not self.request(key, kind, token):
                waiting += 1
        return waiting

    def release_group(self, keys, kinds, on_grant):
        for key, kind in zip(keys, kinds):
            for token in self.release(key, kind):
                on_grant(token)


_LOCK_KEYS = (0, 1, 2, 3)
#: Mostly owned keys, sometimes one this table does not own.
_lock_key = st.sampled_from(_LOCK_KEYS * 2 + ("elsewhere",))
_lock_group = st.lists(
    st.tuples(_lock_key, st.booleans()), min_size=1, max_size=4
)
_lock_op = st.one_of(
    st.tuples(st.just("request"), _lock_key, st.booleans()),
    st.tuples(st.just("release"), _lock_key, st.booleans()),
    st.tuples(st.just("request_group"), _lock_group),
    st.tuples(st.just("release_group"), _lock_group),
)


def _group_kinds(group):
    """``[(key, write), …]`` -> ``(keys, kinds)``."""
    keys = tuple(key for key, _write in group)
    kinds = tuple(
        LockKind.WRITE if write else LockKind.READ for _key, write in group
    )
    return keys, kinds


def _drive_lock_table(table, ops):
    """Apply ``ops`` to ``table``; return everything observable: each
    op's immediate result or error, every grant in callback order (a
    grant of every third token re-enters the table with a new request),
    and the per-key holders / queue lengths after each op."""
    log = []
    next_token = [0]

    def token():
        next_token[0] += 1
        return next_token[0]

    def on_grant(granted):
        log.append(("grant", granted))
        if granted % 3 == 0:
            key = _LOCK_KEYS[granted % len(_LOCK_KEYS)]
            kind = LockKind.WRITE if granted % 2 else LockKind.READ
            log.append(("reentrant", table.request(key, kind, token())))

    for op in ops:
        try:
            if op[0] == "request":
                _tag, key, write = op
                kind = LockKind.WRITE if write else LockKind.READ
                log.append(("request", table.request(key, kind, token())))
            elif op[0] == "release":
                _tag, key, write = op
                kind = LockKind.WRITE if write else LockKind.READ
                for granted in table.release(key, kind):
                    on_grant(granted)
            elif op[0] == "request_group":
                keys, kinds = _group_kinds(op[1])
                waiting = table.request_group(keys, kinds, token())
                log.append(("group", waiting))
            else:
                keys, kinds = _group_kinds(op[1])
                table.release_group(keys, kinds, on_grant)
        except SimulationError as exc:
            log.append(("error", str(exc)))
        log.append(
            [(table.holders(k), table.queue_length(k)) for k in _LOCK_KEYS]
        )
    return log


class TestLockTableModel:
    @given(st.lists(_lock_op, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_int_table_matches_deque_reference(self, ops):
        assert _drive_lock_table(RWQueueCore(_LOCK_KEYS), ops) == (
            _drive_lock_table(DequeLockTable(_LOCK_KEYS), ops)
        )


class TestMisraToken:
    def test_visit_arithmetic(self):
        assert misra_visit(2, black=True, num_machines=4) == (0, False)
        assert misra_visit(2, black=False, num_machines=4) == (3, False)
        assert misra_visit(3, black=False, num_machines=4) == (4, True)


class TestLockChain:
    def test_groups_follow_canonical_owner_order(self):
        g = ring_graph(6)
        index = g.vertex_index()
        owner = {v: index[v] % 3 for v in g.vertices()}
        vertex = next(iter(g.vertices()))
        chain = build_lock_chain(g, vertex, Consistency.EDGE, owner)
        owners = [machine for machine, _group in chain]
        assert owners == sorted(owners)
        flat = [(owner[v], index[v]) for _m, grp in chain for (v, _k) in grp]
        assert flat == sorted(flat)
        kinds = {
            v: kind for _m, group in chain for (v, kind) in group
        }
        assert kinds[vertex] is LockKind.WRITE
        for u in g.neighbors(vertex):
            assert kinds[u] is LockKind.READ

    def test_model_selects_lock_kinds(self):
        g = ring_graph(5)
        index = g.vertex_index()
        owner = {v: 0 for v in g.vertices()}
        vertex = next(iter(g.vertices()))
        vertex_chain = build_lock_chain(
            g, vertex, Consistency.VERTEX, owner
        )
        assert vertex_chain == [(0, [(vertex, LockKind.WRITE)])]
        full = build_lock_chain(g, vertex, Consistency.FULL, owner)
        assert all(
            kind is LockKind.WRITE for _m, grp in full for (_v, kind) in grp
        )


class TestCompiledChains:
    @given(
        seed=st.integers(0, 10_000),
        workers=st.integers(1, 4),
        model=st.sampled_from(list(Consistency)),
    )
    @settings(max_examples=40, deadline=None)
    def test_compiled_chains_equal_build_lock_chain(
        self, seed, workers, model
    ):
        """Every compiled hop decodes back to ``build_lock_chain``'s
        group, and its wire ints are the group's ``[k, key, code, …]``
        / ``[key, code, …]`` (code ``1`` for a write); the worker's memo
        keeps the engine model's chains apart from the EDGE snapshot
        chains."""
        g = random_graph(12, 24, seed)
        rng = random.Random(seed)
        owner = {v: rng.randrange(workers) for v in g.vertices()}
        csr = g.compiled
        worker = LockingWorker(
            LockWorkerInit(
                worker_id=0,
                num_workers=workers,
                graph=g,
                owner=owner,
                consistency=model,
                program=flood_max,
            )
        )
        for v in g.vertices():
            for chain_model in (model, Consistency.EDGE):
                chain = build_lock_chain(g, v, chain_model, owner)
                hops = compile_chain(chain, csr.index_of)
                assert worker._chain_for(v, chain_model) == hops
                decoded = [
                    (
                        machine,
                        [
                            (csr.vertex_ids[key], kind)
                            for key, kind in zip(keys, kinds)
                        ],
                    )
                    for machine, keys, kinds, _req, _unl in hops
                ]
                assert decoded == chain
                for _machine, keys, kinds, request, unlock in hops:
                    pairs = [
                        x
                        for key, kind in zip(keys, kinds)
                        for x in (key, int(kind is LockKind.WRITE))
                    ]
                    assert list(unlock) == pairs
                    assert list(request) == [len(keys)] + pairs


# ----------------------------------------------------------------------
# Serializability property (the tentpole's correctness contract).
# ----------------------------------------------------------------------
def check_trace_serializable(graph, trace, model):
    """No two same-round, cross-worker scopes may conflict.

    Write sets must be disjoint under every model; under EDGE/FULL the
    full conflict predicate (W ∩ (R ∪ W)) must be empty too — VERTEX
    deliberately leaves neighbor reads unprotected (Fig. 1d).
    """
    strict = model is not Consistency.VERTEX
    by_round = {}
    for (worker, round_no, vertex, reads, writes) in trace:
        by_round.setdefault(round_no, []).append((worker, reads, writes))
    for entries in by_round.values():
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                wi, ri, wsi = entries[i]
                wj, rj, wsj = entries[j]
                if wi == wj:
                    continue  # same worker: sequential within the round
                assert not (wsi & wsj), "concurrent write-write overlap"
                if strict:
                    assert not (wsi & (rj | wsj)), "concurrent conflict"
                    assert not (wsj & (ri | wsi)), "concurrent conflict"


def check_trace_covers_model(graph, trace, model):
    """Recorded accesses stay inside the model's read/write sets."""
    for (_worker, _round, vertex, reads, writes) in trace:
        assert writes <= write_set(graph, vertex, model)
        if model is not Consistency.VERTEX:
            assert reads <= read_set(graph, vertex, model)


def replay_serially(graph_before, trace, update_fn, model):
    """Re-execute the recorded schedule on one thread, in commit order."""
    replay = graph_before.copy()
    scope = Scope(replay, None, model=model)
    order = sorted(
        enumerate(trace), key=lambda e: (e[1][1], e[1][0], e[0])
    )
    for _pos, (_worker, _round, vertex, _reads, _writes) in order:
        scope.rebind(vertex)
        update_fn(scope)
        scope.drain_scheduled()
    return replay


class TestSerializabilityProperty:
    @given(
        seed=st.integers(0, 10_000),
        num_workers=st.integers(1, 4),
        model=st.sampled_from(
            [Consistency.VERTEX, Consistency.EDGE, Consistency.FULL]
        ),
        use_plane=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_executed_scopes_never_conflict(
        self, seed, num_workers, model, use_plane
    ):
        rng = random.Random(seed)
        n = rng.randrange(5, 16)
        # Typed columns when the plane is requested, so both wire
        # flavors (ring descriptors and pickled batches) are exercised.
        g = random_graph(n, num_edges=2 * n, seed=seed, typed=use_plane)
        fn = vertex_only_max if model is Consistency.VERTEX else edge_accumulate
        copy = g.copy()
        result = RuntimeLockingEngine(
            copy,
            fn,
            num_workers=num_workers,
            transport="inproc",
            consistency=model,
            partitioner="hash",
            max_updates=4 * n,
            use_plane=use_plane,
            trace=True,
        ).run(initial=copy.vertices())
        trace = result.extra["trace"]
        assert len(trace) == result.num_updates
        check_trace_serializable(g, trace, model)
        check_trace_covers_model(g, trace, model)
        if model is not Consistency.VERTEX:
            # Sequential consistency end to end: the recorded schedule,
            # replayed serially, produces identical final values.
            replay = replay_serially(g, trace, fn, model)
            assert graph_values(replay) == graph_values(copy)

    @given(seed=st.integers(0, 10_000), num_workers=st.integers(2, 4))
    @settings(max_examples=6, deadline=None)
    def test_full_consistency_ghost_writes_serialize(self, seed, num_workers):
        rng = random.Random(seed)
        n = rng.randrange(6, 14)
        g = random_graph(n, num_edges=2 * n, seed=seed)
        copy = g.copy()
        result = RuntimeLockingEngine(
            copy,
            push_to_neighbors,
            num_workers=num_workers,
            transport="inproc",
            consistency=Consistency.FULL,
            max_updates=3 * n,
            trace=True,
        ).run(initial=copy.vertices())
        trace = result.extra["trace"]
        check_trace_serializable(g, trace, Consistency.FULL)
        replay = replay_serially(g, trace, push_to_neighbors, Consistency.FULL)
        assert graph_values(replay) == graph_values(copy)


# ----------------------------------------------------------------------
# Fixed-point equivalence with the sequential oracle.
# ----------------------------------------------------------------------
class TestFixedPointEquivalence:
    def test_flood_max_reaches_oracle_fixed_point_all_backends(self):
        g = grid_graph(5, 5)
        g.set_vertex_data((0, 0), 9.0)
        oracle = g.copy()
        SequentialEngine(oracle, flood_max, scheduler="fifo").run(
            initial=oracle.vertices()
        )
        expected = graph_values(oracle)
        for backend in ("inproc", "mp"):
            for workers in (1, 3):
                copy = g.copy()
                result = RuntimeLockingEngine(
                    copy, flood_max, num_workers=workers, transport=backend
                ).run(initial=copy.vertices())
                assert result.converged
                assert graph_values(copy) == expected

    def test_single_worker_is_bit_identical_to_sequential_fifo(self):
        """One worker, fully local chains: pops interleave with
        execution exactly like ``SequentialEngine`` + FIFO, so the whole
        run — values, counts, histogram — is reproduced bit for bit."""
        g = power_law_web_graph(120, out_degree=4, seed=3)
        g1, g2 = g.copy(), g.copy()
        r1 = SequentialEngine(
            g1, make_pagerank_update(epsilon=1e-6), scheduler="fifo"
        ).run(initial=g1.vertices())
        r2 = RuntimeLockingEngine(
            g2,
            UpdateProgram(make_pagerank_update, kwargs={"epsilon": 1e-6}),
            num_workers=1,
            transport="inproc",
        ).run(initial=g2.vertices())
        assert r1.num_updates == r2.num_updates
        assert r1.updates_per_vertex == r2.updates_per_vertex
        assert graph_values(g1) == graph_values(g2)

    def test_pagerank_fixed_point_matches_exact(self):
        g = power_law_web_graph(100, out_degree=4, seed=7)
        truth = exact_pagerank(g)
        for workers in (2, 4):
            copy = g.copy()
            result = RuntimeLockingEngine(
                copy,
                UpdateProgram(make_pagerank_update, kwargs={"epsilon": 1e-7}),
                num_workers=workers,
                transport="inproc",
            ).run(initial=copy.vertices())
            assert result.converged
            assert l1_error(copy, truth) < 1e-3

    def test_als_single_worker_matches_sequential(self):
        data = synthetic_netflix(
            num_users=20, num_movies=10, ratings_per_user=5, seed=2
        )
        g = data.graph
        initialize_factors(g, d=3, seed=1)
        g1, g2 = g.copy(), g.copy()
        r1 = SequentialEngine(
            g1, make_als_update(3, epsilon=1e-2), scheduler="fifo"
        ).run(initial=g1.vertices())
        r2 = RuntimeLockingEngine(
            g2,
            als_program(3, epsilon=1e-2),
            num_workers=1,
            transport="inproc",
        ).run(initial=g2.vertices())
        assert r1.num_updates == r2.num_updates
        for v in g1.vertices():
            assert np.array_equal(g1.vertex_data(v), g2.vertex_data(v))


# ----------------------------------------------------------------------
# ALS on the locking engine (the Fig. 1d workload, satellite).
# ----------------------------------------------------------------------
class TestRuntimeALS:
    def test_als_converges_on_real_processes(self):
        data = synthetic_netflix(
            num_users=24, num_movies=10, ratings_per_user=5, seed=0
        )
        g = data.graph
        initialize_factors(g, d=3, seed=1)
        before = training_rmse(g)
        result = RuntimeLockingEngine(
            g,
            als_program(3, epsilon=1e-3),
            num_workers=2,
            transport="mp",
            scheduler="priority",
            consistency=Consistency.EDGE,
        ).run(initial=g.vertices())
        assert result.converged
        assert result.backend == "mp"
        after = training_rmse(g)
        assert after < before * 0.5

    def test_als_trace_is_serializable_under_edge(self):
        data = synthetic_netflix(
            num_users=16, num_movies=8, ratings_per_user=4, seed=1
        )
        g = data.graph
        initialize_factors(g, d=3, seed=3)
        before = g.copy()
        result = RuntimeLockingEngine(
            g,
            als_program(3, epsilon=1e-2),
            num_workers=3,
            transport="inproc",
            trace=True,
        ).run(initial=g.vertices())
        trace = result.extra["trace"]
        check_trace_serializable(g, trace, Consistency.EDGE)
        replay = replay_serially(
            before, trace, make_als_update(3, epsilon=1e-2), Consistency.EDGE
        )
        for v in g.vertices():
            assert np.array_equal(replay.vertex_data(v), g.vertex_data(v))

    def test_named_program_registry(self):
        program = named_program("als", 3, epsilon=1e-2)
        assert callable(program.resolve())
        with pytest.raises(EngineError):
            named_program("not-a-program")


# ----------------------------------------------------------------------
# Pipelining, accounting, and API edges.
# ----------------------------------------------------------------------
class TestPipelineAndAccounting:
    def test_window_one_disables_overlap(self):
        """window=1 blocks the worker on every remote chain, so its
        throughput per barrier collapses versus a pipelined window —
        deterministic on inproc, so comparable exactly."""
        g = power_law_web_graph(120, out_degree=4, seed=2)
        per_round = {}
        for window in (1, 64):
            copy = g.copy()
            result = RuntimeLockingEngine(
                copy,
                UpdateProgram(make_pagerank_update, kwargs={"epsilon": 1e-5}),
                num_workers=3,
                transport="inproc",
                pipeline_window=window,
            ).run(initial=copy.vertices())
            assert result.converged
            per_round[window] = result.num_updates / result.rounds
        assert per_round[64] > per_round[1]

    def test_transport_counters_agree_across_backends(self):
        """Satellite: lock/grant sub-rounds and launch acks count the
        same bytes and rounds on both transports (deterministic run)."""
        g = grid_graph(5, 5)
        g.set_vertex_data((2, 2), 7.0)
        counters = {}
        for backend in ("inproc", "mp"):
            copy = g.copy()
            engine = RuntimeLockingEngine(
                copy, flood_max, num_workers=2, transport=backend
            )
            result = engine.run(initial=copy.vertices())
            counters[backend] = (
                engine.transport.bytes_sent,
                engine.transport.bytes_received,
                engine.transport.rounds_completed,
                result.num_updates,
            )
        assert counters["inproc"] == counters["mp"]

    def test_engine_parameter_validation(self):
        g = grid_graph(2, 2)
        with pytest.raises(EngineError):
            RuntimeLockingEngine(g, flood_max, pipeline_window=0)
        with pytest.raises(EngineError):
            RuntimeLockingEngine(g, flood_max, scheduler="sweep")
        with pytest.raises(EngineError):
            RuntimeLockingEngine(g, flood_max, round_budget=0)

    def test_engine_is_single_use(self):
        g = grid_graph(3, 3)
        engine = RuntimeLockingEngine(
            g, flood_max, num_workers=2, transport="inproc"
        )
        engine.run(initial=g.vertices())
        with pytest.raises(EngineError):
            engine.run(initial=g.vertices())

    def test_max_updates_stops_the_run(self):
        g = power_law_web_graph(80, out_degree=3, seed=5)
        copy = g.copy()
        cap = 60
        result = RuntimeLockingEngine(
            copy,
            UpdateProgram(make_pagerank_update, kwargs={"schedule": "self"}),
            num_workers=2,
            transport="inproc",
            max_updates=cap,
            round_budget=16,
        ).run(initial=copy.vertices())
        assert not result.converged
        # Round-boundary stop: bounded overshoot of one round's budget.
        assert cap <= result.num_updates <= cap + 2 * 16

    def test_termination_waits_for_in_flight_schedules(self):
        """Regression: worker 1's last update routes a schedule to
        worker 0 while every worker reports idle — the token must not
        witness a quiet circuit before that message is delivered, even
        when the receiver's remaining work is purely local (routes
        nothing) and budget-throttled across many rounds."""
        g = DataGraph()
        g.add_vertex("t", data=0.0)
        g.add_vertex("c", data=50.0)
        g.finalize()
        engine = RuntimeLockingEngine(
            g,
            trigger_countdown,
            num_workers=2,
            transport="inproc",
            assignment={"t": 0, "c": 1},
            atoms_per_worker=1,
            round_budget=1,
        )
        assert engine.owner["t"] != engine.owner["c"]
        result = engine.run(initial=["t"])
        # 1 trigger + 51 countdown executions (50 decrements + the
        # final no-op that stops self-scheduling).
        assert result.converged
        assert result.num_updates == 52
        assert g.vertex_data("c") == 0.0

    def test_result_carries_diagnostics(self):
        g = grid_graph(3, 3)
        copy = g.copy()
        result = RuntimeLockingEngine(
            copy, flood_max, num_workers=2, transport="inproc",
            pipeline_window=8,
        ).run(initial=copy.vertices())
        assert result.extra["pipeline_window"] == 8
        assert result.rounds > 0 and result.bytes_on_pipe > 0
        assert sum(result.updates_per_worker.values()) == result.num_updates
        assert sum(result.updates_per_vertex.values()) == result.num_updates


# ----------------------------------------------------------------------
# Turn-taking: lstep rounds tallied by executing-worker count.
# ----------------------------------------------------------------------
class TestExecutingWorkers:
    @staticmethod
    def _two_rings():
        """Two disconnected rings; the assignment puts one on each of
        two workers, so neither ever waits on the other's locks."""
        g = DataGraph()
        for ring in "ab":
            for i in range(8):
                g.add_vertex((ring, i), data=float(i))
            for i in range(8):
                g.add_edge((ring, i), (ring, (i + 1) % 8), data=1.0)
        g.finalize()
        assignment = {v: 0 if v[0] == "a" else 1 for v in g.vertices()}
        return g, assignment

    def test_disjoint_components_execute_in_the_same_round(
        self, tmp_path, capsys
    ):
        g, assignment = self._two_rings()
        engine = RuntimeLockingEngine(
            g,
            flood_max,
            num_workers=2,
            transport="inproc",
            assignment=assignment,
            atoms_per_worker=1,
            round_budget=2,
            telemetry=True,
        )
        assert {engine.owner[("a", 0)], engine.owner[("b", 0)]} == {0, 1}
        result = engine.run(initial=g.vertices())
        tally = result.extra["executing_workers"]
        assert len(tally) == 3 and tally[2] > 0
        # Every round but the final collect is an lstep round.
        assert sum(tally) == result.rounds - 1
        assert result.telemetry.meta["executing_workers"] == tally
        line = "locking: lstep rounds by executing workers " + " ".join(
            f"{n}={count}" for n, count in enumerate(tally)
        )
        assert line in format_report(summarize(result.telemetry))
        trace = tmp_path / "run.trace.jsonl"
        write_jsonl(result.telemetry, trace)
        assert obs_cli(["report", str(trace)]) == 0
        assert line in capsys.readouterr().out

    @pytest.mark.parametrize("workers", [1, 2])
    def test_tally_sums_to_lstep_rounds(self, workers):
        g = power_law_web_graph(60, out_degree=3, seed=4)
        result = RuntimeLockingEngine(
            g,
            UpdateProgram(make_pagerank_update, kwargs={"epsilon": 1e-4}),
            num_workers=workers,
            transport="inproc",
            round_budget=8,
        ).run(initial=g.vertices())
        tally = result.extra["executing_workers"]
        assert len(tally) == workers + 1
        assert sum(tally) == result.rounds - 1

    def test_tally_keeps_rolled_back_rounds(self):
        """A recovery rewinds the coordinator's clock but not the tally:
        like ``result.rounds`` it counts every round the cluster ran.
        Async snapshots ride lstep rounds, so the only other rounds are
        the restore and the final collect."""
        g = power_law_web_graph(60, out_degree=3, seed=4)
        engine = RuntimeLockingEngine(
            g,
            UpdateProgram(make_pagerank_update, kwargs={"epsilon": 1e-4}),
            num_workers=2,
            transport="inproc",
            round_budget=8,
            snapshot_every=3,
            snapshot_mode="async",
            recovery_backoff=0.0,
        )
        engine.transport.schedule_kill(1, 6)
        result = engine.run(initial=g.vertices())
        assert result.extra["recoveries"] == 1
        tally = result.extra["executing_workers"]
        assert sum(tally) == result.rounds - 1 - 1
        assert sum(tally) > engine._clock()


# ----------------------------------------------------------------------
# Termination: the coordinator's quiescence predicate.
# ----------------------------------------------------------------------
#: Reply fields that route a message into some worker's next inbox.
ROUTED_KINDS = ("lock", "grant", "unlock", "sched", "ssched", "plane", "data")


def _routes_something(body):
    return any(body.get(kind) for kind in ROUTED_KINDS)


class ReferenceMisraToken:
    """The coordinator-stepped marker ring the runtime locking engine
    ran before it decided termination with ``_quiescent`` (kept here as
    the reference the predicate is compared against). It hops through
    consecutive idle holders, several per round, and stops at the first
    busy one; ``advance`` is ``True`` once a full white idle circuit
    completes."""

    def __init__(self, num_machines):
        self.num_machines = num_machines
        self.at = 0
        self.count = 0
        self.terminated = False

    def advance(self, idle, take_black):
        if self.terminated:
            return True
        for _ in range(2 * self.num_machines):
            if not idle[self.at]:
                return False
            self.count, done = misra_visit(
                self.count, take_black(self.at), self.num_machines
            )
            self.at = (self.at + 1) % self.num_machines
            if done:
                self.terminated = True
                return True
        return False


class ReferenceDetector:
    """The token plus the engine's old black-flag rules: every worker
    starts black, and executing, being routed any message, a serve
    write and an injected schedule blacken a worker; a token visit
    clears it. A worker counts as idle for the token only when it
    reported idle and its inbox is empty."""

    def __init__(self, num_workers):
        self.black = [True] * num_workers
        self.token = ReferenceMisraToken(num_workers)

    def absorb(self, replies, written=()):
        for w, (_half, body) in enumerate(replies):
            if body.get("executed") or w in written:
                self.black[w] = True
            for kind in ROUTED_KINDS:
                for dst in body.get(kind) or ():
                    self.black[dst] = True

    def inject(self, workers):
        for w in workers:
            self.black[w] = True

    def advance(self, bodies, inboxes):
        black = self.black
        idle = [
            body["idle"] and not any(inboxes[w].values())
            for w, body in enumerate(bodies)
        ]

        def take_black(w):
            was = black[w]
            black[w] = False
            return was

        return self.token.advance(idle, take_black)

    def parked(self, inboxes):
        """The old pump's early return: a terminated token with nothing
        routed and nobody black since. Otherwise a terminated token
        restarts, and the pump runs a round."""
        if self.token.terminated:
            if not any(any(inbox.values()) for inbox in inboxes) and not any(
                self.black
            ):
                return True
            self.token = ReferenceMisraToken(len(self.black))
        return False


class ScriptedCluster:
    """A transport whose workers reply with hypothesis-drawn idle
    reports, executions and outgoing messages, within the rules every
    real locking worker keeps:

    * an idle worker that is delivered nothing (and was not written)
      stays idle, executes nothing and sends nothing;
    * a busy worker that executes nothing and is delivered nothing
      stays busy (it may still send, like a worker posting lock
      requests for a scope it popped);
    * a written worker counts as delivered to at its next ``lstep``;
      ghost data a serve round delivers gives no worker work.
    """

    obs = None

    def __init__(self, draw, num_workers):
        self.draw = draw
        self.num_workers = num_workers
        self.busy = [False] * num_workers
        self.woken = [False] * num_workers
        #: A serve round delivered routed ghost data since the last
        #: ``lstep``.
        self.ghosts_served = False
        self.rounds = 0
        self.last = None

    def _sends(self, body):
        targets = st.integers(0, self.num_workers - 1)
        for kind, dst in self.draw(
            st.lists(st.tuples(st.sampled_from(ROUTED_KINDS), targets),
                     max_size=3)
        ):
            if kind == "plane":
                message = (0, 1, 0, 0)
            elif kind == "data":
                message = [kind]
            else:
                message = np.zeros(1, dtype=np.int32)
            body.setdefault(kind, {})[dst] = message

    def round(self, messages):
        self.rounds += 1
        replies = []
        for w, (tag, payload) in enumerate(messages):
            delivered = bool(payload.get("inbox"))
            if tag == "serve":
                body = {"serve": {}}
                self.ghosts_served = self.ghosts_served or delivered
                if payload.get("writes"):
                    self.woken[w] = True
                    # A write pushes its new value to the ghost holders.
                    body["data"] = {
                        dst: ["write"]
                        for dst in self.draw(st.sets(
                            st.integers(0, self.num_workers - 1), max_size=2
                        ))
                    }
            else:
                assert tag == "lstep"
                self.ghosts_served = False
                delivered = delivered or self.woken[w]
                self.woken[w] = False
                if not (self.busy[w] or delivered):
                    body = {"executed": 0, "idle": True}
                else:
                    executed = self.draw(st.integers(0, 2))
                    idle = (
                        self.draw(st.booleans())
                        if executed or delivered
                        else False
                    )
                    body = {"executed": executed, "idle": idle}
                    self._sends(body)
                    self.busy[w] = not idle
            replies.append((0, body))
        self.last = replies
        return replies


@given(data=st.data(), workers=st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_quiescence_decides_like_the_misra_token(data, workers):
    """Random round sequences — run-mode ``lstep`` rounds, then serving
    pumps, writes, read barriers and injected schedules — driven through
    the engine's own round, routing and serving code on a scripted
    cluster. At every decision the predicate and the reference token
    agree: after each run-mode round, and at each pump (whether it
    sends a round at all, and what it returns).

    One difference is by design. When a read-only serve round (no data
    plane) delivers the last routed ghost data, the predicate holds at
    once, while the token still counts the receivers black and pumps
    one more round in which every worker is idle and nothing moves.
    """
    g = ring_graph(8)
    engine = RuntimeLockingEngine(
        g, flood_max, num_workers=workers, transport="inproc",
        assignment={v: v % workers for v in g.vertices()},
        atoms_per_worker=1,
    )
    cluster = ScriptedCluster(data.draw, workers)
    engine.transport = cluster
    ref = ReferenceDetector(workers)
    vertices = st.lists(st.integers(0, 7), max_size=3)
    engine._begin(data.draw(vertices))

    def bodies():
        return [body for _half, body in cluster.last]

    for _ in range(data.draw(st.integers(0, 12))):
        engine._lstep(engine.round_budget)
        ref.absorb(cluster.last)
        done = engine._quiescent()
        assert done == ref.advance(bodies(), engine._inboxes)
        if done:
            break
    for _ in range(data.draw(st.integers(0, 25))):
        op = data.draw(st.sampled_from(["pump", "write", "read", "inject"]))
        if op == "pump":
            before = cluster.rounds
            parked = ref.parked(engine._inboxes)
            done = engine.service_pump_round()
            if parked:
                assert done and cluster.rounds == before
            elif cluster.rounds == before:
                assert done and cluster.ghosts_served
                idle_round = [{"idle": True}] * workers
                assert ref.advance(idle_round, engine._inboxes)
            else:
                assert cluster.rounds == before + 1
                ref.absorb(cluster.last)
                assert done == ref.advance(bodies(), engine._inboxes)
        elif op == "write":
            written = data.draw(
                st.lists(st.integers(0, 7), min_size=1, max_size=3)
            )
            engine.service_barrier(writes=[(v, 9.0) for v in written])
            ref.absorb(cluster.last, {engine.owner[v] for v in written})
        elif op == "read":
            engine.service_barrier(reads=[("r", 0, False)])
            ref.absorb(cluster.last)
        else:
            injected = data.draw(vertices)
            engine.service_schedule(injected)
            ref.inject({engine.owner[v] for v in injected})


class TestQuiescence:
    @staticmethod
    def _flood_grid():
        g = grid_graph(3, 3)
        g.set_vertex_data((0, 0), 5.0)
        return g

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_ends_on_first_idle_round_that_routes_nothing(
        self, workers
    ):
        g = self._flood_grid()
        engine = RuntimeLockingEngine(
            g, flood_max, num_workers=workers, transport="inproc",
            round_budget=2,
        )
        rounds = []
        lstep = engine._lstep

        def recording_lstep(budget, **flags):
            bodies = lstep(budget, **flags)
            rounds.append(all(
                body["idle"] and not _routes_something(body)
                for body in bodies
            ))
            return bodies

        engine._lstep = recording_lstep
        result = engine.run(initial=g.vertices())
        assert result.converged
        assert rounds.index(True) == len(rounds) - 1
        assert len(rounds) == result.rounds - 1  # + the final collect
        assert set(graph_values(g)[0].values()) == {5.0}

    @staticmethod
    def _quiescent_service():
        g = TestQuiescence._flood_grid()
        engine = RuntimeLockingEngine(
            g, flood_max, num_workers=2, transport="inproc"
        )
        engine.open_service(g.vertices())
        for _ in range(100):
            if engine.service_pump_round():
                return engine
        raise AssertionError("service never reached quiescence")

    def test_pump_sends_no_round_when_nothing_changed(self):
        engine = self._quiescent_service()
        try:
            before = engine.transport.rounds_completed
            for _ in range(3):
                assert engine.service_pump_round()
            assert engine.transport.rounds_completed == before
            engine.service_barrier(reads=[("r", (1, 1), False)])
            assert engine.service_pump_round()
        finally:
            result = engine.close_service()
        assert result.converged

    def test_unscheduled_write_costs_one_pump_round(self):
        engine = self._quiescent_service()
        try:
            engine.service_barrier(writes=[((1, 1), 7.0)])
            before = engine.transport.rounds_completed
            assert engine.service_pump_round()
            assert engine.transport.rounds_completed == before + 1
            assert engine.service_pump_round()
            assert engine.transport.rounds_completed == before + 1
        finally:
            result = engine.close_service()
        assert result.converged
