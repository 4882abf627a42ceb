"""The shared engine lifecycle (PR 16): what ``RuntimeCore`` owns once.

Both runtime engines inherit run / recover / snapshot / serve from
:class:`repro.runtime.core.RuntimeCore`; these tests pin the lifecycle
contract on *both* subclasses and both local transports, so the
behaviours that used to agree only because two copies were kept in sync
now fail in one place if the core drifts.
"""

import inspect
import multiprocessing
import os

import pytest

from repro.core.graph import DataGraph
from repro.errors import EngineError
from repro.runtime import (
    FAULT_ENV,
    RuntimeChromaticEngine,
    RuntimeLockingEngine,
    WorkerFailure,
    make_transport,
)
from repro.runtime.core import RuntimeCore
from repro.serve import GraphService

ENGINES = [RuntimeChromaticEngine, RuntimeLockingEngine]
BACKENDS = ["inproc", "mp"]
matrix = pytest.mark.parametrize("backend", BACKENDS)
both_engines = pytest.mark.parametrize(
    "engine_cls", ENGINES, ids=["chromatic", "locking"]
)


@pytest.fixture(autouse=True)
def _clear_fault_env(monkeypatch):
    monkeypatch.delenv(FAULT_ENV, raising=False)


def flood_max(scope):
    best = scope.data
    for u in scope.neighbors:
        best = max(best, scope.neighbor(u))
    if best != scope.data:
        scope.data = best
        return [(u, best) for u in scope.neighbors]


def typed_graph(n=12):
    """A ring on typed columns, so ``mp`` really provisions shm segments."""
    g = DataGraph()
    for i in range(n):
        g.add_vertex(i, data=float(i % 5))
    for i in range(n):
        g.add_edge(i, (i + 1) % n, data=0.0)
    return g.finalize(vertex_dtype=float, edge_dtype=float)


def plane_segments():
    try:
        return {
            name for name in os.listdir("/dev/shm")
            if name.startswith("repro-plane-")
        }
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def assert_torn_down(before):
    """No worker process survives and no plane segment leaked."""
    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
    assert not multiprocessing.active_children()
    assert plane_segments() <= before


@both_engines
@matrix
class TestLifecycleGuards:
    def test_run_then_open_service_is_single_use(self, engine_cls, backend):
        g = typed_graph()
        engine = engine_cls(g, flood_max, num_workers=2, transport=backend)
        engine.run(initial=g.vertices())
        with pytest.raises(EngineError, match="single-use"):
            engine.open_service()
        with pytest.raises(EngineError, match="single-use"):
            engine.run()

    def test_open_service_then_run_is_single_use(self, engine_cls, backend):
        g = typed_graph()
        engine = engine_cls(g, flood_max, num_workers=2, transport=backend)
        engine.open_service(g.vertices())
        try:
            with pytest.raises(EngineError, match="single-use"):
                engine.run(initial=g.vertices())
            with pytest.raises(EngineError, match="single-use"):
                engine.open_service()
        finally:
            result = engine.close_service()
        assert result.converged
        with pytest.raises(EngineError, match="no open service"):
            engine.close_service()

    def test_resume_from_requires_snapshots(
        self, engine_cls, backend, tmp_path
    ):
        g = typed_graph()
        engine = engine_cls(g, flood_max, num_workers=2, transport=backend)
        with pytest.raises(EngineError, match="requires snapshot_every"):
            engine.run(initial=g.vertices(), resume_from=str(tmp_path))
        # The refused call claimed nothing: the instance still runs.
        assert engine.run(initial=g.vertices()).converged

    def test_close_without_open_raises(self, engine_cls, backend):
        g = typed_graph()
        engine = engine_cls(g, flood_max, num_workers=2, transport=backend)
        with pytest.raises(EngineError, match="no open service"):
            engine.close_service()


@both_engines
@matrix
class TestOpenServiceTeardown:
    def test_launch_failure_leaves_nothing_behind(self, engine_cls, backend):
        before = plane_segments()
        transport = make_transport(backend, 2)
        transport.schedule_kill(1, "launch")
        g = typed_graph()
        engine = engine_cls(g, flood_max, num_workers=2, transport=transport)
        with pytest.raises(WorkerFailure) as info:
            engine.open_service(g.vertices())
        assert info.value.phase == "launch"
        assert_torn_down(before)
        with pytest.raises(EngineError, match="no open service"):
            engine.close_service()

    def test_interrupt_during_launch_tears_down(
        self, engine_cls, backend, tmp_path
    ):
        """``finally``-grade cleanup: an interrupt (not an ``Exception``)
        after the workers are up must not leak them."""
        before = plane_segments()
        g = typed_graph()
        engine = engine_cls(
            g, flood_max, num_workers=2, transport=backend,
            snapshot_every=1, snapshot_dir=str(tmp_path),
        )

        def interrupted():
            raise KeyboardInterrupt

        engine._baseline_snapshot = interrupted  # runs right after launch
        with pytest.raises(KeyboardInterrupt):
            engine.open_service(g.vertices())
        assert_torn_down(before)


@matrix
def test_snapshot_extra_keys_agree_across_engines(backend, tmp_path):
    """The result assembly is one function: both engines report the same
    snapshot/recovery accounting keys (plus their own diagnostics)."""
    shared = {
        "snapshots", "snapshot_bytes", "snapshots_rejected",
        "recoveries", "recovery_seconds",
    }
    own = {
        RuntimeChromaticEngine: set(),
        RuntimeLockingEngine: {"token_hops", "pipeline_window"},
    }
    for engine_cls in ENGINES:
        g = typed_graph()
        root = tmp_path / engine_cls.__name__
        result = engine_cls(
            g, flood_max, num_workers=2, transport=backend,
            snapshot_every=1, snapshot_dir=str(root),
        ).run(initial=g.vertices())
        assert set(result.extra) == shared | own[engine_cls]
        assert result.extra["snapshots"] >= 1
        assert result.extra["recoveries"] == 0
        plain = engine_cls(
            typed_graph(), flood_max, num_workers=2, transport=backend
        ).run(initial=g.vertices())
        assert set(plain.extra) == own[engine_cls]


def test_recorder_is_the_coordinator_track():
    g = typed_graph()
    on = RuntimeLockingEngine(
        g, flood_max, num_workers=1, transport="inproc", telemetry=True
    )
    off = RuntimeChromaticEngine(g, flood_max, num_workers=1, transport="inproc")
    assert on.recorder is on._collector.coordinator
    assert off.recorder is None
    with pytest.raises(AttributeError):
        on.recorder = None  # read-only


# ----------------------------------------------------------------------
# "No new knob": the refactor may not add, drop or reorder an option.
# ----------------------------------------------------------------------
FROZEN = {
    RuntimeChromaticEngine: [
        "self", "graph", "program", "num_workers", "transport",
        "consistency", "coloring", "partitioner", "assignment",
        "atoms_per_worker", "syncs", "initial_globals", "max_sweeps",
        "max_updates", "reply_timeout", "use_kernel", "merge_rounds",
        "use_plane", "plane_ring_cap", "snapshot_every", "snapshot_dir",
        "max_recoveries", "recovery_backoff", "telemetry",
    ],
    RuntimeLockingEngine: [
        "self", "graph", "program", "num_workers", "transport",
        "consistency", "scheduler", "pipeline_window", "round_budget",
        "partitioner", "assignment", "atoms_per_worker", "initial_globals",
        "max_updates", "max_rounds", "reply_timeout", "use_plane",
        "plane_ring_cap", "trace", "snapshot_every", "snapshot_dir",
        "snapshot_mode", "max_recoveries", "recovery_backoff", "telemetry",
    ],
    GraphService: [
        "self", "graph", "program", "engine", "num_workers", "transport",
        "consistency", "scheduler", "queue_limit", "batch_max", "warm",
        "touch", "telemetry", "snapshot_every", "snapshot_dir",
        "engine_kwargs",
    ],
}


@pytest.mark.parametrize("cls", list(FROZEN), ids=lambda c: c.__name__)
def test_constructor_signature_is_frozen(cls):
    assert list(inspect.signature(cls.__init__).parameters) == FROZEN[cls]


@both_engines
def test_engines_define_no_lifecycle_of_their_own(engine_cls):
    """One definition each, in the core — not a copy per engine."""
    assert issubclass(engine_cls, RuntimeCore)
    for name in (
        "run", "open_service", "service_barrier", "close_service",
        "_build_result", "_baseline_snapshot", "_recover_from",
        "_restore_cluster", "_send_round", "_collect_and_write_back",
        "_rec", "recorder", "_provision_plane", "_encoded_inits",
    ):
        assert name not in vars(engine_cls), name
        assert name in vars(RuntimeCore), name
