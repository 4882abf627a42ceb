"""The shared engine lifecycle (PR 16): what ``RuntimeCore`` owns once.

Both runtime engines inherit run / recover / snapshot / serve from
:class:`repro.runtime.core.RuntimeCore`; these tests pin the lifecycle
contract on *both* subclasses and both local transports, so the
behaviours that used to agree only because two copies were kept in sync
now fail in one place if the core drifts. PR 17 did the same one layer
down — process supervision lives once, in ``ProcessSupervisor`` — and
the frozen-signature / one-definition checks at the bottom cover it.
"""

import dataclasses
import inspect
import pathlib
import re

import pytest

from repro.errors import EngineError
import repro.runtime
from repro.runtime import (
    CheckpointManager,
    FAULT_ENV,
    FAULT_MODES,
    InprocTransport,
    LoopbackTcpTransport,
    MpTransport,
    RuntimeChromaticEngine,
    RuntimeLockingEngine,
    TcpTransport,
    Transport,
    WorkerFailure,
    make_transport,
)
from repro.runtime.chromatic_worker import RuntimeWorker, WorkerInit
from repro.runtime.core import RuntimeCore
from repro.runtime.locking_worker import LockingWorker, LockWorkerInit
from repro.runtime.transport import ProcessSupervisor
from repro.runtime.worker_base import WorkerBase, WorkerInitBase
from repro.serve import GraphService

from tests.helpers import assert_torn_down, plane_segments
from tests.helpers import typed_ring_graph as typed_graph

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
        "recoveries", "recovery_seconds", "recovery_causes",
    }
    own = {
        RuntimeChromaticEngine: set(),
        RuntimeLockingEngine: {
            "pipeline_window", "executing_workers",
        },
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
        "max_updates", "reply_timeout", "use_kernel",
        "use_plane", "snapshot_every", "snapshot_dir",
        "max_recoveries", "recovery_backoff", "telemetry",
    ],
    RuntimeLockingEngine: [
        "self", "graph", "program", "num_workers", "transport",
        "consistency", "scheduler", "pipeline_window", "round_budget",
        "partitioner", "assignment", "atoms_per_worker", "initial_globals",
        "max_updates", "max_rounds", "reply_timeout", "use_plane",
        "trace", "snapshot_every", "snapshot_dir",
        "snapshot_mode", "max_recoveries", "recovery_backoff", "telemetry",
    ],
    GraphService: [
        "self", "graph", "program", "engine", "num_workers", "transport",
        "consistency", "scheduler", "queue_limit", "batch_max", "warm",
        "touch", "telemetry", "snapshot_every", "snapshot_dir",
        "engine_kwargs",
    ],
    InprocTransport: ["self", "num_workers"],
    MpTransport: [
        "self", "num_workers", "start_method", "reply_timeout",
        "heartbeat_interval", "heartbeat_timeout", "deadline_floor",
        "deadline_slack",
    ],
    TcpTransport: [
        "self", "num_workers", "host", "port", "start_method",
        "reply_timeout", "heartbeat_interval", "heartbeat_timeout",
        "deadline_floor", "deadline_slack", "retry_budget", "retry_policy",
        "dial_policy",
    ],
    LoopbackTcpTransport: ["self", "num_workers", "kwargs"],
    make_transport: ["backend", "num_workers", "reply_timeout"],
}


@pytest.mark.parametrize("obj", list(FROZEN), ids=lambda c: c.__name__)
def test_constructor_signature_is_frozen(obj):
    func = obj.__init__ if inspect.isclass(obj) else obj
    assert list(inspect.signature(func).parameters) == FROZEN[obj]


def test_liveness_defaults_and_fault_grammar_are_frozen():
    """Same knobs, same values, on every process backend; same fault
    vocabulary and per-backend injectable subset; same env variables."""
    liveness = {
        "start_method": None, "reply_timeout": 120.0,
        "heartbeat_interval": 0.25, "heartbeat_timeout": 2.0,
        "deadline_floor": 30.0, "deadline_slack": 8.0,
    }
    for cls, extra in (
        (MpTransport, {}),
        (TcpTransport, {
            "host": "127.0.0.1", "port": 0, "retry_budget": 4,
            "retry_policy": None, "dial_policy": None,
        }),
    ):
        params = inspect.signature(cls.__init__).parameters
        defaults = {
            name: p.default for name, p in params.items()
            if p.default is not inspect.Parameter.empty
        }
        assert defaults == {**liveness, **extra}
    assert FAULT_MODES == (
        "kill", "hang", "stall", "corrupt_reply", "corrupt_snapshot",
        "crash_mid_snapshot", "drop_conn", "delay", "partition",
        "reset_mid_frame",
    )
    process = {"kill", "hang", "stall", "corrupt_reply", "crash_mid_snapshot"}
    network = {"drop_conn", "delay", "partition", "reset_mid_frame"}
    assert InprocTransport.fault_caps == process
    assert MpTransport.fault_caps == process
    assert TcpTransport.fault_caps == process | network
    assert LoopbackTcpTransport.fault_caps == (
        network | {"stall", "corrupt_reply"}
    )
    env = set()
    for path in pathlib.Path(repro.runtime.__file__).parent.glob("*.py"):
        env |= set(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    assert env == {"REPRO_FAULT", "REPRO_NO_SHM"}
    assert FAULT_ENV == "REPRO_FAULT"


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


def test_process_backends_define_no_supervision_of_their_own():
    """One definition each, in the supervisor — the pipe and the socket
    backend supply link primitives, not a second copy of the loop."""
    for cls in (MpTransport, TcpTransport, LoopbackTcpTransport):
        assert issubclass(cls, ProcessSupervisor)
        for name in (
            "_launch", "_round", "_recv", "_recover", "_shutdown", "_reap",
            "reply_deadline", "_observe_round", "_round_ema", "_fire_kills",
            "kill_worker", "_with_directive", "_arm_fault",
        ):
            assert name not in vars(cls), (cls.__name__, name)
    for name in ("_spawn", "_send", "_poll", "_link_lost", "_close_link"):
        assert name in vars(ProcessSupervisor), name
        assert name in vars(MpTransport), name
        assert name in vars(TcpTransport), name
    assert "__init__" not in vars(MpTransport)
    assert "_arm_fault" in vars(Transport)


def test_supervision_is_defined_once_under_runtime():
    """The reply-wait loop, recover, shutdown, the send-all-receive-all
    round, the liveness block, the worker command core, the ready ack
    and fault arming: one ``def`` (or one construction) each in the
    whole package."""
    source = {
        path.name: path.read_text()
        for path in pathlib.Path(repro.runtime.__file__).parent.glob("*.py")
    }

    def homes(pattern):
        return sorted(
            name for name, text in source.items()
            for _ in re.finditer(pattern, text, flags=re.M)
        )

    transport_defs = {
        # Transport's abstract hook + InprocTransport + the supervisor.
        r"^    def _round\(": 3,
        r"^    def _recover\(": 3,
        r"^    def _shutdown\(": 3,
        r"^    def _recv\(": 1,
        r"^    def _reap\(": 1,
        r"^    def reply_deadline\(": 1,
        r"^    def _observe_round\(": 1,
        r"^    def _arm_fault\(": 1,
        r"AdaptiveDeadline\(\n": 1,
    }
    for pattern, count in transport_defs.items():
        assert homes(pattern) == ["transport.py"] * count, pattern
    assert homes(r"^def run_command\(") == ["worker.py"]
    assert homes(r"^def ready_ack\(") == ["worker.py"]
    # The pieces the shared code replaced are spelled nowhere else.
    assert homes(r"worker\.handle\(") == ["transport.py"] * 2 + ["worker.py"]
    assert homes(r"\"clk\":") == ["worker.py"]
    assert homes(r"_execute_fault\(") == ["worker.py"] * 2
    assert homes(r"del self\._fault_plan\[") == ["transport.py"]
    assert homes(r"heartbeats_received \+= 1") == ["transport.py"]
    assert homes(r"proc\.terminate\(\)") == ["transport.py"]
    assert homes(r"struct\.Struct\(\"!cI\"\)") == ["frames.py"]


def test_worker_skeleton_is_defined_once_under_runtime():
    """The chromatic and locking workers are two scheduling policies
    over one base: worker construction, inbox application, command
    dispatch and the collect / checkpoint / restore / serve commands
    have one ``def`` (or one construction) each in the whole package,
    neither kind redefines them, and each init field is declared once.
    Snapshots likewise: one synchronous snapshot, one journal writer,
    and one commit — the only code that writes a MANIFEST or COMPLETE."""
    source = {
        path.name: path.read_text()
        for path in pathlib.Path(repro.runtime.__file__).parent.glob("*.py")
    }

    def homes(pattern):
        return sorted(
            name for name, text in source.items()
            for _ in re.finditer(pattern, text, flags=re.M)
        )

    for pattern in (
        r"^    def handle\(",
        r"^    def _apply_inbox\(",
        r"^    def _apply_entries\(",
        r"^    def _collect\(",
        r"^    def _checkpoint\(",
        r"^    def _restore\(",
        r"^    def _serve\(",
        r"CSRShardStore\(init\.",
        r"resolve_program\(init\.",
        r"GlobalValues\(init\.",
        r"SpanRecorder\(\)",
        r"= Scope\(",
    ):
        assert homes(pattern) == ["worker_base.py"], pattern
    shared = {
        "handle", "_handle", "_reply", "attach_plane", "close_plane",
        "_apply_entries", "_apply_inbox", "_collect_dirty_part",
        "_collect", "_checkpoint", "_restore", "_serve",
    }
    assert shared <= set(vars(WorkerBase))
    for cls in (RuntimeWorker, LockingWorker):
        assert issubclass(cls, WorkerBase)
        assert "handle" not in vars(cls), cls.__name__
        assert not (shared - {"_handle"}) & set(vars(cls)), cls.__name__
    assert homes(r"^    def _take_snapshot\(") == ["core.py"]
    assert homes(r"^    def _write_journal\(") == ["worker_base.py"]
    assert homes(r"^    def commit\(") == ["checkpoint.py"]
    assert homes(r"\.write_manifest\(") == ["checkpoint.py"]
    assert homes(r"\.mark_complete\(") == ["checkpoint.py"]
    commit = inspect.getsource(CheckpointManager.commit)
    assert ".write_manifest(" in commit and ".mark_complete(" in commit
    base_fields = {f.name for f in dataclasses.fields(WorkerInitBase)}
    for init_cls in (WorkerInit, LockWorkerInit):
        assert issubclass(init_cls, WorkerInitBase)
        own = set(vars(init_cls).get("__annotations__", {}))
        assert own and not own & base_fields, init_cls.__name__
