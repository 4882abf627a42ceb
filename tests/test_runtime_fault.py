"""Fault injection and failure plumbing on the runtime transports.

Satellites of the fault-tolerance PR (paper Sec. 4.3): one structured
:class:`WorkerFailure` shape for every raise site, the deterministic
kill schedules (``schedule_kill`` / the ``REPRO_FAULT`` environment
knob) on both backends, shutdown idempotence after a failed launch (no
double-released shm segments), and Young's checkpoint-interval helper.
Recovery itself — snapshots, respawn, rollback — is exercised in
``tests/test_runtime_checkpoint.py``.
"""

import doctest
import glob
import multiprocessing
import os
import time

import pytest

from repro.errors import EngineError, FaultSpecError
from repro.runtime import (
    FAULT_ENV,
    FaultSpec,
    InprocTransport,
    MpTransport,
    RuntimeChromaticEngine,
    TcpTransport,
    WorkerFailure,
    parse_fault_plan,
)
from repro.runtime.plane import shm_available

from tests.helpers import grid_graph, typed_ring_graph

#: Every process-backed backend runs the one supervisor: what holds for
#: the pipe must hold, unchanged, for the socket.
process_backends = pytest.mark.parametrize(
    "transport_cls", [MpTransport, TcpTransport], ids=["mp", "tcp"]
)

#: The CI fault lane exports a REPRO_FAULT kill schedule for the whole
#: job. Captured at import, before the autouse fixture below clears it:
#: every test here stays deterministic, and the ambient-recovery test
#: replays the lane's schedule explicitly.
_AMBIENT_PLAN = os.environ.get(FAULT_ENV)


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


def exploding(scope):
    raise RuntimeError(f"boom at vertex {scope.vertex}")


class TestWorkerFailureShape:
    """Satellite: one structured exception for every failure mode."""

    def test_attributes_and_message(self):
        exc = WorkerFailure(
            3, "it died", last_command="step", phase="reply"
        )
        assert exc.worker_id == 3
        assert exc.detail == "it died"
        assert exc.last_command == "step"
        assert exc.phase == "reply"
        assert "worker 3 failed" in str(exc)
        assert "'step'" in str(exc)
        assert "'reply'" in str(exc)
        assert "it died" in str(exc)
        assert isinstance(exc, EngineError)

    def test_worker_exception_is_structured(self):
        g = grid_graph(3, 3)
        engine = RuntimeChromaticEngine(
            g, exploding, num_workers=2, transport="inproc"
        )
        with pytest.raises(WorkerFailure) as info:
            engine.run(initial=g.vertices())
        exc = info.value
        assert exc.worker_id in (0, 1)
        assert exc.last_command == "step"
        assert exc.phase == "reply"
        assert "boom at vertex" in exc.detail


class TestFaultPlan:
    def test_parse_rounds_and_launch(self):
        plan = parse_fault_plan(" 1:3, 0:launch ,2:0")
        assert {w: spec.when for w, spec in plan.items()} == {
            1: 3, 0: "launch", 2: 0
        }
        assert all(spec.mode == "kill" for spec in plan.values())

    def test_parse_modes_and_args(self):
        plan = parse_fault_plan(
            "0:2:hang,1:3:stall=0.5,2:1:corrupt_reply,"
            "3:0:corrupt_snapshot,4:5:crash_mid_snapshot"
        )
        assert plan[0] == FaultSpec(when=2, mode="hang")
        assert plan[1] == FaultSpec(when=3, mode="stall", arg=0.5)
        assert plan[2].mode == "corrupt_reply"
        assert plan[3].mode == "corrupt_snapshot"
        assert plan[4] == FaultSpec(when=5, mode="crash_mid_snapshot")

    def test_parse_empty(self):
        assert parse_fault_plan(None) == {}
        assert parse_fault_plan("") == {}

    @pytest.mark.parametrize("bad", ["1", "x:3", "1:soon", "1:3.5"])
    def test_parse_malformed(self, bad):
        with pytest.raises(EngineError):
            parse_fault_plan(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            "1",                      # no when
            "x:3",                    # bad worker id
            "-1:3",                   # negative worker id
            "1:soon",                 # unknown round token
            "1:3.5",                  # fractional round
            "1:3:melt",               # unknown mode
            "1:3:stall",              # stall without seconds
            "1:3:stall=soon",         # non-numeric arg
            "1:3:hang=2",             # arg on a mode that takes none
            "1:launch:hang",          # only kill can fire at launch
            "1:3,1:5",                # duplicate schedule
        ],
    )
    def test_malformed_raises_valueerror_naming_fragment(self, bad):
        """Satellite: every malformed fragment raises a ValueError (and
        an EngineError) whose message quotes the fragment itself."""
        with pytest.raises(ValueError) as info:
            parse_fault_plan(bad)
        assert isinstance(info.value, FaultSpecError)
        assert isinstance(info.value, EngineError)
        offending = bad.split(",")[-1]
        assert repr(offending) in str(info.value)

    def test_duplicate_schedule_rejected(self):
        with pytest.raises(FaultSpecError) as info:
            parse_fault_plan("0:1,0:2")
        assert "duplicate" in str(info.value)
        assert "worker 0" in str(info.value)

    def test_env_seeds_plan_within_range(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "1:4,7:2")
        transport = InprocTransport(2)
        # Entry for worker 7 is ignored: one schedule can drive a whole
        # test run over transports of different sizes.
        assert transport._fault_plan == {1: FaultSpec(when=4)}

    def test_corrupt_snapshot_entries_skip_transport(self, monkeypatch):
        # Disk faults belong to the CheckpointManager; the transport
        # must not treat the snapshot id as a round number.
        monkeypatch.setenv(FAULT_ENV, "0:1:corrupt_snapshot,1:4")
        transport = InprocTransport(2)
        assert transport._fault_plan == {1: FaultSpec(when=4)}

    def test_schedule_kill_validates(self):
        transport = InprocTransport(2)
        with pytest.raises(EngineError):
            transport.schedule_kill(5, 1)
        with pytest.raises(EngineError):
            transport.schedule_kill(0, "soon")

    def test_schedule_fault_validates(self):
        transport = InprocTransport(2)
        with pytest.raises(FaultSpecError):
            transport.schedule_fault(0, 1, mode="melt")
        with pytest.raises(FaultSpecError):
            transport.schedule_fault(0, 1, mode="stall")  # needs arg
        with pytest.raises(FaultSpecError):
            transport.schedule_fault(0, "launch", mode="hang")
        with pytest.raises(FaultSpecError):
            transport.schedule_fault(0, 1, mode="corrupt_snapshot")
        transport.schedule_fault(1, 2, mode="stall", arg=0.01)
        assert transport._fault_plan[1].arg == 0.01


class TestInjectedKills:
    def test_inproc_round_kill_without_snapshots(self):
        g = grid_graph(4, 4)
        engine = RuntimeChromaticEngine(
            g, flood_max, num_workers=2, transport="inproc"
        )
        engine.transport.schedule_kill(1, 2)
        with pytest.raises(WorkerFailure) as info:
            engine.run(initial=g.vertices())
        assert info.value.worker_id == 1
        assert info.value.phase == "reply"
        assert "injected fault" in info.value.detail

    def test_env_knob_drives_engine(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "0:1")
        g = grid_graph(4, 4)
        engine = RuntimeChromaticEngine(
            g, flood_max, num_workers=2, transport="inproc"
        )
        with pytest.raises(WorkerFailure) as info:
            engine.run(initial=g.vertices())
        assert info.value.worker_id == 0

    def test_inproc_launch_kill(self):
        transport = InprocTransport(2)
        transport.schedule_kill(0, "launch")
        g = grid_graph(3, 3)
        engine = RuntimeChromaticEngine(
            g, flood_max, num_workers=2, transport=transport
        )
        with pytest.raises(WorkerFailure) as info:
            engine.run(initial=g.vertices())
        assert info.value.worker_id == 0
        assert info.value.phase == "launch"
        assert info.value.last_command == "launch"

    @process_backends
    def test_launch_kill(self, transport_cls):
        transport = transport_cls(2)
        transport.schedule_kill(1, "launch")
        g = grid_graph(3, 3)
        engine = RuntimeChromaticEngine(
            g, flood_max, num_workers=2, transport=transport
        )
        with pytest.raises(WorkerFailure) as info:
            engine.run(initial=g.vertices())
        assert info.value.worker_id == 1
        assert info.value.phase == "launch"

    @process_backends
    def test_round_kill(self, transport_cls):
        transport = transport_cls(2)
        transport.schedule_kill(0, 1)
        g = grid_graph(4, 4)
        engine = RuntimeChromaticEngine(
            g, flood_max, num_workers=2, transport=transport
        )
        with pytest.raises(WorkerFailure) as info:
            engine.run(initial=g.vertices())
        assert info.value.worker_id == 0
        # The kill surfaces either as a broken link at the next send or
        # as a dead process while awaiting the reply — both structured.
        assert info.value.phase in ("send", "reply")


class TestAdaptiveDeadline:
    """Tentpole: the per-round reply deadline tracks an EMA of observed
    round durations instead of the fixed two-minute timeout."""

    @process_backends
    def test_deadline_tracks_ema_between_floor_and_cap(self, transport_cls):
        transport = transport_cls(
            2, reply_timeout=120.0, deadline_floor=30.0, deadline_slack=8.0
        )
        # No history yet (launch included): the historical hard cap.
        assert transport.reply_deadline() == 120.0
        transport._observe_round(0.01)
        # Fast rounds are floor-clamped — early noise can't shrink the
        # deadline into false-kill territory.
        assert transport.reply_deadline() == 30.0
        transport._round_ema = 10.0
        # Slow histories earn proportionally long deadlines...
        assert transport.reply_deadline() == 80.0
        transport._round_ema = 1000.0
        # ...but never beyond the hard cap.
        assert transport.reply_deadline() == 120.0

    @process_backends
    def test_ema_blend(self, transport_cls):
        transport = transport_cls(2)
        transport._observe_round(1.0)
        assert transport._round_ema == 1.0
        transport._observe_round(2.0)
        assert abs(transport._round_ema - 1.2) < 1e-12


class TestLiveness:
    """Tentpole: a hung worker is declared dead in seconds via missed
    progress heartbeats; a slow-but-alive worker never is."""

    @process_backends
    def test_hang_detected_quickly(self, transport_cls):
        transport = transport_cls(
            2, heartbeat_interval=0.05, heartbeat_timeout=0.8
        )
        transport.schedule_fault(1, 0, mode="hang")
        g = grid_graph(4, 4)
        engine = RuntimeChromaticEngine(
            g, flood_max, num_workers=2, transport=transport
        )
        t0 = time.monotonic()
        with pytest.raises(WorkerFailure) as info:
            engine.run(initial=g.vertices())
        elapsed = time.monotonic() - t0
        assert info.value.worker_id == 1
        assert "hung" in info.value.detail
        assert "heartbeat" in info.value.detail
        # Without heartbeats this would sit out the full reply_timeout
        # (120s); with them the hang surfaces in about heartbeat_timeout.
        assert elapsed < 10.0
        assert transport.last_fault_fired_at is not None

    def test_mp_hang_recovery_matches_clean_run(self):
        g_clean = grid_graph(4, 4)
        clean = RuntimeChromaticEngine(
            g_clean, flood_max, num_workers=2, transport="inproc"
        )
        clean.run(initial=g_clean.vertices())
        transport = MpTransport(
            2, heartbeat_interval=0.05, heartbeat_timeout=0.8
        )
        transport.schedule_fault(1, 2, mode="hang")
        g = grid_graph(4, 4)
        engine = RuntimeChromaticEngine(
            g, flood_max, num_workers=2, transport=transport,
            snapshot_every=1, max_recoveries=1, recovery_backoff=0.0,
        )
        result = engine.run(initial=g.vertices())
        assert result.converged
        assert result.extra["recoveries"] == 1
        assert all(
            g.vertex_data(v) == g_clean.vertex_data(v)
            for v in g.vertices()
        )

    @process_backends
    def test_stall_is_slow_not_dead(self, transport_cls):
        # The stall (1.2s) dwarfs heartbeat_timeout (0.4s), but the
        # heartbeat pump keeps beating through a sleep — only a genuine
        # freeze goes silent. No false kill.
        transport = transport_cls(
            2, heartbeat_interval=0.05, heartbeat_timeout=0.4
        )
        transport.schedule_fault(0, 1, mode="stall", arg=1.2)
        g = grid_graph(4, 4)
        engine = RuntimeChromaticEngine(
            g, flood_max, num_workers=2, transport=transport
        )
        result = engine.run(initial=g.vertices())
        assert result.converged
        assert transport.heartbeats_received > 0

    @process_backends
    def test_corrupt_reply_is_structured(self, transport_cls):
        transport = transport_cls(2)
        transport.schedule_fault(1, 1, mode="corrupt_reply")
        g = grid_graph(4, 4)
        engine = RuntimeChromaticEngine(
            g, flood_max, num_workers=2, transport=transport
        )
        with pytest.raises(WorkerFailure) as info:
            engine.run(initial=g.vertices())
        assert info.value.worker_id == 1
        assert "corrupt reply" in info.value.detail

    def test_inproc_hang_and_corrupt_reply_deterministic(self):
        for mode, needle in (
            ("hang", "hung"),
            ("corrupt_reply", "corrupt reply"),
        ):
            transport = InprocTransport(2)
            transport.schedule_fault(1, 1, mode=mode)
            g = grid_graph(4, 4)
            engine = RuntimeChromaticEngine(
                g, flood_max, num_workers=2, transport=transport
            )
            with pytest.raises(WorkerFailure) as info:
                engine.run(initial=g.vertices())
            assert info.value.worker_id == 1
            assert needle in info.value.detail

    def test_inproc_crash_mid_snapshot_recovers_from_previous(self):
        # A multi-sweep workload so a real checkpoint round happens
        # (flood_max on a uniform grid converges before the cadence is
        # ever due).
        from repro.apps.pagerank import make_pagerank_update
        from repro.datasets.webgraph import power_law_web_graph
        from repro.runtime import UpdateProgram

        program = UpdateProgram(
            make_pagerank_update,
            kwargs={"schedule": "out", "epsilon": 1e-4},
        )
        transport = InprocTransport(2)
        transport.schedule_fault(0, 0, mode="crash_mid_snapshot")
        g = power_law_web_graph(60, out_degree=3, seed=11)
        engine = RuntimeChromaticEngine(
            g, program, num_workers=2, transport=transport,
            max_sweeps=100, snapshot_every=1, max_recoveries=1,
            recovery_backoff=0.0,
        )
        result = engine.run(initial=g.vertices())
        # The worker died mid-checkpoint; the aborted snapshot never got
        # its COMPLETE marker, so recovery fell back to the previous one
        # and the run still finished.
        assert result.extra["recoveries"] == 1
        clean_g = power_law_web_graph(60, out_degree=3, seed=11)
        RuntimeChromaticEngine(
            clean_g, program, num_workers=2, transport="inproc",
            max_sweeps=100,
        ).run(initial=clean_g.vertices())
        assert all(
            g.vertex_data(v) == clean_g.vertex_data(v)
            for v in g.vertices()
        )


class TestHangKillReleasesResources:
    """Satellite: recovery/shutdown after a hang-kill releases the shm
    segment and both pipe ends — the PR 6 leak regression, extended to
    the hung (SIGSTOP → straight SIGKILL) path."""

    @pytest.mark.skipif(
        not shm_available() or not os.path.isdir("/dev/shm"),
        reason="POSIX shared memory unavailable",
    )
    def test_hang_recover_then_shutdown_releases_everything(self):
        before = set(glob.glob("/dev/shm/repro-plane-*"))
        transport = MpTransport(
            2, heartbeat_interval=0.05, heartbeat_timeout=0.8
        )
        transport.schedule_fault(1, 1, mode="hang")
        g = grid_graph(4, 4)
        engine = RuntimeChromaticEngine(
            g, flood_max, num_workers=2, transport=transport,
            snapshot_every=1, max_recoveries=1, recovery_backoff=0.0,
        )
        result = engine.run(initial=g.vertices())
        assert result.extra["recoveries"] == 1
        # run() shut the transport down; again must be a no-op.
        transport.shutdown()
        assert set(glob.glob("/dev/shm/repro-plane-*")) <= before
        assert all(conn.closed for conn in transport._conns)
        assert transport._hung == set()
        assert all(not _proc_is_alive(p) for p in transport._procs)


#: case -> (schedule, extra constructor knobs, commands to drive,
#: expected ``(worker_id, phases, last_command, hung)`` or ``None`` when
#: the run must *not* fail). ``phases`` is a set only for the round
#: kill: a dead pipe already fails at the write, a dead socket at the
#: next read — both structured, the one place the link's nature shows.
_NOOP = ("sync_count", {})
#: A snapshot command: its ``journal`` marker (snapshot 0) gets the
#: test's own directory as the root the surviving worker writes to.
_CHECKPOINT = ("checkpoint", {"journal": (0, None)})
_SUPERVISED = {
    "kill_at_launch": (
        lambda t: t.schedule_kill(1, "launch"), {}, [],
        (1, {"launch"}, "launch", set()),
    ),
    "kill_at_round": (
        lambda t: t.schedule_kill(1, 1), {}, [_NOOP, _NOOP],
        (1, {"send", "reply"}, "sync_count", set()),
    ),
    "hang": (
        lambda t: t.schedule_fault(1, 1, mode="hang"), {}, [_NOOP, _NOOP],
        (1, {"reply"}, "sync_count", {1}),
    ),
    "stall": (
        lambda t: t.schedule_fault(0, 1, mode="stall", arg=1.2),
        {"heartbeat_timeout": 0.4}, [_NOOP, _NOOP],
        None,
    ),
    "corrupt_reply": (
        lambda t: t.schedule_fault(1, 1, mode="corrupt_reply"), {},
        [_NOOP, _NOOP],
        (1, {"reply"}, "sync_count", {1}),
    ),
    "crash_mid_snapshot": (
        lambda t: t.schedule_fault(1, 0, mode="crash_mid_snapshot"), {},
        [_NOOP, _CHECKPOINT],
        (1, {"reply"}, "checkpoint", set()),
    ),
    # No heartbeats, so only the adaptive deadline can end the wait:
    # after one fast round it sits on its floor.
    "blown_deadline": (
        lambda t: t.schedule_fault(1, 1, mode="stall", arg=30.0),
        {"heartbeat_interval": None, "deadline_floor": 0.5,
         "reply_timeout": 5.0},
        [_NOOP, _NOOP],
        (1, {"reply"}, "sync_count", set()),
    ),
}


def _link_closed(link):
    if hasattr(link, "closed"):  # multiprocessing Connection
        return link.closed
    return link.fileno() == -1  # socket


class TestSupervisorParity:
    """Tentpole (PR 17): process supervision exists once, so a dead,
    hung, slow or lying worker looks the same over a pipe and a socket
    — same structured failure, same ``_hung`` bookkeeping, same
    respawn, same clean teardown."""

    @pytest.mark.parametrize("case", list(_SUPERVISED))
    def test_mp_and_tcp_fail_recover_and_stop_alike(self, case, tmp_path):
        schedule, knobs, commands, expected = _SUPERVISED[case]
        before = set(glob.glob("/dev/shm/repro-plane-*"))
        seen = {}
        for transport_cls in (MpTransport, TcpTransport):
            kw = {"heartbeat_interval": 0.05, "heartbeat_timeout": 0.8}
            kw.update(knobs)
            transport = transport_cls(2, **kw)
            schedule(transport)
            engine = RuntimeChromaticEngine(
                typed_ring_graph(), flood_max, num_workers=2, transport=transport
            )
            failure = None
            try:
                engine._provision_plane()
                inits = list(engine._encoded_inits())
                try:
                    transport.launch(iter(inits))
                    for command in commands:
                        if command is _CHECKPOINT:
                            command = (
                                "checkpoint", {"journal": (0, str(tmp_path))}
                            )
                        transport.round([command] * 2)
                except WorkerFailure as exc:
                    failure = exc
                if expected is None:
                    assert failure is None, failure
                    assert transport.heartbeats_received > 0
                    assert transport._hung == set()
                    seen[transport.name] = None
                else:
                    assert failure is not None
                    seen[transport.name] = (
                        failure.worker_id,
                        failure.phase,
                        failure.last_command,
                        set(transport._hung),
                    )
                    assert transport.last_fault_fired_at is not None
                    # The respawn answers with a fresh ready ack and
                    # the cluster is whole again.
                    t0 = time.perf_counter()
                    ack = transport.recover(
                        failure.worker_id, inits[failure.worker_id]
                    )
                    assert ack["worker"] == failure.worker_id
                    assert ack["clk"] >= t0
                    assert transport._hung == set()
                    assert transport.round([_NOOP] * 2) == [
                        {"partials": []}, {"partials": []}
                    ]
                procs = list(transport._procs)
                links = list(transport._conns)
            finally:
                transport.shutdown()
            # No live child, no open link, no leaked segment.
            assert all(not _proc_is_alive(p) for p in procs)
            assert not multiprocessing.active_children()
            assert all(_link_closed(link) for link in links)
            assert getattr(transport, "_listener", None) is None
            assert transport._hung == set()
            assert set(glob.glob("/dev/shm/repro-plane-*")) <= before
        if expected is None:
            assert seen == {"mp": None, "tcp": None}
            return
        worker_id, phases, last_command, hung = expected
        for got in seen.values():
            assert got[0] == worker_id
            assert got[1] in phases
            assert got[2] == last_command
            assert got[3] == hung
        if len(phases) == 1:
            assert seen["mp"] == seen["tcp"]


def _proc_is_alive(proc):
    try:
        return proc.is_alive()
    except ValueError:  # handle already closed — certainly not alive
        return False


class TestShutdownAfterFailedLaunch:
    """Satellite bugfix: shutdown after a failed launch is idempotent
    and never double-releases the data plane."""

    def _leaked_segments(self):
        return glob.glob("/dev/shm/repro-plane-*")

    def test_inproc_double_shutdown(self):
        transport = InprocTransport(2)
        transport.schedule_kill(0, "launch")
        g = grid_graph(3, 3)
        engine = RuntimeChromaticEngine(
            g, flood_max, num_workers=2, transport=transport
        )
        with pytest.raises(WorkerFailure):
            engine.run(initial=g.vertices())
        # run() already shut the transport down in its finally; both of
        # these must be no-ops, not double releases.
        transport.shutdown()
        transport.shutdown()
        with pytest.raises(EngineError):
            transport.round([("step", {}), ("step", {})])

    @pytest.mark.skipif(
        not shm_available() or not os.path.isdir("/dev/shm"),
        reason="POSIX shared memory unavailable",
    )
    def test_mp_failed_launch_releases_shm_once(self):
        before = set(self._leaked_segments())
        transport = MpTransport(2)
        transport.schedule_kill(1, "launch")
        g = grid_graph(3, 3)
        engine = RuntimeChromaticEngine(
            g, flood_max, num_workers=2, transport=transport
        )
        with pytest.raises(WorkerFailure):
            engine.run(initial=g.vertices())
        transport.shutdown()
        transport.shutdown()
        assert set(self._leaked_segments()) <= before

    @process_backends
    def test_shutdown_never_launched(self, transport_cls):
        transport = transport_cls(2)
        transport.shutdown()
        transport.shutdown()


class TestRecoverValidation:
    def test_recover_before_launch(self):
        transport = InprocTransport(2)
        with pytest.raises(EngineError):
            transport.recover(0, b"")

    def test_recover_after_shutdown(self):
        g = grid_graph(2, 2)
        engine = RuntimeChromaticEngine(
            g, flood_max, num_workers=2, transport="inproc"
        )
        engine.run(initial=g.vertices())  # run() shuts the transport down
        with pytest.raises(EngineError):
            engine.transport.recover(0, b"")

    def test_recover_bad_worker_id(self):
        g = grid_graph(2, 2)
        engine = RuntimeChromaticEngine(
            g, flood_max, num_workers=2, transport="inproc"
        )
        transport = engine.transport
        try:
            transport.launch(engine._encoded_inits())
            with pytest.raises(EngineError):
                transport.recover(9, b"")
        finally:
            transport.shutdown()


class TestAmbientFaultRecovery:
    """The CI fault lane's schedule, replayed against a snapshotting
    engine: whatever round-kills the lane exported must be survivable."""

    def test_recovers_under_lane_schedule(self):
        from repro.apps.pagerank import make_pagerank_update
        from repro.datasets.webgraph import power_law_web_graph
        from repro.runtime import UpdateProgram

        plan = parse_fault_plan(_AMBIENT_PLAN or "1:3")
        kills = {
            w: spec.when
            for w, spec in plan.items()
            if spec.mode == "kill" and isinstance(spec.when, int)
            and 0 <= w < 2
        }
        assert kills, "fault lane must schedule at least one round kill"
        program = UpdateProgram(
            make_pagerank_update,
            kwargs={"schedule": "out", "epsilon": 1e-4},
        )
        clean = power_law_web_graph(60, out_degree=3, seed=11)
        RuntimeChromaticEngine(
            clean, program, num_workers=2, transport="inproc",
            max_sweeps=100,
        ).run(initial=clean.vertices())
        faulty = power_law_web_graph(60, out_degree=3, seed=11)
        engine = RuntimeChromaticEngine(
            faulty, program, num_workers=2, transport="inproc",
            max_sweeps=100, snapshot_every=2,
            max_recoveries=len(kills), recovery_backoff=0.0,
        )
        for w, when in kills.items():
            engine.transport.schedule_kill(w, when)
        result = engine.run(initial=faulty.vertices())
        assert result.extra["recoveries"] == len(kills)
        assert all(
            clean.vertex_data(v) == faulty.vertex_data(v)
            for v in clean.vertices()
        )


class TestSuggestedInterval:
    def test_paper_example_is_three_hours(self):
        from repro.distributed.snapshot import suggested_interval

        hours = suggested_interval(64) / 3600.0
        assert round(hours, 1) == 3.0
        # Accepts anything with a num_workers attribute.
        transport = InprocTransport(64)
        assert suggested_interval(transport) == suggested_interval(64)

    def test_doctests(self):
        import repro.distributed.snapshot as snap

        failures, _tests = doctest.testmod(snap)
        assert failures == 0
