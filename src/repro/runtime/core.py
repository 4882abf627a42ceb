"""The runtime core: one run / recover / snapshot / serve lifecycle.

The paper's two engines (Sec. 4.2.1 chromatic, Sec. 4.2.2 locking) are
two ways of *scheduling scopes consistently* over one distributed
graph, one ghost/version protocol and one engine-independent
fault-tolerance mechanism (Sec. 4.3). :class:`RuntimeCore` is that
common part, written once: construction (transport, placement,
globals, snapshot/recovery config, telemetry), launch (data plane, one
shared init blob, baseline snapshot or ``resume_from`` restore), the
single round funnel (:meth:`RuntimeCore._send_round`), the failure →
recover → resume loop of :meth:`RuntimeCore.run`, the serving lifecycle
(:meth:`~RuntimeCore.open_service` / :meth:`~RuntimeCore.
service_barrier` / :meth:`~RuntimeCore.close_service`), the final
collect and the :class:`RuntimeRunResult`.

:class:`~repro.runtime.engine.RuntimeChromaticEngine` and
:class:`~repro.runtime.locking.RuntimeLockingEngine` subclass it and
answer only policy questions (the hooks at the bottom of the class):
what an empty inbox looks like, how a schedule seeds inboxes and resets
progress state, which worker-init record ships, what the cadence clock
counts, what a snapshot's meta record and per-worker restore ``sched``
are, what serve replies mean to the scheduler, what one unit of
progress is, and which extra keys the result carries. Every snapshot
commits through one step, :meth:`RuntimeCore._commit_snapshot`.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.consistency import Consistency
from repro.core.graph import DataGraph, VertexId
from repro.core.sync import GlobalValues
from repro.distributed.deploy import OwnershipPlan, plan_ownership
from repro.errors import EngineError, SnapshotError
from repro.obs.events import Stopwatch
from repro.obs.timeline import RunTelemetry, TimelineCollector, drain_telemetry
from repro.runtime.checkpoint import CheckpointManager, SnapshotCadence
from repro.runtime.plane import plane_spec_for
from repro.runtime.program import check_picklable
from repro.runtime.shard import (
    PlaneReader,
    gather_entries,
    make_journal,
    scatter_entries,
)
from repro.runtime.transport import Transport, WorkerFailure, make_transport
from repro.runtime.worker_base import encode_worker

#: Rounds a drain (a locking synchronous snapshot, a service close) may
#: spend reaching quiescence before giving up. Every drain round
#: strictly shrinks in-flight work, so hitting this means a protocol
#: bug, not a slow pipeline.
MAX_DRAIN_ROUNDS = 10_000


@dataclass
class RuntimeRunResult:
    """Summary of one real-process run.

    Mirrors :class:`~repro.core.engine.EngineResult` (same first four
    fields, so assertions port over) plus wall-clock and per-worker
    accounting — real seconds here, not simulated ones — and the
    communication counters the data plane exists to shrink: ``rounds``
    (transport barriers) and ``bytes_on_pipe`` (pickled bytes crossing
    coordinator pipes, both directions).
    """

    num_updates: int
    updates_per_vertex: Dict[VertexId, int]
    converged: bool
    globals: Dict[str, Any] = field(default_factory=dict)
    sweeps: int = 0
    wall_seconds: float = 0.0
    launch_seconds: float = 0.0
    num_workers: int = 1
    backend: str = "inproc"
    updates_per_worker: Dict[int, int] = field(default_factory=dict)
    rounds: int = 0
    bytes_on_pipe: int = 0
    data_plane: Optional[str] = None
    #: Assembled run timeline (:class:`repro.obs.timeline.RunTelemetry`)
    #: when the engine ran with ``telemetry=True``; ``None`` otherwise.
    telemetry: Optional[RunTelemetry] = None
    #: Engine-specific diagnostics (the locking engine parks its
    #: serializability trace, pipeline window and executing-worker
    #: tally here, mirroring the simulated engines'
    #: ``DistributedRunResult.extra``).
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def exec_seconds(self) -> float:
        """Wall time of execution proper, excluding worker launch.

        Launch (process start + the one-time pickled-structure ship) is
        the ingress phase of this backend; excluding it from throughput
        mirrors the simulated engines' ``include_load_time=False``
        default. Both components are reported, so nothing hides.
        """
        return max(self.wall_seconds - self.launch_seconds, 0.0)

    @property
    def updates_per_sec(self) -> float:
        """Real update throughput (0 for an instantaneous empty run)."""
        exec_seconds = self.exec_seconds
        if exec_seconds <= 0.0:
            return 0.0
        return self.num_updates / exec_seconds

    @property
    def rounds_per_sweep(self) -> float:
        """Average transport barriers per executed sweep."""
        if not self.sweeps:
            return 0.0
        return self.rounds / self.sweeps


def baseline_journals(
    graph: DataGraph, owner: Dict[VertexId, int], num_workers: int
) -> List[Dict[str, Any]]:
    """Synthesize the launch-time snapshot from the coordinator's graph.

    Taken before any round runs, so it needs no transport traffic — and
    therefore cannot itself be lost to an injected or real worker death:
    a failure in the very first round always has a complete snapshot
    (the initial state) to recover to. One vectorized gather per worker
    over the compiled columns, in the workers' own journal form (every
    owned vertex, every source-owned edge); versions are journaled as 0
    so a restore force-resets survivors' version clocks along with
    their values.
    """
    csr = graph.compiled
    owner_idx = csr.dense_map(owner)
    edge_owner = owner_idx[csr.edge_src_index]
    return [
        make_journal(
            gather_entries(
                csr.vdata,
                csr.edata,
                np.nonzero(owner_idx == w)[0],
                np.nonzero(edge_owner == w)[0],
            )
        )
        for w in range(num_workers)
    ]


def route_ghost_entries(
    inboxes: List[Dict[str, Any]], src: int, half: int, plane: Any, data: Any
) -> None:
    """Deliver one reply's ghost entries into their destination inboxes:
    ring descriptors ``{dst: (v_start, v_count, e_start, e_count)}``
    tagged with the writer and its ring half, and pickled overflow
    batches ``{dst: entries}`` concatenated in arrival order."""
    if plane:
        for dst, run in plane.items():
            inboxes[dst]["plane"].append(
                (src, half, run[0], run[1], run[2], run[3])
            )
    if data:
        for dst, batch in data.items():
            inbox = inboxes[dst]
            if inbox["data"] is None:
                inbox["data"] = batch
            else:
                inbox["data"].extend(batch)


class RuntimeCore:
    """Engine lifecycle shared by the chromatic and locking engines.

    Not instantiable on its own. A subclass is a scheduling policy and
    must define:

    ``engine_name``
        tag stamped on snapshot meta records and telemetry;
    ``_empty_inbox()``
        a fresh routing inbox for one worker;
    ``_reset_progress(initial)``
        seed ``self._inboxes`` from the initial schedule and reset the
        progress state (task set / termination detector);
    ``_worker_init(worker_id)``
        the worker-init record to ship at launch;
    ``_clock()``
        the snapshot cadence clock (sweeps / rounds so far);
    ``_run_loop()``
        progress until convergence or a stop condition; resumable
        after :meth:`_restore_cluster`;
    ``service_schedule(schedule)`` / ``service_pump_round()``
        inject dynamic updates while serving (returns how many) / one
        unit of background progress (``True`` at quiescence);
    ``_snapshot_meta(mode="sync")``
        coordinator progress record stored beside the journals;
    ``_restore_progress(meta, journals)``
        reset progress state from a snapshot; returns each worker's
        ``sched`` field for the restore command;
    ``_absorb_serve_replies(replies, writes_by)``
        route one serve barrier's ghost traffic into the inboxes.

    Optional hooks with defaults are at the bottom of the class.
    """

    #: Chromatic-only result field; the locking engine reports zero.
    _sweeps = 0

    def __init__(
        self,
        graph: DataGraph,
        program: Any,
        *,
        num_workers: int,
        transport: Union[str, Transport],
        consistency: Consistency,
        partitioner: Any,
        assignment: Optional[Dict[VertexId, int]],
        atoms_per_worker: int,
        initial_globals: Optional[Dict[str, Any]],
        max_updates: Optional[int],
        reply_timeout: Optional[float],
        use_plane: bool,
        snapshot_every: Optional[Union[int, str]],
        snapshot_dir: Optional[str],
        max_recoveries: int,
        recovery_backoff: float,
        telemetry: bool,
    ) -> None:
        graph.require_finalized()
        if num_workers < 1:
            raise EngineError("num_workers must be >= 1")
        check_picklable(program)
        self.graph = graph
        self.program = program
        self.num_workers = num_workers
        self.transport = make_transport(
            transport, num_workers, reply_timeout=reply_timeout
        )
        self.consistency = consistency
        self.plan: OwnershipPlan = plan_ownership(
            graph,
            num_workers,
            partitioner=partitioner,
            assignment=assignment,
            atoms_per_machine=atoms_per_worker,
        )
        self.owner = self.plan.owner
        self.globals = GlobalValues(initial_globals)
        self._initial_globals = dict(initial_globals or {})
        self.max_updates = max_updates
        self.use_plane = use_plane
        self.updates_per_worker: Dict[int, int] = {
            w: 0 for w in range(num_workers)
        }
        # The compiled numbering is canonical across processes, so
        # ownership and scheduling state resolve to flat arrays once.
        csr = graph.compiled
        self._csr = csr
        self._owner_idx = csr.dense_map(self.owner)
        self._plane = None
        self._ran = False
        self._serving = False
        self._plane_reader: Optional[PlaneReader] = None
        #: Serve reads answered from the data plane without a round
        #: (see :meth:`service_barrier`).
        self.plane_reads = 0
        # Fault tolerance (Sec. 4.3): snapshot cadence + bounded
        # respawn/rollback recovery. Disabled unless snapshot_every is
        # set — without a snapshot there is nothing to recover to.
        self.snapshot_every = snapshot_every
        self.snapshot_dir = snapshot_dir
        self.max_recoveries = max_recoveries
        self.recovery_backoff = recovery_backoff
        self._ckpt: Optional[CheckpointManager] = None
        self._cadence: Optional[SnapshotCadence] = None
        self._tmp_root: Optional[str] = None
        self._shared_blob: Optional[bytes] = None
        self._recoveries = 0
        self._recovery_seconds = 0.0
        #: Why each recovery happened (one record per failure recovered
        #: from), so a recovery no fault was armed for is diagnosable
        #: from the result alone.
        self._recovery_causes: List[Dict[str, Any]] = []
        self._resume_seconds: Optional[float] = None
        # Observability (observe, never steer): workers piggyback span
        # batches on round replies; the collector assembles the timeline
        # surfaced as RuntimeRunResult.telemetry.
        self.telemetry = telemetry
        self._collector: Optional[TimelineCollector] = (
            TimelineCollector(num_workers) if telemetry else None
        )

    @property
    def _rec(self):
        """Coordinator span recorder, or ``None`` when telemetry is off."""
        collector = self._collector
        return collector.coordinator if collector is not None else None

    #: Public read-only name for the recorder (the serving layer lands
    #: its per-request spans on the coordinator track through it).
    recorder = _rec

    # ------------------------------------------------------------------
    # Run mode.
    # ------------------------------------------------------------------
    def run(
        self,
        initial: Iterable = (),
        resume_from: Optional[Any] = None,
    ) -> RuntimeRunResult:
        """Execute to quiescence (or a stop condition); single-use.

        With snapshots on, a :class:`WorkerFailure` mid-run does not
        abort: the dead worker is respawned through the transport, every
        worker (survivors included — their ghosts, and under locking
        their lock tables, pipelines and schedulers, must roll back) is
        restored from the latest complete snapshot, the coordinator's
        own progress state resets from the snapshot, and execution
        resumes — at most ``max_recoveries`` times.

        ``resume_from`` is a snapshot root from an earlier (crashed)
        run: instead of a baseline snapshot, the freshly-launched
        cluster is restored from the newest snapshot there that passes
        integrity verification, and new snapshots continue in the same
        directory. Requires ``snapshot_every``.
        """
        self._require_unused()
        if resume_from is not None and self.snapshot_every is None:
            raise EngineError(
                "resume_from requires snapshot_every (a resumed run "
                "must keep snapshotting into the same directory)"
            )
        self._begin(initial)
        try:
            self._launch(resume_from)
            failure: Optional[WorkerFailure] = None
            # Update total when the oldest unrecovered failure surfaced.
            surfaced: Optional[int] = None
            while True:
                try:
                    if failure is not None:
                        exc, failure = failure, None
                        self._recover_from(exc)
                        self._recovery_causes[-1]["lost_updates"] = (
                            surfaced - self._total_updates
                        )
                        surfaced = None
                    self._run_loop()
                    counts = self._collect_and_write_back()
                    break
                except WorkerFailure as exc:
                    if self._ckpt is None:
                        raise
                    self._recoveries += 1
                    if self._recoveries > self.max_recoveries:
                        raise
                    if surfaced is None:
                        surfaced = self._total_updates
                    self._recovery_causes.append(
                        {
                            "worker": exc.worker_id,
                            "detail": exc.detail,
                            "phase": exc.phase,
                            "last_command": exc.last_command,
                            "lost_updates": 0,
                        }
                    )
                    failure = exc
        finally:
            self._teardown()
        return self._build_result(counts)

    # ------------------------------------------------------------------
    # Serving mode (repro.serve): the resident graph as a service.
    # ------------------------------------------------------------------
    def open_service(self, initial: Iterable = ()) -> None:
        """Launch the cluster and park it at the barrier (serving mode).

        The alternative to :meth:`run` for a long-lived deployment:
        setup, plane provisioning, launch, and the baseline snapshot
        happen exactly as in a run, but instead of running to
        quiescence the engine returns with every worker blocked on its
        pipe waiting for the next command — the "park at barrier" state.
        From here the owner alternates :meth:`service_barrier` /
        :meth:`service_schedule` (client traffic) with
        :meth:`service_pump_round` (one unit of background computation:
        a locking round, or a chromatic run of sweeps to convergence —
        the coarser granularity is why locking is the preferred serving
        substrate) and finally :meth:`close_service`. Single-use, like
        :meth:`run`; the two entry points are mutually exclusive.
        """
        self._require_unused()
        self._check_servable()
        self._begin(initial)
        try:
            self._launch()
        except BaseException:
            # Not only Exception: an interrupt mid-launch must not leak
            # worker processes or shm segments either.
            self._teardown()
            raise
        spec = self._plane.spec if self._plane is not None else None
        if spec is not None and spec.has_v and spec.has_e:
            # Scope reads need both columns on the plane; a one-column
            # plane keeps every read on the serve round.
            self._plane_reader = PlaneReader(self._csr, self._owner_idx)
        self._serving = True

    def service_barrier(
        self,
        writes: Optional[Iterable[Tuple[VertexId, Any]]] = None,
        reads: Optional[Iterable[Tuple[Any, VertexId, bool]]] = None,
    ) -> Dict[Any, Dict[str, Any]]:
        """One serve barrier: writes at their owners, version-tagged reads.

        ``writes`` are ``(vertex, value)`` mutations, each applied at
        the vertex's owner (version bump + dirty mark, so the change
        propagates to ghost holders through the normal routed wire);
        ``reads`` are ``(request_id, vertex, want_scope)`` and return
        ``{request_id: snapshot}`` in the layout of
        :meth:`~repro.runtime.shard.CSRShardStore.read_snapshot`.

        **A batch of reads only, on an engine with a data plane, takes
        no round:** each datum is read straight out of whichever
        worker's segment holds its highest version
        (:class:`~repro.runtime.shard.PlaneReader`; values are copied,
        so a reply never aliases shared memory), and the reads are
        counted in :attr:`plane_reads` and the ``serve_plane_reads``
        telemetry counter. That is exactly what the owner's ``serve``
        command would answer, because this method runs only between
        commands, on the thread driving the engine: every segment is
        quiescent and every dirty entry of the last command is already
        routed toward its holders.

        **Everything else is one ``serve`` round:** a batch with
        writes, a call with no requests at all, and any engine without
        a plane (tcp, untyped columns, ``REPRO_NO_SHM``,
        ``use_plane=False``). Writes and reads then happen inside one
        command on every worker — reads observe every write of the same
        barrier and never a half-applied update. Pending data-plane
        inbox entries are delivered with that round (ring descriptors
        written in command R must be consumed in command R+1 or go stale
        under the double-buffered ring; a round-free read sends no
        command, so it leaves them valid). Everything else stays queued
        for the engine's next own round: lock-protocol traffic (safe —
        data may arrive earlier than a grant, never later).
        """
        writes = list(writes or ())
        reads = list(reads or ())
        if reads and not writes and self._plane_reader is not None:
            results = self._plane_reader.read(self._plane.segments, reads)
            self.plane_reads += len(reads)
            rec = self._rec
            if rec is not None:
                rec.count("serve_plane_reads", len(reads))
            return results
        return self._serve_round(writes, reads)

    def _serve_round(
        self,
        writes: List[Tuple[VertexId, Any]],
        reads: List[Tuple[Any, VertexId, bool]],
    ) -> Dict[Any, Dict[str, Any]]:
        """The ``serve`` round of :meth:`service_barrier`."""
        num_workers = self.num_workers
        owner = self.owner
        writes_by: List[List[Tuple[VertexId, Any]]] = [
            [] for _ in range(num_workers)
        ]
        reads_by: List[List[Tuple[Any, VertexId, bool]]] = [
            [] for _ in range(num_workers)
        ]
        for vid, value in writes:
            writes_by[owner[vid]].append((vid, value))
        for req_id, vid, want_scope in reads:
            reads_by[owner[vid]].append((req_id, vid, want_scope))
        messages = []
        for w, inbox in enumerate(self._inboxes):
            payload: Dict[str, Any] = {}
            attach: Dict[str, Any] = {}
            if inbox["plane"]:
                attach["plane"] = inbox["plane"]
                inbox["plane"] = []
            if inbox["data"] is not None:
                attach["data"] = inbox["data"]
                inbox["data"] = None
            if attach:
                payload["inbox"] = attach
            if writes_by[w]:
                payload["writes"] = writes_by[w]
            if reads_by[w]:
                payload["reads"] = reads_by[w]
            messages.append(("serve", payload))
        replies = drain_telemetry(
            self.transport.round(messages), self._collector
        )
        results: Dict[Any, Dict[str, Any]] = {}
        for _half, body in replies:
            served = body.get("serve")
            if served:
                results.update(served)
        self._absorb_serve_replies(replies, writes_by)
        return results

    def close_service(self, snapshot: bool = True) -> RuntimeRunResult:
        """Graceful drain: quiesce, snapshot, collect, tear down.

        Pumps until the engine witnesses global quiescence (every
        accepted write's scheduled work completes), takes one final
        synchronous snapshot through the checkpoint path when snapshots
        are configured (``snapshot=False`` skips it), then collects the
        shards back into the parent graph and shuts the transport down.
        Returns the same :class:`RuntimeRunResult` a run would.
        """
        if not self._serving:
            raise EngineError(
                "no open service (open_service was never called, or the "
                "service is already closed)"
            )
        self._serving = False
        try:
            drains = 0
            while not self.service_pump_round():
                drains += 1
                if drains > MAX_DRAIN_ROUNDS:
                    raise SnapshotError(
                        "serving drain failed to reach quiescence within "
                        f"{MAX_DRAIN_ROUNDS} rounds"
                    )
            self._converged = True
            if snapshot and self._ckpt is not None:
                self._take_snapshot()
            counts = self._collect_and_write_back()
        finally:
            self._teardown()
        return self._build_result(counts)

    # ------------------------------------------------------------------
    # Launch and teardown.
    # ------------------------------------------------------------------
    def _require_unused(self) -> None:
        if self._ran:
            raise EngineError(
                "runtime engine instances are single-use (worker "
                "processes are torn down at run end); build a new one"
            )

    def _begin(self, initial: Iterable) -> None:
        """Claim the instance; start the wall clock; seed the schedule."""
        self._ran = True
        rec = self._rec
        self.transport.obs = rec
        self._run_sw = Stopwatch(rec, "run")
        self._launch_seconds = 0.0
        self._inboxes = self._fresh_inboxes()
        self._converged = False
        self._total_updates = 0
        self._reset_progress(initial)

    def _launch(self, resume_from: Optional[Any] = None) -> None:
        """Plane → one shared init blob → worker launch → first snapshot
        (a coordinator-side baseline, or the ``resume_from`` restore)."""
        if self.snapshot_every is not None:
            root = (
                resume_from if resume_from is not None
                else self.snapshot_dir
            )
            if root is None:
                root = self._tmp_root = tempfile.mkdtemp(prefix="repro-ckpt-")
            self._ckpt = CheckpointManager(root, self.num_workers)
            self._cadence = SnapshotCadence(
                self.snapshot_every, self.num_workers
            )
        self._provision_plane()
        self.transport.launch(self._encoded_inits())
        self._launch_seconds = self._run_sw.elapsed()
        if self._ckpt is None:
            return
        if resume_from is None:
            self._baseline_snapshot()
        else:
            self._resume_seconds = self._restore_latest()

    def _teardown(self) -> None:
        self.transport.shutdown()
        if self._tmp_root is not None:
            shutil.rmtree(self._tmp_root, ignore_errors=True)

    def _provision_plane(self) -> None:
        """Allocate the data plane through the transport, when eligible.

        The plane's lifecycle is the transport's: torn down with
        shutdown on every exit path. Stays ``None`` for pipe-only
        backends, untyped graphs, or ``use_plane=False``.
        """
        kind = self.transport.plane_kind() if self.use_plane else None
        if kind is None:
            return
        csr = self._csr
        num_workers = self.num_workers
        spec = plane_spec_for(
            self.graph,
            num_workers,
            max_routable_v=len(csr.vertex_ids) * max(num_workers - 1, 1),
            max_routable_e=2 * len(csr.edge_keys),
            kind=kind,
        )
        if spec is not None:
            self._plane = self.transport.provision_plane(spec)

    def _encoded_inits(self) -> List[bytes]:
        """Per-worker launch payloads around one shared encoded blob.

        The worker-independent state — dominated by the pickled graph —
        is serialized exactly once; only the worker id differs per
        payload, so launch serialization is O(structure), not
        O(workers x structure). The blob is cached: it also respawns
        dead workers during recovery.
        """
        try:
            self._shared_blob = self._worker_init(0).encode_shared()
        except Exception as exc:
            raise EngineError(
                "worker init payload cannot be pickled — the update "
                "program, sync map/combine/finalize functions, and "
                "all graph data must be module-level / picklable to "
                f"cross process boundaries ({exc})"
            ) from exc
        return [
            encode_worker(w, self._shared_blob)
            for w in range(self.num_workers)
        ]

    # ------------------------------------------------------------------
    # Rounds.
    # ------------------------------------------------------------------
    def _fresh_inboxes(self) -> List[Dict[str, Any]]:
        return [self._empty_inbox() for _ in range(self.num_workers)]

    def _send_round(self, tag: str, extra: Dict[str, Any]) -> List[Any]:
        """One full barrier: send every worker its routed inbox (leaving
        fresh inboxes behind for the replies' routing), collect all."""
        inboxes, self._inboxes = self._inboxes, self._fresh_inboxes()
        messages = []
        for inbox in inboxes:
            # Empty inbox fields are stripped from the wire (the common
            # case is an all-control round; workers .get() every key).
            payload = dict(extra)
            payload["inbox"] = {
                key: value for key, value in inbox.items() if value
            }
            messages.append((tag, payload))
        # The single reply funnel: piggybacked telemetry batches are
        # stripped here, so no downstream consumer (step routing,
        # checkpoint journaling, sync combine, collect write-back) ever
        # sees the extra field.
        return drain_telemetry(self.transport.round(messages), self._collector)

    def _collect_and_write_back(self) -> np.ndarray:
        """Gather owned shards; write final data into the parent graph.

        The collect command carries each worker's residual inbox so
        in-flight ghost entries land before the shard is read — an edge
        held by two workers reads back its freshest version regardless
        of which endpoint owner reports it. Columns on the data plane
        are read straight out of each worker's shared segment (owned
        slots are authoritative at their owner after the final inbox
        applies); only plane-less columns travel, as slot arrays.
        Returns the dense per-vertex update-count vector.
        """
        replies = self._send_round("collect", {})
        csr = self._csr
        plane = self._plane
        if plane is not None:
            owner_idx = self._owner_idx
            edge_owner = owner_idx[csr.edge_src_index]
            for w, segment in enumerate(plane.segments):
                if plane.spec.has_v:
                    owned = np.nonzero(owner_idx == w)[0]
                    if owned.size:
                        csr.vdata[owned] = segment.vdata[owned]
                if plane.spec.has_e:
                    slots = np.nonzero(edge_owner == w)[0]
                    if slots.size:
                        csr.edata[slots] = segment.edata[slots]
        counts = np.zeros(len(csr.vertex_ids), dtype=np.int64)
        for reply in replies:
            state = reply.get("state")
            if state is not None:
                scatter_entries(state, csr.vdata, csr.edata)
            index, count = reply["counts"]
            counts[index] = count
        self._absorb_collect(replies)
        return counts

    def _build_result(self, counts: np.ndarray) -> RuntimeRunResult:
        """Close the wall clock and assemble the run summary."""
        wall = self._run_sw.stop()
        executed = np.nonzero(counts)[0]
        vertex_ids = self._csr.vertex_ids
        updates_per_vertex = {
            vertex_ids[i]: count
            for i, count in zip(executed.tolist(), counts[executed].tolist())
        }
        transport = self.transport
        extra = self._result_extra()
        # Socket backends report their connection-supervision counters
        # (reconnects / replayed commands); pipe backends report none.
        extra.update(transport.net_counters())
        if self._ckpt is not None:
            extra["snapshots"] = self._ckpt.snapshots_taken
            extra["snapshot_bytes"] = self._ckpt.bytes_written
            extra["snapshots_rejected"] = self._ckpt.snapshots_rejected
            extra["recoveries"] = self._recoveries
            extra["recovery_seconds"] = self._recovery_seconds
            extra["recovery_causes"] = self._recovery_causes
            if self._resume_seconds is not None:
                extra["resume_seconds"] = self._resume_seconds
        spec = self._plane.spec if self._plane is not None else None
        telemetry = None
        if self._collector is not None:
            telemetry = self._collector.finalize(
                transport.clock_offsets,
                {
                    "engine": self.engine_name,
                    "backend": transport.name,
                    "num_workers": self.num_workers,
                    "data_plane": spec.kind if spec is not None else None,
                    "ring_v": spec.ring_v if spec is not None else 0,
                    "ring_e": spec.ring_e if spec is not None else 0,
                    **self._telemetry_meta(),
                },
            )
        return RuntimeRunResult(
            num_updates=self._total_updates,
            updates_per_vertex=updates_per_vertex,
            converged=self._converged,
            globals=self.globals.snapshot(),
            sweeps=self._sweeps,
            wall_seconds=wall,
            launch_seconds=self._launch_seconds,
            num_workers=self.num_workers,
            backend=transport.name,
            updates_per_worker=dict(self.updates_per_worker),
            rounds=transport.rounds_completed,
            bytes_on_pipe=transport.bytes_sent + transport.bytes_received,
            data_plane=spec.kind if spec is not None else None,
            telemetry=telemetry,
            extra=extra,
        )

    # ------------------------------------------------------------------
    # Snapshots and recovery (Sec. 4.3).
    # ------------------------------------------------------------------
    def _baseline_snapshot(self) -> None:
        """Journal the initial state, coordinator-side (no rounds)."""
        sw = Stopwatch(self._rec, "snap")
        snapshot_id = self._ckpt.next_id()
        records = [
            self._ckpt.dir.write_journal(snapshot_id, w, journal)
            for w, journal in enumerate(self._baseline_journals())
        ]
        self._commit_snapshot(snapshot_id, records, sw)

    def _take_snapshot(self) -> None:
        """Synchronous snapshot at a barrier (Sec. 4.3): after the
        policy's :meth:`_quiesce`, one ``checkpoint`` round delivers the
        residual inboxes and the ``journal`` marker; every worker writes
        its own journal and replies with its manifest record."""
        sw = Stopwatch(self._rec, "snap")
        self._quiesce()
        snapshot_id = self._ckpt.next_id()
        records = self._send_round(
            "checkpoint", {"journal": (snapshot_id, self._ckpt.dir.root)}
        )
        self._commit_snapshot(snapshot_id, records, sw)

    def _commit_snapshot(
        self,
        snapshot_id: int,
        records: List[Any],
        sw: Stopwatch,
        mode: str = "sync",
    ) -> None:
        """Commit every snapshot (baseline, sync, async) over its
        journal records, then restart the cadence clock with the cost
        ``sw`` measured since the snapshot began."""
        self._ckpt.commit(snapshot_id, records, self._snapshot_meta(mode))
        sw.stop()
        self._cadence.mark(self._clock(), sw.end, cost=sw.seconds)

    def _recover_from(self, failure: WorkerFailure) -> None:
        """Respawn the dead worker; roll the whole cluster back."""
        self._recovery_seconds += self._restore_latest(failure)

    def _restore_latest(
        self, failure: Optional[WorkerFailure] = None
    ) -> float:
        """Restore the newest verified snapshot; returns the seconds spent.

        Shared by mid-run recovery (``failure`` names the worker to
        respawn first, after a backoff — a restarted machine is rarely
        instantly healthy) and ``run(resume_from=...)`` cold restarts.
        The cadence clock re-anchors so the restore doesn't trigger an
        immediate snapshot.
        """
        with Stopwatch(self._rec, "recover") as sw:
            if failure is not None:
                if self.recovery_backoff:
                    time.sleep(self.recovery_backoff * self._recoveries)
                self.transport.recover(
                    failure.worker_id,
                    encode_worker(failure.worker_id, self._shared_blob),
                )
            _snapshot_id, meta, journals = self._ckpt.latest_state()
            self._restore_cluster(meta, journals)
        self._cadence.mark(self._clock(), sw.end)
        return sw.seconds

    def _restore_cluster(
        self, meta: Dict[str, Any], journals: List[Dict[str, Any]]
    ) -> None:
        """Send one verified snapshot's state to every worker and reset
        the coordinator to match.

        Every worker — a respawn *and* the survivors — force-applies
        every journal's slot arrays to the slots it holds (journals
        partition the graph by ownership, so together they cover each
        slot exactly once; survivors' ghosts roll back to their owner's
        snapshot values, and that rollback is what makes the restored
        cluster state consistent), resets its own update counts and
        re-seeds its share of the snapshot's schedule.
        """
        state = [journal["state"] for journal in journals]
        scheds = self._restore_progress(meta, journals)
        globals_items = list(meta.get("globals", {}).items())
        messages: List[Tuple[str, Dict[str, Any]]] = [
            (
                "restore",
                {
                    "state": state,
                    "counts": journals[w]["counts"],
                    "sched": scheds[w],
                    "globals": globals_items,
                },
            )
            for w in range(self.num_workers)
        ]
        drain_telemetry(self.transport.round(messages), self._collector)
        self.globals = GlobalValues(meta.get("globals"))
        self._inboxes = self._fresh_inboxes()

    # ------------------------------------------------------------------
    # Policy hooks with a default (the required ones are listed in the
    # class docstring).
    # ------------------------------------------------------------------
    def _baseline_journals(self) -> List[Dict[str, Any]]:
        return baseline_journals(self.graph, self.owner, self.num_workers)

    def _quiesce(self) -> None:
        """Bring the cluster to the halted-and-delivered state a
        synchronous snapshot journals (default: a barrier already is)."""

    def _check_servable(self) -> None:
        """Reject configurations that cannot serve (default: none)."""

    def _absorb_collect(self, replies: List[Dict[str, Any]]) -> None:
        """Engine-specific fields of the collect replies."""

    def _result_extra(self) -> Dict[str, Any]:
        """Engine-specific ``RuntimeRunResult.extra`` keys."""
        return {}

    def _telemetry_meta(self) -> Dict[str, Any]:
        """Engine-specific telemetry header keys."""
        return {}
