"""The one worker skeleton of the real-process runtime.

Each worker owns one vertex partition of the graph, held in a
:class:`~repro.runtime.shard.CSRShardStore` — the slot-addressed
implementation of the simulated engines' ghost/version coherence
protocol: primaries for owned vertices, version-tagged ghosts for the
boundary. Structure arrives exactly once, as a pickled finalized
:class:`~repro.core.graph.DataGraph` inside the launch payload (the CSR
arrays ship; the structure memo caches are rebuilt lazily per process —
see ``CSRGraph.__getstate__``); after that only flat data shards move —
and on typed-column graphs they move through the **shared-memory data
plane** (:mod:`repro.runtime.plane`): the worker's columns live in its
own shared segment, dirty entries are written directly into its ring,
and the pipe carries only control data (descriptors, scheduling
indices, counts). Untyped graphs keep the pickled ``FlatEntries`` wire.

The two engines differ only in how they schedule scopes, so the two
worker kinds are two scheduling policies over :class:`WorkerBase`: the
chromatic :class:`~repro.runtime.chromatic_worker.RuntimeWorker`
(color-steps, Sec. 4.2.1) and the pipelined
:class:`~repro.runtime.locking_worker.LockingWorker` (distributed locks,
Sec. 4.2.2). The base owns everything they do the same way — the store,
program, globals, pooled scope and update counts built from the shared
:class:`WorkerInitBase` fields, the data-plane lifecycle, inbox
application, and these commands:

* ``("collect", {inbox})`` — apply the final inbox's ghost entries,
  reply with owned data (only the columns the data plane does not
  already expose to the coordinator, as one slot-form batch), update
  counts and, when recording, the access trace;
* ``("checkpoint", {inbox, journal})`` — after the policy's quiescence
  check, apply the residual inbox, then write the journal of the owned
  slots, the counts and the policy's task set
  (:meth:`WorkerBase._write_journal`);
* ``("restore", {state, counts, sched, globals})`` — force-apply a
  snapshot's journals, reset the counts and the policy's task set;
* ``("serve", {inbox, writes, reads})`` — one serving barrier
  (:mod:`repro.serve`).

Checkpoint and restore move slot arrays, never per-key objects. A
policy adds its own commands (``step`` / ``sync_count``, ``lstep``) by
overriding :meth:`WorkerBase._handle` and falling through to the base.

Scheduling travels as **dense vertex indices** (int32 arrays) — the
compiled numbering is canonical across processes, so ids never ship. A
worker never talks to its peers' processes directly; with the plane it
*reads their segments* (ring slices named by coordinator-routed
descriptors), but all control flow still runs through the coordinator,
so the inter-color communication barrier of the chromatic engine
(Sec. 4.2.1) remains "every reply received".
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, fields
from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.consistency import Consistency
from repro.core.graph import DataGraph, VertexId
from repro.core.scope import Scope
from repro.core.sync import GlobalValues
from repro.errors import EngineError
from repro.obs.events import SpanRecorder
from repro.runtime.checkpoint import SnapshotDirectory
from repro.runtime.plane import DataPlane, PlaneSpec, ShmDataPlane
from repro.runtime.program import resolve_program
from repro.runtime.shard import (
    CSRShardStore,
    make_journal,
    sparse_counts,
)

#: Inbox entry lists, keyed like the wire payloads.
Inbox = Dict[str, Any]

_EMPTY_I64 = np.empty(0, dtype=np.int64)


def empty_inbox() -> Inbox:
    """A fresh routing inbox with the fields every worker kind applies.

    ``data`` is a pickled slot-form ghost-entry batch (``None`` until
    routed; see :class:`~repro.runtime.shard.FlatEntries`), ``plane``
    ring descriptors ``(src_worker, half, v_start, v_count, e_start,
    e_count)`` in delivery order, ``sched`` scheduling requests in the
    policy's form (the chromatic engine's int32 arrays of dense vertex
    indices), and ``globals`` newly published ``(key, value)`` pairs
    (empty fields are stripped from the wire at send time).
    """
    return {
        "data": None,
        "plane": [],
        "sched": [],
        "globals": [],
    }


@dataclass(kw_only=True)
class WorkerInitBase:
    """The launch-payload fields every worker kind reads.

    ``plane`` is the data-plane spec (or ``None`` for the pickled wire):
    shm workers attach segments by name at init; the inproc transport
    injects the in-process arrays right after construction. Each kind's
    init subclass adds its policy fields.
    """

    worker_id: int
    num_workers: int
    graph: DataGraph
    owner: Dict[VertexId, int]
    consistency: Consistency
    program: Any
    initial_globals: Optional[Dict[str, Any]] = None
    plane: Optional[PlaneSpec] = None
    #: Record spans/counters and piggyback them on round replies
    #: (:mod:`repro.obs`). Observation only — never steers execution.
    telemetry: bool = False

    def encode_shared(self) -> bytes:
        """Serialize the worker-independent state once.

        Everything except ``worker_id`` is identical across workers —
        most of it one large pickled graph — so the coordinator encodes
        it a single time and wraps each worker's id around the shared
        blob (:func:`encode_worker`), cutting launch serialization from
        O(workers × graph) to O(graph). The init *class* rides along so
        :func:`~repro.runtime.worker.worker_from_bytes` can dispatch to
        the right worker kind.
        """
        state = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "worker_id"
        }
        return pickle.dumps(
            (type(self), state), protocol=pickle.HIGHEST_PROTOCOL
        )


def encode_worker(worker_id: int, shared_blob: bytes) -> bytes:
    """Per-worker init payload: the id plus the shared state blob."""
    return pickle.dumps(
        ("shared-init", worker_id, shared_blob),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


#: Batched-piggyback threshold: span batches ride a reply only once
#: this many events have buffered (amortizing drain + pickle + merge
#: cost over many rounds), with an unconditional flush on ``collect``.
_TEL_FLUSH = 256


def _attach_tel(reply: Any, tel: Dict[str, Any]) -> Any:
    """Piggyback a drained telemetry batch on whatever reply shape the
    command produced: tuple replies grow a trailing element, dict
    replies a ``"tel"`` key. The engine strips it back off in its round
    funnel (:func:`repro.obs.timeline.drain_telemetry`) before any other
    consumer sees the reply."""
    if isinstance(reply, tuple):
        return reply + (tel,)
    if isinstance(reply, dict):
        reply["tel"] = tel
    return reply


class WorkerBase:
    """One worker's state machine (transport-agnostic, synchronous).

    A scheduling policy subclasses this and supplies its task set
    through two hooks — :meth:`_schedule` (one routed ``sched`` entry
    joins it) and :meth:`_reset_tasks` (rebuild it from a snapshot) —
    plus, where it needs them, :meth:`_apply_protocol` (its own inbox
    traffic), :meth:`_check_quiescent` (what must hold before a
    checkpoint) and :meth:`_task_journal` (the task set a checkpoint
    journals).
    """

    #: Per-update ``(round, vertex, reads, writes)`` access records when
    #: the policy traces scopes (the locking engine's ``trace``); set
    #: before construction, since the pooled scope records only then.
    _trace: Optional[List[Tuple]] = None

    def __init__(self, init: WorkerInitBase) -> None:
        self.worker_id = init.worker_id
        self.num_workers = init.num_workers
        self.graph = init.graph
        self.owner = init.owner
        self.consistency = init.consistency
        self.store = CSRShardStore(init.worker_id, init.graph, init.owner)
        self.update_fn = resolve_program(init.program)
        self.globals = GlobalValues(init.initial_globals)
        csr = init.graph.compiled
        self._vertex_ids = csr.vertex_ids
        self._index_of = csr.index_of
        #: Updates executed per vertex, dense index space.
        self._counts = np.zeros(len(csr.vertex_ids), dtype=np.int64)
        #: Telemetry recorder; ``None`` when telemetry is off (the hot-path
        #: contract: disabled cost is one falsy check per site).
        self._obs = SpanRecorder() if init.telemetry else None
        # Shm workers attach here by segment name; the inproc transport
        # injects its in-process plane via attach_plane() right after
        # construction.
        self.plane: Optional[DataPlane] = None
        self._ring = None
        if init.plane is not None and init.plane.kind == "shm":
            self.attach_plane(ShmDataPlane.attach(init.plane))
        # One pooled scope, rebound per vertex — the zero-allocation hot
        # path contract of ROADMAP's storage-layout section, now applied
        # per OS process instead of per simulated machine.
        self._scope = Scope(
            init.graph,
            None,
            model=init.consistency,
            store=self.store,
            globals_view=self.globals.view(),
            record=self._trace is not None,
        )

    # ------------------------------------------------------------------
    # Message dispatch.
    # ------------------------------------------------------------------
    def handle(self, tag: str, payload: Mapping[str, Any]) -> Any:
        """One command: ring flip, dispatch, telemetry.

        The ring half flips exactly once per command: peers spend this
        round reading last round's descriptors out of the other half, so
        the flip is what makes the lock-free ring safe. When telemetry
        is on, ring occupancy counters accumulate every round but the
        span batch only drains onto a reply once it has grown past
        ``_TEL_FLUSH`` events (or the buffer started dropping), plus
        unconditionally on ``collect`` — the run's last barrier — so
        nothing recorded is lost. Piggybacked on bytes already crossing
        the pipe, zero extra barriers, and the batching keeps the
        per-round cost of telemetry amortized.
        """
        ring = self._ring
        if ring is not None:
            ring.begin_round()
        reply = self._handle(tag, payload)
        rec = self._obs
        if rec is not None:
            if ring is not None:
                rec.count("plane_rounds")
                v_used, e_used = ring.used
                if v_used:
                    rec.count("plane_ring_v", v_used)
                if e_used:
                    rec.count("plane_ring_e", e_used)
            if (
                len(rec.events) >= _TEL_FLUSH
                or rec.dropped
                or tag == "collect"
            ):
                tel = rec.drain()
                if tel:
                    reply = _attach_tel(reply, tel)
        return reply

    def _handle(self, tag: str, payload: Mapping[str, Any]) -> Any:
        """The shared commands; a policy dispatches its own first."""
        if tag == "collect":
            return self._collect(payload.get("inbox"))
        if tag == "checkpoint":
            return self._checkpoint(payload.get("inbox"), payload["journal"])
        if tag == "restore":
            return self._restore(payload)
        if tag == "serve":
            return self._serve(payload)
        raise EngineError(f"worker {self.worker_id}: unknown command {tag!r}")

    def _reply(self, body: Any) -> Tuple[int, Any]:
        """A round reply: the ring half this command wrote, then ``body``."""
        return (self._ring.half if self._ring is not None else 0, body)

    # ------------------------------------------------------------------
    # Data plane.
    # ------------------------------------------------------------------
    def attach_plane(self, plane: DataPlane) -> None:
        """Adopt shared column buffers, version counters and the ring.

        From then on every data write and version bump lands directly in
        this worker's segment; ghost application reads peers' segments
        through routed descriptors; the coordinator reads owned slots at
        collect time and answers read-only serve batches from the
        freshest copy across segments without sending a command.
        """
        spec = plane.spec
        self.plane = plane
        segment = plane.segments[self.worker_id]
        self.store.adopt_buffers(
            segment.vdata if spec.has_v else None,
            segment.edata if spec.has_e else None,
            segment.vversion,
            segment.eversion,
        )
        self._ring = plane.writer_for(self.worker_id)

    def close_plane(self) -> None:
        """Drop every view into the shared segments, then close them.

        The store's columns *are* segment views once a plane is
        attached; they must be released before the mmap can close
        without "exported pointers" noise at interpreter teardown. The
        worker is unusable afterwards (exit path only).
        """
        plane = self.plane
        if plane is None:
            return
        self.plane = None
        self._ring = None
        store = self.store
        if plane.spec.has_v:
            store.vdata_flat = None
        if plane.spec.has_e:
            store.edata_flat = None
        store._vversion = store._eversion = None
        plane.close()

    # ------------------------------------------------------------------
    # Routed state.
    # ------------------------------------------------------------------
    def _apply_entries(self, inbox: Inbox) -> None:
        """Apply routed ghost state (ring descriptors, pickled batches).

        Both delivery paths go through the store's one version filter
        (:meth:`~repro.runtime.shard.CSRShardStore.apply_flat`; a ring
        run as a view of the source's ring half), so stale and duplicate
        deliveries are dropped — the idempotence the version scheme
        exists for.
        """
        plane = self.plane
        for (src, half, *run) in inbox.get("plane", ()):
            ring = plane.segments[src].halves[half]
            self.store.apply_flat(ring.entries(*run))
        data = inbox.get("data")
        if data is not None:
            self.store.apply_flat(data)

    def _apply_inbox(self, inbox: Optional[Inbox]) -> None:
        """Apply routed state before any local work of the command runs.

        Ghost entries first (every write the rest of the inbox was
        serialized against), then newly published globals, then remote
        scheduling requests, then the policy's own protocol traffic —
        all inside the one ``ghost`` span. An empty inbox applies
        nothing and records nothing.
        """
        if not inbox:
            return
        rec = self._obs
        t0 = perf_counter() if rec is not None else 0.0
        self._apply_entries(inbox)
        for key, value in inbox.get("globals", ()):
            self.globals.publish(key, value)
        for entry in inbox.get("sched", ()):
            self._schedule(entry)
        self._apply_protocol(inbox)
        if rec is not None:
            rec.span("ghost", t0, perf_counter())

    def _collect_dirty_part(self) -> Tuple[Dict, Dict]:
        """Drain dirty state: ring meta + pipe overflow."""
        if self._ring is not None:
            meta, overflow = self.store.collect_dirty_plane(self._ring)
            if overflow and self._obs is not None:
                self._obs.count("plane_overflow_batches")
            return meta, overflow
        return {}, self.store.collect_dirty_flat()

    # ------------------------------------------------------------------
    # Policy hooks.
    # ------------------------------------------------------------------
    def _schedule(self, entry: Any) -> Any:
        """One routed ``sched`` entry joins the task set."""
        raise NotImplementedError

    def _reset_tasks(self, sched: Any) -> None:
        """Rebuild the task set (and any in-flight policy state) from a
        snapshot's journaled ``sched``."""
        raise NotImplementedError

    def _apply_protocol(self, inbox: Inbox) -> None:
        """The policy's own inbox traffic, after the shared state."""

    def _check_quiescent(self, inbox: Optional[Inbox]) -> None:
        """Raise :class:`~repro.errors.SnapshotError` when a checkpoint
        would journal an inconsistent cut (default: never)."""

    def _task_journal(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The task set a checkpoint journals, or ``None`` when the
        coordinator's meta record already holds it exactly."""
        return None

    # ------------------------------------------------------------------
    # The shared commands.
    # ------------------------------------------------------------------
    def _collect(self, inbox: Optional[Inbox]) -> Dict[str, Any]:
        """Owned data + update counts (+ the access trace when recording):
        the run's final answer shard.

        Only the final inbox's ghost entries apply: the coordinator
        flushes the ones still in flight, so an edge held by two workers
        reads back its freshest version no matter which endpoint's owner
        is collected; schedules and lock traffic are moot at the last
        barrier. Columns living on the data plane are *not* shipped back
        — the coordinator reads owned slots straight out of this
        worker's segment after the barrier; plane-less columns travel as
        one slot-form batch of the owned slots.
        """
        if inbox:
            self._apply_entries(inbox)
        spec = self.plane.spec if self.plane is not None else None
        on_plane_v = spec is not None and spec.has_v
        on_plane_e = spec is not None and spec.has_e
        reply: Dict[str, Any] = {"counts": sparse_counts(self._counts)}
        if not (on_plane_v and on_plane_e):
            reply["state"] = self.store.checkpoint_payload(
                _EMPTY_I64 if on_plane_v else None,
                _EMPTY_I64 if on_plane_e else None,
            )
        if self._trace is not None:
            reply["trace"] = self._trace
        return reply

    def _checkpoint(
        self, inbox: Optional[Inbox], marker: Tuple[int, str]
    ) -> Dict[str, int]:
        """Barrier snapshot (Sec. 4.3): this shard's slot-form journal.

        Runs at a barrier the coordinator chose — a chromatic sweep
        boundary, a drained locking pipeline. The policy's quiescence
        check guards it, then the residual inbox folds into the journal
        of owned slots, update counts and the policy's task set.
        """
        self._check_quiescent(inbox)
        self._apply_inbox(inbox)
        return self._write_journal(
            marker, self.store.checkpoint_payload(), self._task_journal()
        )

    def _write_journal(
        self, marker: Tuple[int, str], state: Any, tasks: Any
    ) -> Dict[str, int]:
        """Journal ``state``, the update counts and ``tasks``, and write
        it where the ``journal`` marker ``(snapshot_id, root)`` of every
        snapshot-finishing command says. Returns the journal's manifest
        record ``{"bytes", "crc32"}``: the whole reply a snapshot needs
        from a worker, so no journal crosses the pipe."""
        rec = self._obs
        t0 = perf_counter() if rec is not None else 0.0
        snapshot_id, root = marker
        journal = make_journal(state, self._counts, tasks)
        record = SnapshotDirectory(root).write_journal(
            snapshot_id, self.worker_id, journal
        )
        if rec is not None:
            rec.span("snap", t0, perf_counter())
        return record

    def _restore(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Roll this worker back to a snapshot.

        ``state`` holds every worker's journaled slots (this shard
        force-applies them to the slots it holds — ghosts roll back to
        their owner's snapshot values), ``counts`` the worker's
        journaled update counts, ``sched`` its share of the snapshot
        task set in the policy's form, ``globals`` the snapshot-time
        published values.
        """
        rec = self._obs
        t0 = perf_counter() if rec is not None else 0.0
        for state in payload["state"]:
            self.store.restore_checkpoint(state)
        index, count = payload["counts"]
        self._counts[:] = 0
        self._counts[index] = count
        for key, value in payload.get("globals", ()):
            self.globals.publish(key, value)
        self._reset_tasks(payload["sched"])
        if rec is not None:
            rec.span("snap", t0, perf_counter())
        return {"worker": self.worker_id}

    def _serve(self, payload: Mapping[str, Any]) -> Tuple:
        """One serving barrier (``repro.serve``): apply routed ghost
        state, apply client writes at their owners, answer version-tagged
        reads — in that order, all inside one command, so every read
        observes a consistent cut (updates execute atomically within a
        single command; their dirty entries travel and apply as one
        batch). A read-only batch never gets here when there is a data
        plane: the coordinator answers it from the segments
        (:class:`~repro.runtime.shard.PlaneReader`), same reply layout.

        The reply body reuses the round wire: client writes bump the
        store's version counters and mark slots dirty, so the normal
        dirty-part collection routes them to ghost holders exactly like
        an update's writes — and delivering the attached inbox every
        serve round keeps the double-buffered ring contract intact
        (descriptors written in command R are consumed in command R+1).
        """
        inbox = payload.get("inbox")
        if inbox:
            self._apply_entries(inbox)
        writes = payload.get("writes") or ()
        store = self.store
        for vid, value in writes:
            store.set_vertex_data(vid, value)
        results = {}
        for req_id, vid, want_scope in payload.get("reads") or ():
            results[req_id] = store.read_snapshot(vid, bool(want_scope))
        meta, overflow = self._collect_dirty_part()
        body = {
            "serve": results,
            "plane": meta or None,
            "data": overflow or None,
        }
        return self._reply(body)
