"""Worker-side execution for the real-process runtime backend.

Each worker owns one vertex partition of the graph, held in a
:class:`~repro.runtime.shard.CSRShardStore` — the slot-addressed
implementation of the simulated engines' ghost/version coherence
protocol: primaries for owned vertices, version-tagged ghosts for the
boundary. Structure arrives exactly once, as a pickled finalized
:class:`~repro.core.graph.DataGraph` inside the :class:`WorkerInit`
payload (the CSR arrays ship; the structure memo caches are rebuilt
lazily per process — see ``CSRGraph.__getstate__``); after that only
flat data shards move — and on typed-column graphs they move through
the **shared-memory data plane** (:mod:`repro.runtime.plane`): the
worker's columns live in its own shared segment, dirty entries are
written directly into its ring, and the pipe carries only control data
(descriptors, scheduling indices, counts). Untyped graphs keep the
pickled ``FlatEntries`` wire.

The message protocol is a tagged request/reply pair per phase:

* ``("step", {color, inbox})`` — apply the inbox (ring descriptors,
  pickled ghost batches, remote scheduling requests, new globals), then
  execute the worker's share of one color-step and reply with its
  update count, dirty entries and fresh schedules;
* ``("sync_count", {inbox})`` — apply the inbox, evaluate each sync's
  partial over owned vertices (Eq. 2), reply with the partials;
* ``("collect", {inbox})`` — reply with owned data (only the columns
  the data plane does not already expose to the coordinator, as one
  slot-form batch) and update counts;
* ``("checkpoint", {inbox})`` / ``("restore", {state, counts, sched,
  globals})`` — journal the owned slots, or force-apply a snapshot's
  journals (:mod:`repro.runtime.checkpoint`); both move slot arrays,
  never per-key objects;
* ``("stop", {})`` — acknowledge and exit the serve loop.

The **locking worker** (:class:`LockingWorker`, driving the pipelined
locking engine of Sec. 4.2.2 — :mod:`repro.runtime.locking`) speaks one
more phase over the same transports:

* ``("lstep", {round, budget, inbox})`` — apply the inbox (ghost data,
  remote scheduling requests, owner-side lock/unlock batches, grants
  for this worker's in-flight scopes), then run the pipelined loop:
  advance lock chains, execute every scope whose locks are all held,
  and keep up to ``pipeline_window`` scopes in flight so lock latency
  overlaps with local update computation. Locks for a vertex live at
  its *owner* (an :class:`~repro.distributed.locks.RWQueueCore` FIFO
  readers-writer table per worker), and lock/unlock/grant traffic rides
  the coordinator-routed rounds as int32 batches — exactly the path
  ghost entries take.

Scheduling travels as **dense vertex indices** (int32 arrays) — the
compiled numbering is canonical across processes, so ids never ship. A
worker never talks to its peers' processes directly; with the plane it
*reads their segments* (ring slices named by coordinator-routed
descriptors), but all control flow still runs through the coordinator,
so the inter-color communication barrier of the chromatic engine
(Sec. 4.2.1) remains "every reply received".
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import traceback
from collections import deque
from dataclasses import dataclass
from time import perf_counter, sleep
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

import numpy as np

from repro.core.consistency import Consistency, LockKind
from repro.core.graph import DataGraph, VertexId
from repro.core.kernels import independent_classes, kernel_of
from repro.core.scheduler import make_scheduler
from repro.core.scope import Scope
from repro.core.sync import GlobalValues, SyncOperation
from repro.core.update import normalize_schedule
from repro.distributed.locks import RWQueueCore, build_lock_chain
from repro.errors import EngineError, SnapshotError
from repro.obs.events import SpanRecorder
from repro.runtime.checkpoint import SnapshotDirectory
from repro.runtime.liveness import HeartbeatPump
from repro.runtime.plane import DataPlane, PlaneSpec, ShmDataPlane
from repro.runtime.shard import (
    CSRShardStore,
    concat_entries,
    make_journal,
    sparse_counts,
)

#: Inbox entry lists, keyed like the wire payloads.
Inbox = Dict[str, Any]

_EMPTY_I64 = np.empty(0, dtype=np.int64)


def empty_inbox() -> Inbox:
    """A fresh routing inbox.

    ``data`` is a pickled slot-form ghost-entry batch (``None`` until
    routed; see :class:`~repro.runtime.shard.FlatEntries`), ``plane``
    ring descriptors ``(src_worker, half, v_start, v_count, e_start,
    e_count)`` in delivery order, ``sched`` int32 arrays of dense vertex
    indices, and ``globals`` newly published ``(key, value)`` pairs
    (empty fields are stripped from the wire at send time).
    """
    return {
        "data": None,
        "plane": [],
        "sched": [],
        "globals": [],
    }


@dataclass
class WorkerInit:
    """Everything one worker needs, pickled once at launch.

    ``classes`` is the *global* color-class list (fixed order); each
    worker filters it down to its owned vertices, reproducing exactly
    the ``local_by_color`` ordering of the simulated
    :class:`~repro.distributed.chromatic.ChromaticEngine`. ``plane`` is
    the data-plane spec (or ``None`` for the pickled wire): shm workers
    attach segments by name at init; the inproc transport injects the
    in-process arrays right after construction.
    """

    worker_id: int
    num_workers: int
    graph: DataGraph
    owner: Dict[VertexId, int]
    classes: List[List[VertexId]]
    consistency: Consistency
    program: Any
    syncs: Tuple[SyncOperation, ...] = ()
    initial_globals: Optional[Dict[str, Any]] = None
    #: Dispatch color-steps to the program's batch kernel when it has
    #: one and the graph's typed columns are compatible (the engine's
    #: ``use_kernel`` knob, shipped so every worker decides identically).
    use_kernel: bool = True
    plane: Optional[PlaneSpec] = None
    #: Record spans/counters and piggyback them on round replies
    #: (:mod:`repro.obs`). Observation only — never steers execution.
    telemetry: bool = False

    #: Worker-independent fields serialized once by :meth:`encode_shared`.
    _shared_fields = (
        "num_workers", "graph", "owner", "classes", "consistency",
        "program", "syncs", "initial_globals", "use_kernel", "plane",
        "telemetry",
    )

    def encode(self) -> bytes:
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    def encode_shared(self) -> bytes:
        """Serialize the worker-independent state once.

        Everything except ``worker_id`` is identical across workers —
        most of it one large pickled graph — so the coordinator encodes
        it a single time and wraps each worker's id around the shared
        blob (:func:`encode_worker`), cutting launch serialization from
        O(workers × graph) to O(graph). The init *class* rides along so
        :func:`worker_from_bytes` can dispatch to the right worker kind.
        """
        state = {name: getattr(self, name) for name in self._shared_fields}
        return pickle.dumps(
            (type(self), state), protocol=pickle.HIGHEST_PROTOCOL
        )


@dataclass
class LockWorkerInit:
    """Launch payload for the pipelined locking engine's workers.

    Same shipping discipline as :class:`WorkerInit` (one shared blob,
    per-worker id wrapper) but a different execution contract: no
    coloring, a real per-worker dynamic scheduler (``"fifo"`` or
    ``"priority"``), a pipeline window bounding in-flight scope
    acquisitions, and a per-round execution budget so self-scheduling
    programs yield the barrier. ``trace`` turns on scope read/write
    recording for the serializability checker (costs the fast paths).
    """

    worker_id: int
    num_workers: int
    graph: DataGraph
    owner: Dict[VertexId, int]
    consistency: Consistency
    program: Any
    scheduler: str = "fifo"
    pipeline_window: int = 64
    round_budget: int = 4096
    initial_globals: Optional[Dict[str, Any]] = None
    trace: bool = False
    plane: Optional[PlaneSpec] = None
    telemetry: bool = False

    _shared_fields = (
        "num_workers", "graph", "owner", "consistency", "program",
        "scheduler", "pipeline_window", "round_budget",
        "initial_globals", "trace", "plane", "telemetry",
    )

    encode = WorkerInit.encode
    encode_shared = WorkerInit.encode_shared


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


class _PlaneClient:
    """Data-plane lifecycle + routed-entry application + command
    dispatch shell, shared by every worker kind (chromatic and locking):
    attach the shared segments, apply coordinator-routed ring
    descriptors and pickled batches through the store's version filter,
    flip the ring half and drain telemetry once per command, and release
    the segment views on exit."""

    worker_id: int
    store: CSRShardStore
    #: Updates executed per vertex, dense index space.
    _counts: np.ndarray
    #: Telemetry recorder; ``None`` when telemetry is off (the hot-path
    #: contract: disabled cost is one falsy check per site).
    _obs: Optional[SpanRecorder]

    def handle(self, tag: str, payload: Mapping[str, Any]) -> Any:
        """One command: ring flip, class-specific dispatch, telemetry.

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

    def _init_plane(self, spec: Optional[PlaneSpec]) -> None:
        # Shm workers attach here by segment name; the inproc transport
        # injects its in-process plane via attach_plane() right after
        # construction.
        self.plane: Optional[DataPlane] = None
        self._ring = None
        if spec is not None and spec.kind == "shm":
            self.attach_plane(ShmDataPlane.attach(spec))

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

    def _collect_dirty_part(self) -> Tuple[Dict, Dict]:
        """Drain dirty state: ring meta + pipe overflow."""
        if self._ring is not None:
            meta, overflow = self.store.collect_dirty_plane(self._ring)
            if overflow and self._obs is not None:
                self._obs.count("plane_overflow_batches")
            return meta, overflow
        return {}, self.store.collect_dirty_flat()

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
        return (self._ring.half if self._ring is not None else 0, body)

    def _collect_payload(self) -> Dict[str, Any]:
        """The collect reply: counts plus whatever the plane can't carry.

        Columns living on the data plane are *not* shipped back — the
        coordinator reads owned slots straight out of this worker's
        segment after the barrier; plane-less columns travel as one
        slot-form batch of the owned slots.
        """
        spec = self.plane.spec if self.plane is not None else None
        on_plane_v = spec is not None and spec.has_v
        on_plane_e = spec is not None and spec.has_e
        reply: Dict[str, Any] = {"counts": sparse_counts(self._counts)}
        if not (on_plane_v and on_plane_e):
            reply["state"] = self.store.checkpoint_payload(
                _EMPTY_I64 if on_plane_v else None,
                _EMPTY_I64 if on_plane_e else None,
            )
        return reply

    def _restore_store(self, payload: Mapping[str, Any]) -> None:
        """The part of a restore every worker kind shares: force-apply
        each journal of the snapshot to the slots held here, reset the
        update counts to this worker's journaled ones, publish the
        snapshot-time globals."""
        for state in payload["state"]:
            self.store.restore_checkpoint(state)
        index, count = payload["counts"]
        self._counts[:] = 0
        self._counts[index] = count
        for key, value in payload.get("globals", ()):
            self.globals.publish(key, value)


class RuntimeWorker(_PlaneClient):
    """One worker's state machine (transport-agnostic, synchronous)."""

    def __init__(self, init: WorkerInit) -> None:
        from repro.runtime.program import resolve_program

        self.worker_id = init.worker_id
        self.num_workers = init.num_workers
        self.graph = init.graph
        self.owner = init.owner
        self.consistency = init.consistency
        self.store = CSRShardStore(init.worker_id, init.graph, init.owner)
        self.update_fn = resolve_program(init.program)
        self.syncs = tuple(init.syncs)
        self.globals = GlobalValues(init.initial_globals)
        csr = init.graph.compiled
        self._vertex_ids = csr.vertex_ids
        self._index_of = csr.index_of
        self._obs = SpanRecorder() if init.telemetry else None
        # Data plane (shared columns + dirty ring).
        self._init_plane(init.plane)
        # One pooled scope, rebound per vertex — the zero-allocation hot
        # path contract of ROADMAP's storage-layout section, now applied
        # per OS process instead of per simulated machine.
        self._scope = Scope(
            init.graph,
            None,
            model=init.consistency,
            store=self.store,
            globals_view=self.globals.view(),
        )
        # The local task set T_w is a boolean mask in dense index space,
        # and this worker's share of each color class (global class
        # order) an index array, so scheduling and counts vectorize in
        # both execution modes.
        index_of = self._index_of
        num_vertices = len(csr.vertex_ids)
        self._counts = np.zeros(num_vertices, dtype=np.int64)
        self._sched_mask = np.zeros(num_vertices, dtype=bool)
        self._owner_idx = csr.dense_map(init.owner)
        me = self.worker_id
        self._by_color_idx = [
            np.array(
                [index_of[v] for v in members if init.owner[v] == me],
                dtype=np.int64,
            )
            for members in init.classes
        ]
        # Batch-kernel mode: when the program advertises a compatible
        # kernel, color-steps execute as numpy passes over the shard's
        # typed columns. The scalar interpreter remains the fallback —
        # and the oracle the kernel is property-tested against.
        kernel = kernel_of(self.update_fn) if init.use_kernel else None
        if (
            kernel is not None
            and kernel.compatible(init.graph)
            and independent_classes(init.graph, init.classes)
        ):
            kernel.bind(init.graph)
            self.kernel = kernel
        else:
            self.kernel = None

    # ------------------------------------------------------------------
    # Message dispatch.
    # ------------------------------------------------------------------
    def _handle(self, tag: str, payload: Mapping[str, Any]) -> Any:
        if tag == "step":
            return self._step(payload["color"], payload.get("inbox"))
        if tag == "sync_count":
            return self._sync_count(payload.get("inbox"))
        if tag == "collect":
            return self._collect(payload.get("inbox"))
        if tag == "checkpoint":
            return self._checkpoint(payload.get("inbox"))
        if tag == "restore":
            return self._restore(payload)
        if tag == "serve":
            return self._serve(payload)
        raise EngineError(f"worker {self.worker_id}: unknown command {tag!r}")

    # ------------------------------------------------------------------
    def _apply_inbox(self, inbox: Optional[Inbox]) -> None:
        """Apply routed state before any local work of the phase runs.

        Ghost entries — ring descriptors and pickled batches alike — go
        through the store's version filter (stale and duplicate
        deliveries are dropped — the idempotence the version scheme
        exists for); remote scheduling requests join the local task set;
        newly published globals become visible to scopes.
        """
        rec = self._obs
        if rec is None:
            self._apply_inbox_inner(inbox)
            return
        t0 = perf_counter()
        self._apply_inbox_inner(inbox)
        rec.span("ghost", t0, perf_counter())

    def _apply_inbox_inner(self, inbox: Optional[Inbox]) -> None:
        if not inbox:
            return
        self._apply_entries(inbox)
        for indices in inbox.get("sched", ()):
            self._schedule_idx(indices)
        for key, value in inbox.get("globals", ()):
            self.globals.publish(key, value)

    def _schedule_idx(self, indices: np.ndarray) -> np.ndarray:
        """Merge dense indices into the task mask (set semantics);
        returns the freshly added indices.

        No dedup pass: kernels already emit unique schedule sets, the
        scalar path dedups its requests, and a duplicate "fresh" index
        is harmless everywhere it flows (mask writes are idempotent)."""
        mask = self._sched_mask
        fresh = indices[~mask[indices]]
        if fresh.size:
            mask[fresh] = True
        return fresh

    # ------------------------------------------------------------------
    # Color-steps.
    # ------------------------------------------------------------------
    def _step(self, color: int, inbox: Optional[Inbox]) -> Tuple:
        """One color-step: apply the inbox, then run this worker's
        scheduled members of ``color``.

        The work list is fixed when the step starts; members of the
        color scheduled during the step wait for the color's next visit,
        matching the simulated chromatic engine, and the result is
        independent of intra-color execution order — the property the
        coloring guarantees (Sec. 4.2.1). The reply is ``(ring_half,
        part)`` where ``part`` is ``(updates, pipe_batches, ring_meta,
        fresh_local_idx, remote_idx_by_dst)`` with empty fields as
        ``None``.
        """
        self._apply_inbox(inbox)
        if self.kernel is not None:
            part = self._run_color_kernel(color)
        else:
            part = self._run_color_scalar(color)
        return (self._ring.half if self._ring is not None else 0, part)

    def _take_work(self, color: int) -> np.ndarray:
        """This worker's scheduled members of ``color``, in member
        order, cleared from the task set before they execute (so a
        self-reschedule survives to the color's next visit)."""
        members = self._by_color_idx[color]
        mask = self._sched_mask
        work = members[mask[members]]
        mask[work] = False
        return work

    def _finish_step(
        self, work: np.ndarray, requested: np.ndarray, span: str, t0: float
    ) -> Tuple:
        """The tail both step kinds share: count the executed ``work``,
        route its scheduling ``requested`` (dense indices) by owner —
        local ones join the task set and the fresh ones are reported
        for the coordinator's task mask, remote ones become int32
        batches per owner — then drain dirty state. Returns the step's
        reply part."""
        self._counts[work] += 1
        sched_out: Dict[int, np.ndarray] = {}
        local_new = None
        if requested.size:
            owners = self._owner_idx[requested]
            me = self.worker_id
            local = requested[owners == me]
            if local.size:
                fresh = self._schedule_idx(local).astype(np.int32)
                local_new = fresh if fresh.size else None
            remote = requested[owners != me]
            if remote.size:
                remote_owners = owners[owners != me]
                for dst in np.unique(remote_owners):
                    sched_out[int(dst)] = (
                        remote[remote_owners == dst].astype(np.int32)
                    )
        rec = self._obs
        if rec is not None:
            t1 = perf_counter()
            rec.span(span, t0, t1, int(work.size))
        meta, overflow = self._collect_dirty_part()
        if rec is not None:
            rec.span("ser", t1, perf_counter())
        return (
            int(work.size),
            overflow or None,
            meta or None,
            local_new,
            sched_out or None,
        )

    def _run_color_scalar(self, color: int) -> Tuple:
        work = self._take_work(color)
        if not work.size:
            return (0, None, None, None, None)
        t0 = perf_counter() if self._obs is not None else 0.0
        vertex_ids = self._vertex_ids
        index_of = self._index_of
        graph = self.graph
        update_fn = self.update_fn
        scope = self._scope
        rebind = scope.rebind
        drain = scope.drain_scheduled
        requested: List[int] = []
        for i in work.tolist():
            rebind(vertex_ids[i])
            returned = update_fn(scope)
            pairs = drain()
            if returned is not None:
                pairs.extend(normalize_schedule(returned, graph=graph))
            requested.extend(index_of[u] for (u, _prio) in pairs)
        # First request of each vertex, in request order.
        requested_idx = np.array(requested, dtype=np.int64)
        _uniq, first = np.unique(requested_idx, return_index=True)
        return self._finish_step(
            work, requested_idx[np.sort(first)], "compute", t0
        )

    def _run_color_kernel(self, color: int) -> Tuple:
        work = self._take_work(color)
        if not work.size:
            # This worker holds none of the frontier: no writes, no
            # dirty state, nothing to collect.
            return (0, None, None, None, None)
        t0 = perf_counter() if self._obs is not None else 0.0
        store = self.store
        result = self.kernel.step(
            self.graph,
            work,
            store.vdata_flat,
            store.edata_flat,
            self.globals.view(),
        )
        store.apply_kernel_result(result)
        return self._finish_step(work, result.scheduled, "kernel", t0)

    # ------------------------------------------------------------------
    def _sync_count(self, inbox: Optional[Inbox]) -> Dict[str, Any]:
        self._apply_inbox(inbox)
        partials = [
            sync.partial(self.graph, self.store.owned_vertices, store=self.store)
            for sync in self.syncs
        ]
        return {"partials": partials}

    def _collect(self, inbox: Optional[Inbox]) -> Dict[str, Any]:
        """Owned data + update counts (the run's final answer shard).

        Applies a final inbox first: the coordinator flushes any ghost
        entries still in flight from the last color-step, so edges held
        by two workers read back their freshest version no matter which
        endpoint's owner is collected. Columns that live on the data
        plane are *not* pickled back — the coordinator reads owned slots
        straight out of this worker's segment after the barrier.
        """
        self._apply_inbox(inbox)
        return self._collect_payload()

    # ------------------------------------------------------------------
    # Checkpoint / restore (runtime fault tolerance, Sec. 4.3).
    # ------------------------------------------------------------------
    def _checkpoint(self, inbox: Optional[Inbox]) -> Dict[str, Any]:
        """Barrier snapshot: journal this shard's owned slots + counts.

        Runs at a sweep boundary; the residual inbox applies first, and
        the reply is this worker's slot-form journal. The task set is *not* journaled here: the
        chromatic coordinator's global mask is exact and rides the meta
        record.
        """
        self._apply_inbox(inbox)
        rec = self._obs
        t0 = perf_counter() if rec is not None else 0.0
        journal = make_journal(self.store.checkpoint_payload(), self._counts)
        if rec is not None:
            rec.span("snap", t0, perf_counter())
        return journal

    def _restore(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Roll this worker back to a snapshot.

        ``state`` holds every worker's journaled slots (this shard
        filters to its held ones — ghosts roll back to their owner's
        snapshot values), ``counts`` the worker's journaled update
        counts, ``sched`` the dense indices of its share of the snapshot
        task set, ``globals`` the snapshot-time published values.
        """
        rec = self._obs
        t0 = perf_counter() if rec is not None else 0.0
        self._restore_store(payload)
        self._sched_mask[:] = False
        self._sched_mask[np.asarray(payload["sched"], dtype=np.int64)] = True
        if rec is not None:
            rec.span("snap", t0, perf_counter())
        return {"worker": self.worker_id}


#: Lock kinds by their int32 wire code (``0`` read, ``1`` write).
_KINDS = (LockKind.READ, LockKind.WRITE)

#: One compiled chain hop: ``(owner, keys, kinds, request_ints,
#: unlock_ints)`` — the group's dense vertex indices and lock kinds (the
#: lock table's group arguments), then the same group as it crosses the
#: int32 wire: ``[k, key0, code0, …]`` after the scope id of a lock
#: request, ``[key0, code0, …]`` in an unlock batch.
Hop = Tuple[
    int,
    Tuple[int, ...],
    Tuple[LockKind, ...],
    Tuple[int, ...],
    Tuple[int, ...],
]


def compile_chain(
    chain: List[Tuple[int, List[Tuple[VertexId, LockKind]]]],
    index_of: Mapping[VertexId, int],
) -> List[Hop]:
    """Compile a :func:`~repro.distributed.locks.build_lock_chain` result
    (which stays the one definition of the canonical order) into the
    locking worker's per-owner hops, once per vertex and model."""
    hops: List[Hop] = []
    for owner, group in chain:
        keys = tuple(index_of[vid] for vid, _kind in group)
        kinds = tuple(kind for _vid, kind in group)
        unlock = tuple(
            x
            for key, kind in zip(keys, kinds)
            for x in (key, _KINDS.index(kind))
        )
        hops.append((owner, keys, kinds, (len(keys),) + unlock, unlock))
    return hops


class _PendingScope:
    """Requester-side state of one in-flight scope acquisition.

    The chain is the canonical per-owner hop list (:func:`compile_chain`
    of :func:`~repro.distributed.locks.build_lock_chain`); ``pos`` is
    the group currently being acquired and ``waiting``
    counts its locally-queued, not-yet-granted locks. A scope is used as
    its own grant token in the local lock table. ``snap`` marks a
    Chandy–Lamport snapshot scope (Alg. 5): it rides the same lock
    pipeline as real updates but executes the snapshot update instead
    of the program, outside the round budget.
    """

    __slots__ = ("scope_id", "vertex", "chain", "pos", "waiting", "snap", "t0")

    def __init__(
        self,
        scope_id: int,
        vertex: VertexId,
        chain: List,
        snap: bool = False,
    ) -> None:
        self.scope_id = scope_id
        self.vertex = vertex
        self.chain = chain
        self.pos = 0
        self.waiting = 0
        self.snap = snap
        #: Request timestamp for the grant-latency span (telemetry only).
        self.t0 = 0.0


class _RemoteGroup:
    """Owner-side state of one remote requester's lock group: grant the
    whole group back (one int32 scope id) once every lock is held."""

    __slots__ = ("src", "scope_id", "remaining")

    def __init__(self, src: int, scope_id: int) -> None:
        self.src = src
        self.scope_id = scope_id
        #: Locks of the group still queued at this owner.
        self.remaining = 0


class LockingWorker(_PlaneClient):
    """Worker of the pipelined locking engine (Sec. 4.2.2).

    Two roles per round, both driven by the coordinator's inbox:

    * **Lock owner** for its owned vertices: an
      :class:`~repro.distributed.locks.RWQueueCore` FIFO readers-writer
      table (the same grant discipline as the simulator's
      ``VertexLockTable``). Remote request groups enqueue atomically —
      combined with the canonical chain order this is what makes the
      protocol deadlock-free — and a group's grant travels back as a
      single int32 scope id.
    * **Requester/executor** for its scheduled vertices: up to
      ``pipeline_window`` scopes keep their lock chains in flight while
      every ready scope executes, so remote lock latency (2+ rounds per
      remote hop) is hidden behind local update computation — the
      pipelining effect Figs. 3b/8b measure. Fully local chains acquire
      and execute inline, interleaved one pop at a time, so a
      single-worker run reproduces ``SequentialEngine``'s FIFO order
      exactly.

    Data freshness is inherited from the ghost/version protocol: a
    scope's grant can only arrive in a round *after* the conflicting
    holder's unlock was processed at the owner, and that holder's dirty
    entries were routed no later than its unlock — so the inbox's data
    (applied first) always includes every write the locks serialized.
    """

    def __init__(self, init: LockWorkerInit) -> None:
        from repro.runtime.program import resolve_program

        if init.pipeline_window < 1:
            raise EngineError("pipeline_window must be >= 1")
        self.worker_id = init.worker_id
        self.num_workers = init.num_workers
        self.graph = init.graph
        self.owner = init.owner
        self.consistency = init.consistency
        self.store = CSRShardStore(init.worker_id, init.graph, init.owner)
        self.update_fn = resolve_program(init.program)
        self.globals = GlobalValues(init.initial_globals)
        self.window = init.pipeline_window
        self.round_budget = init.round_budget
        csr = init.graph.compiled
        self._vertex_ids = csr.vertex_ids
        self._index_of = csr.index_of
        self._scheduler_kind = init.scheduler
        self.scheduler = make_scheduler(init.scheduler)
        #: Locks for *owned* vertices live here, keyed by dense index.
        self.table = RWQueueCore(
            self._index_of[v] for v in self.store.owned_vertices
        )
        self._counts = np.zeros(len(csr.vertex_ids), dtype=np.int64)
        #: Compiled chains, per consistency model, per vertex.
        self._chains: Dict[Consistency, Dict[VertexId, List[Hop]]] = {}
        self._inflight: Dict[int, _PendingScope] = {}
        self._ready: Deque[_PendingScope] = deque()
        self._next_scope = 0
        self._trace: Optional[List[Tuple]] = [] if init.trace else None
        self._obs = SpanRecorder() if init.telemetry else None
        #: In-progress async Chandy–Lamport snapshot (Alg. 5): marked /
        #: queued owned vertices, the local work queue, journaled edge
        #: slots and the growing list of per-scope slot batches. ``None``
        #: when no snapshot is active.
        self._snap: Optional[Dict[str, Any]] = None
        self._init_plane(init.plane)
        self._scope = Scope(
            init.graph,
            None,
            model=init.consistency,
            store=self.store,
            globals_view=self.globals.view(),
            record=init.trace,
        )
        # Per-round outgoing batches (dst -> growing int/float lists).
        self._out_lock: Dict[int, List[int]] = {}
        self._out_grant: Dict[int, List[int]] = {}
        self._out_unlock: Dict[int, List[int]] = {}
        self._out_sched: Dict[int, Tuple[List[int], List[float]]] = {}
        self._out_ssched: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # Message dispatch.
    # ------------------------------------------------------------------
    def _handle(self, tag: str, payload: Mapping[str, Any]) -> Any:
        if tag == "lstep":
            return self._lstep(payload)
        if tag == "collect":
            return self._collect(payload.get("inbox"))
        if tag == "checkpoint":
            return self._checkpoint(payload.get("inbox"))
        if tag == "restore":
            return self._restore(payload)
        if tag == "serve":
            return self._serve(payload)
        raise EngineError(f"worker {self.worker_id}: unknown command {tag!r}")

    # ------------------------------------------------------------------
    # Chain plumbing.
    # ------------------------------------------------------------------
    def _chain_for(self, vertex: VertexId, model: Consistency) -> List[Hop]:
        """Canonical per-owner lock chain, compiled (memoized per model)."""
        chains = self._chains.setdefault(model, {})
        chain = chains.get(vertex)
        if chain is None:
            chain = chains[vertex] = compile_chain(
                build_lock_chain(self.graph, vertex, model, self.owner),
                self._index_of,
            )
        return chain

    def _start(self, vertex: VertexId) -> None:
        scope_id = self._next_scope
        self._next_scope += 1
        ps = _PendingScope(
            scope_id, vertex, self._chain_for(vertex, self.consistency)
        )
        if self._obs is not None:
            ps.t0 = perf_counter()
        self._inflight[scope_id] = ps
        self._advance(ps)

    def _advance(self, ps: _PendingScope) -> None:
        """Acquire chain groups in order until blocked, remote, or done.

        Local groups enqueue atomically against the own table (the
        per-owner atomicity the deadlock-freedom argument needs); a
        remote group ships as one int32 request batch and the chain
        parks until its grant returns. A completed chain queues the
        scope for execution.
        """
        me = self.worker_id
        chain = ps.chain
        while ps.pos < len(chain):
            owner, keys, kinds, request, _unlock = chain[ps.pos]
            if owner != me:
                out = self._out_lock.setdefault(owner, [])
                out.append(ps.scope_id)
                out.extend(request)
                return
            waiting = self.table.request_group(keys, kinds, ps)
            if waiting:
                ps.waiting = waiting
                return
            ps.pos += 1
        rec = self._obs
        if rec is not None and not ps.snap:
            # Chain complete: the whole request->grant latency, tagged
            # with pipeline occupancy at grant time (the Fig. 3b/8b
            # quantity). Overlaps busy spans by design — that overlap
            # *is* the latency pipelining hides.
            rec.span(
                "lockwait",
                ps.t0,
                perf_counter(),
                len(self._inflight),
                len(ps.chain),
            )
        self._ready.append(ps)

    def _on_granted(self, token: Any) -> None:
        """A queued lock was granted (release pump callback)."""
        if isinstance(token, _PendingScope):
            token.waiting -= 1
            if token.waiting == 0:
                token.pos += 1
                self._advance(token)
        else:
            token.remaining -= 1
            if token.remaining == 0:
                self._out_grant.setdefault(token.src, []).append(
                    token.scope_id
                )

    def _release(self, ps: _PendingScope) -> None:
        """Drop every lock of an executed scope; pump grants."""
        del self._inflight[ps.scope_id]
        me = self.worker_id
        for owner, keys, kinds, _request, unlock in ps.chain:
            if owner == me:
                self.table.release_group(keys, kinds, self._on_granted)
            else:
                self._out_unlock.setdefault(owner, []).extend(unlock)

    # ------------------------------------------------------------------
    # One round.
    # ------------------------------------------------------------------
    def _apply_inbox_state(self, inbox: Inbox) -> None:
        """The lock-free part of an inbox, in delivery order: ghost
        data, newly published globals, remote scheduling requests."""
        self._apply_entries(inbox)
        for key, value in inbox.get("globals", ()):
            self.globals.publish(key, value)
        vertex_ids = self._vertex_ids
        add = self.scheduler.add
        for indices, priorities in inbox.get("sched", ()):
            indices = np.asarray(indices).tolist()
            if priorities is None:
                for i in indices:
                    add(vertex_ids[i])
            else:
                for i, prio in zip(indices, priorities.tolist()):
                    add(vertex_ids[i], prio)

    def _lstep(self, payload: Mapping[str, Any]) -> Tuple:
        """Apply the inbox, then pipeline until blocked or out of budget.

        Inbox order matters: ghost data first (every write the grants
        about to be processed were serialized against), then remote
        schedules, then owner-side unlocks (their pumps may ready local
        scopes or complete remote groups), then fresh remote lock
        requests, then grants for this worker's own chains. Execution
        interleaves ready scopes with pipeline top-up one pop at a time
        (FIFO-exact at one worker) and stops at ``budget`` updates so
        self-scheduling programs still yield the barrier.

        Fault-tolerance extras on the same phase: ``drain`` completes
        in-flight scopes without starting new ones (the coordinator's
        quiescence drive before a synchronous snapshot); ``snap`` /
        ``snap_seed`` / ``snap_finish`` run the asynchronous
        Chandy–Lamport snapshot (Alg. 5) — remote snapshot-propagation
        requests ride the inbox as ``ssched`` index arrays, exactly like
        scheduling.
        """
        round_no = payload.get("round", 0)
        budget = payload.get("budget")
        inbox = payload.get("inbox")
        drain = bool(payload.get("drain"))
        self._out_lock = {}
        self._out_grant = {}
        self._out_unlock = {}
        self._out_sched = {}
        self._out_ssched = {}
        rec = self._obs
        snap_info = payload.get("snap")
        if snap_info is not None:
            self._snap_begin(snap_info)
        if inbox:
            t0 = perf_counter() if rec is not None else 0.0
            self._apply_inbox_state(inbox)
            vertex_ids = self._vertex_ids
            if self._snap is not None:
                for arr in inbox.get("ssched", ()):
                    for i in np.asarray(arr).tolist():
                        self._snap_enqueue(vertex_ids[i])
            table = self.table
            kind_of = _KINDS.__getitem__
            for arr in inbox.get("unlock", ()):
                pairs = np.asarray(arr).tolist()
                table.release_group(
                    pairs[0::2], map(kind_of, pairs[1::2]), self._on_granted
                )
            for src, arr in inbox.get("lock", ()):
                flat = np.asarray(arr).tolist()
                j = 0
                while j < len(flat):
                    scope_id, end = flat[j], j + 2 + 2 * flat[j + 1]
                    group = _RemoteGroup(src, scope_id)
                    group.remaining = table.request_group(
                        flat[j + 2:end:2],
                        map(kind_of, flat[j + 3:end:2]),
                        group,
                    )
                    if group.remaining == 0:
                        self._out_grant.setdefault(src, []).append(scope_id)
                    j = end
            inflight = self._inflight
            for arr in inbox.get("grant", ()):
                for scope_id in np.asarray(arr).tolist():
                    ps = inflight[scope_id]
                    ps.pos += 1
                    self._advance(ps)
            if rec is not None:
                # The whole routed-inbox application — ghost data,
                # remote schedules, and lock-protocol deliveries alike.
                rec.span("ghost", t0, perf_counter())
        if payload.get("snap_seed"):
            self._snap_seed()
        snap_written = None
        if payload.get("snap_finish"):
            t0 = perf_counter() if rec is not None else 0.0
            snap_written = self._snap_finish()
            if rec is not None:
                rec.span("snap", t0, perf_counter())
        t0 = perf_counter() if rec is not None else 0.0
        executed = self._pump(round_no, budget, drain=drain)
        if rec is not None:
            t1 = perf_counter()
            rec.span("compute", t0, t1, executed)
        meta, overflow = self._collect_dirty_part()
        body = {
            "executed": executed,
            "idle": (
                self._snap is None
                and not self._inflight
                and not self.scheduler
            ),
            "inflight": len(self._inflight) + len(self._ready),
            "lock": self._encode_i32(self._out_lock),
            "grant": self._encode_i32(self._out_grant),
            "unlock": self._encode_i32(self._out_unlock),
            "sched": self._encode_sched(),
            "ssched": self._encode_i32(self._out_ssched),
            "plane": meta or None,
            "data": overflow or None,
        }
        if snap_written is not None:
            body["snap_bytes"], body["snap_crc"] = snap_written
        snap = self._snap
        if snap is not None:
            body["snap_done"] = (
                len(snap["marked"]) == len(self.store.owned_vertices)
                and not snap["queue"]
                and not any(ps.snap for ps in self._inflight.values())
                and not self._out_ssched
            )
        if rec is not None:
            # Dirty-part collection plus outbound wire encoding — the
            # whole serialization-boundary tail of the round.
            rec.span("ser", t1, perf_counter())
        return (self._ring.half if self._ring is not None else 0, body)

    def _pump(
        self, round_no: int, budget: Optional[int], drain: bool = False
    ) -> int:
        """Execute ready scopes / top up the window, one pop at a time.

        Snapshot scopes are budget-exempt (a budget-stalled snapshot
        would hold locks across rounds and throttle the very pipeline it
        is observing); ``drain`` completes what is in flight without
        admitting new program scopes, so repeated drain rounds converge
        to quiescence.
        """
        executed = 0
        ready = self._ready
        scheduler = self.scheduler
        window = self.window
        inflight = self._inflight
        #: Program scopes popped after the budget ran out; re-queued in
        #: order once the pump stops, still ready next round.
        deferred: List[_PendingScope] = []
        while True:
            if ready:
                ps = ready.popleft()
                if ps.snap:
                    self._execute_snap(ps)
                elif budget is None or executed < budget:
                    self._execute(ps, round_no)
                    executed += 1
                else:
                    deferred.append(ps)
                continue
            snap = self._snap
            if (
                snap is not None
                and snap["queue"]
                and len(inflight) < window
            ):
                self._start_snap(snap["queue"].popleft())
                continue
            if (
                not drain
                and (budget is None or executed < budget)
                and len(inflight) < window
                and scheduler
            ):
                vertex, _prio = scheduler.pop()
                self._start(vertex)
                continue
            break
        if deferred:
            ready.extendleft(reversed(deferred))
        return executed

    def _execute(self, ps: _PendingScope, round_no: int) -> None:
        """Run the update inside its fully locked scope, then release."""
        vertex = ps.vertex
        scope = self._scope
        scope.rebind(vertex)
        returned = self.update_fn(scope)
        pairs = scope.drain_scheduled()
        if returned is not None:
            pairs.extend(normalize_schedule(returned, graph=self.graph))
        me = self.worker_id
        owner = self.owner
        index_of = self._index_of
        for (u, prio) in pairs:
            target = owner[u]
            if target == me:
                self.scheduler.add(u, prio)
            else:
                idx_list, prio_list = self._out_sched.setdefault(
                    target, ([], [])
                )
                idx_list.append(index_of[u])
                prio_list.append(prio)
        self._counts[index_of[vertex]] += 1
        if self._trace is not None:
            self._trace.append(
                (
                    round_no,
                    vertex,
                    frozenset(scope.reads),
                    frozenset(scope.writes),
                )
            )
        # Two-phase: every lock held for the whole update, released
        # after — then changes push with this round's dirty collection,
        # never later than the unlock they are serialized by.
        self._release(ps)

    # ------------------------------------------------------------------
    # Asynchronous Chandy–Lamport snapshot (Alg. 5).
    # ------------------------------------------------------------------
    def _snap_begin(self, info: Mapping[str, Any]) -> None:
        """Initiate a snapshot epoch: every worker is an initiator for
        its owned partition; propagation across partitions travels as
        ``ssched`` requests, so the union of journals is one consistent
        cut. The journal accumulates in memory and is written by this
        worker at ``snap_finish`` — the paper's "each machine saves its
        own state to distributed storage"."""
        self._snap = {
            "id": info["id"],
            "root": info["root"],
            "marked": set(),
            "queued": set(),
            "queue": deque(),
            "edges": set(),
            # Seeded with an empty batch so a worker that owns nothing
            # still packs a journal with this store's column types.
            "batches": [
                self.store.checkpoint_payload(_EMPTY_I64, _EMPTY_I64)
            ],
        }
        self._snap_seed()

    def _snap_seed(self) -> None:
        """Queue the next unmarked owned vertex when the snapshot has no
        local work in flight — the restart that carries Alg. 5 across
        disconnected components (neighbor propagation alone never
        reaches them). Idempotent and cheap; the coordinator asks every
        round of an active snapshot."""
        snap = self._snap
        if snap is None or snap["queue"]:
            return
        if any(ps.snap for ps in self._inflight.values()):
            return
        queued = snap["queued"]
        for vertex in self.store.owned_vertices:
            if vertex not in queued:
                self._snap_enqueue(vertex)
                return

    def _snap_enqueue(self, vertex: VertexId) -> None:
        """Schedule an owned vertex's snapshot update (set semantics)."""
        snap = self._snap
        if snap is None:
            return
        if vertex in snap["marked"] or vertex in snap["queued"]:
            return
        snap["queued"].add(vertex)
        snap["queue"].append(vertex)

    def _start_snap(self, vertex: VertexId) -> None:
        """Snapshot scopes lock at EDGE consistency whatever the
        engine's model — Alg. 5 reads the vertex and all adjacent edges,
        and anything weaker could journal a neighbor edge mid-update."""
        scope_id = self._next_scope
        self._next_scope += 1
        ps = _PendingScope(
            scope_id, vertex, self._chain_for(vertex, Consistency.EDGE),
            snap=True,
        )
        self._inflight[scope_id] = ps
        self._advance(ps)

    def _execute_snap(self, ps: _PendingScope) -> None:
        """Alg. 5's snapshot update, run inside the fully locked scope.

        Save the vertex; save every adjacent edge *this worker owns*
        (source-endpoint ownership, the journal partitioning rule) that
        is not yet journaled; propagate to unmarked neighbors — locally
        by queueing, remotely via ``ssched`` — then mark and release.
        The scope's slots are captured as one slot-form batch while the
        locks are held; the journaled-edge set is what makes double
        delivery harmless when both endpoints reach the same edge.
        """
        snap = self._snap
        vertex = ps.vertex
        if snap is not None and vertex not in snap["marked"]:
            index_of = self._index_of
            edge_slot = self.graph.compiled.edge_slot
            marked = snap["marked"]
            journaled = snap["edges"]
            slots: List[int] = []
            owner = self.owner
            me = self.worker_id
            for u in self.graph.neighbors(vertex):
                owned_u = owner[u] == me
                if owned_u and u in marked:
                    continue
                for key in ((u, vertex), (vertex, u)):
                    if owner[key[0]] != me:
                        continue
                    slot = edge_slot.get(key)
                    if slot is None or slot in journaled:
                        continue
                    journaled.add(slot)
                    slots.append(slot)
                if owned_u:
                    self._snap_enqueue(u)
                else:
                    self._out_ssched.setdefault(owner[u], []).append(
                        index_of[u]
                    )
            snap["batches"].append(
                self.store.checkpoint_payload(
                    np.array([index_of[vertex]], dtype=np.int64),
                    np.array(slots, dtype=np.int64),
                )
            )
            marked.add(vertex)
        self._release(ps)

    def _snap_finish(self) -> Optional[Tuple[int, int]]:
        """Persist this worker's journal and end its snapshot epoch.

        The per-scope batches pack into one slot-form journal; the task
        set journaled for an async snapshot is *every* owned vertex —
        the cut is consistent but not quiescent, so recovery re-executes
        from a full frontier and converges to the same fixed point.
        """
        snap = self._snap
        if snap is None:
            return None
        state = concat_entries(snap["batches"])
        owned = np.sort(state.v_index)
        journal = make_journal(
            state,
            self._counts,
            (owned, np.zeros(len(owned), dtype=np.float64)),
        )
        nbytes, crc = SnapshotDirectory(snap["root"]).write_journal(
            snap["id"], self.worker_id, journal
        )
        self._snap = None
        return nbytes, crc

    # ------------------------------------------------------------------
    # Checkpoint / restore (runtime fault tolerance, Sec. 4.3).
    # ------------------------------------------------------------------
    def _checkpoint(self, inbox: Optional[Inbox]) -> Dict[str, Any]:
        """Quiescent-barrier snapshot: owned slots, counts, task set.

        The coordinator drains the pipeline to quiescence first; a
        residual inbox may still carry ghost data, globals, and remote
        schedules (they fold into the journal), but lock-protocol
        traffic — or scopes still in flight here — means the drain
        failed and the snapshot must not be trusted.
        """
        if inbox:
            if (
                inbox.get("lock")
                or inbox.get("grant")
                or inbox.get("unlock")
            ):
                raise SnapshotError(
                    f"worker {self.worker_id}: checkpoint round carries "
                    "lock traffic; pipeline was not quiescent"
                )
            self._apply_inbox_state(inbox)
        if self._inflight or self._ready:
            raise SnapshotError(
                f"worker {self.worker_id}: checkpoint with "
                f"{len(self._inflight) + len(self._ready)} scopes in "
                "flight; pipeline was not quiescent"
            )
        rec = self._obs
        t0 = perf_counter() if rec is not None else 0.0
        index_of = self._index_of
        entries = list(self.scheduler.entries())
        journal = make_journal(
            self.store.checkpoint_payload(),
            self._counts,
            (
                np.fromiter(
                    (index_of[v] for v, _prio in entries),
                    dtype=np.int32,
                    count=len(entries),
                ),
                np.fromiter(
                    (prio for _v, prio in entries),
                    dtype=np.float64,
                    count=len(entries),
                ),
            ),
        )
        if rec is not None:
            rec.span("snap", t0, perf_counter())
        return journal

    def _restore(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Roll this worker back to a snapshot.

        Same contract as the chromatic worker's restore, plus the
        locking engine's dynamic state: the lock table rebuilds empty
        (every lock a failed round held is gone with it), in-flight
        scopes and outgoing batches drop, the scheduler rebuilds from
        the journaled ``(index, priority)`` task set, and any half-run
        async snapshot is abandoned — its COMPLETE marker never existed,
        so it was never recoverable anyway.
        """
        rec = self._obs
        t0 = perf_counter() if rec is not None else 0.0
        self._restore_store(payload)
        self.table = RWQueueCore(
            self._index_of[v] for v in self.store.owned_vertices
        )
        self.scheduler = make_scheduler(self._scheduler_kind)
        vertex_ids = self._vertex_ids
        indices, priorities = payload.get("sched") or ((), ())
        for index, priority in zip(
            np.asarray(indices).tolist(), np.asarray(priorities).tolist()
        ):
            self.scheduler.add(vertex_ids[index], priority)
        self._inflight = {}
        self._ready = deque()
        self._out_lock = {}
        self._out_grant = {}
        self._out_unlock = {}
        self._out_sched = {}
        self._out_ssched = {}
        self._next_scope = 0
        if self._trace is not None:
            self._trace = []
        self._snap = None
        if rec is not None:
            rec.span("snap", t0, perf_counter())
        return {"worker": self.worker_id}

    # ------------------------------------------------------------------
    # Wire encoding.
    # ------------------------------------------------------------------
    @staticmethod
    def _encode_i32(out: Dict[int, List[int]]) -> Optional[Dict]:
        if not out:
            return None
        return {
            dst: np.asarray(values, dtype=np.int32)
            for dst, values in out.items()
        }

    def _encode_sched(self) -> Optional[Dict]:
        if not self._out_sched:
            return None
        encoded = {}
        for dst, (indices, priorities) in self._out_sched.items():
            prio_arr = (
                np.asarray(priorities, dtype=np.float64)
                if any(priorities)
                else None
            )
            encoded[dst] = (np.asarray(indices, dtype=np.int32), prio_arr)
        return encoded

    # ------------------------------------------------------------------
    def _collect(self, inbox: Optional[Inbox]) -> Dict[str, Any]:
        """Owned data + update counts (+ the trace when recording)."""
        if inbox:
            self._apply_entries(inbox)
        reply = self._collect_payload()
        if self._trace is not None:
            reply["trace"] = self._trace
        return reply


def worker_from_bytes(blob: bytes) -> _PlaneClient:
    """Build the right worker kind from a pickled init payload.

    Payloads come in two shapes: a bare init dataclass, or the
    ``("shared-init", worker_id, shared_blob)`` wrapper whose shared
    blob carries ``(init_class, state)`` — encoded once for all workers
    (:meth:`WorkerInit.encode_shared`). The init class picks the worker:
    :class:`WorkerInit` drives the chromatic :class:`RuntimeWorker`,
    :class:`LockWorkerInit` the pipelined :class:`LockingWorker`.
    """
    payload = pickle.loads(blob)
    if (
        isinstance(payload, tuple)
        and len(payload) == 3
        and payload[0] == "shared-init"
    ):
        _tag, worker_id, shared_blob = payload
        init_cls, state = pickle.loads(shared_blob)
        init = init_cls(worker_id=worker_id, **state)
    else:
        init = payload
    if isinstance(init, LockWorkerInit):
        return LockingWorker(init)
    return RuntimeWorker(init)


#: A deliberately unparseable reply blob — the ``corrupt_reply`` fault.
_CORRUPT_REPLY = b"repro-corrupt-reply"

#: One pre-pickled heartbeat message; tiny and constant, so the pump's
#: steady-state cost is a lock acquire and a pipe write. The socket
#: wire ships an empty ``H`` frame instead and its coordinator side
#: hands this same blob to the shared reply-wait loop.
HEARTBEAT_BLOB = pickle.dumps(("hb", None))


def _execute_fault(fault: Dict[str, Any]) -> bool:
    """Worker-side leg of the transport's fault injector.

    Runs the ``_fault`` directive the coordinator attached to this
    command's payload. ``hang`` SIGSTOPs the whole process — every
    thread freezes, heartbeats included, which is exactly what a
    stalled machine looks like from the other end of the pipe (only
    SIGKILL ends it). ``stall`` sleeps and then continues: a slow
    round, not a failure. ``crash`` exits hard mid-command. Returns
    True when the eventual reply must be shipped corrupted.
    """
    mode = fault.get("mode")
    if mode == "hang":
        os.kill(os.getpid(), signal.SIGSTOP)
    elif mode == "stall":
        sleep(float(fault.get("arg") or 0.0))
    elif mode == "crash":
        os._exit(13)
    return mode == "corrupt_reply"


def ready_ack(worker: Any) -> bytes:
    """The pickled ``("ok", ack)`` ready envelope of a built worker —
    fields *and* encoding in one place, so every backend accounts the
    launch handshake byte-identically. ``clk`` is the clock-offset
    handshake: the coordinator brackets this reading with its own to
    map this process's ``perf_counter`` domain into its timeline
    (:mod:`repro.obs.timeline`)."""
    return pickle.dumps(
        ("ok", {
            "worker": worker.worker_id,
            "owned": len(worker.store.owned_vertices),
            "clk": perf_counter(),
        }),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def run_command(
    worker: Any,
    rec: Optional[Any],
    pump: Optional[HeartbeatPump],
    tag: str,
    payload: Any,
    send: Callable[[bytes], None],
) -> None:
    """The command core both serve loops share: run the ``_fault``
    directive the coordinator may have attached, ``handle`` the command
    inside the heartbeat bracket, and ``send`` exactly one reply — the
    pickled ``("ok", payload)`` / ``("error", traceback)`` envelope, or
    the corrupt blob. Whatever ``send`` raises propagates: the caller
    owns its link."""
    fault = payload.pop("_fault", None) if isinstance(payload, dict) else None
    if pump is not None:
        pump.begin()
    try:
        corrupt = fault is not None and _execute_fault(fault)
        try:
            reply = worker.handle(tag, payload)
        except BaseException:
            send(pickle.dumps(("error", traceback.format_exc())))
            return
        if corrupt:
            send(_CORRUPT_REPLY)
        elif rec is None:
            send(pickle.dumps(("ok", reply), protocol=pickle.HIGHEST_PROTOCOL))
        else:
            # This pickle+ship span necessarily rides the *next* reply's
            # batch — the current one is already built when it ends.
            t0 = perf_counter()
            send(pickle.dumps(("ok", reply), protocol=pickle.HIGHEST_PROTOCOL))
            rec.span("ser", t0, perf_counter())
    finally:
        if pump is not None:
            pump.end()


def serve(
    conn: Any, init_blob: bytes, heartbeat_interval: Optional[float] = None
) -> None:
    """Request/reply loop for a pipe-connected worker process.

    Module-level so ``multiprocessing`` can target it under every start
    method. The first message on the pipe is the ready ack (or the init
    error); afterwards each received command yields exactly one
    ``("ok", payload)`` or ``("error", traceback)`` reply, so the
    coordinator's send-all-then-receive-all round is a true barrier.
    Commands and replies cross the pipe as explicit pickled byte blobs
    (``send_bytes``), so both ends can account wire volume exactly.
    With ``heartbeat_interval`` set, a shared
    :class:`~repro.runtime.liveness.HeartbeatPump` emits liveness
    frames on the same pipe while a command is in flight — zero extra
    barriers, stripped coordinator-side before accounting.
    """
    try:
        worker = worker_from_bytes(init_blob)
    except BaseException:
        try:
            conn.send_bytes(pickle.dumps(("error", traceback.format_exc())))
        finally:
            conn.close()
        return
    send_lock = threading.Lock()

    def _send(blob: bytes) -> None:
        with send_lock:
            conn.send_bytes(blob)

    _send(ready_ack(worker))
    pump = (
        HeartbeatPump(lambda: _send(HEARTBEAT_BLOB), heartbeat_interval)
        if heartbeat_interval
        else None
    )
    rec = getattr(worker, "_obs", None)
    try:
        while True:
            try:
                if rec is None:
                    tag, payload = pickle.loads(conn.recv_bytes())
                else:
                    t0 = perf_counter()
                    blob = conn.recv_bytes()
                    t1 = perf_counter()
                    tag, payload = pickle.loads(blob)
                    rec.span("idle", t0, t1)
                    rec.span("ser", t1, perf_counter())
            except EOFError:
                break
            if tag == "stop":
                _send(pickle.dumps(("ok", {})))
                break
            run_command(worker, rec, pump, tag, payload, _send)
    finally:
        if pump is not None:
            pump.stop()
        worker.close_plane()
        conn.close()
