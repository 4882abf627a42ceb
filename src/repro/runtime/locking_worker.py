"""The pipelined locking engine's worker policy (Sec. 4.2.2).

A :class:`~repro.runtime.worker_base.WorkerBase` whose task set is a
dynamic scheduler (``"fifo"`` or ``"priority"``) and whose unit of work
is a fully locked scope. It adds one command to the shared ones:

* ``("lstep", {round, budget, inbox})`` — apply the inbox (ghost data,
  remote scheduling requests, owner-side lock/unlock batches, grants
  for this worker's in-flight scopes), then run the pipelined loop:
  advance lock chains, execute every scope whose locks are all held,
  and keep up to ``pipeline_window`` scopes in flight so lock latency
  overlaps with local update computation. Locks for a vertex live at
  its *owner* (an :class:`~repro.distributed.locks.RWQueueCore` FIFO
  readers-writer table per worker), and lock/unlock/grant traffic rides
  the coordinator-routed rounds as int32 batches — exactly the path
  ghost entries take. The same command carries the quiescence drive
  before a synchronous snapshot (``drain``) and the asynchronous
  Chandy–Lamport snapshot of Alg. 5 (``snap`` / ``snap_seed``, and the
  closing round's ``journal`` marker: like a ``checkpoint``, the worker
  writes its own journal and replies with its manifest record).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.consistency import Consistency
from repro.core.graph import VertexId
from repro.core.scheduler import make_scheduler
from repro.core.update import normalize_schedule
from repro.distributed.locks import (
    _KINDS,
    Hop,
    RWQueueCore,
    build_lock_chain,
    compile_chain,
)
from repro.errors import EngineError, SnapshotError
from repro.runtime.shard import concat_entries
from repro.runtime.worker_base import (
    _EMPTY_I64,
    Inbox,
    WorkerBase,
    WorkerInitBase,
)


@dataclass(kw_only=True)
class LockWorkerInit(WorkerInitBase):
    """Launch payload for the pipelined locking engine's workers.

    No coloring: a real per-worker dynamic scheduler (``"fifo"`` or
    ``"priority"``), a pipeline window bounding in-flight scope
    acquisitions, and a per-round execution budget so self-scheduling
    programs yield the barrier. ``trace`` turns on scope read/write
    recording for the serializability checker (costs the fast paths).
    """

    scheduler: str = "fifo"
    pipeline_window: int = 64
    round_budget: int = 4096
    trace: bool = False


def encode_sched(
    indices: List[int], priorities: List[float]
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """One ``sched`` wire entry: int32 dense indices and float64
    priorities — ``None`` when every priority is zero, the default."""
    return (
        np.asarray(indices, dtype=np.int32),
        np.asarray(priorities, dtype=np.float64) if any(priorities) else None,
    )


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


class LockingWorker(WorkerBase):
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
        if init.pipeline_window < 1:
            raise EngineError("pipeline_window must be >= 1")
        self._trace = [] if init.trace else None
        super().__init__(init)
        self.window = init.pipeline_window
        self.round_budget = init.round_budget
        self._scheduler_kind = init.scheduler
        #: Compiled chains, per consistency model, per vertex.
        self._chains: Dict[Consistency, Dict[VertexId, List[Hop]]] = {}
        self._reset_tasks(None)

    def _handle(self, tag: str, payload: Mapping[str, Any]) -> Any:
        if tag == "lstep":
            return self._lstep(payload)
        return super()._handle(tag, payload)

    # ------------------------------------------------------------------
    # The task set and the in-flight pipeline.
    # ------------------------------------------------------------------
    def _schedule(self, entry: Tuple[Any, Optional[np.ndarray]]) -> None:
        """Remote ``(int32 indices, float64 priorities | None)``
        scheduling requests join the scheduler."""
        indices, priorities = entry
        vertex_ids = self._vertex_ids
        add = self.scheduler.add
        indices = np.asarray(indices).tolist()
        if priorities is None:
            for i in indices:
                add(vertex_ids[i])
        else:
            for i, prio in zip(indices, priorities.tolist()):
                add(vertex_ids[i], prio)

    def _reset_tasks(self, sched: Any) -> None:
        """Start (or restart from a snapshot) the dynamic state.

        The lock table builds empty (every lock a failed round held is
        gone with it), in-flight scopes and outgoing batches drop, the
        scheduler rebuilds from the journaled ``(index, priority)`` task
        set, and any half-run async snapshot is abandoned — its COMPLETE
        marker never existed, so it was never recoverable anyway.
        """
        #: Locks for *owned* vertices live here, keyed by dense index.
        self.table = RWQueueCore(
            self._index_of[v] for v in self.store.owned_vertices
        )
        self.scheduler = make_scheduler(self._scheduler_kind)
        if sched is not None:
            self._schedule(sched)
        self._inflight: Dict[int, _PendingScope] = {}
        self._ready: Deque[_PendingScope] = deque()
        self._next_scope = 0
        self._reset_outbox()
        if self._trace is not None:
            self._trace = []
        #: In-progress async Chandy–Lamport snapshot (Alg. 5): marked /
        #: queued owned vertices, the local work queue, journaled edge
        #: slots and the growing list of per-scope slot batches. ``None``
        #: when no snapshot is active.
        self._snap: Optional[Dict[str, Any]] = None

    def _reset_outbox(self) -> None:
        """Fresh per-round outgoing batches (dst -> growing lists)."""
        self._out_lock: Dict[int, List[int]] = {}
        self._out_grant: Dict[int, List[int]] = {}
        self._out_unlock: Dict[int, List[int]] = {}
        self._out_sched: Dict[int, Tuple[List[int], List[float]]] = {}
        self._out_ssched: Dict[int, List[int]] = {}

    def _check_quiescent(self, inbox: Optional[Inbox]) -> None:
        """The coordinator drains the pipeline to quiescence before a
        synchronous checkpoint; a residual inbox may still carry ghost
        data, globals and remote schedules (they fold into the journal),
        but lock-protocol traffic — or scopes still in flight here —
        means the drain failed and the snapshot must not be trusted."""
        if inbox and (
            inbox.get("lock") or inbox.get("grant") or inbox.get("unlock")
        ):
            raise SnapshotError(
                f"worker {self.worker_id}: checkpoint round carries "
                "lock traffic; pipeline was not quiescent"
            )
        if self._inflight or self._ready:
            raise SnapshotError(
                f"worker {self.worker_id}: checkpoint with "
                f"{len(self._inflight) + len(self._ready)} scopes in "
                "flight; pipeline was not quiescent"
            )

    def _task_journal(self) -> Tuple[np.ndarray, np.ndarray]:
        """The scheduler's ``(int32 index, float64 priority)`` entries."""
        index_of = self._index_of
        entries = list(self.scheduler.entries())
        return (
            np.array([index_of[v] for v, _prio in entries], dtype=np.int32),
            np.array([prio for _v, prio in entries], dtype=np.float64),
        )

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
    def _apply_protocol(self, inbox: Inbox) -> None:
        """Lock-protocol deliveries, after the shared state: snapshot
        propagation requests, then owner-side unlocks (their pumps may
        ready local scopes or complete remote groups), then fresh remote
        lock requests, then grants for this worker's own chains."""
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

    def _lstep(self, payload: Mapping[str, Any]) -> Tuple:
        """Apply the inbox, then pipeline until blocked or out of budget.

        Inbox order matters (:meth:`_apply_inbox`, then
        :meth:`_apply_protocol`): ghost data first (every write the
        grants about to be processed were serialized against), then
        remote schedules, then lock traffic. Execution interleaves ready
        scopes with pipeline top-up one pop at a time (FIFO-exact at one
        worker) and stops at ``budget`` updates so self-scheduling
        programs still yield the barrier.

        Fault-tolerance extras on the same phase: ``drain`` completes
        in-flight scopes without starting new ones (the coordinator's
        quiescence drive before a synchronous snapshot); ``snap`` /
        ``snap_seed`` / ``journal`` run the asynchronous Chandy–Lamport
        snapshot (Alg. 5) — remote snapshot-propagation requests ride
        the inbox as ``ssched`` index arrays, exactly like scheduling.
        """
        round_no = payload.get("round", 0)
        budget = payload.get("budget")
        drain = bool(payload.get("drain"))
        self._reset_outbox()
        rec = self._obs
        if payload.get("snap"):
            self._snap_begin()
        self._apply_inbox(payload.get("inbox"))
        if payload.get("snap_seed"):
            self._snap_seed()
        marker = payload.get("journal")
        record = self._snap_finish(marker) if marker is not None else None
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
            "sched": {
                dst: encode_sched(*pair)
                for dst, pair in self._out_sched.items()
            } or None,
            "ssched": self._encode_i32(self._out_ssched),
            "plane": meta or None,
            "data": overflow or None,
        }
        if record is not None:
            body["journal"] = record
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
        return self._reply(body)

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
    def _snap_begin(self) -> None:
        """Initiate a snapshot epoch: every worker is an initiator for
        its owned partition; propagation across partitions travels as
        ``ssched`` requests, so the union of journals is one consistent
        cut. The journal accumulates in memory and is written by this
        worker on the closing round — the paper's "each machine saves
        its own state to distributed storage"."""
        self._snap = {
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

    def _snap_finish(
        self, marker: Tuple[int, str]
    ) -> Optional[Dict[str, int]]:
        """Persist this worker's journal and end its snapshot epoch;
        returns its manifest record.

        The per-scope batches pack into one slot-form journal; the task
        set journaled for an async snapshot is *every* owned vertex —
        the cut is consistent but not quiescent, so recovery re-executes
        from a full frontier and converges to the same fixed point.
        """
        snap = self._snap
        if snap is None:
            return None
        self._snap = None
        state = concat_entries(snap["batches"])
        owned = np.sort(state.v_index)
        return self._write_journal(
            marker, state, (owned, np.zeros(len(owned), dtype=np.float64))
        )

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
