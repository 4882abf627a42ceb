"""The runtime pipelined locking engine (paper Sec. 4.2.2), on real
OS processes.

This is the general engine of the paper — arbitrary update programs,
dynamic per-worker scheduling, any consistency model — executed on the
same :class:`~repro.runtime.transport.Transport` backends as the
chromatic engine. Where the chromatic engine needs a graph coloring and
runs in color-step barriers, this engine takes *any* schedule and
serializes conflicting scopes with **distributed readers-writer locks**:

* **Owner-side lock queues, routed like ghost entries.** Each worker
  owns the locks for its owned vertices (an
  :class:`~repro.distributed.locks.RWQueueCore` FIFO table — the same
  grant discipline as the simulator's ``VertexLockTable``). Lock
  requests, grants, and unlocks cross the coordinator as int32 batches
  in the same per-round routed inboxes that carry dirty ghost entries
  and scheduling requests; workers never address each other directly.
* **Canonical-order chains.** A scope's lock plan is grouped into
  per-owner hops in the canonical ``(owner, vertex_index)`` total order
  (:func:`~repro.distributed.locks.build_lock_chain`, shared verbatim
  with the simulated engine) and acquired one group at a time, which
  makes deadlock impossible: a scope holding locks at worker ``m`` only
  ever waits at workers ``> m``, and within one worker groups enqueue
  atomically into consistently-ordered FIFO queues.
* **Pipelined acquisition** (the paper's Fig. 3b/8b effect). Each
  worker keeps up to ``pipeline_window`` scopes with in-flight lock
  chains while executing every scope whose locks are all held, so the
  2+ rounds of latency a remote lock hop costs are overlapped with
  useful local computation. Ghost data needs no separate prefetch: the
  push-based version protocol delivers a conflicting predecessor's
  writes **no later than the inbox that carries the grant** (the unlock
  and the dirty entries leave the previous holder in the same round,
  and data is applied before grants are processed), so a granted scope
  always reads state at least as fresh as the serialization order
  requires.
* **Termination is what the coordinator sees.** The paper's engine has
  no barrier, so it needs Misra's marker ring to agree that everyone
  is done (the simulator still runs that token:
  :mod:`repro.distributed.consensus`). Here every message crosses the
  coordinator between lockstep rounds, so quiescence is a predicate
  it can evaluate directly: every worker's last ``lstep`` reply
  reported idle and no routed inbox holds anything (:meth:`_quiescent
  <RuntimeLockingEngine._quiescent>`).
* **Snapshots are the core's, plus a drain** (:meth:`_quiesce
  <RuntimeLockingEngine._quiesce>`). The async one (Alg. 5) runs inside
  ``lstep`` rounds; its closing round carries the ``journal`` marker of
  a ``checkpoint``, so each worker writes its own journal either way.

Correctness contract: **sequential consistency, not bit-identity**. The
locks guarantee conflict-serializability — two scopes whose write sets
intersect the other's read-or-write sets never hold their scopes
concurrently — so every run is equivalent to *some* serial schedule,
but which one depends on real interleaving. Deterministic workloads
therefore land on the same fixed point as ``SequentialEngine`` (and a
single-worker run reproduces its FIFO order exactly); per-update
histories may differ. Property-tested in
``tests/test_runtime_locking.py`` by checking every executed scope
against the consistency model's write sets and by fixed-point
equivalence with the sequential oracle.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.consistency import Consistency
from repro.core.graph import DataGraph, VertexId
from repro.core.update import normalize_schedule
from repro.errors import EngineError, SnapshotError
from repro.obs.events import Stopwatch
from repro.runtime.core import (
    MAX_DRAIN_ROUNDS,
    RuntimeCore,
    route_ghost_entries,
)
from repro.runtime.locking_worker import LockWorkerInit, encode_sched
from repro.runtime.transport import Transport
from repro.runtime.worker_base import empty_inbox


def empty_lock_inbox() -> Dict[str, Any]:
    """A fresh routing inbox for one locking-engine round.

    The shared fields (:func:`~repro.runtime.worker_base.empty_inbox`),
    with ``sched`` carrying ``(int32 indices, float64 priorities |
    None)`` pairs — priorities matter here, unlike the chromatic engine;
    plus ``lock``: ``(src, int32 batch)`` request groups for this
    worker's lock table, ``grant``: int32 scope ids for its in-flight
    chains, ``unlock``: int32 ``(vertex, kind)`` pairs to release, and
    ``ssched``: int32 index arrays asking this worker to snapshot its
    vertices (the cross-partition propagation of Alg. 5).
    """
    return {
        **empty_inbox(), "lock": [], "grant": [], "unlock": [], "ssched": []
    }


def _inboxes_quiet(inboxes: List[Dict[str, Any]]) -> bool:
    """No routed message of any kind is awaiting delivery."""
    return all(
        not value for inbox in inboxes for value in inbox.values()
    )


class RuntimeLockingEngine(RuntimeCore):
    """Pipelined distributed locking execution on real worker processes.

    Parameters
    ----------
    graph:
        Finalized data graph; holds the final state after :meth:`run`.
    program:
        Picklable update function or
        :class:`~repro.runtime.program.UpdateProgram`.
    num_workers / transport:
        Worker count and backend (``"mp"``, ``"inproc"``, or an
        unlaunched :class:`~repro.runtime.transport.Transport`).
    consistency:
        Any model — no coloring needed. Serializability holds for EDGE
        and FULL; VERTEX deliberately allows the racy neighbor reads of
        Fig. 1(d) (write sets are still disjoint under its locks).
    scheduler:
        Per-worker dynamic scheduler: ``"fifo"`` or ``"priority"``.
    pipeline_window:
        Maximum scopes with in-flight lock chains per worker (the
        paper sweeps 100–10,000 in Figs. 3b/8b). 1 disables pipelining:
        a worker blocks on every remote lock chain.
    round_budget:
        Updates one worker may execute per round, so self-scheduling
        programs still yield the barrier (and ``max_updates`` overshoot
        stays bounded by one round of work).
    partitioner / assignment / atoms_per_worker:
        Placement knobs for :func:`~repro.distributed.deploy
        .plan_ownership`, identical to the chromatic engine.
    initial_globals:
        Seeded read-only global values (no sync operations here).
    max_updates / max_rounds:
        Stop conditions checked at round boundaries; ``max_updates`` may
        overshoot by up to one round of work per worker.
    reply_timeout / use_plane:
        As for the chromatic engine.
    trace:
        Record every executed scope as ``(worker, round, vertex, reads,
        writes)`` into ``result.extra["trace"]`` for the
        serializability checker — tests only; disables the scope fast
        paths.
    snapshot_every / snapshot_dir / max_recoveries / recovery_backoff:
        Fault tolerance, as for the chromatic engine (the cadence
        counter here is rounds, not sweeps).
    snapshot_mode:
        ``"sync"`` (the default): drain the lock pipeline to quiescence
        at a barrier, then journal — the paper's synchronous snapshot.
        ``"async"``: the Chandy–Lamport snapshot of Alg. 5, run as
        lock-pipelined snapshot scopes *concurrent* with regular
        updates; the journaled cut is consistent but not quiescent, so
        recovery re-executes from a full task set and equivalence is
        fixed-point, not per-update.
    """

    def __init__(
        self,
        graph: DataGraph,
        program: Any,
        num_workers: int = 2,
        transport: Union[str, Transport] = "mp",
        consistency: Consistency = Consistency.EDGE,
        scheduler: str = "fifo",
        pipeline_window: int = 64,
        round_budget: int = 4096,
        partitioner: Any = "hash",
        assignment: Optional[Dict[VertexId, int]] = None,
        atoms_per_worker: int = 4,
        initial_globals: Optional[Dict[str, Any]] = None,
        max_updates: Optional[int] = None,
        max_rounds: Optional[int] = None,
        reply_timeout: Optional[float] = None,
        use_plane: bool = True,
        trace: bool = False,
        snapshot_every: Optional[Union[int, str]] = None,
        snapshot_dir: Optional[str] = None,
        snapshot_mode: str = "sync",
        max_recoveries: int = 2,
        recovery_backoff: float = 0.05,
        telemetry: bool = False,
    ) -> None:
        if pipeline_window < 1:
            raise EngineError("pipeline_window must be >= 1")
        if round_budget < 1:
            raise EngineError("round_budget must be >= 1")
        if scheduler not in ("fifo", "priority"):
            raise EngineError(
                "locking engine scheduler must be 'fifo' or 'priority', "
                f"got {scheduler!r}"
            )
        if snapshot_mode not in ("sync", "async"):
            raise EngineError(
                "snapshot_mode must be 'sync' or 'async', "
                f"got {snapshot_mode!r}"
            )
        super().__init__(
            graph,
            program,
            num_workers=num_workers,
            transport=transport,
            consistency=consistency,
            partitioner=partitioner,
            assignment=assignment,
            atoms_per_worker=atoms_per_worker,
            initial_globals=initial_globals,
            max_updates=max_updates,
            reply_timeout=reply_timeout,
            use_plane=use_plane,
            snapshot_every=snapshot_every,
            snapshot_dir=snapshot_dir,
            max_recoveries=max_recoveries,
            recovery_backoff=recovery_backoff,
            telemetry=telemetry,
        )
        self.scheduler = scheduler
        self.pipeline_window = pipeline_window
        self.round_budget = round_budget
        self.max_rounds = max_rounds
        self.trace = trace
        self.snapshot_mode = snapshot_mode
        #: In-progress async snapshot (id + begin/finish handshake
        #: state); ``None`` when no Chandy–Lamport snapshot is running.
        self._async: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # Scheduling policy: per-worker dynamic schedulers behind distributed
    # locks, terminated when every worker is idle and nothing is routed.
    # ------------------------------------------------------------------
    engine_name = "locking"
    _empty_inbox = staticmethod(empty_lock_inbox)

    def _clock(self) -> int:
        return self._rounds

    def _reset_progress(self, initial: Iterable) -> None:
        #: Per-worker ``(indices, priorities)`` of the initial schedule,
        #: journaled by the baseline snapshot so a recovery before the
        #: first real snapshot restarts the run exactly.
        self._initial_sched = self._route_schedule(initial)
        self._rounds = 0
        #: Each worker's ``idle`` field from its last ``lstep`` reply;
        #: ``False`` until that first reply, and for a serve write's
        #: owner until the next one (see :meth:`_quiescent`).
        self._idle = [False] * self.num_workers
        self._trace_entries: List[Tuple] = []
        #: ``lstep`` rounds tallied by how many workers executed at
        #: least one update in them (index = that count). Like the
        #: result's ``rounds`` it counts every round the cluster ran, so
        #: a recovery does not rewind it: rolled-back rounds still cost
        #: their wall time.
        self._executing = [0] * (self.num_workers + 1)

    def _route_schedule(
        self, schedule: Iterable
    ) -> Dict[int, Tuple[List[int], List[float]]]:
        """Bucket ``(vertex, priority)`` pairs by owner into the sched
        inboxes; returns the per-worker ``(indices, priorities)``."""
        index_of = self._csr.index_of
        owner_idx = self._owner_idx
        by_worker: Dict[int, Tuple[List[int], List[float]]] = {}
        for vertex, prio in normalize_schedule(schedule, graph=self.graph):
            idx = index_of[vertex]
            indices, priorities = by_worker.setdefault(
                int(owner_idx[idx]), ([], [])
            )
            indices.append(idx)
            priorities.append(prio)
        for w, (indices, priorities) in by_worker.items():
            self._inboxes[w]["sched"].append(encode_sched(indices, priorities))
        return by_worker

    # ------------------------------------------------------------------
    # Rounds.
    # ------------------------------------------------------------------
    def _lstep(self, budget: int, **flags: Any) -> List[Dict[str, Any]]:
        """One budgeted ``lstep`` round, the engine's unit of progress.

        Counts every worker's executed updates, records its idle report
        and routes its outgoing batches into the next inboxes; returns
        the reply bodies for the caller's own fields (drain in-flight
        counts, the async snapshot handshake).
        """
        replies = self._send_round(
            "lstep", {"round": self._rounds, "budget": budget, **flags}
        )
        self._rounds += 1
        bodies = []
        executing = 0
        for w, (half, body) in enumerate(replies):
            executed = body["executed"]
            if executed:
                executing += 1
                self._total_updates += executed
                self.updates_per_worker[w] += executed
            self._idle[w] = body["idle"]
            self._route(w, half, body)
            bodies.append(body)
        self._executing[executing] += 1
        return bodies

    def _quiescent(self) -> bool:
        """Global quiescence, as the coordinator sees it between rounds.

        A worker only gains work from a routed message, and every
        message crosses the coordinator: so when every worker's last
        ``lstep`` reported idle and no routed inbox holds anything, no
        worker can ever do more. Ghost data a serve round delivers
        schedules nothing, so it needs no round of its own. Serve writes
        are the one outside source of work; they clear their owner's
        idle flag, so the next pump runs one round to see that owner
        idle again.
        """
        return all(self._idle) and _inboxes_quiet(self._inboxes)

    def _run_loop(self) -> None:
        """Round until quiescence or a stop condition (resumable)."""
        while True:
            if (
                self.max_updates is not None
                and self._total_updates >= self.max_updates
            ):
                break
            if (
                self.max_rounds is not None
                and self._rounds >= self.max_rounds
            ):
                break
            if (
                self._cadence is not None
                and self._async is None
                and self._cadence.due(self._rounds, time.perf_counter())
            ):
                if self.snapshot_mode == "sync":
                    self._take_snapshot()
                    continue  # re-check stop conditions post-drain
                self._async_begin()
            budget = self.round_budget
            if self.max_updates is not None:
                budget = min(budget, self.max_updates - self._total_updates)
            flags: Dict[str, Any] = {}
            async_state = self._async
            finishing = False
            if async_state is not None:
                if not async_state["begun"]:
                    # Round 1 of the handshake: every worker becomes an
                    # initiator for its owned partition.
                    async_state["begun"] = True
                    flags["snap"] = True
                elif async_state["ready"]:
                    # The closing round: every worker writes its journal.
                    finishing = True
                    flags["journal"] = (
                        async_state["id"], self._ckpt.dir.root
                    )
                else:
                    # Keep nudging: a worker whose snapshot work drained
                    # seeds its next unmarked owned vertex (disconnected
                    # components never hear about the snapshot from a
                    # neighbor).
                    flags["snap_seed"] = True
            bodies = self._lstep(budget, **flags)
            if async_state is not None:
                if finishing:
                    self._async_finalize(bodies)
                elif all(
                    body.get("snap_done", False) and not body.get("ssched")
                    for body in bodies
                ):
                    # Every worker marked all it owns, holds no snapshot
                    # scope, and routed no propagation this round — the
                    # cut is complete; next round closes the handshake.
                    async_state["ready"] = True
                # No termination check while a snapshot is in flight:
                # workers report busy until the handshake closes.
                continue
            if self._quiescent():
                self._converged = True
                break

    # ------------------------------------------------------------------
    # Serving mode (repro.serve): the preferred serving substrate.
    # ------------------------------------------------------------------
    def _absorb_serve_replies(
        self, replies: List[Any], writes_by: List[List]
    ) -> None:
        """A serve barrier is a round on this engine's clock, and a
        write is work: its owner counts as busy until its next
        ``lstep`` reply."""
        self._rounds += 1
        for w, (half, body) in enumerate(replies):
            if writes_by[w]:
                self._idle[w] = False
            self._route(w, half, body)

    def service_schedule(self, schedule: Iterable) -> int:
        """Inject dynamic updates (the serving write path's follow-up).

        Routes ``(vertex, priority)`` pairs into their owners' inboxes
        exactly like the initial schedule of a run; the non-empty
        inboxes are what keeps :meth:`_quiescent` false until they are
        delivered. Returns the number of injected tasks; they execute on
        subsequent :meth:`service_pump_round` calls.
        """
        by_worker = self._route_schedule(schedule)
        return sum(len(indices) for indices, _prios in by_worker.values())

    def service_pump_round(self) -> bool:
        """One locking round of background work; ``True`` at quiescence.

        The serving twin of one :meth:`_run_loop` iteration. Already
        :meth:`_quiescent` (nothing written, scheduled or routed since
        the last round that saw every worker idle): returns ``True``
        and sends no round. Otherwise runs one budgeted ``lstep`` and
        returns whether that reached quiescence. Snapshot cadence fires
        here too, always via the synchronous drain-then-journal path —
        serving interleaves rounds with barriers, so the paper's async
        snapshot machinery stays a run-mode feature.
        """
        if self._quiescent():
            return True
        if (
            self._cadence is not None
            and self._cadence.due(self._rounds, time.perf_counter())
        ):
            self._take_snapshot()
        self._lstep(self.round_budget)
        return self._quiescent()

    # ------------------------------------------------------------------
    # Snapshots and recovery (Sec. 4.3).
    # ------------------------------------------------------------------
    def _snapshot_meta(self, mode: str = "sync") -> Dict[str, Any]:
        """Coordinator progress record stored beside the journals.

        Unlike the chromatic engine there is no global task mask — each
        worker journals its own scheduler, so meta carries only the
        round clock and globals."""
        return {
            "engine": "locking",
            "mode": mode,
            "rounds": self._rounds,
            "globals": self.globals.snapshot(),
        }

    def _baseline_journals(self) -> List[Dict[str, Any]]:
        journals = super()._baseline_journals()
        for w, journal in enumerate(journals):
            indices, priorities = self._initial_sched.get(w, ((), ()))
            journal["sched"] = (
                np.asarray(indices, dtype=np.int32),
                np.asarray(priorities, dtype=np.float64),
            )
        return journals

    def _quiesce(self) -> None:
        """Drain to quiescence before a synchronous snapshot.

        Drain rounds run the pipeline with a full budget but admit no
        new scopes (``drain=True``), so in-flight chains complete, their
        unlocks/grants/data flush through the routed inboxes, and the
        cluster reaches the halted-and-delivered state the paper's
        synchronous snapshot assumes. Updates executed while draining
        are real work and count normally; so does the ``checkpoint``
        round that follows, on the round clock.
        """
        drains = 0
        while True:
            bodies = self._lstep(self.round_budget, drain=True)
            if _inboxes_quiet(self._inboxes) and not any(
                body.get("inflight", 0) for body in bodies
            ):
                break
            drains += 1
            if drains > MAX_DRAIN_ROUNDS:
                raise SnapshotError(
                    "lock pipeline failed to drain to quiescence for "
                    f"a synchronous snapshot within {MAX_DRAIN_ROUNDS} "
                    "rounds"
                )
        self._rounds += 1

    def _async_begin(self) -> None:
        self._async = {
            "id": self._ckpt.next_id(),
            "begun": False,
            "ready": False,
            "watch": Stopwatch(self._rec, "snap"),
        }

    def _async_finalize(self, bodies: List[Dict[str, Any]]) -> None:
        """Close the handshake: every worker wrote its journal this
        round and replied with its manifest record; commit them."""
        state = self._async
        self._async = None
        self._commit_snapshot(
            state["id"],
            [body.get("journal") for body in bodies],
            state["watch"],
            "async",
        )

    def _restore_progress(
        self, meta: Dict[str, Any], journals: List[Dict[str, Any]]
    ) -> List[Any]:
        """Counts reset from the journals (their sum is the snapshot's
        exact update total), no worker counts as idle until its next
        ``lstep`` reply, and any half-run async snapshot is
        abandoned — its COMPLETE marker never existed, so it was never
        a recovery point. Each worker re-seeds its journaled scheduler.
        """
        self._rounds = meta["rounds"]
        self._total_updates = 0
        for w, journal in enumerate(journals):
            count = int(journal["counts"][1].sum())
            self.updates_per_worker[w] = count
            self._total_updates += count
        self._idle = [False] * self.num_workers
        self._async = None
        return [journal.get("sched") for journal in journals]

    # ------------------------------------------------------------------
    # Routing.
    # ------------------------------------------------------------------
    def _route(self, src: int, half: int, body: Dict[str, Any]) -> None:
        """Deliver one worker's outgoing batches into the next inboxes."""
        inboxes = self._inboxes
        lock = body.get("lock")
        if lock:
            for dst, arr in lock.items():
                inboxes[dst]["lock"].append((src, arr))
        for kind in ("grant", "unlock", "sched", "ssched"):
            batches = body.get(kind)
            if batches:
                for dst, batch in batches.items():
                    inboxes[dst][kind].append(batch)
        route_ghost_entries(
            inboxes, src, half, body.get("plane"), body.get("data")
        )

    # ------------------------------------------------------------------
    # Launch / result plumbing.
    # ------------------------------------------------------------------
    def _worker_init(self, worker_id: int) -> LockWorkerInit:
        return LockWorkerInit(
            worker_id=worker_id,
            num_workers=self.num_workers,
            graph=self.graph,
            owner=self.owner,
            consistency=self.consistency,
            program=self.program,
            scheduler=self.scheduler,
            pipeline_window=self.pipeline_window,
            round_budget=self.round_budget,
            initial_globals=self._initial_globals,
            trace=self.trace,
            plane=self._plane.spec if self._plane is not None else None,
            telemetry=self.telemetry,
        )

    def _absorb_collect(self, replies: List[Dict[str, Any]]) -> None:
        if self.trace:
            for w, reply in enumerate(replies):
                for (round_no, vertex, reads, writes) in reply.get(
                    "trace", ()
                ):
                    self._trace_entries.append(
                        (w, round_no, vertex, reads, writes)
                    )

    def _result_extra(self) -> Dict[str, Any]:
        extra: Dict[str, Any] = {
            "pipeline_window": self.pipeline_window,
            "executing_workers": list(self._executing),
        }
        if self.trace:
            extra["trace"] = self._trace_entries
        return extra

    def _telemetry_meta(self) -> Dict[str, Any]:
        return {
            "pipeline_window": self.pipeline_window,
            "executing_workers": list(self._executing),
        }
