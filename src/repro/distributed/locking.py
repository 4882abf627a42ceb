"""The Distributed Locking Engine (paper Sec. 4.2.2, Algs. 3-4).

Fully asynchronous execution with dynamic priorities:

* each machine runs updates only on its *local* vertices, popped from a
  per-machine FIFO or priority scheduler;
* a scope is acquired by a **pipelined lock chain**: the lock plan is
  grouped by owning machine in the canonical ``(owner, vertex)`` order;
  a request message hops machine to machine, each granting its local
  readers-writer locks through non-blocking callbacks, shipping any
  scope data the requester's cache holds stale (version-filtered), and
  forwarding the chain — Example 4 of the paper, verbatim;
* up to ``pipeline_length`` scopes per machine may be in flight; ready
  scopes are executed by the core pool, so lock latency is overlapped
  with useful work (the effect Figs. 3b and 8b measure);
* scheduling requests are forwarded to vertex owners, termination is
  detected with the Misra marker ring (:mod:`repro.distributed
  .consensus`), and ghost changes push in the background;
* snapshots: a synchronous stop-the-world checkpoint, and the fully
  asynchronous Chandy-Lamport snapshot of Alg. 5 expressed as a
  prioritized update function over the same lock machinery.

One engine instance per cluster (RPC handler names are engine-global).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Deque, Dict, Generator, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.graph import VertexId
from repro.core.kernels import in_gather, out_gather
from repro.core.scheduler import make_scheduler
from repro.core.tracing import Trace
from repro.core.update import normalize_schedule
from repro.distributed.base import (
    DistributedEngineBase,
    DistributedRunResult,
    SnapshotRecord,
)
from repro.distributed.consensus import install_termination
from repro.distributed.dfs import DistributedFileSystem
from repro.distributed.locks import VertexLockTable, build_lock_chain
from repro.distributed.models import LOCK_MESSAGE_BYTES
from repro.errors import EngineError
from repro.runtime.shard import concat_entries
from repro.sim.kernel import Future
from repro.sim.primitives import Semaphore

#: Cycles per byte copied while journaling snapshot data (memcpy-ish).
SNAPSHOT_CYCLES_PER_BYTE = 2.0
#: Cycles per byte to serialize a synchronous checkpoint on the
#: machine's own CPU (full-state marshaling; on the stop-the-world
#: critical path, unlike the incremental async journals).
CHECKPOINT_SERIALIZE_CYCLES_PER_BYTE = 2.0
#: Fixed per-snapshot-update overhead, cycles.
SNAPSHOT_UPDATE_CYCLES = 2000.0

_USER = "user"
_SNAPSHOT = "snapshot"


class LockingEngine(DistributedEngineBase):
    """Pipelined distributed locking engine.

    Additional parameters beyond :class:`DistributedEngineBase`:

    pipeline_length:
        Maximum scopes with in-flight lock requests per machine
        (the paper sweeps 100-10,000 in Figs. 3b / 8b).
    scheduler:
        ``"fifo"`` or ``"priority"`` (per machine).
    dfs:
        Needed when snapshots are requested.
    snapshot_plan:
        Sequence of ``(updates_threshold, mode)`` pairs; when the global
        update count crosses a threshold the snapshot starts, ``mode``
        being ``"sync"`` or ``"async"``.
    trace:
        Record (vertex, locked-interval, read/write sets) for the
        serializability checker — for tests; costs memory.
    """

    def __init__(
        self,
        *args,
        pipeline_length: int = 100,
        scheduler: str = "fifo",
        dfs: Optional[DistributedFileSystem] = None,
        snapshot_plan: Iterable[Tuple[int, str]] = (),
        trace: bool = False,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if pipeline_length < 1:
            raise EngineError("pipeline_length must be >= 1")
        self.pipeline_length = pipeline_length
        self.dfs = dfs
        self.snapshot_plan: Deque[Tuple[int, str]] = deque(
            sorted(snapshot_plan)
        )
        if self.snapshot_plan and dfs is None:
            raise EngineError("snapshots need a DFS to write to")
        self.trace: Optional[Trace] = Trace() if trace else None
        n = self.cluster.num_machines
        self.schedulers = {m: make_scheduler(scheduler) for m in range(n)}
        self.snapshot_queue: Dict[int, Deque[VertexId]] = {
            m: deque() for m in range(n)
        }
        self.lock_tables = {
            m: VertexLockTable(self.kernel, self.stores[m].owned_vertices)
            for m in range(n)
        }
        self.pipelines = {
            m: Semaphore(self.kernel, pipeline_length) for m in range(n)
        }
        self.in_flight = {m: 0 for m in range(n)}
        self.black = {m: False for m in range(n)}
        self.stopped = {m: False for m in range(n)}
        self.paused = {m: False for m in range(n)}
        self._wake: Dict[int, Optional[Future]] = {m: None for m in range(n)}
        self._idle_waiters: Dict[int, List[Future]] = {m: [] for m in range(n)}
        self._drain_waiters: Dict[int, List[Future]] = {m: [] for m in range(n)}
        # The compiled dense numbering doubles as the canonical total
        # order (owner(v), index(v)) used by the lock chains.
        self._vertex_index = self.graph.vertex_index()
        self._chains: Dict[VertexId, List[Tuple[int, List]]] = {}
        self._scope_slots: Dict[VertexId, Tuple[np.ndarray, np.ndarray]] = {}
        self._acq_counter = itertools.count()
        self._acquisitions: Dict[int, Dict[str, Any]] = {}
        self._active_snapshot: Optional[Dict[str, Any]] = None
        self._snapshot_history: List[Dict[str, Any]] = []
        self._register_rpc()

    # ------------------------------------------------------------------
    # RPC wiring.
    # ------------------------------------------------------------------
    def _register_rpc(self) -> None:
        for m, node in self.cluster.rpc.items():
            node.register(
                "_lock_chain", self._make_chain_handler(m), replace=True
            )
            node.register(
                "_scope_ready", self._handle_scope_ready, replace=True
            )
            node.register(
                "_release", self._make_release_handler(m), replace=True
            )
            node.register(
                "_snap_sched", self._make_snap_sched_handler(m), replace=True
            )

    def _make_chain_handler(self, machine_id: int):
        def handle(sender: int, origin: int, vertex: VertexId, idx: int,
                   acq_id: int, batches: int):
            chain = self._chain_for(vertex)
            _machine, subplan = chain[idx]
            for vid, kind in subplan:
                yield self.lock_tables[machine_id].request(vid, kind)
            batches += self._ship_scope_data(
                machine_id, origin, vertex, acq_id
            )
            if idx + 1 < len(chain):
                nxt_machine, nxt_plan = chain[idx + 1]
                self.cluster.rpc[machine_id].cast(
                    nxt_machine,
                    "_lock_chain",
                    LOCK_MESSAGE_BYTES + 8.0 * len(nxt_plan),
                    origin,
                    vertex,
                    idx + 1,
                    acq_id,
                    batches,
                )
            else:
                self.cluster.rpc[machine_id].cast(
                    origin, "_scope_ready", LOCK_MESSAGE_BYTES, acq_id, batches
                )

        return handle

    def _handle_scope_ready(self, sender: int, acq_id: int, batches: int) -> None:
        ctx = self._acquisitions[acq_id]
        ctx["need"] = batches
        if ctx["recv"] >= batches:
            ctx["event"].resolve()

    def _make_release_handler(self, machine_id: int):
        def handle(sender: int, vertex: VertexId, idx: int) -> None:
            chain = self._chain_for(vertex)
            _machine, subplan = chain[idx]
            table = self.lock_tables[machine_id]
            for vid, kind in subplan:
                table.release(vid, kind)

        return handle

    def _make_snap_sched_handler(self, machine_id: int):
        def handle(sender: int, vertices: tuple) -> None:
            self.black[machine_id] = True
            self.snapshot_queue[machine_id].extend(vertices)
            self._notify(machine_id)

        return handle

    # ------------------------------------------------------------------
    # Lock chains.
    # ------------------------------------------------------------------
    def _chain_for(self, vertex: VertexId) -> List[Tuple[int, List]]:
        """Lock plan for ``vertex`` grouped by machine, canonical order.

        Shared with the runtime backend: :func:`~repro.distributed.locks
        .build_lock_chain` is the one definition of the per-owner hop
        grouping and the ``(owner, vertex_index)`` total order.
        """
        chain = self._chains.get(vertex)
        if chain is None:
            chain = self._chains[vertex] = build_lock_chain(
                self.graph, vertex, self.consistency, self.owner
            )
        return chain

    def _ship_scope_data(
        self, from_machine: int, origin: int, vertex: VertexId, acq_id: int
    ) -> int:
        """Send scope data the origin's cache holds stale; returns number
        of batches sent (0 or 1). The version comparison models the
        requester's cached versions piggybacking on the lock request."""
        if from_machine == origin:
            return 0
        batch = self.stores[from_machine].gather_newer(
            *self._scope_slots_of(vertex), than=self.stores[origin]
        )
        if not batch:
            return 0
        done = self.push_batch(from_machine, origin, batch)

        def on_delivered(_fut: Future, acq_id=acq_id) -> None:
            ctx = self._acquisitions.get(acq_id)
            if ctx is None:
                return
            ctx["recv"] += 1
            if ctx["need"] is not None and ctx["recv"] >= ctx["need"]:
                ctx["event"].resolve()

        done.add_callback(on_delivered)
        return 1

    def _scope_slots_of(
        self, vertex: VertexId
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``S_v`` as slot arrays (memoized): the vertex and its
        neighbours' dense indices, and its adjacent edges' slots. A
        reciprocal edge makes a neighbour both an in- and an
        out-neighbour; ``np.unique`` keeps each datum once."""
        slots = self._scope_slots.get(vertex)
        if slots is None:
            csr = self.graph.compiled
            index = csr.index_of[vertex]
            plan = in_gather(csr, index) + out_gather(csr, index)
            slots = self._scope_slots[vertex] = (
                np.unique(np.array(
                    [index] + [ui for _u, _s, ui in plan], dtype=np.int64
                )),
                np.unique(np.array(
                    [slot for _u, slot, _ui in plan], dtype=np.int64
                )),
            )
        return slots

    # ------------------------------------------------------------------
    # Run loop.
    # ------------------------------------------------------------------
    def run(self, initial: Iterable = ()) -> DistributedRunResult:
        """Execute to quiescence (typed tasks, Misra termination)."""
        for vertex, prio in normalize_schedule(initial, graph=self.graph):
            self.schedulers[self.owner[vertex]].add(vertex, prio)
        term = install_termination(
            self.cluster,
            wait_idle=self._wait_idle,
            take_black=self._take_black,
            on_terminate=self._on_terminate,
        )
        start = self.kernel.now
        self.start_monitoring()
        for m in range(self.cluster.num_machines):
            self.kernel.spawn(self._pump(m), name=f"pump@{m}")
        term["start"]()
        self.kernel.run()
        self.stop_monitoring()
        hit_cap = (
            self.max_updates is not None
            and self.total_updates >= self.max_updates
        )
        result = self.build_result(
            start, converged=bool(term["state"]["terminated"]) and not hit_cap
        )
        result.extra["token_hops"] = term["state"]["hops"]
        if self.trace is not None:
            result.extra["trace"] = self.trace
        return result

    def _pump(self, machine_id: int) -> Generator:
        scheduler = self.schedulers[machine_id]
        snapshot_queue = self.snapshot_queue[machine_id]
        pipeline = self.pipelines[machine_id]
        while True:
            stopped = self.stopped[machine_id]
            snapshot_active = (
                self._active_snapshot is not None
                and self._active_snapshot.get("mode") == "async"
            )
            if stopped and not snapshot_active:
                break
            # After a stop, only an in-flight asynchronous snapshot may
            # still run (its updates do not count toward max_updates);
            # the pump parks until its tasks arrive or it completes.
            has_work = bool(snapshot_queue) or (
                bool(scheduler) and not stopped
            )
            if not has_work or self.paused[machine_id]:
                event = self.kernel.event()
                self._wake[machine_id] = event
                self._maybe_signal_idle(machine_id)
                yield event
                continue
            yield pipeline.acquire()
            snapshot_active = (
                self._active_snapshot is not None
                and self._active_snapshot.get("mode") == "async"
            )
            if self.stopped[machine_id] and not snapshot_active:
                pipeline.release()
                break
            if self.paused[machine_id]:
                # A sync snapshot began while we waited for a pipeline
                # slot; no new update may start until it completes.
                pipeline.release()
                continue
            # Snapshot updates take strict priority (Sec. 4.3).
            if snapshot_queue:
                vertex, kind = snapshot_queue.popleft(), _SNAPSHOT
            elif scheduler:
                (vertex, _prio), kind = scheduler.pop(), _USER
            else:
                pipeline.release()
                continue
            self.in_flight[machine_id] += 1
            self.kernel.spawn(
                self._process_vertex(machine_id, vertex, kind),
                name=f"update:{vertex}@{machine_id}",
            )
        self._maybe_signal_idle(machine_id)

    def _process_vertex(
        self, machine_id: int, vertex: VertexId, kind: str
    ) -> Generator:
        acq_id = next(self._acq_counter)
        ctx = {"recv": 0, "need": None, "event": self.kernel.event()}
        self._acquisitions[acq_id] = ctx
        chain = self._chain_for(vertex)
        first_machine, first_plan = chain[0]
        self.cluster.rpc[machine_id].cast(
            first_machine,
            "_lock_chain",
            LOCK_MESSAGE_BYTES + 8.0 * len(first_plan),
            machine_id,
            vertex,
            0,
            acq_id,
            0,
        )
        yield ctx["event"]
        del self._acquisitions[acq_id]
        locked_at = self.kernel.now
        reads: frozenset = frozenset()
        writes: frozenset = frozenset()
        skip = (
            kind == _USER
            and self.max_updates is not None
            and self.total_updates >= self.max_updates
        )
        if kind == _USER and not skip:
            result = yield from self.execute_update(machine_id, vertex)
            reads, writes = result.reads, result.writes
            self.black[machine_id] = True
            self._forward_schedules(machine_id, result.scheduled)
        elif kind == _SNAPSHOT:
            yield from self._snapshot_update(machine_id, vertex)
            self.black[machine_id] = True
        # Release locks ("Release locks and push changes in background").
        for idx, (p, _subplan) in enumerate(chain):
            if p == machine_id:
                self.cluster.rpc[machine_id]._dispatch(
                    machine_id, "_release", (vertex, idx)
                )
            else:
                self.cluster.rpc[machine_id].cast(
                    p, "_release", LOCK_MESSAGE_BYTES, vertex, idx
                )
        self.flush_dirty(machine_id)  # background pushes
        if self.trace is not None and kind == _USER and not skip:
            self.trace.record(vertex, locked_at, self.kernel.now, reads, writes)
        self.in_flight[machine_id] -= 1
        self.pipelines[machine_id].release()
        if (
            self.max_updates is not None
            and self.total_updates >= self.max_updates
        ):
            self._stop_all()
        self._check_snapshot_trigger()
        self._notify(machine_id)
        self._maybe_signal_idle(machine_id)
        self._maybe_signal_drained(machine_id)

    def _forward_schedules(
        self, machine_id: int, scheduled: List[Tuple[VertexId, float]]
    ) -> None:
        groups: Dict[int, List[Tuple[VertexId, float]]] = {}
        for (u, prio) in scheduled:
            groups.setdefault(self.owner[u], []).append((u, prio))
        for dst, requests in groups.items():
            if dst == machine_id:
                self._receive_schedule(dst, requests)
            else:
                self.send_schedule_requests(
                    machine_id,
                    dst,
                    requests,
                    lambda reqs, dst=dst: self._receive_schedule(dst, reqs),
                )

    def _receive_schedule(
        self, machine_id: int, requests: List[Tuple[VertexId, float]]
    ) -> None:
        self.black[machine_id] = True
        scheduler = self.schedulers[machine_id]
        for (u, prio) in requests:
            scheduler.add(u, prio)
        self._notify(machine_id)

    # ------------------------------------------------------------------
    # Idle / wake bookkeeping.
    # ------------------------------------------------------------------
    def _locally_idle(self, machine_id: int) -> bool:
        if self.stopped[machine_id]:
            return self.in_flight[machine_id] == 0
        return (
            not self.schedulers[machine_id]
            and not self.snapshot_queue[machine_id]
            and self.in_flight[machine_id] == 0
        )

    def _notify(self, machine_id: int) -> None:
        event = self._wake[machine_id]
        if event is not None and not event.done:
            self._wake[machine_id] = None
            event.resolve()

    def _maybe_signal_idle(self, machine_id: int) -> None:
        if self._locally_idle(machine_id) and self._idle_waiters[machine_id]:
            waiters, self._idle_waiters[machine_id] = (
                self._idle_waiters[machine_id],
                [],
            )
            for waiter in waiters:
                waiter.resolve()

    def _maybe_signal_drained(self, machine_id: int) -> None:
        if self.in_flight[machine_id] == 0 and self._drain_waiters[machine_id]:
            waiters, self._drain_waiters[machine_id] = (
                self._drain_waiters[machine_id],
                [],
            )
            for waiter in waiters:
                waiter.resolve()

    def _wait_idle(self, machine_id: int) -> Future:
        future = self.kernel.event()
        if self._locally_idle(machine_id):
            future.resolve()
        else:
            self._idle_waiters[machine_id].append(future)
        return future

    def _take_black(self, machine_id: int) -> bool:
        was_black = self.black[machine_id]
        self.black[machine_id] = False
        return was_black

    def _on_terminate(self, machine_id: int) -> None:
        self.stopped[machine_id] = True
        self._running = False
        self._notify(machine_id)
        self._maybe_signal_idle(machine_id)

    def _stop_all(self) -> None:
        for m in range(self.cluster.num_machines):
            self._on_terminate(m)

    # ------------------------------------------------------------------
    # Snapshots (Sec. 4.3).
    # ------------------------------------------------------------------
    def _check_snapshot_trigger(self) -> None:
        if not self.snapshot_plan or self._active_snapshot is not None:
            return
        threshold, mode = self.snapshot_plan[0]
        if self.total_updates < threshold:
            return
        self.snapshot_plan.popleft()
        if mode == "async":
            self._start_async_snapshot()
        elif mode == "sync":
            self.kernel.spawn(
                self._sync_snapshot_coordinator(), name="sync-snapshot"
            )
        else:
            raise EngineError(f"unknown snapshot mode {mode!r}")

    def _start_async_snapshot(self) -> None:
        """Initiate Alg. 5: seed one snapshot update per machine."""
        self._active_snapshot = {
            "mode": "async",
            "id": len(self._snapshot_history),
            "start": self.kernel.now,
            "updates_at_start": self.total_updates,
            "marked": set(),
            "edges": set(),
            "batches": {m: [] for m in range(self.cluster.num_machines)},
            "bytes": {m: 0.0 for m in range(self.cluster.num_machines)},
            "progress": [],
        }
        for m in range(self.cluster.num_machines):
            owned = self.stores[m].owned_vertices
            if owned:
                self.snapshot_queue[m].append(owned[0])
                self._notify(m)

    def _snapshot_update(self, machine_id: int, vertex: VertexId) -> Generator:
        """Alg. 5, executed under an edge-consistent locked scope.

        Saves the vertex and every adjacent edge to an unmarked neighbor
        not saved yet, captured as one slot-form batch of the machine's
        store while the scope is locked (the runtime's snapshot scopes
        do the same); the batches pack into the machine's journal when
        the snapshot completes.
        """
        snap = self._active_snapshot
        if snap is None or vertex in snap["marked"]:
            return
        store = self.stores[machine_id]
        csr = self.graph.compiled
        save_bytes = self.sizes.vbytes(vertex)
        saved = snap["edges"]
        slots: List[int] = []
        local_next: List[VertexId] = []
        remote_next: Dict[int, List[VertexId]] = {}
        for u in self.graph.neighbors(vertex):
            if u in snap["marked"]:
                continue
            for (a, b) in ((u, vertex), (vertex, u)):
                slot = csr.edge_slot.get((a, b))
                if slot is not None and slot not in saved:
                    saved.add(slot)
                    slots.append(slot)
                    save_bytes += self.sizes.ebytes(a, b)
            target = self.owner[u]
            if target == machine_id:
                local_next.append(u)
            else:
                remote_next.setdefault(target, []).append(u)
        # "Schedule u for a Snapshot Update" — before the scope unlocks.
        self.snapshot_queue[machine_id].extend(local_next)
        for target, vertices in remote_next.items():
            self.cluster.rpc[machine_id].cast(
                target,
                "_snap_sched",
                LOCK_MESSAGE_BYTES + 8.0 * len(vertices),
                tuple(vertices),
            )
        snap["batches"][machine_id].append(
            store.checkpoint_payload(
                np.array([csr.index_of[vertex]], dtype=np.int64),
                np.array(slots, dtype=np.int64),
            )
        )
        snap["marked"].add(vertex)
        snap["progress"].append((self.kernel.now, len(snap["marked"])))
        snap["bytes"][machine_id] += save_bytes
        yield from self.cluster.machine(machine_id).execute(
            SNAPSHOT_UPDATE_CYCLES + SNAPSHOT_CYCLES_PER_BYTE * save_bytes
        )
        self._notify(machine_id)
        if len(snap["marked"]) == self.graph.num_vertices:
            self._finish_async_snapshot()

    def _finish_async_snapshot(self) -> None:
        snap = self._active_snapshot
        self._active_snapshot = None
        self._snapshot_history.append(snap)
        # Wake every pump: stopped machines parked waiting for the
        # snapshot can now exit.
        for m in range(self.cluster.num_machines):
            self._notify(m)
        record = SnapshotRecord(
            mode="async",
            start=snap["start"],
            end=self.kernel.now,
            bytes_written=sum(snap["bytes"].values()),
            updates_at_start=snap["updates_at_start"],
        )
        self.snapshots.append(record)
        self.snapshot_progress = list(snap["progress"])
        # Journals stream to the DFS in the background.
        for m in range(self.cluster.num_machines):
            if snap["bytes"][m] > 0:
                self.kernel.spawn(
                    self.dfs.write(
                        m,
                        f"snapshot/{snap['id']}/machine-{m}",
                        snap["bytes"][m],
                        payload=concat_entries(snap["batches"][m]),
                    ),
                    name=f"snapjournal@{m}",
                )

    def _sync_snapshot_coordinator(self) -> Generator:
        """Stop-the-world checkpoint: suspend, flush, save, resume."""
        start = self.kernel.now
        updates_at_start = self.total_updates
        self._active_snapshot = {"mode": "sync"}
        n = self.cluster.num_machines
        for m in range(n):
            self.paused[m] = True
        # Wait for in-flight updates (and their messages) to drain.
        for m in range(n):
            if self.in_flight[m] > 0:
                waiter = self.kernel.event()
                self._drain_waiters[m].append(waiter)
                yield waiter
        total_bytes = 0.0
        writers = []

        def serialize_and_write(m: int, size: float, payload) -> Generator:
            # Journal serialization runs on the machine's own CPU, so a
            # stalled machine stalls the whole synchronous snapshot —
            # the amplification Fig. 4(b) demonstrates.
            yield from self.cluster.machine(m).execute(
                CHECKPOINT_SERIALIZE_CYCLES_PER_BYTE * size
            )
            yield self.kernel.spawn(
                self.dfs.write(
                    m,
                    f"snapshot/{len(self._snapshot_history)}/machine-{m}",
                    size,
                    payload=payload,
                )
            )

        for m in range(n):
            payload = self.stores[m].checkpoint_payload()
            size = self.sizes.entries_bytes(self.graph.compiled, payload)
            total_bytes += size
            writers.append(
                self.kernel.spawn(
                    serialize_and_write(m, size, payload),
                    name=f"syncsnap@{m}",
                )
            )
        yield writers
        self._snapshot_history.append({"mode": "sync"})
        self.snapshots.append(
            SnapshotRecord(
                mode="sync",
                start=start,
                end=self.kernel.now,
                bytes_written=total_bytes,
                updates_at_start=updates_at_start,
            )
        )
        self._active_snapshot = None
        for m in range(n):
            self.paused[m] = False
            self._notify(m)
