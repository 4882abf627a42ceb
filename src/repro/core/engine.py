"""In-process reference engines implementing Alg. 2 (paper Sec. 3.3).

Two engines live here:

* :class:`SequentialEngine` — the executable semantics of the execution
  model: a single loop popping vertices from the scheduler and applying
  the update function. Deterministic given the scheduler; this is the
  ground truth other engines are validated against, and the workhorse of
  the algorithmic convergence experiments (Figs. 1a–d, 9a).
* :class:`ThreadedEngine` — a real shared-memory parallel engine in the
  spirit of the original multicore GraphLab [24]: worker threads, one
  readers-writer lock per vertex, lock plans derived from the consistency
  model acquired in canonical order (deadlock-free). Used to demonstrate
  true concurrent execution and to property-test the serializability
  machinery; the *distributed* engines live in
  :mod:`repro.distributed`.

Both engines support sync operations (Sec. 3.5) on an update-count
cadence and can record execution traces for the serializability checker.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.core.consistency import Consistency, LockKind, lock_plan
from repro.core.graph import DataGraph, VertexId
from repro.core.kernels import (
    independent_classes,
    kernel_of,
    run_color_sweeps,
)
from repro.core.scheduler import Scheduler, make_scheduler
from repro.core.scope import Scope
from repro.core.sync import GlobalValues, SyncOperation
from repro.core.tracing import Trace
from repro.core.update import UpdateFunction, normalize_schedule, run_update
from repro.errors import EngineError


@dataclass
class EngineResult:
    """Summary of one engine run.

    Attributes
    ----------
    num_updates:
        Total update-function executions.
    updates_per_vertex:
        Histogram of executions per vertex (Fig. 1b plots this).
    converged:
        True when the scheduler drained; False when ``max_updates`` hit.
    globals:
        Final published global values.
    trace:
        Execution trace when tracing was enabled, else ``None``.
    """

    num_updates: int
    updates_per_vertex: Dict[VertexId, int]
    converged: bool
    globals: Dict[str, object] = field(default_factory=dict)
    trace: Optional[Trace] = None


class _EngineBase:
    """Configuration shared by the in-process engines."""

    def __init__(
        self,
        graph: DataGraph,
        update_fn: UpdateFunction,
        consistency: Consistency = Consistency.EDGE,
        scheduler: Union[str, Scheduler] = "fifo",
        syncs: Sequence[SyncOperation] = (),
        initial_globals: Optional[Mapping[str, object]] = None,
        max_updates: Optional[int] = None,
        trace: bool = False,
        use_kernel: bool = True,
    ) -> None:
        graph.require_finalized()
        self.graph = graph
        self.update_fn = update_fn
        #: Batch-kernel dispatch opt-out (tests pin the scalar oracle).
        self.use_kernel = use_kernel
        self.consistency = consistency
        if isinstance(scheduler, str):
            order = list(graph.vertices()) if scheduler == "sweep" else None
            scheduler = make_scheduler(scheduler, order=order)
        self.scheduler = scheduler
        self.syncs = tuple(syncs)
        self.globals = GlobalValues(initial_globals)
        self.max_updates = max_updates
        self._trace = Trace() if trace else None
        self._sync_countdown = {
            s.key: s.interval_updates for s in self.syncs
        }

    # ------------------------------------------------------------------
    def _run_all_syncs(self) -> None:
        for sync in self.syncs:
            value = sync.compute(
                self.graph, globals_view=self.globals.view()
            )
            self.globals.publish(sync.key, value)

    def _tick_syncs(self, updates_done: int) -> None:
        """Run any sync whose update-count cadence has elapsed."""
        for sync in self.syncs:
            interval = sync.interval_updates
            if interval and updates_done % interval == 0:
                value = sync.compute(
                    self.graph, globals_view=self.globals.view()
                )
                self.globals.publish(sync.key, value)

    def _result(self, counts: Dict[VertexId, int], converged: bool) -> EngineResult:
        return EngineResult(
            num_updates=sum(counts.values()),
            updates_per_vertex=counts,
            converged=converged,
            globals=self.globals.snapshot(),
            trace=self._trace,
        )


class SequentialEngine(_EngineBase):
    """Single-threaded reference implementation of Alg. 2.

    ``run(initial)`` executes the loop::

        while T not empty:
            v <- RemoveNext(T)
            (T', S_v) <- f(v, S_v)
            T <- T + T'

    until the scheduler drains or ``max_updates`` is reached. With a
    ``sweep`` scheduler this is Gauss-Seidel ("async" in the paper's
    convergence plots); with a ``priority`` scheduler it is the dynamic
    prioritized execution of Sec. 3.3.

    The loop is the throughput-critical path of every figure
    reproduction, so it pools a single :class:`Scope` (rebound per pop),
    inlines the schedule merge of :func:`run_update` (same merge order),
    hoists attribute lookups, and skips sync ticking entirely when no
    syncs are registered. The bench probe
    ``core.scope.scalar_update_us`` (``python3 -m bench --probes``)
    tracks its per-update cost.
    """

    def run(
        self, initial: Iterable[Union[VertexId, tuple]] = ()
    ) -> EngineResult:
        """Execute until quiescence. ``initial`` seeds the task set.

        When the update program carries a batch kernel, the graph has
        the typed columns it needs, and the scheduler is a color-sweep
        drive (an independent-frontier order), whole color-steps run as
        numpy passes instead of per-vertex interpretation — bit-identical
        by the kernel contract, ~10x+ faster. Everything else (tracing,
        syncs, other schedulers, ``use_kernel=False``) takes the scalar
        loop below, which remains the oracle.
        """
        kernel = self.batch_kernel()
        if kernel is not None:
            return self._run_batch(kernel, initial)
        scheduler = self.scheduler
        graph = self.graph
        update_fn = self.update_fn
        max_updates = self.max_updates
        trace = self._trace
        tick_syncs = self._tick_syncs if self.syncs else None
        scheduler.add_pairs(normalize_schedule(initial, graph=graph))
        self._run_all_syncs()
        counts: Dict[VertexId, int] = {}
        counts_get = counts.get
        updates = 0
        clock = itertools.count()
        scope = Scope(
            graph,
            None,
            model=self.consistency,
            globals_view=self.globals.view(),
            record=trace is not None,
        )
        rebind = scope.rebind
        drain_scheduled = scope.drain_scheduled
        pop = scheduler.pop
        add_pairs = scheduler.add_pairs
        while scheduler:
            if max_updates is not None and updates >= max_updates:
                return self._result(counts, converged=False)
            vertex, _priority = pop()
            rebind(vertex)
            returned = update_fn(scope)
            scheduled = drain_scheduled()
            if returned is not None:
                scheduled.extend(normalize_schedule(returned, graph=graph))
            add_pairs(scheduled)
            counts[vertex] = counts_get(vertex, 0) + 1
            updates += 1
            if trace is not None:
                tick = next(clock)
                trace.record(
                    vertex,
                    tick,
                    tick + 1,
                    frozenset(scope.reads),
                    frozenset(scope.writes),
                )
            if tick_syncs is not None:
                tick_syncs(updates)
        self._run_all_syncs()
        return self._result(counts, converged=True)

    # ------------------------------------------------------------------
    # Batch-kernel dispatch (the "Batch kernel contract" in ROADMAP.md).
    # ------------------------------------------------------------------
    def batch_kernel(self):
        """The kernel :meth:`run` dispatches to, or ``None`` for the
        scalar loop; callers may ask before running."""
        if not self.use_kernel or self._trace is not None or self.syncs:
            # Tracing needs per-update read/write sets; syncs tick on a
            # per-update cadence the batch path cannot reproduce.
            return None
        kernel = kernel_of(self.update_fn)
        if kernel is None:
            return None
        classes = getattr(self.scheduler, "color_classes", None)
        if classes is None or len(self.scheduler):
            # Only independent-frontier schedulers batch; a pre-seeded
            # scheduler would be bypassed by the mask loop.
            return None
        if not kernel.compatible(self.graph):
            return None
        if not independent_classes(self.graph, classes):
            # Batch steps are Jacobi within a class; only independent
            # sets make that equal to the scalar in-order execution.
            return None
        return kernel

    def _run_batch(
        self, kernel, initial: Iterable[Union[VertexId, tuple]]
    ) -> EngineResult:
        graph = self.graph
        self._run_all_syncs()
        counts_vec, updates, converged = run_color_sweeps(
            graph,
            kernel,
            self.scheduler.color_classes,
            normalize_schedule(initial, graph=graph),
            max_updates=self.max_updates,
            globals_view=self.globals.view(),
        )
        self._run_all_syncs()
        vertex_ids = graph.compiled.vertex_ids
        counts = {
            vertex_ids[i]: int(counts_vec[i])
            for i in counts_vec.nonzero()[0]
        }
        return EngineResult(
            num_updates=updates,
            updates_per_vertex=counts,
            converged=converged,
            globals=self.globals.snapshot(),
            trace=None,
        )


class _ReadWriteLock:
    """Writer-preferring readers-writer lock for the threaded engine."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()


class ThreadedEngine(_EngineBase):
    """Shared-memory parallel engine with per-vertex RW locks.

    Lock plans come from
    :func:`repro.core.consistency.lock_plan`; acquisition follows the
    canonical vertex order so the execution is deadlock-free, and — for
    edge/full consistency — serializable, which the trace recorded under
    a real wall-clock interleaving can verify.

    Python's GIL caps speedups, but the interleavings are real: the
    engine exists for semantics, not throughput (throughput lives in the
    simulator-backed distributed engines).
    """

    def __init__(self, *args, num_workers: int = 4, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if num_workers < 1:
            raise EngineError("num_workers must be >= 1")
        self.num_workers = num_workers
        self._locks: Dict[VertexId, _ReadWriteLock] = {
            v: _ReadWriteLock() for v in self.graph.vertices()
        }
        self._sched_lock = threading.Lock()
        self._idle = threading.Condition(self._sched_lock)
        self._active = 0
        self._stop = False
        self._counts: Dict[VertexId, int] = {}
        self._updates = 0
        self._clock = itertools.count()
        self._trace_lock = threading.Lock()
        self._order = self.graph.vertex_index()
        # Lock plans depend only on (vertex, model, order) — all static
        # after finalize — so they are resolved once per vertex.
        self._plans: Dict[VertexId, list] = {}

    def run(
        self, initial: Iterable[Union[VertexId, tuple]] = ()
    ) -> EngineResult:
        """Execute with ``num_workers`` threads until quiescence."""
        self.scheduler.add_pairs(normalize_schedule(initial, graph=self.graph))
        self._run_all_syncs()
        workers = [
            threading.Thread(target=self._worker, name=f"graphlab-w{i}")
            for i in range(self.num_workers)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        self._run_all_syncs()
        return self._result(self._counts, converged=not self._stop)

    # ------------------------------------------------------------------
    def _worker(self) -> None:
        # One pooled scope per worker thread, rebound per vertex.
        scope = Scope(
            self.graph,
            None,
            model=self.consistency,
            globals_view=self.globals.view(),
            record=self._trace is not None,
        )
        while True:
            with self._sched_lock:
                while not self.scheduler and self._active and not self._stop:
                    self._idle.wait()
                if self._stop or (not self.scheduler and not self._active):
                    self._idle.notify_all()
                    return
                if (
                    self.max_updates is not None
                    and self._updates >= self.max_updates
                ):
                    self._stop = True
                    self._idle.notify_all()
                    return
                vertex, _prio = self.scheduler.pop()
                self._active += 1
                self._updates += 1
            try:
                self._execute(vertex, scope)
            finally:
                with self._sched_lock:
                    self._active -= 1
                    self._idle.notify_all()

    def _lock_plan_for(self, vertex: VertexId) -> list:
        plan = self._plans.get(vertex)
        if plan is None:
            plan = self._plans[vertex] = lock_plan(
                self.graph,
                vertex,
                self.consistency,
                order_key=self._order.__getitem__,
            )
        return plan

    def _execute(self, vertex: VertexId, scope: Scope) -> None:
        plan = self._lock_plan_for(vertex)
        start = next(self._clock)
        for vid, kind in plan:
            lock = self._locks[vid]
            if kind is LockKind.WRITE:
                lock.acquire_write()
            else:
                lock.acquire_read()
        try:
            scope.rebind(vertex)
            result = run_update(self.update_fn, scope)
        finally:
            end = next(self._clock)
            for vid, kind in reversed(plan):
                lock = self._locks[vid]
                if kind is LockKind.WRITE:
                    lock.release_write()
                else:
                    lock.release_read()
        if self._trace is not None:
            with self._trace_lock:
                self._trace.record(
                    vertex, start, end, result.reads, result.writes
                )
        with self._sched_lock:
            self.scheduler.add_pairs(result.scheduled)
            self._counts[vertex] = self._counts.get(vertex, 0) + 1
            self._idle.notify_all()


def run_to_convergence(
    graph: DataGraph,
    update_fn: UpdateFunction,
    initial: Iterable[VertexId],
    consistency: Consistency = Consistency.EDGE,
    scheduler: Union[str, Scheduler] = "fifo",
    syncs: Sequence[SyncOperation] = (),
    initial_globals: Optional[Mapping[str, object]] = None,
    max_updates: Optional[int] = None,
    trace: bool = False,
    use_kernel: bool = True,
) -> EngineResult:
    """One-call convenience wrapper around :class:`SequentialEngine`."""
    engine = SequentialEngine(
        graph,
        update_fn,
        consistency=consistency,
        scheduler=scheduler,
        syncs=syncs,
        initial_globals=initial_globals,
        max_updates=max_updates,
        trace=trace,
        use_kernel=use_kernel,
    )
    return engine.run(initial)
