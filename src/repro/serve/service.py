"""GraphService: the resident graph as a long-lived, measured service.

A :class:`~repro.runtime.locking.RuntimeLockingEngine` (or the chromatic
fallback) is launched once and **parked at the barrier** — workers stay
resident with the finalized graph sharded across them — and a single
service thread alternates three kinds of engine commands on its behalf:

* **serve barriers** (``engine.service_barrier``): batched client writes
  land at their owners and batched reads return version-tagged
  snapshots, all inside one worker command so a read never observes a
  half-applied update. A batch of reads only needs no command at all
  when the engine has a data plane: the coordinator answers it from
  the shared segments, taking each datum's highest-versioned copy —
  the same answer the command would give, because this thread is the
  only one that drives the engine, so reads always fall between
  commands (``stats()["plane_reads"]`` counts them);
* **schedule injections** (``engine.service_schedule``): each write's
  touched neighborhood enters the dynamic schedule, so the resident
  update program (an incremental, residual-scheduled PageRank by
  default) re-converges the perturbed region in the background;
* **pump rounds** (``engine.service_pump_round``): one bounded round of
  that background computation, interleaved with client traffic, until
  the engine's own termination detector reports quiescence.

Admission control is a bounded queue: :meth:`GraphService.submit` either
admits a request (returning a :class:`Ticket`) or *sheds* it with a
structured :class:`~repro.serve.protocol.Rejection` — 429-style when the
queue is full, 503-style once draining has begun — never queueing
unboundedly and never blocking the client. :meth:`GraphService.close`
drains gracefully: accepted requests complete, background work quiesces,
the runtime takes a final verified snapshot through the PR 6 checkpoint
path, and the workers shut down.

Every request is measured: admission-to-reply spans land on the
coordinator telemetry track as ``read``/``write`` span kinds (``a`` =
queue depth at admission) and flow through the normal ``repro.obs``
pipeline — ``python -m repro.obs report`` renders the serving section's
p50/p95/p99 latencies from the run telemetry this service returns.
"""

from __future__ import annotations

import threading
from collections import deque
from time import perf_counter
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.core.coloring import coloring_for
from repro.core.consistency import Consistency
from repro.core.engine import SequentialEngine
from repro.core.graph import DataGraph, VertexId
from repro.core.kernels import kernel_of
from repro.errors import EngineError
from repro.obs.metrics import percentile
from repro.runtime.engine import RuntimeChromaticEngine, RuntimeRunResult
from repro.runtime.locking import RuntimeLockingEngine
from repro.runtime.oracle import ColorSweepScheduler
from repro.runtime.program import named_program, resolve_program
from repro.serve.protocol import (
    REJECT_BAD_REQUEST,
    REJECT_DRAINING,
    REJECT_FAILED,
    REJECT_QUEUE_FULL,
    ReadReply,
    ReadRequest,
    Rejection,
    StatsReply,
    StatsRequest,
    WriteReply,
    WriteRequest,
)

#: Write-path neighborhood policies: who re-converges after a write —
#: the written vertex plus its out-neighbors (``out``), plus all its
#: neighbors (``all``), the vertex alone (``self``), or nobody
#: (``none``: the write stands until something else reschedules it).
#: Every policy but ``none`` heals client noise back to the fixed point.
TOUCH_POLICIES = ("out", "all", "self", "none")

#: Priority attached to write-touched dynamic updates. Residual-
#: scheduled programs emit priorities equal to their (sub-1.0) rank
#: change, so 1.0 puts freshly perturbed neighborhoods at the head of a
#: priority scheduler's queue — client-visible staleness drains first.
TOUCH_PRIORITY = 1.0


class Ticket:
    """One admitted request: a waitable slot for its eventual reply."""

    __slots__ = ("request", "kind", "admitted", "depth", "_event", "reply")

    def __init__(self, request: Any, kind: str, depth: int) -> None:
        self.request = request
        self.kind = kind
        self.admitted = perf_counter()
        #: Queue depth observed at admission (the backpressure signal).
        self.depth = depth
        self._event = threading.Event()
        self.reply: Any = None

    def resolve(self, reply: Any) -> None:
        self.reply = reply
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = 30.0) -> Any:
        """Block for the reply (a protocol dataclass, maybe Rejection)."""
        if not self._event.wait(timeout):
            raise EngineError(
                f"serving request timed out after {timeout}s "
                f"({self.kind} {self.request!r})"
            )
        return self.reply


class GraphService:
    """Long-lived serving wrapper around a parked runtime engine.

    ``engine`` picks the substrate: ``"locking"`` (default — fine-
    grained rounds interleave best with client traffic, and its priority
    scheduler honors the write path's urgency) or ``"chromatic"`` (the
    fallback; background work runs in whole-sweep bursts, so it serves
    only at sweep quiescence). ``program`` defaults to the incremental
    PageRank (:func:`repro.apps.pagerank.make_pagerank_delta_update` via
    the program registry), and ``warm=True`` converges the resident
    results before the launch, so the service opens quiescent and the
    first client reads the program's fixed point.

    The warm start runs where the paper runs static schedules: as
    chromatic color sweeps (Sec. 4.2.1). When the program advertises a
    batch kernel the graph's typed columns fit, :meth:`start` drives it
    in process — ``SequentialEngine`` over a
    :class:`~repro.runtime.oracle.ColorSweepScheduler` — on the very
    columns the engine then ships to its workers, and opens the service
    with an empty schedule. The coloring is the chromatic engine's own
    (so the warm ranks are bit-identical to that engine's run), or on
    the locking engine a proper one for its consistency model. Any
    other program (no kernel, ``use_kernel=False``, syncs, a coloring
    whose classes are not independent) schedules every vertex on the
    launched engine instead, exactly as a run would.

    Lifecycle: :meth:`start` (or ``with service:``) launches and parks
    the cluster; :meth:`submit` / :meth:`request` serve traffic from any
    number of client threads; :meth:`close` drains and returns the
    engine's :class:`~repro.runtime.core.RuntimeRunResult`, whose
    telemetry carries the per-request serving spans.
    """

    def __init__(
        self,
        graph: DataGraph,
        program: Any = None,
        *,
        engine: str = "locking",
        num_workers: int = 2,
        transport: Any = "inproc",
        consistency: Consistency = Consistency.EDGE,
        scheduler: str = "priority",
        queue_limit: int = 256,
        batch_max: int = 64,
        warm: bool = True,
        touch: str = "out",
        telemetry: bool = True,
        snapshot_every: Optional[Any] = None,
        snapshot_dir: Optional[str] = None,
        **engine_kwargs: Any,
    ) -> None:
        if queue_limit < 1:
            raise EngineError("queue_limit must be >= 1")
        if batch_max < 1:
            raise EngineError("batch_max must be >= 1")
        if touch not in TOUCH_POLICIES:
            raise EngineError(
                f"unknown touch policy {touch!r}; expected one of "
                f"{TOUCH_POLICIES}"
            )
        if program is None:
            program = named_program("pagerank_delta")
        if engine == "locking":
            self._engine: Any = RuntimeLockingEngine(
                graph,
                program,
                num_workers=num_workers,
                transport=transport,
                consistency=consistency,
                scheduler=scheduler,
                telemetry=telemetry,
                snapshot_every=snapshot_every,
                snapshot_dir=snapshot_dir,
                **engine_kwargs,
            )
        elif engine == "chromatic":
            self._engine = RuntimeChromaticEngine(
                graph,
                program,
                num_workers=num_workers,
                transport=transport,
                consistency=consistency,
                telemetry=telemetry,
                snapshot_every=snapshot_every,
                snapshot_dir=snapshot_dir,
                **engine_kwargs,
            )
        else:
            raise EngineError(
                f"unknown serving engine {engine!r}; expected 'locking' "
                "or 'chromatic'"
            )
        self.graph = graph
        self.engine_name = engine
        self.queue_limit = queue_limit
        self.batch_max = batch_max
        self.touch = touch
        self._warm = warm
        self._obs = self._engine.recorder  # None when telemetry is off
        self._cond = threading.Condition()
        self._queue: Deque[Ticket] = deque()
        self._inflight: List[Ticket] = []
        self._thread: Optional[threading.Thread] = None
        self._started = False
        self._closing = False
        self._closed = False
        self._quiescent = False
        self._error: Optional[BaseException] = None
        self._result: Optional[RuntimeRunResult] = None
        # Serving counters/latency, kept service-side (always on, cheap)
        # in addition to the telemetry spans (on iff telemetry=True).
        self._accepted = 0
        self._served = 0
        self._rejected: Dict[int, int] = {}
        self._lat: Dict[str, List[float]] = {"read": [], "write": []}

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> "GraphService":
        """Launch + park the cluster; begin accepting requests."""
        if self._started:
            raise EngineError("graph service is single-use; build a new one")
        self._started = True
        initial: Iterable = ()
        if self._warm and not self._warm_in_process():
            initial = self.graph.vertices()
        self._engine.open_service(initial)
        # After an in-process warm start (or none) the first pump finds
        # no work; otherwise it converges the resident program. Either
        # way the engine's termination detector witnesses quiescence.
        self._quiescent = False
        self._thread = threading.Thread(
            target=self._loop, name="graph-serve", daemon=True
        )
        self._thread.start()
        return self

    def _warm_in_process(self) -> bool:
        """Converge ``self.graph`` with kernel color sweeps, pre-launch.

        Taken exactly when ``SequentialEngine`` would run the program's
        batch kernel (its ``batch_kernel()``: the typed columns fit the
        kernel, no syncs tick, the coloring's classes are independent)
        and the engine does not pin ``use_kernel`` off. Returns whether
        it ran; ``False`` leaves the warm start to the launched engine.

        Why the engine may then open with an empty schedule: both
        drives stop exactly when the task set is empty, and a vertex
        leaves it only through an update whose residual stayed under the
        program's threshold with no in-neighbor moving since. The color
        sweep is one serial schedule — the chromatic engine's own, and
        one of those the locking engine's sequential consistency admits
        — so the opened state is a fixed point the engine itself could
        have reached. The engine ships ``graph.compiled``'s columns at
        launch, so its workers start from it.
        """
        engine = self._engine
        graph = self.graph
        update_fn = resolve_program(engine.program)
        if kernel_of(update_fn) is None or not getattr(
            engine, "use_kernel", True
        ):
            return False
        began = perf_counter()
        coloring = getattr(engine, "coloring", None)
        if coloring is None:
            # The locking engine has no coloring of its own; any proper
            # one batches (a constant VERTEX coloring never does).
            model = (
                Consistency.FULL
                if engine.consistency is Consistency.FULL
                else Consistency.EDGE
            )
            coloring = coloring_for(graph, model)
        warm = SequentialEngine(
            graph,
            update_fn,
            scheduler=ColorSweepScheduler(coloring),
            syncs=getattr(engine, "syncs", ()),
            initial_globals=engine.globals.snapshot(),
        )
        if warm.batch_kernel() is None:
            return False
        result = warm.run(graph.vertices())
        if self._obs is not None:
            self._obs.span(
                "warm",
                began,
                perf_counter(),
                result.num_updates,
                len(warm.scheduler.color_classes),
            )
        return True

    def close(self, snapshot: bool = True) -> RuntimeRunResult:
        """Graceful drain: complete accepted work, snapshot, tear down.

        New submissions are shed (503-style) from this point on; every
        already-accepted request resolves; background schedules pump to
        quiescence; then the engine's ``close_service`` takes the final
        checkpoint (when configured) and shuts the workers down.
        Idempotent — repeat calls return the same result. If the service
        thread died, the stored engine error is re-raised here after the
        transport is torn down.
        """
        with self._cond:
            if self._closed:
                if self._error is not None:
                    raise EngineError(
                        "graph service failed"
                    ) from self._error
                assert self._result is not None
                return self._result
            self._closing = True
            self._cond.notify_all()
        assert self._thread is not None
        self._thread.join()
        with self._cond:
            self._closed = True
        if self._error is not None:
            try:
                self._engine.transport.shutdown()
            except Exception:
                pass
            raise EngineError("graph service failed") from self._error
        # Shed counts become a telemetry counter just before the
        # engine finalizes the timeline (single-threaded by now).
        if self._obs is not None:
            shed = sum(self._rejected.values())
            if shed:
                self._obs.count("serve_rejected", shed)
        self._result = self._engine.close_service(snapshot=snapshot)
        return self._result

    def __enter__(self) -> "GraphService":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *_exc: Any) -> None:
        if not self._closed:
            self.close()

    # ------------------------------------------------------------------
    # Client API (any thread).
    # ------------------------------------------------------------------
    def submit(self, request: Any) -> Any:
        """Admit one request or shed it; never blocks, never queues
        past ``queue_limit``.

        Returns a :class:`Ticket` on admission, or a structured
        :class:`Rejection` (429-style ``queue full``, 503-style while
        draining/after failure, 400-style for an unknown vertex — the
        request would otherwise crash a worker command).
        """
        if isinstance(request, StatsRequest):
            # Answered from coordinator state; no barrier, no queue.
            ticket = Ticket(request, "stats", 0)
            ticket.resolve(StatsReply(self.stats()))
            return ticket
        if isinstance(request, ReadRequest):
            kind = "read"
        elif isinstance(request, WriteRequest):
            kind = "write"
        else:
            raise EngineError(
                f"not a serving request: {type(request).__name__}"
            )
        if request.vertex not in self._engine.owner:
            return Rejection(
                REJECT_BAD_REQUEST,
                f"unknown vertex {request.vertex!r}",
            )
        with self._cond:
            if self._error is not None:
                return self._reject(REJECT_FAILED, "service failed")
            if self._closing or self._closed or not self._started:
                return self._reject(
                    REJECT_DRAINING, "service is draining"
                )
            depth = len(self._queue)
            if depth >= self.queue_limit:
                return self._reject(
                    REJECT_QUEUE_FULL, "queue full", depth
                )
            ticket = Ticket(request, kind, depth)
            self._queue.append(ticket)
            self._accepted += 1
            self._cond.notify_all()
        return ticket

    def request(self, request: Any, timeout: Optional[float] = 30.0) -> Any:
        """Submit + wait: one synchronous request/reply exchange."""
        out = self.submit(request)
        if isinstance(out, Rejection):
            return out
        return out.wait(timeout)

    def read(self, vertex: VertexId, scope: bool = False) -> Any:
        """Convenience: synchronous :class:`ReadRequest`."""
        return self.request(ReadRequest(vertex, scope))

    def write(self, vertex: VertexId, value: Any, schedule: bool = True) -> Any:
        """Convenience: synchronous :class:`WriteRequest`."""
        return self.request(WriteRequest(vertex, value, schedule))

    def stats(self) -> Dict[str, Any]:
        """Point-in-time serving counters + latency percentiles (ms)."""
        with self._cond:
            depth = len(self._queue)
            accepted = self._accepted
            served = self._served
            rejected = dict(self._rejected)
            lat = {k: list(v) for k, v in self._lat.items()}
            quiescent = self._quiescent and depth == 0
        out: Dict[str, Any] = {
            "engine": self.engine_name,
            "accepted": accepted,
            "served": served,
            # Reads answered from the data plane without a serve round.
            "plane_reads": self._engine.plane_reads,
            "rejected": sum(rejected.values()),
            "rejected_by_code": rejected,
            "queue_depth": depth,
            "queue_limit": self.queue_limit,
            "quiescent": quiescent,
        }
        for op, samples in lat.items():
            if samples:
                out[op] = {
                    "count": len(samples),
                    "p50_ms": percentile(samples, 50) * 1e3,
                    "p95_ms": percentile(samples, 95) * 1e3,
                    "p99_ms": percentile(samples, 99) * 1e3,
                    "max_ms": max(samples) * 1e3,
                }
        return out

    # ------------------------------------------------------------------
    # Service thread.
    # ------------------------------------------------------------------
    def _reject(self, code: int, reason: str, depth: int = 0) -> Rejection:
        # Caller holds the lock (or is pre-admission where racing a
        # counter bump is harmless).
        self._rejected[code] = self._rejected.get(code, 0) + 1
        return Rejection(code, reason, depth, self.queue_limit)

    def _loop(self) -> None:
        try:
            while True:
                batch = self._take_batch()
                if batch is None:
                    return
                if batch:
                    self._serve_batch(batch)
                if not self._quiescent:
                    self._quiescent = self._engine.service_pump_round()
        except BaseException as exc:  # noqa: BLE001 — reported at close
            self._fail(exc)

    def _take_batch(self) -> Optional[List[Ticket]]:
        """Next unit of work: a batch, ``[]`` (pump), or ``None`` (done).

        Blocks only when parked: queue empty, background quiescent, not
        draining. With background work pending it returns immediately so
        pump rounds interleave with traffic instead of starving either.
        """
        with self._cond:
            while True:
                if self._queue:
                    batch: List[Ticket] = []
                    while self._queue and len(batch) < self.batch_max:
                        batch.append(self._queue.popleft())
                    self._inflight = batch
                    return batch
                if not self._quiescent:
                    return []
                if self._closing:
                    return None
                self._cond.wait()

    def _touch_targets(self, vertex: VertexId) -> Iterable[VertexId]:
        # Every healing policy reschedules the written vertex itself:
        # without it the write's noise is never recomputed away and the
        # state cannot return to the program's fixed point.
        if self.touch == "out":
            return (vertex, *self.graph.out_neighbors(vertex))
        if self.touch == "all":
            return (vertex, *self.graph.neighbors(vertex))
        if self.touch == "self":
            return (vertex,)
        return ()

    def _serve_batch(self, batch: List[Ticket]) -> None:
        """One serve barrier + schedule injection for a request batch."""
        writes: List[Tuple[VertexId, Any]] = []
        reads: List[Tuple[int, VertexId, bool]] = []
        for rid, ticket in enumerate(batch):
            request = ticket.request
            if ticket.kind == "write":
                writes.append((request.vertex, request.value))
            else:
                reads.append((rid, request.vertex, request.scope))
        snapshots = self._engine.service_barrier(writes=writes, reads=reads)
        # The write path's follow-up: touched neighborhoods become
        # dynamic updates so the resident program heals the perturbation.
        touched: List[Tuple[VertexId, float]] = []
        scheduled_by_ticket: Dict[int, int] = {}
        for rid, ticket in enumerate(batch):
            if ticket.kind != "write" or not ticket.request.schedule:
                continue
            targets = list(self._touch_targets(ticket.request.vertex))
            touched.extend((u, TOUCH_PRIORITY) for u in targets)
            scheduled_by_ticket[rid] = len(targets)
        if touched:
            self._engine.service_schedule(touched)
        if writes or touched:
            # Writes mark their owners busy / schedules add tasks: the
            # engine must see every worker idle again before quiescence.
            self._quiescent = False
        now = perf_counter()
        obs = self._obs
        with self._cond:
            for rid, ticket in enumerate(batch):
                request = ticket.request
                if ticket.kind == "write":
                    reply: Any = WriteReply(
                        request.vertex,
                        scheduled=scheduled_by_ticket.get(rid, 0),
                    )
                else:
                    snap = snapshots[rid]
                    reply = ReadReply(
                        vertex=snap["vertex"],
                        value=snap["value"],
                        version=snap["version"],
                        neighbors=snap.get("neighbors"),
                        in_edges=snap.get("in_edges"),
                    )
                self._served += 1
                self._lat[ticket.kind].append(now - ticket.admitted)
                if obs is not None:
                    obs.span(
                        ticket.kind, ticket.admitted, now, ticket.depth, 0
                    )
                ticket.resolve(reply)
            self._inflight = []

    def _fail(self, exc: BaseException) -> None:
        """Engine death: shed everything pending, remember the cause."""
        with self._cond:
            self._error = exc
            self._closing = True
            pending = list(self._inflight) + list(self._queue)
            self._inflight = []
            self._queue.clear()
            self._cond.notify_all()
        rejection = Rejection(
            REJECT_FAILED, f"service failed: {exc}", 0, self.queue_limit
        )
        for ticket in pending:
            if not ticket.done():
                ticket.resolve(rejection)
