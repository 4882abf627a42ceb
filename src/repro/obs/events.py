"""Low-overhead span/counter recording — the telemetry wire contract.

Every runtime participant (worker processes, the coordinator, the
transports) records into a :class:`SpanRecorder`; disabled telemetry is
one falsy check on the hot path (``self._obs`` is ``None``), the same
discipline as scope read/write tracing. Workers drain their recorder at
the end of every ``handle()`` and the batch piggybacks on the round
reply already crossing the pipe, so telemetry adds **zero extra
barriers** and no extra syscalls — only bytes on messages that were
being sent anyway.

Wire contract (schema)
----------------------
A drained batch is a plain picklable/JSON-able dict::

    {
        "ev": [(kind, start, end, a, b), ...],   # span tuples
        "ctr": {name: int, ...},                 # monotone counters
        "dropped": int,                          # spans lost to the cap
    }

Span tuples are ``(kind, start, end, a, b)``:

``kind``
    One short string from the fixed vocabulary below. Consumers must
    ignore kinds they do not know (forward compatibility).
``start`` / ``end``
    ``time.perf_counter()`` readings **in the recorder's own clock
    domain**. The clock-offset handshake at transport launch maps each
    worker's domain into the coordinator's when the timeline is
    assembled (:mod:`repro.obs.timeline`); raw batches are never
    cross-comparable.
``a`` / ``b``
    Two kind-specific integer tags (0 when unused), kept positional so
    a span is one tuple of five scalars — no per-span dict allocation.

Worker span kinds:

========  ==========================================================
kind      meaning (``a`` / ``b`` tags)
========  ==========================================================
compute   scalar update execution: one chromatic color part or one
          locking ``_pump`` drive (``a`` = updates executed)
kernel    batch-kernel color part (``a`` = frontier size)
lockwait  one lock chain's request→grant latency, recorded when the
          chain completes (``a`` = pipeline occupancy — scopes in
          flight at completion, the Fig. 3b/8b tag; ``b`` = chain
          hops). Overlaps busy spans by design: hidden latency.
ghost     routed-inbox application: ghost data (ring descriptors +
          pickled batches), remote schedules, lock-protocol
          deliveries, globals
ser       serialization boundary work: command unpickle, reply
          pickle, dirty-state collection into ring/wire form
idle      barrier idle: blocked on the coordinator pipe waiting for
          the next command
snap      snapshot/recovery work: checkpoint journaling, restore,
          Chandy–Lamport snapshot scopes
========  ==========================================================

Coordinator span kinds: ``launch`` (transport launch barrier),
``round`` (one full transport round; ``a`` = completed-round number),
``run`` (whole engine run), ``snap`` (snapshot cost, sync or async),
``recover`` (respawn + rollback), ``warm`` (a serving warm start run in
process as kernel color sweeps before the launch, so it precedes the
``run`` span; ``a`` = updates, ``b`` = colors). Both domains share
``SpanRecorder``; the coordinator's drains once, at timeline
finalization.

Counters (sum-merged, see :mod:`repro.obs.metrics`):
``plane_ring_v`` / ``plane_ring_e`` — dirty-ring entries placed per
command (ring occupancy when divided by ``plane_rounds`` × capacity),
``plane_rounds`` — commands with an attached ring, and
``plane_overflow_batches`` — dirty batches that overflowed the ring
onto the pickled pipe wire (worker-side); ``serve_plane_reads`` —
serving reads the coordinator answered from the data plane without a
round, and ``serve_rejected`` — requests the service shed
(coordinator-side).

The reply-pickle ``ser`` span necessarily rides the *next* round's
batch (it happens after the current reply is drained); the final
reply's pickle cost is unobserved. Both are inherent to the piggyback
rule and too small to matter.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

#: Span kinds recorded worker-side.
WORKER_KINDS = ("compute", "kernel", "lockwait", "ghost", "ser", "idle", "snap")
#: Span kinds recorded coordinator-side. ``net`` brackets one
#: connection re-establishment on a socket transport (PR 9): the wall
#: time a round spent waiting out a drop, reconnect, and replay.
#: ``read`` / ``write`` are serving request spans (``repro.serve``,
#: PR 10): admission to reply for one client read or write (``a`` =
#: queue depth at admission), recorded on the coordinator track by the
#: service front end. ``warm`` is the service's in-process warm start.
COORDINATOR_KINDS = (
    "launch", "round", "run", "snap", "recover", "net", "read", "write",
    "warm",
)
#: Every kind a conforming producer may emit.
SPAN_KINDS = frozenset(WORKER_KINDS) | frozenset(COORDINATOR_KINDS)

#: Default per-drain span capacity. Workers drain every round, so the
#: cap bounds one round's recording volume, not the run's.
DEFAULT_CAP = 8192

SpanTuple = Tuple[str, float, float, int, int]


class SpanRecorder:
    """Bounded span + counter buffer (one per recording participant).

    The hot-path contract: callers hold the recorder in a local /
    attribute that is ``None`` when telemetry is off, so the disabled
    cost is a single falsy check. When on, recording a span is one
    ``perf_counter`` pair, a tuple build, and a bounded ``list.append``
    — no locks, no I/O, no dict per span. Overflow drops the span and
    counts it (``dropped``), never blocks.
    """

    __slots__ = ("events", "counters", "dropped", "cap")

    def __init__(self, cap: int = DEFAULT_CAP) -> None:
        self.events: List[SpanTuple] = []
        self.counters: Dict[str, int] = {}
        self.dropped = 0
        self.cap = cap

    def span(
        self, kind: str, start: float, end: float, a: int = 0, b: int = 0
    ) -> None:
        """Record one closed interval in this recorder's clock domain."""
        events = self.events
        if len(events) < self.cap:
            events.append((kind, start, end, a, b))
        else:
            self.dropped += 1

    def count(self, name: str, n: int = 1) -> None:
        """Bump a monotone counter (sum-merged at assembly)."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + n

    def drain(self) -> Optional[Dict[str, Any]]:
        """Detach and return the buffered batch; ``None`` when empty.

        The returned dict is the wire batch documented in the module
        docstring; the recorder resets to empty, so every batch is
        delivered exactly once (piggybacked on the reply being built).
        """
        if not self.events and not self.counters and not self.dropped:
            return None
        batch = {
            "ev": self.events,
            "ctr": self.counters,
            "dropped": self.dropped,
        }
        self.events = []
        self.counters = {}
        self.dropped = 0
        return batch


class Stopwatch:
    """Measure one interval; record it as a span when a recorder is on.

    The shared implementation behind every coordinator timing site
    (launch, run wall, snapshot cost, recovery): the measurement always
    happens — engines need the seconds for ``launch_seconds``,
    ``SnapshotCadence.mark`` and ``recovery_seconds`` whether or not
    telemetry is enabled — and the span is emitted only when
    ``recorder`` is not ``None``, preserving the one-falsy-check
    discipline. Starts at construction; usable as a context manager or
    via an explicit :meth:`stop`.
    """

    __slots__ = ("recorder", "kind", "a", "b", "start", "end", "seconds")

    def __init__(
        self,
        recorder: Optional[SpanRecorder] = None,
        kind: str = "run",
        a: int = 0,
        b: int = 0,
    ) -> None:
        self.recorder = recorder
        self.kind = kind
        self.a = a
        self.b = b
        self.start = perf_counter()
        self.end = self.start
        self.seconds = 0.0

    def elapsed(self) -> float:
        """Seconds since construction, without closing the interval."""
        return perf_counter() - self.start

    def stop(self) -> float:
        """Close the interval; record the span; return its seconds."""
        self.end = perf_counter()
        self.seconds = self.end - self.start
        recorder = self.recorder
        if recorder is not None:
            recorder.span(self.kind, self.start, self.end, self.a, self.b)
        return self.seconds

    def __enter__(self) -> "Stopwatch":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.stop()
