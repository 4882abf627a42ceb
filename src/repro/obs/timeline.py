"""Coordinator-side telemetry assembly: one timeline per run.

Workers record spans in their own ``perf_counter()`` domain and drain
them as piggybacked batches on round replies
(:mod:`repro.obs.events`). This module is the receiving end: the
engine feeds every reply's batch into a :class:`TimelineCollector`,
and at run end :meth:`TimelineCollector.finalize` maps each worker's
events into the coordinator's clock domain using the offsets measured
by the transport's launch handshake, merges the coordinator's own
recorder, and produces one :class:`RunTelemetry` — the object surfaced
as ``RuntimeRunResult.telemetry`` and consumed by
:mod:`repro.obs.report` / :mod:`repro.obs.export`.

Clock-offset handshake: each worker's ready ack carries a
``perf_counter()`` reading taken worker-side (``"clk"``); the
coordinator brackets it with its own readings around spawn and
ack-receipt. When the worker's reading falls inside the bracket the
two clocks share an epoch (the same-machine monotonic clock — the
normal case for both transports) and the offset is exactly ``0.0``;
otherwise the midpoint estimate ``(spawn + receipt) / 2 - clk`` maps
worker times into coordinator time to within half the handshake's
round-trip. Observation never steers: offsets shift reported
timestamps only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs.events import DEFAULT_CAP, SpanRecorder
from repro.obs.metrics import merge_counters

#: Track id of the coordinator in assembled timelines (workers use
#: their worker id, always >= 0).
COORDINATOR_TRACK = -1

#: An assembled event: ``(track, kind, start, end, a, b)`` with
#: ``start``/``end`` in the coordinator's clock domain.
TimelineEvent = Tuple[int, str, float, float, int, int]


@dataclass
class RunTelemetry:
    """One run's assembled telemetry (coordinator clock domain).

    ``events`` are sorted by start time; ``counters`` and ``dropped``
    are keyed by track (only tracks with data appear);
    ``clock_offsets`` are the per-worker offsets that were applied;
    ``meta`` carries run identity (engine, backend, worker count, ring
    capacities, pipeline window, ...) written by the engine.
    """

    events: List[TimelineEvent] = field(default_factory=list)
    counters: Dict[int, Dict[str, int]] = field(default_factory=dict)
    dropped: Dict[int, int] = field(default_factory=dict)
    clock_offsets: List[float] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def num_workers(self) -> int:
        return int(self.meta.get("num_workers") or len(self.clock_offsets))

    def spans(
        self,
        kind: Optional[str] = None,
        track: Optional[int] = None,
    ) -> Iterator[TimelineEvent]:
        """Events filtered by kind and/or track."""
        for event in self.events:
            if kind is not None and event[1] != kind:
                continue
            if track is not None and event[0] != track:
                continue
            yield event

    def total_dropped(self) -> int:
        return sum(self.dropped.values())


class TimelineCollector:
    """Accumulates per-worker batches and the coordinator's recorder.

    The engine owns one per telemetry-enabled run: its ``coordinator``
    recorder is handed to the transport (launch/round spans) and to
    every coordinator :class:`~repro.obs.events.Stopwatch`; worker
    batches arrive via :func:`drain_telemetry` as rounds complete.
    """

    def __init__(self, num_workers: int, coordinator_cap: int = 8 * DEFAULT_CAP) -> None:
        self.num_workers = num_workers
        self.coordinator = SpanRecorder(cap=coordinator_cap)
        self._events: List[List[Tuple]] = [[] for _ in range(num_workers)]
        self._counters: List[Dict[str, int]] = [{} for _ in range(num_workers)]
        self._dropped = [0] * num_workers

    def add_worker(self, worker_id: int, batch: Optional[Dict[str, Any]]) -> None:
        """Fold one drained worker batch into the run's accumulation."""
        if not batch:
            return
        events = batch.get("ev")
        if events:
            self._events[worker_id].extend(events)
        merge_counters(self._counters[worker_id], batch.get("ctr"))
        self._dropped[worker_id] += batch.get("dropped", 0)

    def finalize(
        self,
        clock_offsets: Optional[Iterable[float]] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> RunTelemetry:
        """Assemble the run timeline in the coordinator's clock domain."""
        offsets = list(clock_offsets or ())
        if len(offsets) < self.num_workers:
            offsets = offsets + [0.0] * (self.num_workers - len(offsets))
        events: List[TimelineEvent] = []
        counters: Dict[int, Dict[str, int]] = {}
        dropped: Dict[int, int] = {}
        for w in range(self.num_workers):
            off = offsets[w]
            for (kind, start, end, a, b) in self._events[w]:
                events.append((w, kind, start + off, end + off, a, b))
            if self._counters[w]:
                counters[w] = dict(self._counters[w])
            if self._dropped[w]:
                dropped[w] = self._dropped[w]
        coord = self.coordinator.drain()
        if coord:
            for (kind, start, end, a, b) in coord["ev"]:
                events.append((COORDINATOR_TRACK, kind, start, end, a, b))
            if coord["ctr"]:
                counters[COORDINATOR_TRACK] = coord["ctr"]
            if coord["dropped"]:
                dropped[COORDINATOR_TRACK] = coord["dropped"]
        events.sort(key=lambda e: (e[2], e[0]))
        full_meta = dict(meta or {})
        full_meta.setdefault("num_workers", self.num_workers)
        return RunTelemetry(
            events=events,
            counters=counters,
            dropped=dropped,
            clock_offsets=offsets,
            meta=full_meta,
        )


def drain_telemetry(
    replies: List[Any], collector: Optional[TimelineCollector]
) -> List[Any]:
    """Strip piggybacked telemetry batches off one round's replies.

    Workers attach their drained batch to whatever reply shape the
    command produced: tuple replies grow a trailing element, dict
    replies a ``"tel"`` key. Engines funnel every round through this
    helper so no other consumer (snapshot journaling, collect
    write-back, sync combination) ever sees the telemetry field. With
    ``collector=None`` (telemetry off) the replies pass through
    untouched.
    """
    if collector is None:
        return replies
    out: List[Any] = []
    for w, reply in enumerate(replies):
        if isinstance(reply, tuple):
            if len(reply) > 2:
                collector.add_worker(w, reply[2])
                reply = reply[:2]
        elif isinstance(reply, dict):
            batch = reply.pop("tel", None)
            if batch:
                collector.add_worker(w, batch)
        out.append(reply)
    return out
