"""Runtime observability: spans, timelines, reports, trace export.

See :mod:`repro.obs.events` for the wire contract, and the ROADMAP's
"Observability (PR 7)" section for the piggyback rule and overhead
budget. The one invariant everything here obeys: observation never
steers — telemetry on/off must not change any engine result bit.
"""

from repro.obs.events import (
    COORDINATOR_KINDS,
    DEFAULT_CAP,
    SPAN_KINDS,
    WORKER_KINDS,
    SpanRecorder,
    Stopwatch,
)
from repro.obs.export import (
    chrome_trace,
    read_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import log2_histogram, merge_counters, percentile
from repro.obs.report import PHASES, format_report, summarize
from repro.obs.timeline import (
    COORDINATOR_TRACK,
    RunTelemetry,
    TimelineCollector,
    drain_telemetry,
)

__all__ = [
    "COORDINATOR_KINDS",
    "COORDINATOR_TRACK",
    "DEFAULT_CAP",
    "PHASES",
    "RunTelemetry",
    "SPAN_KINDS",
    "SpanRecorder",
    "Stopwatch",
    "TimelineCollector",
    "WORKER_KINDS",
    "chrome_trace",
    "drain_telemetry",
    "format_report",
    "log2_histogram",
    "merge_counters",
    "percentile",
    "read_jsonl",
    "summarize",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
