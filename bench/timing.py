"""Spans recorded from outside the program, and the transport that records them.

A span is ``(name, start, end, parent, execution)``: ``parent`` is the
name of the span that caused it and ``execution`` the id shared by every
span of one execution. Spans stay in memory and are written once, by
:meth:`SpanLog.write_jsonl`, when the benchmark ends.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.runtime.transport import Transport

Span = Tuple[str, float, float, str, int]


class SpanLog:
    """In-memory span store for one benchmark process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Id stamped on every span recorded from now on.
        self.execution = 0

    def add(self, name: str, start: float, end: float, parent: str = "") -> None:
        self.spans.append((name, start, end, parent, self.execution))

    def of(self, execution: int, name: str) -> List[Span]:
        return [s for s in self.spans if s[4] == execution and s[0] == name]

    def seconds(self, execution: int, name: str) -> float:
        return sum(end - start for _n, start, end, _p, _e in self.of(execution, name))

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "execution")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class TimingTransport(Transport):
    """Delegate to a real transport; record one span per public call.

    Engines accept any unlaunched :class:`Transport`, so this is how the
    benchmark sees ``launch`` / ``round`` / ``recover`` / ``shutdown``
    without touching ``src/``. Everything else — counters, the data
    plane, fault scheduling — is the wrapped transport's own state,
    reached through ``__getattr__`` (``Transport.__init__`` is
    deliberately not called: the wrapper owns no transport state).
    ``round`` spans are named by the command tag they carry, which is
    how serve barriers are told apart from pump rounds.
    """

    def __init__(self, inner: Transport, log: SpanLog, parent: str = "run") -> None:
        self._inner = inner
        self._log = log
        self._parent = parent

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    # Class attributes and methods of Transport that __getattr__ would
    # never reach, forwarded by hand.
    @property
    def name(self) -> str:  # type: ignore[override]
        return self._inner.name

    @property
    def obs(self) -> Any:
        return self._inner.obs

    @obs.setter
    def obs(self, recorder: Any) -> None:
        self._inner.obs = recorder

    def schedule_fault(self, *args: Any, **kwargs: Any) -> None:
        self._inner.schedule_fault(*args, **kwargs)

    def net_counters(self) -> Dict[str, int]:
        return self._inner.net_counters()

    def plane_kind(self) -> Any:
        return self._inner.plane_kind()

    def provision_plane(self, spec: Any) -> Any:
        return self._inner.provision_plane(spec)

    def _timed(self, name: str, call: Any, *args: Any) -> Any:
        start = time.perf_counter()
        try:
            return call(*args)
        finally:
            self._log.add(name, start, time.perf_counter(), self._parent)

    def launch(self, init_payloads: Iterable[bytes]) -> List[Any]:
        return self._timed("launch", self._inner.launch, init_payloads)

    def round(self, messages: Sequence[Any]) -> List[Any]:
        return self._timed(f"round:{messages[0][0]}", self._inner.round, messages)

    def recover(self, worker_id: int, init_payload: bytes) -> Any:
        return self._timed("recover", self._inner.recover, worker_id, init_payload)

    def shutdown(self) -> None:
        self._timed("shutdown", self._inner.shutdown)
