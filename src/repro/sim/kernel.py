"""Deterministic discrete-event simulation kernel.

This is the substrate standing in for the paper's EC2 deployment: a
single-threaded event loop with a simulated clock, plus SimPy-style
*processes* — Python generators that ``yield`` awaitables (timeouts,
futures, other processes) and are resumed by the kernel when those
complete. All distributed GraphLab engines, the network, and the
baselines are written as processes over this kernel, which makes every
"runtime (s)" number in the benchmarks exactly reproducible.

Determinism rules:

* events at equal timestamps fire in schedule order (a monotonically
  increasing sequence number breaks ties);
* the kernel never consults wall-clock time or global randomness;
* resuming a process after a future resolves is itself an event at the
  current timestamp, so resolution cascades are FIFO.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.errors import SimulationError


class Future:
    """A value that will be produced at some simulated time.

    Futures resolve with a value or fail with an exception; callbacks run
    as kernel events at the resolution timestamp. Awaiting a failed
    future re-raises its exception inside the awaiting process.
    """

    __slots__ = (
        "kernel",
        "_done",
        "_value",
        "_exception",
        "_callbacks",
        "_observed",
    )

    def __init__(self, kernel: "SimKernel") -> None:
        self.kernel = kernel
        self._done = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["Future"], None]] = []
        #: whether anyone is awaiting this future; an *unobserved* process
        #: failure is re-raised by SimKernel.run() so bugs cannot vanish.
        self._observed = False

    @property
    def done(self) -> bool:
        """Whether the future has resolved or failed."""
        return self._done

    @property
    def value(self) -> Any:
        """The resolved value (raises if failed or pending)."""
        if not self._done:
            raise SimulationError("future is not resolved yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, if any."""
        return self._exception

    def resolve(self, value: Any = None) -> None:
        """Complete the future successfully."""
        if self._done:
            raise SimulationError("future resolved twice")
        self._done = True
        self._value = value
        self._fire()

    def fail(self, exc: BaseException) -> None:
        """Complete the future with an exception."""
        if self._done:
            raise SimulationError("future resolved twice")
        self._done = True
        self._exception = exc
        self._fire()

    def add_callback(self, fn: Callable[["Future"], None]) -> None:
        """Run ``fn(self)`` when done (immediately-as-event if already)."""
        self._observed = True
        if self._done:
            self.kernel.call_soon(fn, self)
        else:
            self._callbacks.append(fn)

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self.kernel.call_soon(fn, self)


class Timeout(Future):
    """A future that resolves ``delay`` simulated seconds from creation."""

    __slots__ = ()

    def __init__(self, kernel: "SimKernel", delay: float, value: Any = None) -> None:
        super().__init__(kernel)
        if delay < 0:
            raise SimulationError(f"negative timeout {delay!r}")
        kernel.schedule(delay, self.resolve, value)


class AllOf(Future):
    """Resolves with a list of values when every child future is done.

    Fails fast with the first child exception.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, kernel: "SimKernel", futures: Iterable[Future]) -> None:
        super().__init__(kernel)
        self._children = list(futures)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.resolve([])
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, child: Future) -> None:
        if self.done:
            return
        if child.exception is not None:
            self.fail(child.exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.resolve([c.value for c in self._children])


class Process(Future):
    """A generator-based simulated process.

    The generator may ``yield``:

    * a :class:`Future` (including :class:`Timeout` or another
      :class:`Process`) — resumes with its value when done;
    * a list/tuple of futures — resumes with the list of values when all
      are done (sugar for :class:`AllOf`);
    * ``None`` — yields the floor to other events at the same timestamp.

    The process itself is a future resolving with the generator's return
    value; uncaught exceptions fail the future (and are re-raised at
    :meth:`SimKernel.run` time if never observed).
    """

    __slots__ = ("_gen", "name")

    def __init__(
        self,
        kernel: "SimKernel",
        gen: Generator,
        name: str = "",
    ) -> None:
        super().__init__(kernel)
        if not isinstance(gen, Generator):
            raise SimulationError(
                f"spawn() needs a generator, got {type(gen).__name__}; "
                "did you forget to call the generator function?"
            )
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        kernel.call_soon(self._step, None)

    def _step(self, trigger: Optional[Future]) -> None:
        if self.done:  # pragma: no cover - defensive
            return
        try:
            if isinstance(trigger, Future) and trigger.exception is not None:
                yielded = self._gen.throw(trigger.exception)
            else:
                send_value = trigger.value if isinstance(trigger, Future) else None
                yielded = self._gen.send(send_value)
        except StopIteration as stop:
            self.resolve(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process failure path
            self.fail(exc)
            if not self._observed:
                self.kernel._note_failure(self, exc)
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        if yielded is None:
            self.kernel.call_soon(self._step, None)
            return
        if isinstance(yielded, (list, tuple)):
            yielded = AllOf(self.kernel, yielded)
        if not isinstance(yielded, Future):
            exc = SimulationError(
                f"process {self.name!r} yielded {type(yielded).__name__}; "
                "expected Future, Timeout, Process, list, or None"
            )
            self.fail(exc)
            self.kernel._note_failure(self, exc)
            return
        yielded.add_callback(self._step)


class SimKernel:
    """The event loop: a priority queue over simulated time."""

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Callable, tuple]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._failures: List[Tuple[Process, BaseException]] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling primitives.
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past ({delay!r})")
        heapq.heappush(
            self._queue, (self._now + delay, next(self._seq), fn, args)
        )

    def call_soon(self, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at the current timestamp, after queued peers."""
        self.schedule(0.0, fn, *args)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A future resolving ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def event(self) -> Future:
        """A plain unresolved future (condition-variable style)."""
        return Future(self)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new process from generator ``gen``."""
        return Process(self, gen, name=name)

    # ------------------------------------------------------------------
    # Running.
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        raise_process_failures: bool = True,
    ) -> float:
        """Drain events (optionally stopping at time ``until``).

        Returns the final simulated time. Uncaught process exceptions are
        re-raised here (first one wins) unless
        ``raise_process_failures=False``.
        """
        while self._queue:
            when, _seq, fn, args = self._queue[0]
            if until is not None and when > until:
                self._now = until
                break
            heapq.heappop(self._queue)
            self._now = when
            fn(*args)
            if raise_process_failures and self._failures:
                _proc, exc = self._failures[0]
                raise exc
        if self._failures and raise_process_failures:
            _proc, exc = self._failures[0]
            raise exc
        return self._now

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Spawn ``gen``, run to quiescence, and return its value.

        Raises :class:`SimulationError` if the event queue drains before
        the process finishes (it deadlocked on a future nobody resolves).
        """
        proc = self.spawn(gen, name=name)
        self.run()
        if not proc.done:
            raise SimulationError(
                f"process {proc.name!r} deadlocked: event queue drained "
                "while it was still waiting"
            )
        return proc.value

    def _note_failure(self, proc: Process, exc: BaseException) -> None:
        self._failures.append((proc, exc))

    @property
    def failures(self) -> List[Tuple[Process, BaseException]]:
        """Uncaught process failures observed so far."""
        return list(self._failures)
