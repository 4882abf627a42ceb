"""Transports: how the coordinator reaches its workers.

The runtime engine is written against one tiny contract — launch N
workers from pickled init payloads, then exchange full *rounds* (send a
command to every worker, collect every reply). Implementations here:

* :class:`InprocTransport` — workers are plain objects driven
  synchronously in worker-id order inside the calling process. Every
  payload still takes a ``pickle`` round-trip, so the serialization
  behavior is identical to the real thing, but execution is single-
  threaded and fully deterministic: the backend the property tests
  compare bit-for-bit against the reference engines.
* :class:`MpTransport` — one OS process per worker over
  ``multiprocessing`` pipes. The send-all-then-receive-all round *is*
  the chromatic engine's full communication barrier, and between the
  sends and the receives all workers compute concurrently on real
  cores — the paper's claim that the abstraction carries unchanged from
  shared memory to distributed execution, cashed in (Sec. 4).

Supervising worker *processes* — launch, the round, the reply-wait
loop with its liveness checks, reap-and-respawn recovery, shutdown —
is written once, in :class:`ProcessSupervisor`; ``MpTransport`` is that
supervisor over a pipe, and
:class:`~repro.runtime.socket_transport.TcpTransport` the same
supervisor over length-prefixed TCP frames (one OS process per worker
dialing back to a coordinator listener) plus what only a socket has:
retries with backoff, idempotent in-flight replay, and partition
tolerance. It lives in its own module; see its docstring for the wire
protocol and the ``REPRO_FAULT`` *network* fault modes (``drop_conn``,
``delay=ms``, ``partition=n``, ``reset_mid_frame``) that only socket
backends can inject. This module owns the fault grammar itself:
:data:`FAULT_MODES` lists every mode, :data:`NETWORK_MODES` the subset
that needs a wire to break, and each transport declares the subset it
can inject via ``fault_caps`` — a schedule naming a mode the backend
cannot inject raises :class:`~repro.errors.FaultSpecError` instead of
silently not firing.

Transports also own the **data plane** lifecycle
(:mod:`repro.runtime.plane`): the engine asks for the backend's plane
flavor (``plane_kind``), the transport provisions it before launch
(POSIX shared memory for ``mp`` — unless ``REPRO_NO_SHM`` is set — and
plain in-process arrays for ``inproc``), and tears it down with
``shutdown`` on every exit path, so ``/dev/shm`` never leaks even when
a worker dies or launch itself raises.

Every command and reply crosses the wire as an explicit pickled byte
blob, and every transport accounts the volume (``bytes_sent`` /
``bytes_received`` / ``rounds_completed``) — the counters the repo
benchmark records as ``runtime.transport.bytes_on_pipe`` and
``runtime.coord.rounds_per_sweep``.

A transport is single-use: ``launch`` once, ``round`` many times,
``shutdown`` once (idempotent).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import EngineError, FaultSpecError, TransportError
from repro.runtime.liveness import AdaptiveDeadline
from repro.runtime.plane import (
    DataPlane,
    LocalDataPlane,
    PlaneSpec,
    ShmDataPlane,
    shm_available,
)
from repro.runtime.worker import ready_ack, serve, worker_from_bytes

Message = Tuple[str, Any]

#: Deterministic fault-injection schedule: comma-separated
#: ``worker:when[:mode[=arg]]`` entries. ``when`` is a 0-based count of
#: completed rounds at which the fault fires (for ``corrupt_snapshot``:
#: the snapshot id), or the literal ``launch`` (``kill`` only). ``mode``
#: defaults to ``kill``; see :data:`FAULT_MODES`. Parsed by every
#: transport (and the checkpoint manager) at construction; entries
#: naming workers the transport does not have are ignored, so one
#: schedule can drive a whole test run.
FAULT_ENV = "REPRO_FAULT"

#: Every failure mode the injector understands. ``kill`` is SIGKILL
#: between barriers (PR 6 behavior); ``hang`` freezes the worker
#: mid-round (SIGSTOP — heartbeats stop, the process stays alive);
#: ``stall`` sleeps ``arg`` seconds mid-round and then continues (a slow
#: worker, not a dead one — must *not* be declared failed); ``corrupt_
#: reply`` ships an unparseable reply blob; ``corrupt_snapshot``
#: garbles one on-disk journal of snapshot ``when`` after it completes
#: (consumed by the checkpoint manager, not the transport); ``crash_
#: mid_snapshot`` kills the worker the first time it is sent a snapshot
#: command at or after round ``when``.
#:
#: The last four are **network modes** (PR 9), injected at the framing
#: layer of socket transports only: ``drop_conn`` delivers the round's
#: command and then severs the connection before the reply (the worker
#: keeps running; supervision must reconnect and replay); ``delay``
#: holds the command frame back ``arg`` milliseconds (latency, not
#: failure — must complete normally); ``partition`` severs the link
#: *before* the command and refuses the next ``arg`` reconnect
#: attempts, so a small ``arg`` heals inside the retry budget and a
#: large one exhausts it into a structured :class:`WorkerFailure`;
#: ``reset_mid_frame`` ships a torn half-frame and then resets, so the
#: receiver must discard the fragment and resynchronize via replay.
FAULT_MODES = (
    "kill",
    "hang",
    "stall",
    "corrupt_reply",
    "corrupt_snapshot",
    "crash_mid_snapshot",
    "drop_conn",
    "delay",
    "partition",
    "reset_mid_frame",
)

#: Fault modes that need a wire to break: only transports whose
#: ``fault_caps`` include them (the socket backends) can inject them.
NETWORK_MODES = frozenset(
    ("drop_conn", "delay", "partition", "reset_mid_frame")
)

#: The PR 6/8 process-level modes every in-host backend understands.
PROCESS_FAULT_MODES = frozenset(
    ("kill", "hang", "stall", "corrupt_reply", "crash_mid_snapshot")
)

#: The process modes a worker executes itself, from a ``_fault``
#: directive on the command payload (``kill`` is a coordinator SIGKILL).
_DIRECTIVE_MODES = PROCESS_FAULT_MODES - {"kill"}


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: when it fires, how it fails, its argument
    (``stall`` takes seconds to sleep, ``delay`` milliseconds to hold
    the frame, ``partition`` the number of reconnects to refuse)."""

    when: Union[int, str]
    mode: str = "kill"
    arg: Optional[float] = None


def _validate_fault(
    when: Union[int, str],
    mode: str,
    arg: Optional[float],
    fragment: str,
) -> None:
    """Shared checks behind the parser and ``schedule_fault``; raises
    :class:`FaultSpecError` naming ``fragment``."""
    if mode not in FAULT_MODES:
        raise FaultSpecError(
            f"bad {FAULT_ENV} entry {fragment!r}: unknown mode {mode!r} "
            f"(expected one of {', '.join(FAULT_MODES)})"
        )
    if when == "launch":
        if mode != "kill":
            raise FaultSpecError(
                f"bad {FAULT_ENV} entry {fragment!r}: mode {mode!r} "
                "cannot fire at launch (only 'kill' can)"
            )
    elif not isinstance(when, int) or isinstance(when, bool) or when < 0:
        raise FaultSpecError(
            f"bad {FAULT_ENV} entry {fragment!r}: expected a 0-based "
            "round number (or snapshot id for corrupt_snapshot) or the "
            f"token 'launch', got {when!r}"
        )
    if mode == "stall":
        if arg is None or arg < 0:
            raise FaultSpecError(
                f"bad {FAULT_ENV} entry {fragment!r}: stall needs "
                "'stall=<seconds>' with a non-negative duration"
            )
    elif mode == "delay":
        if arg is None or arg < 0:
            raise FaultSpecError(
                f"bad {FAULT_ENV} entry {fragment!r}: delay needs "
                "'delay=<milliseconds>' with a non-negative duration"
            )
    elif mode == "partition":
        if arg is None or arg < 1 or arg != int(arg):
            raise FaultSpecError(
                f"bad {FAULT_ENV} entry {fragment!r}: partition needs "
                "'partition=<n>' with a positive integer count of "
                "refused reconnect attempts"
            )
    elif arg is not None:
        raise FaultSpecError(
            f"bad {FAULT_ENV} entry {fragment!r}: mode {mode!r} takes "
            "no '=<arg>'"
        )


def parse_fault_plan(text: Optional[str]) -> Dict[int, FaultSpec]:
    """Parse a :data:`FAULT_ENV` schedule into ``{worker: FaultSpec}``.

    Every malformed fragment — a non-integer or negative worker id, an
    unknown round token, an unknown mode, a missing/forbidden argument,
    or a duplicate schedule for the same worker — raises
    :class:`~repro.errors.FaultSpecError` (a ``ValueError``) naming the
    offending fragment, instead of being silently ignored or silently
    overriding an earlier entry.
    """
    plan: Dict[int, FaultSpec] = {}
    for part in (text or "").split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) not in (2, 3):
            raise FaultSpecError(
                f"bad {FAULT_ENV} entry {part!r}; expected "
                "'worker:when' or 'worker:when:mode[=arg]'"
            )
        try:
            worker = int(fields[0])
        except ValueError:
            raise FaultSpecError(
                f"bad {FAULT_ENV} entry {part!r}: worker id "
                f"{fields[0]!r} is not an integer"
            ) from None
        if worker < 0:
            raise FaultSpecError(
                f"bad {FAULT_ENV} entry {part!r}: worker id must be "
                ">= 0"
            )
        when_text = fields[1].strip()
        when: Union[int, str]
        if when_text == "launch":
            when = "launch"
        else:
            try:
                when = int(when_text)
            except ValueError:
                raise FaultSpecError(
                    f"bad {FAULT_ENV} entry {part!r}: unknown round "
                    f"token {when_text!r} (expected an integer or "
                    "'launch')"
                ) from None
        mode, arg = "kill", None
        if len(fields) == 3:
            mode_text = fields[2].strip()
            mode, sep, arg_text = mode_text.partition("=")
            if sep:
                try:
                    arg = float(arg_text)
                except ValueError:
                    raise FaultSpecError(
                        f"bad {FAULT_ENV} entry {part!r}: argument "
                        f"{arg_text!r} is not a number"
                    ) from None
        _validate_fault(when, mode, arg, part)
        if worker in plan:
            raise FaultSpecError(
                f"bad {FAULT_ENV} entry {part!r}: duplicate schedule "
                f"for worker {worker}"
            )
        plan[worker] = FaultSpec(when=when, mode=mode, arg=arg)
    return plan


def _is_snapshot_command(message: Message) -> bool:
    """Does this command do snapshot work the ``crash_mid_snapshot``
    mode should interrupt? Every command that finishes a snapshot — the
    synchronous ``checkpoint`` round, the closing ``lstep`` of an async
    (Chandy–Lamport) one — carries the ``journal`` marker telling the
    worker where to write its journal."""
    payload = message[1]
    return isinstance(payload, dict) and payload.get("journal") is not None


class WorkerFailure(EngineError):
    """A worker died or raised; one structured shape for every raise
    site (pipe write, silent death, timeout, worker traceback, injected
    kill): the failing worker, a human-readable detail, and where in
    the protocol it happened — ``last_command`` is the command the
    worker was processing (``"launch"`` before any round) and ``phase``
    is ``"launch"``, ``"send"``, or ``"reply"``. The recovery path keys
    off ``worker_id``; everything else is for the error message."""

    def __init__(
        self,
        worker_id: int,
        detail: str,
        *,
        last_command: str = "launch",
        phase: str = "reply",
    ) -> None:
        super().__init__(
            f"worker {worker_id} failed (phase {phase!r}, last command "
            f"{last_command!r}):\n{detail}"
        )
        self.worker_id = worker_id
        self.detail = detail
        self.last_command = last_command
        self.phase = phase


class Transport:
    """Contract shared by every backend."""

    name: str = "abstract"

    #: Fault modes this backend can inject. Scheduling a mode outside
    #: the set (env knob or :meth:`schedule_fault`) raises
    #: :class:`~repro.errors.FaultSpecError` — a network fault that a
    #: pipe backend silently never fires would be a hole in the chaos
    #: harness, not a convenience.
    fault_caps: frozenset = PROCESS_FAULT_MODES

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise EngineError("need at least one worker")
        self.num_workers = num_workers
        self._launched = False
        self._closed = False
        self.data_plane: Optional[DataPlane] = None
        self.bytes_sent = 0
        self.bytes_received = 0
        self.rounds_completed = 0
        #: Coordinator-side span recorder (``repro.obs``); ``None`` when
        #: telemetry is off. Set by the engine before ``launch``.
        self.obs: Optional[Any] = None
        #: Per-worker clock offsets (worker perf_counter domain ->
        #: coordinator domain), measured by the launch handshake.
        self.clock_offsets: List[float] = [0.0] * num_workers
        #: worker -> pending :class:`FaultSpec`; seeded from the
        #: environment, extended via :meth:`schedule_fault`. Entries
        #: fire once and are removed. ``corrupt_snapshot`` entries are
        #: disk faults, consumed by the checkpoint manager — not here.
        self._fault_plan: Dict[int, FaultSpec] = {}
        for w, spec in parse_fault_plan(os.environ.get(FAULT_ENV)).items():
            if not 0 <= w < num_workers or spec.mode == "corrupt_snapshot":
                continue
            self._check_fault_cap(spec.mode, f"{w}:{spec.when}:{spec.mode}")
            self._fault_plan[w] = spec
        #: Monotonic timestamp of the most recent injected fault fire;
        #: lets the fault benchmarks measure detection latency.
        self.last_fault_fired_at: Optional[float] = None

    def schedule_fault(
        self,
        worker_id: int,
        when: Union[int, str],
        mode: str = "kill",
        arg: Optional[float] = None,
    ) -> None:
        """Arrange a deterministic fault: at the start of the round
        whose 0-based number equals ``when`` (i.e. after ``when`` rounds
        completed), or during ``"launch"`` (``kill`` only). The
        programmatic twin of the :data:`FAULT_ENV` knob."""
        if not 0 <= worker_id < self.num_workers:
            raise EngineError(f"no such worker {worker_id}")
        fragment = f"{worker_id}:{when}:{mode}"
        _validate_fault(when, mode, arg, fragment)
        if mode == "corrupt_snapshot":
            raise FaultSpecError(
                f"bad {FAULT_ENV} entry {fragment!r}: corrupt_snapshot "
                f"is a disk fault; schedule it through {FAULT_ENV}"
            )
        self._check_fault_cap(mode, fragment)
        self._fault_plan[worker_id] = FaultSpec(when=when, mode=mode, arg=arg)

    def _check_fault_cap(self, mode: str, fragment: str) -> None:
        if mode not in self.fault_caps:
            hint = (
                " (network faults need a socket transport)"
                if mode in NETWORK_MODES
                else ""
            )
            raise FaultSpecError(
                f"bad {FAULT_ENV} entry {fragment!r}: mode {mode!r} is "
                f"not injectable on the {self.name!r} transport{hint}"
            )

    def schedule_kill(self, worker_id: int, when: Union[int, str]) -> None:
        """Backward-compatible alias: ``schedule_fault(..., "kill")``."""
        self.schedule_fault(worker_id, when, mode="kill")

    def _arm_fault(
        self,
        worker_id: int,
        modes: Iterable[str],
        message: Optional[Message] = None,
        at: Union[int, str, None] = None,
    ) -> Optional[FaultSpec]:
        """The fault of this worker that is due now, if it is one of
        ``modes`` — popped from the plan and stamped as fired. The one
        place a schedule becomes a fault: inproc emulation, process
        directives, coordinator kills and network injection all call
        it with the mode set they handle. ``at`` is the schedule point
        being passed (default: the round about to start, i.e.
        ``rounds_completed``; ``"launch"`` during launch).
        ``crash_mid_snapshot`` arms at round ``when`` but holds fire
        until ``message`` is a snapshot command. Nothing fires once
        shutdown has begun."""
        spec = self._fault_plan.get(worker_id)
        if spec is None or spec.mode not in modes or self._closed:
            return None
        if at is None:
            at = self.rounds_completed
        if spec.mode == "crash_mid_snapshot":
            if at < spec.when or not _is_snapshot_command(message):
                return None
        elif spec.when != at:
            return None
        del self._fault_plan[worker_id]
        self.last_fault_fired_at = time.monotonic()
        return spec

    def net_counters(self) -> Dict[str, int]:
        """Connection-supervision counters for the run result/bench.

        Socket backends report ``{"reconnects": n, "retries": n}``
        (re-established connections and replayed in-flight commands);
        in-host backends have no links to lose and report nothing.
        """
        return {}

    # Data-plane lifecycle -----------------------------------------------
    def plane_kind(self) -> Optional[str]:
        """The plane flavor this backend supports (``None``: pipe only)."""
        return None

    def provision_plane(self, spec: PlaneSpec) -> DataPlane:
        """Allocate the plane; owned by the transport until shutdown."""
        raise EngineError(f"{self.name!r} transport has no data plane")

    def _release_plane(self) -> None:
        plane = self.data_plane
        if plane is not None:
            # Clear the reference first and close in a finally: a raise
            # out of unlink() (e.g. a segment already torn down by a
            # dying worker) must neither leave the plane re-releasable
            # by a second shutdown() nor skip closing the mmaps.
            self.data_plane = None
            try:
                plane.unlink()
            finally:
                plane.close()

    # Rounds --------------------------------------------------------------
    def launch(self, init_payloads: Iterable[bytes]) -> List[Any]:
        """Start every worker from its pickled init; returns ready acks.

        ``init_payloads`` may be a lazy iterable: each blob (which
        embeds a full pickled graph) is consumed and handed to its
        worker before the next is produced, so the coordinator never
        holds more than one serialized copy at a time. Exactly
        ``num_workers`` payloads must be yielded.
        """
        if self._launched or self._closed:
            # A reuse attempt used to fail with whatever incidental
            # error the backend hit first (closed pipe, rebound port);
            # the structured error names the actual contract violation.
            raise TransportError("transport is single-use")
        self._launched = True
        rec = self.obs
        if rec is None:
            return self._launch(init_payloads)
        t0 = time.perf_counter()
        acks = self._launch(init_payloads)
        rec.span("launch", t0, time.perf_counter())
        return acks

    def _check_payload_count(self, count: int) -> None:
        if count != self.num_workers:
            raise EngineError(
                f"expected {self.num_workers} init payloads, got {count}"
            )

    def round(self, messages: Sequence[Message]) -> List[Any]:
        """Send one command per worker; block until every reply arrives.

        This is the full communication barrier between color-steps: no
        caller proceeds until all workers have answered. Raises
        :class:`WorkerFailure` if any worker errored.
        """
        if not self._launched or self._closed:
            raise EngineError("transport is not running")
        if len(messages) != self.num_workers:
            raise EngineError(
                f"round needs {self.num_workers} messages, "
                f"got {len(messages)}"
            )
        rec = self.obs
        if rec is None:
            replies = self._round(messages)
            self.rounds_completed += 1
            return replies
        t0 = time.perf_counter()
        replies = self._round(messages)
        self.rounds_completed += 1
        rec.span("round", t0, time.perf_counter(), self.rounds_completed)
        return replies

    def recover(self, worker_id: int, init_payload: bytes) -> Any:
        """Respawn one dead worker from a fresh init payload.

        Only valid between rounds on a launched, unclosed transport —
        the coordinator's recovery path after a :class:`WorkerFailure`.
        The new worker re-runs the full launch path (including shm
        segment re-attachment via the plane spec inside the payload) and
        its ready ack is returned; restoring its *state* is the
        engine's job (a subsequent ``restore`` round). Backends without
        respawn support raise :class:`~repro.errors.EngineError`.
        """
        if not self._launched or self._closed:
            raise EngineError("transport is not running")
        if not 0 <= worker_id < self.num_workers:
            raise EngineError(f"no such worker {worker_id}")
        return self._recover(worker_id, init_payload)

    def shutdown(self) -> None:
        """Stop workers and release resources (idempotent).

        The data plane is released on *every* path — including "never
        launched" and "launch raised" — so shared-memory segments are
        unlinked no matter how the run ended.
        """
        if self._closed:
            return
        launched = self._launched
        self._closed = True
        try:
            if launched:
                self._shutdown()
        finally:
            self._release_plane()

    def _set_offset(
        self, worker_id: int, t_send: float, t_recv: float, ack: Any
    ) -> None:
        """Fold one launch/recover handshake into ``clock_offsets``.

        The ack's ``clk`` is the worker's ``perf_counter()`` reading,
        bracketed by the coordinator's ``t_send`` (before the worker
        could read it) and ``t_recv`` (after the ack arrived). On the
        same machine ``perf_counter`` is a system-wide monotonic clock,
        so the reading lands inside the bracket and the offset is
        exactly ``0.0``; otherwise the midpoint estimate is correct to
        within half the handshake round-trip.
        """
        clk = ack.get("clk") if isinstance(ack, dict) else None
        if clk is None:
            return
        if t_send <= clk <= t_recv:
            self.clock_offsets[worker_id] = 0.0
        else:
            self.clock_offsets[worker_id] = (t_send + t_recv) / 2.0 - clk

    # Subclass hooks -----------------------------------------------------
    def _launch(self, init_payloads: Iterable[bytes]) -> List[Any]:
        raise NotImplementedError

    def _round(self, messages: Sequence[Message]) -> List[Any]:
        raise NotImplementedError

    def _recover(self, worker_id: int, init_payload: bytes) -> Any:
        raise EngineError(
            f"{self.name!r} transport cannot respawn workers"
        )

    def _shutdown(self) -> None:
        raise NotImplementedError


class InprocTransport(Transport):
    """Deterministic single-process backend (workers driven in order).

    Every init payload and every round message/reply crosses a real
    ``pickle`` boundary so anything that would fail on the wire fails
    here too — in tier-1 tests, without spawning a process. The data
    plane is emulated with plain in-process arrays
    (:class:`~repro.runtime.plane.LocalDataPlane`) injected into each
    worker after construction, driving the identical plane code path.
    """

    name = "inproc"

    def __init__(self, num_workers: int) -> None:
        super().__init__(num_workers)
        self._workers: List[Any] = []

    def plane_kind(self) -> Optional[str]:
        return "local"

    def provision_plane(self, spec: PlaneSpec) -> DataPlane:
        self.data_plane = LocalDataPlane(spec)
        return self.data_plane

    def _build_worker(self, blob: bytes) -> Any:
        worker = worker_from_bytes(blob)
        if self.data_plane is not None:
            # The local plane's arrays cannot ride the pickled init
            # payload; hand them over here — same attach call the
            # shm worker performs from its spec.
            worker.attach_plane(self.data_plane)
        return worker

    def _boot(self, worker_id: int, blob: bytes) -> Any:
        """Build worker ``worker_id`` in place; returns its ready ack."""
        t_send = time.perf_counter()
        worker = self._workers[worker_id] = self._build_worker(blob)
        # Launch acks cross the process backends' wire and are counted
        # there; count the identical envelope here so bytes_received
        # agrees between backends from the first message on (and the
        # clock-offset path is exercised — trivially: offset 0.0).
        envelope = ready_ack(worker)
        self.bytes_received += len(envelope)
        ack = pickle.loads(envelope)[1]
        self._set_offset(worker_id, t_send, time.perf_counter(), ack)
        return ack

    def _launch(self, init_payloads: Iterable[bytes]) -> List[Any]:
        acks = []
        for worker_id, blob in enumerate(init_payloads):
            self._workers.append(None)
            if self._arm_fault(worker_id, ("kill",), at="launch"):
                raise WorkerFailure(
                    worker_id,
                    "injected fault: killed at launch",
                    last_command="launch",
                    phase="launch",
                )
            acks.append(self._boot(worker_id, blob))
        self._check_payload_count(len(acks))
        return acks

    def _round(self, messages: Sequence[Message]) -> List[Any]:
        replies = []
        for worker_id, (worker, message) in enumerate(
            zip(self._workers, messages)
        ):
            spec = self._arm_fault(worker_id, PROCESS_FAULT_MODES, message)
            if spec is not None and spec.mode != "stall":
                # Deterministic emulation of the mp failure modes: the
                # worker object is dropped (its state is unreachable,
                # exactly like a dead or untrusted process) and the
                # round fails with the same structured shape and detail
                # _recv would produce. corrupt_reply processes the
                # command first — on mp the worker finishes the round
                # and only the wire blob is garbled.
                if spec.mode == "corrupt_reply" and worker is not None:
                    try:
                        worker.handle(*pickle.loads(pickle.dumps(
                            message, protocol=pickle.HIGHEST_PROTOCOL
                        )))
                    except Exception:
                        pass
                self._workers[worker_id] = None
                detail = {
                    "kill": "injected fault: killed by schedule",
                    "hang": (
                        "injected fault: hung (no progress heartbeat; "
                        "declared dead)"
                    ),
                    "corrupt_reply": (
                        "injected fault: corrupt reply "
                        "(reply blob failed to unpickle)"
                    ),
                    "crash_mid_snapshot": (
                        "injected fault: crashed mid-snapshot"
                    ),
                }[spec.mode]
                raise WorkerFailure(
                    worker_id,
                    detail,
                    last_command=message[0],
                    phase="reply",
                )
            if spec is not None and spec.mode == "stall":
                # A legitimately slow worker, not a failed one: the
                # round simply takes longer. Must never be declared
                # dead by liveness detection.
                time.sleep(spec.arg or 0.0)
            if worker is None:
                raise WorkerFailure(
                    worker_id,
                    "worker is dead and has not been recovered",
                    last_command=message[0],
                    phase="send",
                )
            # Same wire discipline as MpTransport: commands and replies
            # are serialized copies, never shared objects — and the
            # reply rides the identical ("ok", payload) envelope, so the
            # byte counters of a deterministic run agree across
            # backends exactly (the satellite contract ISSUE 5 pins:
            # every sub-round increments rounds_completed and both
            # directions' counters identically on both transports).
            blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
            self.bytes_sent += len(blob)
            tag, payload = pickle.loads(blob)
            try:
                reply = worker.handle(tag, payload)
            except Exception as exc:
                raise WorkerFailure(
                    worker.worker_id,
                    f"{type(exc).__name__}: {exc}",
                    last_command=tag,
                    phase="reply",
                ) from exc
            reply_blob = pickle.dumps(
                ("ok", reply), protocol=pickle.HIGHEST_PROTOCOL
            )
            self.bytes_received += len(reply_blob)
            replies.append(pickle.loads(reply_blob)[1])
        return replies

    def _recover(self, worker_id: int, init_payload: bytes) -> Any:
        if self.data_plane is not None:
            # Same scrub as the mp respawn path: descriptors a dead
            # worker left in its rings must not outlive it.
            self.data_plane.reset_rings(worker_id)
        return self._boot(worker_id, init_payload)

    def _shutdown(self) -> None:
        self._workers = []


def _proc_alive(proc: Any) -> bool:
    """``Process.is_alive`` that treats a closed handle as dead."""
    try:
        return proc.is_alive()
    except ValueError:  # pragma: no cover - handle already closed
        return False


def _proc_close(proc: Any) -> None:
    """Release a Process handle's fds (sentinel included), best-effort:
    closing a still-running handle raises and is skipped."""
    try:
        proc.close()
    except ValueError:  # pragma: no cover - still running
        pass


class ProcessSupervisor(Transport):
    """Supervision of one OS process per worker, whatever the wire.

    Owns — once, for every process-backed backend — the liveness
    configuration, ``_launch`` (spawn all, fire launch kills, collect
    acks), ``_round`` (arm faults, pickle, account bytes, send, wait
    for every reply, feed the deadline EMA), the reply-wait loop
    ``_recv``, ``_recover`` (drain survivors, reap, scrub plane rings,
    respawn, handshake) and ``_shutdown`` (best-effort stop, bounded
    joins, escalate, close handles). A backend supplies only what is
    different about its link, as five primitives: :meth:`_spawn` one
    worker, :meth:`_send` one command body, :meth:`_poll` one message,
    :meth:`_link_lost` (what a lost link means) and :meth:`_close_link`.

    **Liveness.** Workers emit progress heartbeats — tiny ``("hb",
    None)`` messages on the reply link, produced by a daemon thread
    while a command is being processed (same piggyback discipline as
    the telemetry batches: they ride the existing link and add no
    barrier; ``_recv`` strips them and they are never counted as data
    bytes). A worker that goes silent for ``heartbeat_timeout`` seconds
    while a reply is owed is declared hung — seconds, not the old fixed
    two minutes. Independently, each round must finish within an
    *adaptive deadline*: an EMA of observed round durations times
    ``deadline_slack``, clamped below by ``deadline_floor`` (so early
    noise and legitimately long kernel passes are never falsely killed)
    and above by ``reply_timeout`` (the historical hard cap, still the
    only deadline for the launch handshake, which precedes heartbeats).
    A dead, hung, or deadline-blowing worker raises
    :class:`WorkerFailure` naming the worker and the last command it
    was sent, instead of blocking forever on the link.

    ``start_method`` defaults to ``fork`` where available (cheap launch;
    the init payload still ships pickled so the code path is identical)
    and falls back to ``spawn``.
    """

    def __init__(
        self,
        num_workers: int,
        start_method: Optional[str] = None,
        reply_timeout: float = 120.0,
        heartbeat_interval: Optional[float] = 0.25,
        heartbeat_timeout: float = 2.0,
        deadline_floor: float = 30.0,
        deadline_slack: float = 8.0,
    ) -> None:
        super().__init__(num_workers)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method
        self.reply_timeout = float(reply_timeout)
        #: Seconds between worker heartbeat frames; ``None`` disables
        #: heartbeats (and with them hang detection).
        self.heartbeat_interval = heartbeat_interval
        #: Declare a worker hung when no heartbeat (or reply) arrives
        #: for this long while a reply is owed.
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.deadline_floor = float(deadline_floor)
        self.deadline_slack = float(deadline_slack)
        #: The EMA/clamp arithmetic (:mod:`repro.runtime.liveness`).
        self._deadline = AdaptiveDeadline(
            floor=self.deadline_floor,
            slack=self.deadline_slack,
            cap=self.reply_timeout,
        )
        self.heartbeats_received = 0
        #: Killable process handles and the links to them, by worker.
        self._procs: List[Any] = [None] * num_workers
        self._conns: List[Any] = [None] * num_workers
        self._last_cmd: List[str] = ["launch"] * num_workers
        #: Coordinator-clock spawn times, the t_send of the clock-offset
        #: handshake (resolved when the launch-phase ack arrives).
        self._spawn_at: List[float] = [0.0] * num_workers
        #: True while a command has been sent and its reply not yet
        #: consumed; lets recovery drain survivors of an aborted round.
        self._pending: List[bool] = [False] * num_workers
        #: Workers declared hung or untrusted (missed heartbeats,
        #: injected hang, corrupt reply, link lost for good): recovery
        #: and shutdown skip the graceful SIGTERM dance — a stopped
        #: process never handles it — and go straight to SIGKILL, so a
        #: hang-kill releases its link and process handle promptly
        #: instead of waiting out escalation timeouts.
        self._hung: set = set()

    @property
    def _round_ema(self) -> Optional[float]:
        """EMA of observed round durations (seconds); None until the
        first completed round. A settable view into the shared
        :class:`AdaptiveDeadline` so tests can pin the arithmetic."""
        return self._deadline.ema

    @_round_ema.setter
    def _round_ema(self, value: Optional[float]) -> None:
        self._deadline.ema = value

    def reply_deadline(self) -> float:
        """Current adaptive per-round deadline (seconds).

        ``reply_timeout`` until the first round lands, then
        ``clamp(EMA * deadline_slack, deadline_floor, reply_timeout)``:
        slow histories earn proportionally long deadlines, short ones
        are floor-protected from false kills.
        """
        return self._deadline.current()

    def _observe_round(self, seconds: float) -> None:
        self._deadline.observe(seconds)

    # Link primitives (what a backend supplies) ------------------------
    def _spawn(self, worker_id: int, blob: bytes) -> None:
        """Start one worker process and record it in ``_procs``."""
        raise NotImplementedError

    def _send(self, worker_id: int, blob: bytes) -> None:
        """Write one command body; ``OSError`` if the link is dead."""
        raise NotImplementedError

    def _poll(self, worker_id: int, phase: str) -> Optional[bytes]:
        """One message blob, or ``None`` after a short idle wait;
        ``EOFError`` / ``OSError`` if the link is dead."""
        raise NotImplementedError

    def _link_lost(self, worker_id: int, phase: str, exc: Exception) -> None:
        """The link died while sending (``phase`` ``"send"``) or waiting
        (``"reply"`` / ``"launch"``): raise the structured failure, or
        return once it is back and the in-flight command re-delivered."""
        raise NotImplementedError

    def _close_link(self, worker_id: int) -> None:
        """Release the coordinator's end of one link (idempotent)."""
        raise NotImplementedError

    def _close_shared(self) -> None:
        """Release what all links share (a listener), last in shutdown."""

    # Fault injection --------------------------------------------------
    def kill_worker(self, worker_id: int) -> None:
        """Hard-kill one worker process (fault injection)."""
        proc = self._procs[worker_id]
        if _proc_alive(proc):
            proc.kill()
            proc.join(timeout=2.0)

    def _fire_kills(self, at: Union[int, str]) -> List[int]:
        """SIGKILL every worker whose *kill* schedule is due; returns
        the killed worker ids."""
        killed = []
        for worker_id in list(self._fault_plan):
            if self._arm_fault(worker_id, ("kill",), at=at) is not None:
                self.kill_worker(worker_id)
                killed.append(worker_id)
        return killed

    def _with_directive(self, worker_id: int, message: Message) -> Message:
        """Attach the non-kill process fault due this round, if any, as
        the ``_fault`` payload directive the worker's command core
        executes (hang = SIGSTOP itself, stall = sleep, corrupt_reply =
        garble the wire blob, crash = ``os._exit`` mid-command).
        Network modes never reach the worker; the socket backend
        injects them at its framing layer."""
        spec = self._arm_fault(worker_id, _DIRECTIVE_MODES, message)
        if spec is None:
            return message
        if spec.mode == "hang":
            self._hung.add(worker_id)
        mode = "crash" if spec.mode == "crash_mid_snapshot" else spec.mode
        tag, payload = message
        return tag, {**payload, "_fault": {"mode": mode, "arg": spec.arg}}

    # Contract hooks ---------------------------------------------------
    def _failure(
        self, worker_id: int, detail: str, phase: str = "reply"
    ) -> WorkerFailure:
        """The structured failure of one worker, naming the last
        command it was sent."""
        return WorkerFailure(
            worker_id,
            detail,
            last_command=self._last_cmd[worker_id],
            phase=phase,
        )

    def _process(self, name: str, target: Any, *args: Any) -> Any:
        """A started daemon worker process."""
        proc = self._ctx.Process(
            target=target, args=args, name=name, daemon=True
        )
        proc.start()
        return proc

    def _start(self, worker_id: int, blob: bytes) -> None:
        self._last_cmd[worker_id] = "launch"
        self._pending[worker_id] = True
        self._spawn_at[worker_id] = time.perf_counter()
        self._spawn(worker_id, blob)

    def _handshake(self, worker_id: int) -> Any:
        """Wait for a freshly spawned worker's ready ack."""
        return self._recv(worker_id, phase="launch")

    def _launch(self, init_payloads: Iterable[bytes]) -> List[Any]:
        count = 0
        for worker_id, blob in enumerate(init_payloads):
            count += 1
            if worker_id < self.num_workers:
                self._start(worker_id, blob)
        self._check_payload_count(count)
        # Kill-at-launch fires after the spawn, before the ready acks.
        # The failure is raised here, not discovered in _recv: a worker
        # can squeeze its ack into the link before the SIGKILL lands,
        # and trusting that ack would defer the failure to the first
        # round's send — nondeterministic phase for a scheduled fault.
        killed = self._fire_kills("launch")
        acks = []
        for worker_id in range(self.num_workers):
            if worker_id in killed:
                raise self._failure(
                    worker_id, "injected fault: killed at launch", "launch"
                )
            acks.append(self._handshake(worker_id))
        return acks

    def _round(self, messages: Sequence[Message]) -> List[Any]:
        # Scheduled kills fire before the sends, so the doomed worker
        # never processes this round's command — deterministic "machine
        # lost between barriers" semantics. The other process modes ride
        # the command payload as a worker-side directive instead: the
        # worker starts the round and fails mid-command.
        self._fire_kills(self.rounds_completed)
        t0 = time.monotonic()
        for worker_id, message in enumerate(messages):
            if self._fault_plan:
                message = self._with_directive(worker_id, message)
            blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
            # The pickled body, once per command: link framing,
            # heartbeats and retransmissions are never counted, so the
            # counters agree across backends.
            self.bytes_sent += len(blob)
            self._last_cmd[worker_id] = message[0]
            self._pending[worker_id] = True
            try:
                self._send(worker_id, blob)
            except OSError as exc:
                self._link_lost(worker_id, "send", exc)
        # All workers now compute concurrently; collecting every reply
        # is the barrier.
        replies = [self._recv(w) for w in range(self.num_workers)]
        self._observe_round(time.monotonic() - t0)
        return replies

    def _recv(self, worker_id: int, phase: str = "reply") -> Any:
        """The reply-wait loop: one worker's next reply (or ready ack),
        or the structured :class:`WorkerFailure` saying why not."""
        proc = self._procs[worker_id]
        start = last_beat = time.monotonic()
        # The launch handshake precedes the worker's serve loop (graph
        # unpickling, shard build), so no heartbeats flow and no round
        # history exists: only the hard cap applies there.
        timeout = (
            self.reply_timeout if phase == "launch" else self.reply_deadline()
        )
        check_beats = phase != "launch" and self.heartbeat_interval
        while True:
            try:
                blob = self._poll(worker_id, phase)
            except (EOFError, OSError) as exc:
                self._link_lost(worker_id, phase, exc)
                # Fresh link: the backend bounded the disconnected
                # window, so the liveness clocks restart here.
                start = last_beat = time.monotonic()
                timeout = self.reply_deadline()
                continue
            if blob is not None:
                try:
                    tag, payload = pickle.loads(blob)
                except Exception as exc:
                    # A reply that does not parse is as dead as no
                    # reply: the worker's state can no longer be
                    # trusted (wire corruption — or a worker writing
                    # garbage). Recovery respawns it.
                    self._hung.add(worker_id)
                    raise self._failure(
                        worker_id,
                        "corrupt reply (reply blob failed to unpickle: "
                        f"{type(exc).__name__})",
                        phase,
                    ) from None
                if tag == "hb":
                    # Progress heartbeat: liveness control, not data —
                    # refreshed deadline, never counted as wire bytes
                    # (the byte counters stay backend-identical).
                    last_beat = time.monotonic()
                    self.heartbeats_received += 1
                    if self.obs is not None:
                        self.obs.count("heartbeats")
                    continue
                self.bytes_received += len(blob)
                self._pending[worker_id] = False
                if tag == "error":
                    raise self._failure(worker_id, payload, phase)
                if phase == "launch":
                    self._set_offset(
                        worker_id,
                        self._spawn_at[worker_id],
                        time.perf_counter(),
                        payload,
                    )
                return payload
            now = time.monotonic()
            if not _proc_alive(proc):
                raise self._failure(
                    worker_id,
                    f"process exited with code {proc.exitcode} before "
                    "replying",
                    phase,
                )
            if check_beats and now - last_beat > self.heartbeat_timeout:
                self._hung.add(worker_id)
                if self.obs is not None:
                    self.obs.count("hang_detections")
                raise self._failure(
                    worker_id,
                    "hung (no progress heartbeat within "
                    f"{self.heartbeat_timeout:.1f}s; declared dead)",
                    phase,
                )
            if now - start > timeout:
                kind = "launch" if phase == "launch" else "adaptive round"
                raise self._failure(
                    worker_id,
                    f"no reply within the {timeout:.1f}s {kind} deadline",
                    phase,
                )

    def _reap(self, worker_id: int, wait: bool) -> None:
        """End one worker process and release its handle. A worker
        declared hung (or untrusted) is still alive — SIGSTOPped
        processes never handle SIGTERM, so it goes straight to SIGKILL
        (which the kernel delivers even to a stopped process). Anyone
        else gets ``wait`` (a bounded join, for a worker that was told
        to stop), then ``terminate``, then ``kill``."""
        proc = self._procs[worker_id]
        if worker_id in self._hung:
            self._hung.discard(worker_id)
            if _proc_alive(proc):
                proc.kill()
            proc.join(timeout=2.0)
        else:
            if wait:
                proc.join(timeout=2.0)
            if _proc_alive(proc):
                proc.terminate()
                proc.join(timeout=2.0)
            if _proc_alive(proc):  # pragma: no cover - stuck in kernel
                proc.kill()
                proc.join(timeout=1.0)
        _proc_close(proc)

    def _recover(self, worker_id: int, init_payload: bytes) -> Any:
        # Drain survivors of the aborted round first: they finished the
        # round whose barrier the failure broke, and their replies are
        # still in the links. The replies are discarded — the engine
        # rolls everyone back to the snapshot anyway. A second failure
        # here propagates; the engine's bounded retry handles it.
        for w in range(self.num_workers):
            if w != worker_id and self._pending[w]:
                self._recv(w)
        # Close the dead worker's link *before* joining it (a loopback
        # thread blocked in recv only unblocks on EOF), reap what's
        # left of it, then respawn on a fresh link. The shm plane
        # segment is coordinator-owned and survives for the respawn to
        # re-attach.
        self._close_link(worker_id)
        self._reap(worker_id, wait=False)
        if self.data_plane is not None:
            # Scrub the dead worker's dirty rings: a worker killed
            # mid-write can leave a torn ring half behind, and the
            # respawned attachment should start from zeroed descriptors
            # rather than whatever the corpse left in shared memory.
            self.data_plane.reset_rings(worker_id)
        self._start(worker_id, init_payload)
        return self._handshake(worker_id)

    def _shutdown(self) -> None:
        """Stop workers; join with timeouts and escalate to kill.

        Never blocks on a dead link: sends are best-effort, every join
        is bounded, and stragglers are reaped with ``terminate`` then
        ``kill`` — except workers already declared hung, which skip
        straight to ``kill`` (waiting out the graceful joins would
        stall every shutdown after a hang). Links and process handles
        are closed on every path, so a run that ends on a hang leaks
        neither.
        """
        stop = pickle.dumps(("stop", {}))
        for worker_id, conn in enumerate(self._conns):
            if conn is None or worker_id in self._hung:
                # Nobody to stop gracefully; closing now unblocks a
                # loopback thread parked on an unadopted connection.
                self._close_link(worker_id)
                continue
            try:
                self._send(worker_id, stop)
            except (OSError, ValueError):
                pass
        for worker_id, proc in enumerate(self._procs):
            if proc is not None:
                self._reap(worker_id, wait=True)
        for worker_id in range(self.num_workers):
            self._close_link(worker_id)
        self._close_shared()
        self._procs = []
        self._conns = []
        self._hung = set()


class MpTransport(ProcessSupervisor):
    """One OS process per worker, one duplex ``multiprocessing`` pipe
    each: the :class:`ProcessSupervisor` over a link that cannot come
    back. The wire is bare pickled ``(tag, payload)`` blobs with the
    heartbeat in-band, the init payload rides the process arguments
    (free under ``fork``), and a lost pipe is a lost worker."""

    name = "mp"

    def plane_kind(self) -> Optional[str]:
        return "shm" if shm_available() else None

    def provision_plane(self, spec: PlaneSpec) -> DataPlane:
        # Spawned children run their own resource tracker, which would
        # unlink segments it thinks the dying child leaked; forked
        # children share the creator's tracker, where a child-side
        # unregister would be destructive. See PlaneSpec.attach_untrack.
        spec = dataclasses.replace(
            spec, attach_untrack=self.start_method != "fork"
        )
        self.data_plane = ShmDataPlane.create(spec)
        return self.data_plane

    def _spawn(self, worker_id: int, blob: bytes) -> None:
        self._conns[worker_id], child = self._ctx.Pipe()
        self._procs[worker_id] = self._process(
            f"graphlab-runtime-w{worker_id}",
            serve, child, blob, self.heartbeat_interval,
        )
        child.close()

    def _send(self, worker_id: int, blob: bytes) -> None:
        self._conns[worker_id].send_bytes(blob)

    def _poll(self, worker_id: int, phase: str) -> Optional[bytes]:
        conn = self._conns[worker_id]
        return conn.recv_bytes() if conn.poll(0.05) else None

    def _link_lost(self, worker_id: int, phase: str, exc: Exception) -> None:
        if phase == "send":
            raise self._failure(
                worker_id, f"pipe write failed ({exc})", phase
            ) from exc
        raise self._failure(worker_id, "pipe closed mid-reply", phase) from None

    def _close_link(self, worker_id: int) -> None:
        conn = self._conns[worker_id]
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass


def make_transport(
    backend: Any,
    num_workers: int,
    reply_timeout: Optional[float] = None,
) -> Transport:
    """``"mp"`` / ``"inproc"`` / ``"tcp"`` / ``"tcp-loopback"`` / an
    unlaunched :class:`Transport`.

    ``reply_timeout`` overrides the process backends' dead-worker
    deadline (long color-steps on big graphs legitimately exceed the
    default); it is ignored by backends without one.
    """
    if isinstance(backend, Transport):
        if backend.num_workers != num_workers:
            raise EngineError(
                f"transport has {backend.num_workers} workers, engine "
                f"needs {num_workers}"
            )
        return backend
    if backend == "mp":
        if reply_timeout is not None:
            return MpTransport(num_workers, reply_timeout=reply_timeout)
        return MpTransport(num_workers)
    if backend == "inproc":
        return InprocTransport(num_workers)
    if backend in ("tcp", "tcp-loopback"):
        # Imported lazily: socket_transport imports this module.
        from repro.runtime.socket_transport import (
            LoopbackTcpTransport,
            TcpTransport,
        )

        cls = TcpTransport if backend == "tcp" else LoopbackTcpTransport
        if reply_timeout is not None:
            return cls(num_workers, reply_timeout=reply_timeout)
        return cls(num_workers)
    raise EngineError(
        f"unknown transport {backend!r}; expected 'mp', 'inproc', "
        "'tcp', 'tcp-loopback', or a Transport instance"
    )
