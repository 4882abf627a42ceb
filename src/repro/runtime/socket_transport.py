"""Fault-hardened TCP socket transport.

:class:`TcpTransport` speaks the same ``launch / round / shutdown``
contract as :class:`~repro.runtime.transport.MpTransport`, but over
length-prefixed TCP frames: the coordinator binds a listener, spawns
one OS process per worker, and each worker dials back, handshakes, and
then serves framed request/reply rounds. Init payloads and round
messages are the exact pickled blobs the pipe backends ship, so the
pickled frame wire *is* the TCP data plane for now (``plane_kind`` is
``None``; a peer data plane is future work).

**Wire protocol.** Every message is one frame of the shared codec
(:mod:`repro.runtime.frames`: a kind byte plus a body length, then the
body):

====  =======================================================
``O``  hello: pickled ``{"worker", "gen", "last_seq"}``, sent by
       the worker immediately after every (re)connect
``I``  init: the pickled init payload, coordinator -> worker
``A``  ready ack: pickled ``("ok", ack)`` / ``("error", tb)``
``C``  command: u64 sequence number + pickled ``(tag, payload)``
``R``  reply: u64 sequence number + pickled envelope
``H``  heartbeat: empty body, worker -> coordinator
====  =======================================================

**Connection supervision.** Workers dial with bounded exponential
backoff + deterministic jitter (:class:`~repro.runtime.liveness.
RetryPolicy`). Launch, the round, the reply wait (heartbeats, hang
detection, adaptive deadlines), recovery and shutdown are not here at
all: they are :class:`~repro.runtime.transport.ProcessSupervisor`'s,
and this module supplies its link primitives. A dropped or half-open
connection is re-established inside a per-drop retry budget: the
coordinator waits for the worker to re-dial (growing backoff windows)
and replays the in-flight command; commands carry sequence numbers and
workers cache their last reply, so a replayed round is answered from
the cache, never executed twice. Budget exhaustion raises the same
structured :class:`~repro.runtime.transport.WorkerFailure` the
snapshot/recovery path in ``run()`` already consumes — a worker that
loses its link for good is respawned and rolled back with no new
engine code.

**Byte accounting.** ``bytes_sent``/``bytes_received`` count the
pickled command/reply bodies exactly once per sequence number — frame
headers, sequence prefixes, hellos, init blobs, heartbeats, and
retransmissions are all excluded — so a deterministic run reports
byte-identical counters on ``inproc``, ``mp``, and ``tcp``.

**Fault injection** (``REPRO_FAULT`` network modes, framing-layer,
deterministic): ``worker:round:drop_conn`` delivers the command and
severs the link before the reply; ``worker:round:delay=ms`` holds the
command frame back; ``worker:round:partition=n`` severs the link
before the command and eats the next ``n`` reconnect attempts (heals
transparently when ``n`` is inside the budget, exhausts it into a
``WorkerFailure`` otherwise); ``worker:round:reset_mid_frame`` ships a
torn half-frame and resets. The process modes (``kill``, ``hang``,
``stall``, ``corrupt_reply``, ``crash_mid_snapshot``) work unchanged.
:class:`LoopbackTcpTransport` is the chaos harness's test double: the
identical coordinator code over real localhost sockets, with workers
as daemon threads — every wire-level mode, no process scheduling.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.frames import (
    FRAME_TIMEOUT,
    HEADER,
    close_socket,
    poll_frame,
    recv_frame,
    send_frame,
)
from repro.runtime.liveness import HeartbeatPump, RetryPolicy
from repro.runtime.transport import (
    NETWORK_MODES,
    PROCESS_FAULT_MODES,
    FaultSpec,
    ProcessSupervisor,
    _proc_alive,
)
from repro.runtime.worker import (
    HEARTBEAT_BLOB,
    ready_ack,
    run_command,
    worker_from_bytes,
)

_HELLO = b"O"
_INIT = b"I"
_ACK = b"A"
_CMD = b"C"
_REPLY = b"R"
_HB = b"H"

_SEQ = struct.Struct("!Q")

#: Worker-side dial policy: patient (the coordinator owns the failure
#: decision), fast cadence so healed links are retaken promptly.
_WORKER_DIAL = RetryPolicy(attempts=48, base=0.02, factor=1.5, cap=0.25)


def serve_socket(
    host: str,
    port: int,
    worker_id: int,
    gen: int,
    heartbeat_interval: Optional[float] = None,
    dial_policy: Optional[RetryPolicy] = None,
    control: Optional[Any] = None,
) -> None:
    """Socket leg of the worker serve loop (module-level so
    ``multiprocessing`` can target it under every start method).

    Dials the coordinator with backoff, sends a hello, builds the
    worker from the init frame, then answers framed commands through
    the command core it shares with the pipe loop
    (:func:`~repro.runtime.worker.run_command`). Commands are
    deduplicated by sequence number and the last reply is cached: a
    command replayed after a reconnect is answered from the cache,
    never executed twice — the coordinator-side idempotent-replay
    contract. A lost link is simply re-dialed; the coordinator owns the
    retry budget and the failure decision. ``control`` (loopback
    threads only) carries a ``stopped`` flag standing in for SIGKILL.
    """
    policy = dial_policy or _WORKER_DIAL
    seq = last_seq = 0
    cached_reply: Optional[bytes] = None
    worker: Optional[Any] = None
    conn: Optional[socket.socket] = None
    pump: Optional[HeartbeatPump] = None
    send_lock = threading.Lock()

    def _stopped() -> bool:
        return control is not None and getattr(control, "stopped", False)

    def _dial() -> bool:
        nonlocal conn
        for attempt in range(policy.attempts):
            if _stopped():
                return False
            s = None
            try:
                s = socket.create_connection((host, port), timeout=2.0)
                s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                s.settimeout(None)
                send_frame(s, _HELLO, pickle.dumps({
                    "worker": worker_id, "gen": gen, "last_seq": last_seq,
                }))
            except OSError:
                close_socket(s)
                time.sleep(policy.delay(attempt, seed=f"dial:{worker_id}"))
                continue
            conn = s
            return True
        return False

    def _send(kind: bytes, body: bytes) -> None:
        with send_lock:
            send_frame(conn, kind, body)

    def _hb() -> None:
        # Swallow link errors: a heartbeat lost with the connection is
        # the reconnect logic's problem, and the pump must survive to
        # beat again on the next link.
        c = conn
        if c is None:
            return
        try:
            with send_lock:
                send_frame(c, _HB, b"")
        except OSError:
            pass

    def _reply(env: bytes) -> None:
        # Cache before sending: a reply lost with the link is replayed
        # from here once the coordinator reconnects us.
        nonlocal last_seq, cached_reply
        last_seq = seq
        cached_reply = _SEQ.pack(seq) + env
        _send(_REPLY, cached_reply)

    def _redial() -> bool:
        nonlocal conn
        close_socket(conn)
        conn = None
        if _stopped():
            return False
        time.sleep(policy.base)
        return _dial()

    if not _dial():
        return
    try:
        while True:
            if _stopped():
                break
            rec = None if worker is None else getattr(worker, "_obs", None)
            try:
                if rec is None:
                    kind, body = recv_frame(conn)
                else:
                    t0 = time.perf_counter()
                    kind, body = recv_frame(conn)
                    rec.span("idle", t0, time.perf_counter())
            except (ConnectionError, OSError):
                if not _redial():
                    break
                continue
            if kind == _INIT:
                try:
                    worker = worker_from_bytes(body)
                except BaseException:
                    try:
                        _send(_ACK, pickle.dumps(
                            ("error", traceback.format_exc())
                        ))
                    except OSError:
                        pass
                    break
                try:
                    _send(_ACK, ready_ack(worker))
                except OSError:
                    if not _redial():
                        break
                    continue
                if heartbeat_interval and pump is None:
                    pump = HeartbeatPump(_hb, heartbeat_interval)
                continue
            if kind != _CMD or worker is None:
                continue
            (seq,) = _SEQ.unpack_from(body)
            try:
                if seq <= last_seq:
                    if seq == last_seq and cached_reply is not None:
                        # Replayed in-flight command: the round already
                        # ran; idempotency = ship the cached reply
                        # verbatim.
                        _send(_REPLY, cached_reply)
                    continue
                blob = body[_SEQ.size:]
                if rec is None:
                    tag, payload = pickle.loads(blob)
                else:
                    t0 = time.perf_counter()
                    tag, payload = pickle.loads(blob)
                    rec.span("ser", t0, time.perf_counter())
                if tag == "stop":
                    try:
                        _reply(pickle.dumps(("ok", {})))
                    except OSError:
                        pass
                    break
                run_command(worker, rec, pump, tag, payload, _reply)
            except OSError:
                if not _redial():
                    break
    finally:
        if pump is not None:
            pump.stop()
        if worker is not None:
            worker.close_plane()
        close_socket(conn)


class TcpTransport(ProcessSupervisor):
    """One OS process per worker over localhost (or LAN) TCP.

    The :class:`~repro.runtime.transport.ProcessSupervisor` — same
    contract, liveness machinery and fault grammar as
    :class:`~repro.runtime.transport.MpTransport` — over a link that
    can come back. What is the socket's own lives here (see the module
    docstring): the listener, hello/generation adoption, the per-drop
    reconnect budget ``retry_budget`` with ``retry_policy`` backoff
    windows, sequence-numbered idempotent replay, and the
    ``REPRO_FAULT`` network modes. Reports ``reconnects``/``retries``
    via ``net_counters`` and a coordinator ``net`` span per
    re-established link.
    """

    name = "tcp"
    fault_caps = PROCESS_FAULT_MODES | NETWORK_MODES

    def __init__(
        self,
        num_workers: int,
        host: str = "127.0.0.1",
        port: int = 0,
        start_method: Optional[str] = None,
        reply_timeout: float = 120.0,
        heartbeat_interval: Optional[float] = 0.25,
        heartbeat_timeout: float = 2.0,
        deadline_floor: float = 30.0,
        deadline_slack: float = 8.0,
        retry_budget: int = 4,
        retry_policy: Optional[RetryPolicy] = None,
        dial_policy: Optional[RetryPolicy] = None,
    ) -> None:
        super().__init__(
            num_workers, start_method, reply_timeout, heartbeat_interval,
            heartbeat_timeout, deadline_floor, deadline_slack,
        )
        self.host = host
        #: Requested port; 0 means kernel-assigned, fixed at launch.
        self.port = port
        #: Reconnect attempts allowed per dropped link before the
        #: worker is declared lost (one structured WorkerFailure).
        self.retry_budget = int(retry_budget)
        #: Backoff windows for those attempts (deterministic jitter).
        self.retry_policy = retry_policy or RetryPolicy(
            attempts=retry_budget, base=0.05, factor=2.0, cap=1.0
        )
        self.dial_policy = dial_policy
        #: Links re-established after a drop (transparent recoveries).
        self.reconnects = 0
        #: In-flight commands replayed after a reconnect.
        self.retries = 0
        self._listener: Optional[socket.socket] = None
        #: Spawn generation per worker: hellos from a pre-respawn
        #: incarnation are recognized and never adopted.
        self._gen = [0] * num_workers
        #: Init payload of a spawned worker until its handshake ships it.
        self._init: List[Optional[bytes]] = [None] * num_workers
        #: Sequence number of the last command sent to each worker.
        self._seq = [0] * num_workers
        #: The in-flight command frame body (seq-prefixed), kept until
        #: its reply lands so a reconnect can replay it verbatim.
        self._sent_body: List[Optional[bytes]] = [None] * num_workers
        #: worker -> reconnect attempts an injected partition still eats.
        self._partition: Dict[int, int] = {}
        #: worker -> (conn, hello) accepted but not yet adopted.
        self._stray: Dict[int, Tuple[socket.socket, Dict[str, Any]]] = {}

    def net_counters(self) -> Dict[str, int]:
        return {"reconnects": self.reconnects, "retries": self.retries}

    # Connection plumbing -------------------------------------------------
    def _listen(self) -> None:
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        s.bind((self.host, self.port))
        s.listen(self.num_workers + 2)
        self.port = s.getsockname()[1]
        self._listener = s

    def _drop_conn(self, worker_id: int) -> None:
        close_socket(self._conns[worker_id])
        self._conns[worker_id] = None

    def _accept_hello(self, timeout: float) -> bool:
        """Accept one dial-in and stash it by its hello; False on idle.

        Junk connections, out-of-range workers, and hellos from a
        stale spawn generation are closed, never adopted.
        """
        self._listener.settimeout(timeout)
        try:
            conn, _addr = self._listener.accept()
        except (TimeoutError, OSError):
            return False
        try:
            conn.settimeout(FRAME_TIMEOUT)
            kind, body = recv_frame(conn)
            if kind != _HELLO:
                raise ConnectionError("expected a hello frame")
            hello = pickle.loads(body)
            w = int(hello["worker"])
            gen = int(hello.get("gen", 0))
        except Exception:
            close_socket(conn)
            return True
        if not (0 <= w < self.num_workers) or gen != self._gen[w]:
            close_socket(conn)
            return True
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.settimeout(None)
        old = self._stray.pop(w, None)
        if old is not None:
            close_socket(old[0])
        self._stray[w] = (conn, hello)
        return True

    def _adopt(
        self, worker_id: int, window: float, proc: Any = None
    ) -> Optional[Tuple[socket.socket, Dict[str, Any]]]:
        """Wait up to ``window`` for an adoptable connection from
        ``worker_id``; ``None`` on timeout or (if ``proc`` is given)
        as soon as the process is seen dead with nothing to adopt."""
        end = time.monotonic() + window
        while True:
            got = self._stray.pop(worker_id, None)
            if got is not None:
                return got
            remaining = end - time.monotonic()
            if remaining <= 0:
                return None
            if proc is not None and not _proc_alive(proc):
                return None
            self._accept_hello(min(remaining, 0.1))

    def _reestablish(self, worker_id: int, why: str) -> None:
        """Reconnect-and-replay after a lost link, inside the budget.

        Each attempt opens one backoff window for the worker's re-dial;
        an injected partition deterministically eats its scheduled
        number of attempts before any offer is adoptable. On adoption
        the in-flight command is replayed (the worker dedups by
        sequence number). Exhaustion marks the worker untrusted and
        raises the structured :class:`WorkerFailure` recovery consumes.
        """
        proc = self._procs[worker_id]
        self._drop_conn(worker_id)
        rec = self.obs
        t0 = time.perf_counter()
        policy = self.retry_policy
        for attempt in range(self.retry_budget):
            if not _proc_alive(proc):
                raise self._failure(
                    worker_id,
                    f"process exited with code {proc.exitcode} "
                    f"(connection lost: {why})",
                )
            window = policy.delay(attempt, seed=f"re:{worker_id}")
            if self._partition.get(worker_id, 0) > 0:
                self._partition[worker_id] -= 1
                if self._partition[worker_id] == 0:
                    del self._partition[worker_id]
                # The attempt is refused by decree; keep draining the
                # listener so the worker's offer is staged, not stuck.
                end = time.monotonic() + window
                while time.monotonic() < end:
                    self._accept_hello(0.02)
                continue
            got = self._adopt(worker_id, window, proc=proc)
            if got is None:
                continue
            conn, _hello = got
            self._conns[worker_id] = conn
            self.reconnects += 1
            if rec is not None:
                rec.count("reconnects")
            body = self._sent_body[worker_id]
            if body is not None and self._pending[worker_id]:
                self.retries += 1
                if rec is not None:
                    rec.count("retries")
                try:
                    send_frame(conn, _CMD, body)
                except OSError:
                    self._drop_conn(worker_id)
                    continue
            if rec is not None:
                rec.span("net", t0, time.perf_counter(), worker_id)
            return
        # Budget exhausted: the machine is declared lost. The partition
        # (if any) is considered healed for the respawn, and the still-
        # running process is untrusted — recovery goes straight to kill.
        self._close_link(worker_id)
        self._hung.add(worker_id)
        if rec is not None:
            rec.count("conn_lost")
            rec.span("net", t0, time.perf_counter(), worker_id)
        raise self._failure(
            worker_id,
            "connection lost and not re-established within the retry "
            f"budget ({self.retry_budget} attempts): {why}",
        )

    # Link primitives -----------------------------------------------------
    def _spawn(self, worker_id: int, blob: bytes) -> None:
        if self._listener is None:
            self._listen()
        # A new incarnation: stale hellos are told apart by generation,
        # sequence numbers restart and nothing is in flight.
        self._gen[worker_id] += 1
        self._seq[worker_id] = 0
        self._sent_body[worker_id] = None
        self._init[worker_id] = blob
        self._procs[worker_id] = self._start_server(
            worker_id, self.host, self.port, worker_id, self._gen[worker_id],
            self.heartbeat_interval, self.dial_policy,
        )

    def _start_server(self, worker_id: int, *args: Any) -> Any:
        """Start ``serve_socket(*args)``; returns its process handle."""
        return self._process(
            f"graphlab-runtime-tcp-w{worker_id}", serve_socket, *args
        )

    def _handshake(self, worker_id: int) -> Any:
        proc = self._procs[worker_id]
        got = self._adopt(worker_id, self.reply_timeout, proc=proc)
        if got is None:
            raise self._failure(
                worker_id,
                f"no connection from worker within {self.reply_timeout:.1f}s"
                if _proc_alive(proc)
                else f"process exited with code {proc.exitcode} before "
                "connecting",
                "launch",
            )
        conn, _hello = got
        self._conns[worker_id] = conn
        blob, self._init[worker_id] = self._init[worker_id], None
        try:
            # Init blobs are not wire-accounted: MpTransport ships them
            # via process args, so counting them would break the
            # cross-backend byte parity the tests pin.
            send_frame(conn, _INIT, blob)
        except OSError as exc:
            raise self._failure(
                worker_id, f"init send failed ({exc})", "launch"
            ) from None
        return super()._handshake(worker_id)

    def _send(self, worker_id: int, blob: bytes) -> None:
        self._seq[worker_id] += 1
        body = _SEQ.pack(self._seq[worker_id]) + blob
        self._sent_body[worker_id] = body
        spec = self._arm_fault(worker_id, NETWORK_MODES)
        if spec is not None:
            if spec.mode != "delay":
                self._inject_net(worker_id, spec, body)
                return
            time.sleep(float(spec.arg or 0.0) / 1000.0)
        conn = self._conns[worker_id]
        if conn is None:
            raise ConnectionError("no connection")
        send_frame(conn, _CMD, body)

    def _inject_net(
        self, worker_id: int, spec: FaultSpec, body: bytes
    ) -> None:
        """Fire one link-breaking network fault at the framing layer,
        coordinator side, deterministically (see the module docstring);
        the reply wait then finds the link gone and re-establishes."""
        conn = self._conns[worker_id]
        if spec.mode == "partition":
            self._partition[worker_id] = int(spec.arg or 1)
        elif conn is not None:
            frame = HEADER.pack(_CMD, len(body)) + body
            if spec.mode == "reset_mid_frame":
                frame = frame[: max(1, len(frame) // 2)]
            # drop_conn: the whole command makes it out and the link
            # dies before the reply; reset_mid_frame: a torn half.
            try:
                conn.sendall(frame)
            except OSError:
                pass
        self._drop_conn(worker_id)

    def _poll(self, worker_id: int, phase: str) -> Optional[bytes]:
        conn = self._conns[worker_id]
        if conn is None:
            raise ConnectionError("no connection")
        frame = poll_frame(conn, 0.05)
        if frame is None:
            return None
        kind, body = frame
        if kind == _HB:
            return HEARTBEAT_BLOB
        if phase == "launch":
            return body if kind == _ACK else None
        if kind != _REPLY or _SEQ.unpack_from(body)[0] != self._seq[worker_id]:
            return None  # a replayed older reply; dropped uncounted
        self._sent_body[worker_id] = None
        return body[_SEQ.size:]

    def _link_lost(self, worker_id: int, phase: str, exc: Exception) -> None:
        if phase == "launch":
            raise self._failure(
                worker_id, f"connection lost during launch ({exc})", phase
            ) from None
        # Re-establish inside the retry budget; _reestablish replays
        # the pending command itself.
        self._reestablish(
            worker_id, f"send failed ({exc})" if phase == "send" else str(exc)
        )

    def _close_link(self, worker_id: int) -> None:
        self._drop_conn(worker_id)
        stray = self._stray.pop(worker_id, None)
        if stray is not None:
            close_socket(stray[0])
        self._partition.pop(worker_id, None)

    def _close_shared(self) -> None:
        close_socket(self._listener)
        self._listener = None


class _ThreadProc:
    """Duck-typed process handle around a loopback worker thread.

    Threads cannot be signalled; ``kill``/``terminate`` raise the
    ``stopped`` flag (the thread's ``control``, standing in for
    SIGKILL) and rely on the coordinator closing the thread's sockets
    to unblock it (every blocking point in ``serve_socket`` re-checks
    the flag after a socket error or dial timeout).
    """

    exitcode: Optional[int] = None

    def __init__(self, name: str, *args: Any) -> None:
        self.stopped = False
        self._thread = threading.Thread(
            target=serve_socket, args=(*args, self), name=name, daemon=True
        )
        self._thread.start()

    def is_alive(self) -> bool:
        return self._thread.is_alive()

    def join(self, timeout: Optional[float] = None) -> None:
        self._thread.join(timeout)

    def kill(self) -> None:
        self.stopped = True

    terminate = kill

    def close(self) -> None:
        pass


class LoopbackTcpTransport(TcpTransport):
    """The socket backend's deterministic test double.

    Identical coordinator code — framing, supervision, retry budget,
    network fault injection — over real localhost sockets, but each
    worker is a daemon *thread* running :func:`serve_socket`: no OS
    process scheduling, no signals, cheap enough for the chaos harness
    to run hundreds of seeded schedules. Thread workers cannot be
    SIGKILLed or SIGSTOPped, so ``fault_caps`` excludes the
    process-signal modes; every wire-level mode is fully supported.
    Defaults to snappy retry/dial windows — the point is exercising the
    reconnect logic, not simulating WAN latency.
    """

    name = "tcp-loopback"
    fault_caps = NETWORK_MODES | frozenset(("stall", "corrupt_reply"))

    def __init__(self, num_workers: int, **kwargs: Any) -> None:
        kwargs.setdefault(
            "retry_policy",
            RetryPolicy(attempts=4, base=0.05, factor=2.0, cap=0.4),
        )
        kwargs.setdefault(
            "dial_policy",
            RetryPolicy(attempts=40, base=0.01, factor=1.5, cap=0.1),
        )
        super().__init__(num_workers, **kwargs)

    def _start_server(self, worker_id: int, *args: Any) -> Any:
        return _ThreadProc(f"graphlab-runtime-loop-w{worker_id}", *args)
