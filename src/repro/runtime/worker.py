"""The worker command loop of the real-process runtime.

A worker process starts from one launch payload
(:func:`~repro.runtime.worker_base.encode_worker` around the shared
init blob) and :func:`worker_from_bytes` builds the worker kind its init
class names: :class:`~repro.runtime.chromatic_worker.WorkerInit` the
chromatic :class:`~repro.runtime.chromatic_worker.RuntimeWorker`,
:class:`~repro.runtime.locking_worker.LockWorkerInit` the pipelined
:class:`~repro.runtime.locking_worker.LockingWorker`. Its first message
is the ready ack (:func:`ready_ack`); every command after that runs
through :func:`run_command` — the one command core both serve loops
(the pipe's :func:`serve` and the socket wire's) share — and yields
exactly one reply. The loop itself handles one command:

* ``("stop", {})`` — acknowledge and exit the serve loop.

The commands each kind handles are listed in the module that handles
them (:mod:`repro.runtime.worker_base` for the shared ones).
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import traceback
from time import perf_counter, sleep
from typing import Any, Callable, Dict, Optional

from repro.runtime.chromatic_worker import RuntimeWorker, WorkerInit
from repro.runtime.liveness import HeartbeatPump
from repro.runtime.locking_worker import LockingWorker, LockWorkerInit
from repro.runtime.worker_base import WorkerBase

#: The worker kind each init class launches.
_WORKER_KINDS = {WorkerInit: RuntimeWorker, LockWorkerInit: LockingWorker}


def worker_from_bytes(blob: bytes) -> WorkerBase:
    """Build the right worker kind from a per-worker launch payload:
    the ``("shared-init", worker_id, shared_blob)`` wrapper whose shared
    blob carries ``(init_class, state)``, encoded once for all workers
    (:meth:`~repro.runtime.worker_base.WorkerInitBase.encode_shared`)."""
    _tag, worker_id, shared_blob = pickle.loads(blob)
    init_cls, state = pickle.loads(shared_blob)
    return _WORKER_KINDS[init_cls](init_cls(worker_id=worker_id, **state))


#: A deliberately unparseable reply blob — the ``corrupt_reply`` fault.
_CORRUPT_REPLY = b"repro-corrupt-reply"

#: One pre-pickled heartbeat message; tiny and constant, so the pump's
#: steady-state cost is a lock acquire and a pipe write. The socket
#: wire ships an empty ``H`` frame instead and its coordinator side
#: hands this same blob to the shared reply-wait loop.
HEARTBEAT_BLOB = pickle.dumps(("hb", None))


def _execute_fault(fault: Dict[str, Any]) -> bool:
    """Worker-side leg of the transport's fault injector.

    Runs the ``_fault`` directive the coordinator attached to this
    command's payload. ``hang`` SIGSTOPs the whole process — every
    thread freezes, heartbeats included, which is exactly what a
    stalled machine looks like from the other end of the pipe (only
    SIGKILL ends it). ``stall`` sleeps and then continues: a slow
    round, not a failure. ``crash`` exits hard mid-command. Returns
    True when the eventual reply must be shipped corrupted.
    """
    mode = fault.get("mode")
    if mode == "hang":
        os.kill(os.getpid(), signal.SIGSTOP)
    elif mode == "stall":
        sleep(float(fault.get("arg") or 0.0))
    elif mode == "crash":
        os._exit(13)
    return mode == "corrupt_reply"


def ready_ack(worker: Any) -> bytes:
    """The pickled ``("ok", ack)`` ready envelope of a built worker —
    fields *and* encoding in one place, so every backend accounts the
    launch handshake byte-identically. ``clk`` is the clock-offset
    handshake: the coordinator brackets this reading with its own to
    map this process's ``perf_counter`` domain into its timeline
    (:mod:`repro.obs.timeline`)."""
    return pickle.dumps(
        ("ok", {
            "worker": worker.worker_id,
            "owned": len(worker.store.owned_vertices),
            "clk": perf_counter(),
        }),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def run_command(
    worker: Any,
    rec: Optional[Any],
    pump: Optional[HeartbeatPump],
    tag: str,
    payload: Any,
    send: Callable[[bytes], None],
) -> None:
    """The command core both serve loops share: run the ``_fault``
    directive the coordinator may have attached, ``handle`` the command
    inside the heartbeat bracket, and ``send`` exactly one reply — the
    pickled ``("ok", payload)`` / ``("error", traceback)`` envelope, or
    the corrupt blob. Whatever ``send`` raises propagates: the caller
    owns its link."""
    fault = payload.pop("_fault", None) if isinstance(payload, dict) else None
    if pump is not None:
        pump.begin()
    try:
        corrupt = fault is not None and _execute_fault(fault)
        try:
            reply = worker.handle(tag, payload)
        except BaseException:
            send(pickle.dumps(("error", traceback.format_exc())))
            return
        if corrupt:
            send(_CORRUPT_REPLY)
        elif rec is None:
            send(pickle.dumps(("ok", reply), protocol=pickle.HIGHEST_PROTOCOL))
        else:
            # This pickle+ship span necessarily rides the *next* reply's
            # batch — the current one is already built when it ends.
            t0 = perf_counter()
            send(pickle.dumps(("ok", reply), protocol=pickle.HIGHEST_PROTOCOL))
            rec.span("ser", t0, perf_counter())
    finally:
        if pump is not None:
            pump.end()


def serve(
    conn: Any, init_blob: bytes, heartbeat_interval: Optional[float] = None
) -> None:
    """Request/reply loop for a pipe-connected worker process.

    Module-level so ``multiprocessing`` can target it under every start
    method. The first message on the pipe is the ready ack (or the init
    error); afterwards each received command yields exactly one
    ``("ok", payload)`` or ``("error", traceback)`` reply, so the
    coordinator's send-all-then-receive-all round is a true barrier.
    Commands and replies cross the pipe as explicit pickled byte blobs
    (``send_bytes``), so both ends can account wire volume exactly.
    With ``heartbeat_interval`` set, a shared
    :class:`~repro.runtime.liveness.HeartbeatPump` emits liveness
    frames on the same pipe while a command is in flight — zero extra
    barriers, stripped coordinator-side before accounting.
    """
    try:
        worker = worker_from_bytes(init_blob)
    except BaseException:
        try:
            conn.send_bytes(pickle.dumps(("error", traceback.format_exc())))
        finally:
            conn.close()
        return
    send_lock = threading.Lock()

    def _send(blob: bytes) -> None:
        with send_lock:
            conn.send_bytes(blob)

    _send(ready_ack(worker))
    pump = (
        HeartbeatPump(lambda: _send(HEARTBEAT_BLOB), heartbeat_interval)
        if heartbeat_interval
        else None
    )
    rec = getattr(worker, "_obs", None)
    try:
        while True:
            try:
                if rec is None:
                    tag, payload = pickle.loads(conn.recv_bytes())
                else:
                    t0 = perf_counter()
                    blob = conn.recv_bytes()
                    t1 = perf_counter()
                    tag, payload = pickle.loads(blob)
                    rec.span("idle", t0, t1)
                    rec.span("ser", t1, perf_counter())
            except EOFError:
                break
            if tag == "stop":
                _send(pickle.dumps(("ok", {})))
                break
            run_command(worker, rec, pump, tag, payload, _send)
    finally:
        if pump is not None:
            pump.stop()
        worker.close_plane()
        conn.close()
