"""Real multiprocess runtime (the paper's Sec. 4 claim, made literal).

Everything under :mod:`repro.distributed` *models* distributed execution
on a discrete-event simulator; this package *performs* it on OS
processes. The same update functions, the same ghost/version coherence
protocol (on slot-addressed :class:`CSRShardStore` shards sharing the
compiled CSR structure), the same atom-based placement — executed by
two engines that are two *scheduling policies* over one lifecycle:
:class:`RuntimeChromaticEngine` (color-step sweeps, Sec. 4.2.1) and
:class:`RuntimeLockingEngine` (pipelined distributed locks, Sec. 4.2.2)
both subclass :class:`~repro.runtime.core.RuntimeCore`, which owns
launch, the round funnel, snapshot/recover/resume, the serving
lifecycle and result assembly exactly once. Their workers have the
same shape: :class:`RuntimeWorker`
(:mod:`~repro.runtime.chromatic_worker`) and :class:`LockingWorker`
(:mod:`~repro.runtime.locking_worker`) are two scheduling policies over
:class:`~repro.runtime.worker_base.WorkerBase`, which owns the store,
the data plane, inbox application and the collect / checkpoint /
restore / serve commands once. Engines run over a :class:`Transport`:

* :class:`InprocTransport` — the protocol (including the pickle
  boundary) driven deterministically in one process, for tests;
* :class:`MpTransport` — one process per worker over ``multiprocessing``
  pipes; real parallelism, real barriers;
* :class:`TcpTransport` — the same processes over length-prefixed TCP
  frames (:mod:`repro.runtime.frames`) with connection supervision
  (retries, backoff, idempotent replay, partition tolerance);
  :class:`LoopbackTcpTransport` is its thread-backed chaos-test double.

The process-backed backends are one
:class:`~repro.runtime.transport.ProcessSupervisor` — launch, round,
the reply-wait loop, recover and shutdown written once — completed by
five link primitives each (spawn, send, poll, link-lost, close-link);
their worker-side loops share one command core
(:func:`~repro.runtime.worker.run_command`).

The simulator remains the place for what real hardware can't give you —
the calibrated cycle/byte cost model, EC2 pricing, fault injection at
scale; this backend is where throughput is real. Fault tolerance is
real too (:mod:`repro.runtime.checkpoint`): engines snapshot to disk at
barriers (or via the async Chandy–Lamport scopes of Alg. 5), the
transports inject deterministic worker kills (``REPRO_FAULT``), and a
:class:`WorkerFailure` mid-run respawns the dead worker and rolls the
cluster back to the last complete snapshot.
"""

from repro.runtime.checkpoint import (
    CheckpointManager,
    SnapshotCadence,
    SnapshotDirectory,
)
from repro.runtime.chromatic_worker import RuntimeWorker, WorkerInit
from repro.runtime.engine import RuntimeChromaticEngine, RuntimeRunResult
from repro.runtime.locking import RuntimeLockingEngine
from repro.runtime.locking_worker import LockingWorker, LockWorkerInit
from repro.runtime.oracle import ColorSweepScheduler
from repro.runtime.plane import (
    DataPlane,
    LocalDataPlane,
    PlaneSpec,
    ShmDataPlane,
    shm_available,
)
from repro.runtime.liveness import AdaptiveDeadline, HeartbeatPump, RetryPolicy
from repro.runtime.program import UpdateProgram, named_program, resolve_program
from repro.runtime.shard import CSRShardStore
from repro.runtime.socket_transport import LoopbackTcpTransport, TcpTransport
from repro.runtime.transport import (
    FAULT_ENV,
    FAULT_MODES,
    FaultSpec,
    InprocTransport,
    MpTransport,
    Transport,
    WorkerFailure,
    make_transport,
    parse_fault_plan,
)

__all__ = [
    "AdaptiveDeadline",
    "CSRShardStore",
    "CheckpointManager",
    "ColorSweepScheduler",
    "DataPlane",
    "FAULT_ENV",
    "FAULT_MODES",
    "FaultSpec",
    "HeartbeatPump",
    "InprocTransport",
    "LocalDataPlane",
    "LockWorkerInit",
    "LockingWorker",
    "LoopbackTcpTransport",
    "MpTransport",
    "RetryPolicy",
    "PlaneSpec",
    "RuntimeChromaticEngine",
    "RuntimeLockingEngine",
    "RuntimeRunResult",
    "RuntimeWorker",
    "ShmDataPlane",
    "SnapshotCadence",
    "SnapshotDirectory",
    "TcpTransport",
    "Transport",
    "UpdateProgram",
    "WorkerFailure",
    "WorkerInit",
    "make_transport",
    "named_program",
    "parse_fault_plan",
    "resolve_program",
    "shm_available",
]
