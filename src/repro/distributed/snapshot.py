"""Checkpoint intervals and recovery (paper Sec. 4.3).

The snapshot *construction* lives inside the engines (synchronous at
barriers, asynchronous via the Chandy-Lamport update function of
Alg. 5). This module holds what surrounds it:

* Young's first-order approximation of the optimal checkpoint interval
  (Eq. 3) — the calculation the paper uses to argue that, at its scale,
  checkpoint intervals (~3 h) exceed entire job runtimes, questioning
  Hadoop's always-on fault-tolerance tax;
* recovery: reading a snapshot's per-machine journals back from the DFS
  and restoring every machine's held data, owned and ghost, the path
  exercised by the fault-tolerance tests and example.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Generator, Iterable, Mapping, Optional

from repro.distributed.dfs import DistributedFileSystem
from repro.errors import SnapshotError

if TYPE_CHECKING:
    from repro.runtime.shard import CSRShardStore

#: Seconds in a (365-day) year, for MTBF conversions.
SECONDS_PER_YEAR = 365.0 * 24 * 3600


def cluster_mtbf(mtbf_per_machine_seconds: float, num_machines: int) -> float:
    """Mean time between failures for the whole cluster.

    With independent failures the cluster fails ``num_machines`` times
    as often as one machine.
    """
    if num_machines < 1:
        raise SnapshotError("num_machines must be >= 1")
    if mtbf_per_machine_seconds <= 0:
        raise SnapshotError("MTBF must be positive")
    return mtbf_per_machine_seconds / num_machines


def young_checkpoint_interval(
    checkpoint_seconds: float,
    mtbf_per_machine_seconds: float,
    num_machines: int,
) -> float:
    """Young's optimal checkpoint interval (Eq. 3):
    ``T = sqrt(2 · T_checkpoint · T_MTBF)``.

    The paper's example — 64 machines, 1-year per-machine MTBF, 2-minute
    checkpoints — yields ≈ 3 hours.
    """
    if checkpoint_seconds <= 0:
        raise SnapshotError("checkpoint time must be positive")
    t_mtbf = cluster_mtbf(mtbf_per_machine_seconds, num_machines)
    return math.sqrt(2.0 * checkpoint_seconds * t_mtbf)


def suggested_interval(
    transport_or_workers,
    checkpoint_seconds: float = 120.0,
    mtbf_per_machine_seconds: float = SECONDS_PER_YEAR,
) -> float:
    """Default snapshot cadence (seconds) for the runtime engines.

    A convenience wrapper over :func:`young_checkpoint_interval` that
    accepts either a worker count or anything with a ``num_workers``
    attribute (a live :class:`~repro.runtime.transport.Transport` or an
    engine), with the paper's defaults: a 2-minute checkpoint and a
    1-year per-machine MTBF. The paper's 64-machine example lands on
    roughly a 3-hour interval — longer than most job runtimes, which is
    its argument against Hadoop's always-on fault-tolerance tax:

    >>> round(suggested_interval(64) / 3600.0, 1)
    3.0

    The runtime engines' ``snapshot_every="auto"`` mode feeds the
    *measured* checkpoint cost of the previous snapshot through this
    same formula instead of the 2-minute estimate.
    """
    num_workers = getattr(
        transport_or_workers, "num_workers", transport_or_workers
    )
    return young_checkpoint_interval(
        checkpoint_seconds, mtbf_per_machine_seconds, int(num_workers)
    )


def snapshot_file(snapshot_id: int, machine_id: int) -> str:
    """DFS path of one machine's journal within a snapshot."""
    return f"snapshot/{snapshot_id}/machine-{machine_id}"


def list_snapshot_machines(
    dfs: DistributedFileSystem, snapshot_id: int
) -> Iterable[int]:
    """Machine ids with journals stored for ``snapshot_id``."""
    prefix = f"snapshot/{snapshot_id}/machine-"
    for name in dfs.listing():
        if name.startswith(prefix):
            yield int(name[len(prefix):])


def recover_from_snapshot(
    dfs: DistributedFileSystem,
    snapshot_id: int,
    stores: Mapping[int, "CSRShardStore"],
    reschedule: Optional[set] = None,
) -> Generator:
    """Process: restore every machine's held data from a snapshot.

    Every machine reads every journal (parallel DFS reads, one per
    journal per machine, charged) and force-applies each with
    :meth:`~repro.runtime.shard.CSRShardStore.restore_checkpoint`, as the
    runtime's restore does: journals partition the graph by ownership,
    so together they roll each primary *and* each ghost back to the
    owner's snapshot value and version (a ghost left ahead of its owner
    would drop the owner's next writes as stale). Returns the number of
    journals. If ``reschedule`` is given, every journaled vertex is added
    to it — the caller re-seeds its engine with that set, since recovery
    "restarts the execution at the previous snapshot".
    """
    machines = sorted(list_snapshot_machines(dfs, snapshot_id))
    if not machines:
        raise SnapshotError(f"snapshot {snapshot_id} has no journals")
    kernel = dfs.kernel

    def restore_one(machine_id: int) -> Generator:
        journals = yield [
            kernel.spawn(dfs.read(machine_id, snapshot_file(snapshot_id, j)))
            for j in machines
        ]
        store = stores[machine_id]
        for journal in journals:
            store.restore_checkpoint(journal)
        if reschedule is not None:
            vertex_ids = store.graph.compiled.vertex_ids
            for journal in journals:
                reschedule.update(vertex_ids[i] for i in journal.v_index)

    yield [
        kernel.spawn(restore_one(m), name=f"recover@{m}") for m in stores
    ]
    return len(machines)


def run_recovery(
    dfs: DistributedFileSystem,
    snapshot_id: int,
    stores: Mapping[int, "CSRShardStore"],
) -> Dict[str, object]:
    """Synchronous wrapper: run recovery to completion on the kernel.

    Returns ``{"machines": count, "seconds": simulated recovery time,
    "reschedule": vertices to re-seed}``.
    """
    kernel = dfs.kernel
    start = kernel.now
    reschedule: set = set()
    count = kernel.run_process(
        recover_from_snapshot(dfs, snapshot_id, stores, reschedule),
        name="recovery",
    )
    return {
        "machines": count,
        "seconds": kernel.now - start,
        "reschedule": reschedule,
    }
