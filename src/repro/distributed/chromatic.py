"""The Chromatic Engine (paper Sec. 4.2.1).

Serializability from graph coloring: given a coloring valid for the
consistency model (proper for *edge*, second-order for *full*, anything
for *vertex*), the engine executes all scheduled vertices of one color —
a *color-step* — in parallel across machines and cores, communicating
ghost changes **asynchronously as they are made** (batched pushes
overlap computation), with a **full communication barrier** between
colors. Sync operations run between color-steps.

Scheduling is set-based and partially asynchronous: updates scheduled
during a sweep run in the next visit of their color. The engine
terminates when a master count finds the global task set empty.

Optional synchronous snapshots (Sec. 4.3) run at sweep boundaries — a
natural global quiet point — writing each machine's data modified since
the last snapshot to the DFS.
"""

from __future__ import annotations

from typing import Dict, Generator, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.coloring import Coloring, color_classes, validate_coloring
from repro.core.graph import VertexId
from repro.core.kernels import independent_classes, kernel_of
from repro.core.update import normalize_schedule
from repro.distributed.base import (
    DistributedEngineBase,
    DistributedRunResult,
    SnapshotRecord,
)
from repro.distributed.dfs import DistributedFileSystem
from repro.errors import EngineError
from repro.runtime.shard import FlatEntries

#: Wire size of the master's scheduled-count probe and reply.
COUNT_PROBE_BYTES = 16.0


class ChromaticEngine(DistributedEngineBase):
    """Distributed color-step engine.

    Additional parameters beyond :class:`DistributedEngineBase`:

    coloring:
        A coloring valid for ``consistency`` (validated at construction).
    flush_batch:
        Ghost-change entries accumulated per destination before an
        asynchronous push is emitted mid-color-step.
    max_sweeps:
        Stop after this many full sweeps over the colors (``None`` =
        until the task set drains).
    snapshot_every_updates / dfs:
        Enable synchronous snapshots at sweep boundaries once this many
        updates have run since the last one.
    use_kernel:
        Dispatch each machine's share of a color-step to the update
        program's batch kernel (:mod:`repro.core.kernels`) when one is
        attached, the graph has compatible typed columns and the color
        classes are independent frontiers; the kernel runs directly on
        each machine's slot-addressed
        :class:`~repro.runtime.shard.CSRShardStore` columns. Values stay
        bit-identical; modeled cycle costs are still charged per
        update, but dirty ghosts flush once at step end instead of on
        the mid-step ``flush_batch`` cadence. ``False`` pins the scalar
        interpreter.
    """

    def __init__(
        self,
        *args,
        coloring: Coloring,
        flush_batch: int = 64,
        max_sweeps: Optional[int] = None,
        snapshot_every_updates: Optional[int] = None,
        dfs: Optional[DistributedFileSystem] = None,
        use_kernel: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        validate_coloring(self.graph, coloring, self.consistency)
        self.coloring = coloring
        self.flush_batch = int(flush_batch)
        self.max_sweeps = max_sweeps
        self.snapshot_every_updates = snapshot_every_updates
        self.dfs = dfs
        if snapshot_every_updates is not None and dfs is None:
            raise EngineError("snapshots need a DFS to write to")
        classes = color_classes(coloring)
        self.num_colors = len(classes)
        #: machine -> color -> owned vertices of that color (fixed order)
        self.local_by_color: Dict[int, List[List[VertexId]]] = {
            m: [[] for _ in classes] for m in self.stores
        }
        for color, members in enumerate(classes):
            for v in members:
                self.local_by_color[self.owner[v]][color].append(v)
        #: machine -> currently scheduled local vertices (the set T)
        self.scheduled: Dict[int, Set[VertexId]] = {
            m: set() for m in self.stores
        }
        self._updates_at_last_snapshot = 0
        kernel = kernel_of(self.update_fn) if use_kernel else None
        self._batch_kernel = (
            kernel
            if (
                kernel is not None
                and kernel.compatible(self.graph)
                and independent_classes(self.graph, classes)
            )
            else None
        )
        if self._batch_kernel is not None:
            self._batch_kernel.bind(self.graph)
        self._register_rpc()

    def _register_rpc(self) -> None:
        for m, node in self.cluster.rpc.items():
            node.register(
                "_chroma_count",
                lambda sender, m=m: len(self.scheduled[m]),
                replace=True,
            )

    # ------------------------------------------------------------------
    def run(
        self, initial: Iterable = (), include_load_time: bool = False
    ) -> DistributedRunResult:
        """Execute to quiescence (or ``max_sweeps``); returns the summary.

        ``initial`` seeds the task set exactly like the reference engine
        (vertex ids or ``(vertex, priority)`` pairs; the chromatic engine
        ignores priorities, per the paper).
        """
        for vertex, _prio in normalize_schedule(initial, graph=self.graph):
            self.scheduled[self.owner[vertex]].add(vertex)
        start = self.kernel.now
        self.start_monitoring()
        outcome = {"converged": False, "sweeps": 0}
        self.kernel.run_process(self._master(outcome), name="chromatic-master")
        self.stop_monitoring()
        return self.build_result(
            start, outcome["converged"], sweeps=outcome["sweeps"]
        )

    # ------------------------------------------------------------------
    def _master(self, outcome: Dict) -> Generator:
        yield from self.run_syncs_distributed()
        sweeps = 0
        while True:
            total = yield from self._count_scheduled()
            if total == 0:
                outcome["converged"] = True
                break
            if self.max_sweeps is not None and sweeps >= self.max_sweeps:
                break
            if (
                self.max_updates is not None
                and self.total_updates >= self.max_updates
            ):
                break
            for color in range(self.num_colors):
                steps = [
                    self.kernel.spawn(
                        self._color_step(m, color),
                        name=f"colorstep-{color}@{m}",
                    )
                    for m in range(self.cluster.num_machines)
                ]
                yield steps  # the full communication barrier
            yield from self.run_syncs_distributed()
            sweeps += 1
            if self._snapshot_due():
                yield from self._sync_snapshot()
        outcome["sweeps"] = sweeps

    def _count_scheduled(self) -> Generator:
        """Master probes every machine for its |T_m| (real messages)."""
        probes = [
            self.cluster.rpc[0].call(
                m, "_chroma_count", COUNT_PROBE_BYTES
            )
            for m in range(self.cluster.num_machines)
        ]
        counts = yield probes
        return sum(counts)

    # ------------------------------------------------------------------
    def _color_step(self, machine_id: int, color: int) -> Generator:
        """One machine's share of one color-step."""
        todo = self.scheduled[machine_id]
        work = [v for v in self.local_by_color[machine_id][color] if v in todo]
        for v in work:
            todo.discard(v)
        cursor = {"i": 0}
        outbox: Dict[int, FlatEntries] = {}
        pending: List = []
        remote_sched: Dict[int, List[Tuple[VertexId, float]]] = {}
        store = self.stores[machine_id]

        def flush(dst: int) -> None:
            batch = outbox.pop(dst, None)
            if batch:
                pending.append(self.push_batch(machine_id, dst, batch))

        owner = self.owner
        local_scheduled = self.scheduled[machine_id]
        collect_dirty = store.collect_dirty_flat
        num_work = len(work)
        flush_batch = self.flush_batch

        def worker() -> Generator:
            while True:
                i = cursor["i"]
                if i >= num_work:
                    return
                cursor["i"] += 1
                vertex = work[i]
                result = yield from self.execute_update(machine_id, vertex)
                for (u, prio) in result.scheduled:
                    target = owner[u]
                    if target == machine_id:
                        local_scheduled.add(u)
                    else:
                        remote_sched.setdefault(target, []).append((u, prio))
                # Asynchronous change propagation (Sec. 4.2.1): ship dirty
                # ghosts as they accumulate, overlapping compute.
                for dst, batch in collect_dirty().items():
                    held = outbox.setdefault(dst, FlatEntries())
                    held.extend(batch)
                    if len(held) >= flush_batch:
                        flush(dst)

        def cost_lane(cycles: float) -> Generator:
            """One core's share of the batch step's modeled cycles.

            Batch mode still charges the per-update cycle model, split
            round-robin over the same worker count the scalar path
            spawns, so the cores execute concurrently and simulated
            time matches the scalar interleaving.
            """
            yield from self.cluster.machine(machine_id).execute(cycles)

        def run_batch_step() -> None:
            """The batched data computation (after the cost barrier)."""
            csr = self.graph.compiled
            index_of = csr.index_of
            indices = np.fromiter(
                (index_of[v] for v in work), dtype=np.int64, count=len(work)
            )
            result = self._batch_kernel.step(
                self.graph,
                indices,
                store.vdata_flat,
                store.edata_flat,
                self.globals[machine_id].view(),
            )
            store.apply_kernel_result(result)
            self.updates_per_machine[machine_id] += len(work)
            vertex_ids = csr.vertex_ids
            for i in result.scheduled:
                u = vertex_ids[i]
                target = owner[u]
                if target == machine_id:
                    local_scheduled.add(u)
                else:
                    remote_sched.setdefault(target, []).append((u, 0.0))
            for dst, batch in collect_dirty().items():
                outbox.setdefault(dst, FlatEntries()).extend(batch)

        cores = self.cluster.machine(machine_id).num_cores
        batching = self._batch_kernel is not None and bool(work)
        if batching:
            cycles = [self.cost_model.cycles(self.graph, v) for v in work]
            lanes = min(cores, len(work))
            workers = [
                self.kernel.spawn(
                    cost_lane(sum(cycles[lane::lanes])),
                    name=f"batchstep-{color}.{lane}@{machine_id}",
                )
                for lane in range(lanes)
            ]
        else:
            workers = [
                self.kernel.spawn(worker(), name=f"worker{w}@{machine_id}")
                for w in range(min(cores, max(1, len(work))))
            ]
        yield workers
        if batching:
            run_batch_step()
        for dst in list(outbox):
            flush(dst)
        for dst, requests in remote_sched.items():
            pending.append(
                self.send_schedule_requests(
                    machine_id,
                    dst,
                    requests,
                    lambda reqs, dst=dst: self.scheduled[dst].update(
                        u for u, _p in reqs
                    ),
                )
            )
        if pending:
            # "...we must ensure that all modifications are communicated
            # before moving to the next color" — wait for every delivery.
            yield pending

    # ------------------------------------------------------------------
    # Synchronous snapshots at sweep boundaries (Sec. 4.3).
    # ------------------------------------------------------------------
    def _snapshot_due(self) -> bool:
        if self.snapshot_every_updates is None:
            return False
        return (
            self.total_updates - self._updates_at_last_snapshot
            >= self.snapshot_every_updates
        )

    def _sync_snapshot(self) -> Generator:
        start = self.kernel.now
        updates_at_start = self.total_updates
        total_bytes = 0.0
        writers = []
        for m in range(self.cluster.num_machines):
            payload = self.stores[m].checkpoint_payload()
            size = self.sizes.entries_bytes(self.graph.compiled, payload)
            total_bytes += size
            writers.append(
                self.kernel.spawn(
                    self.dfs.write(
                        m,
                        f"snapshot/{len(self.snapshots)}/machine-{m}",
                        size,
                        payload=payload,
                    ),
                    name=f"snapshot@{m}",
                )
            )
        yield writers
        self._updates_at_last_snapshot = self.total_updates
        self.snapshots.append(
            SnapshotRecord(
                mode="sync",
                start=start,
                end=self.kernel.now,
                bytes_written=total_bytes,
                updates_at_start=updates_at_start,
            )
        )
