"""The chromatic engine's worker policy (Sec. 4.2.1).

A :class:`~repro.runtime.worker_base.WorkerBase` whose task set is a
boolean mask in dense index space and whose unit of work is one
color-step. It adds two commands to the shared ones:

* ``("step", {color, inbox})`` — apply the inbox (ring descriptors,
  pickled ghost batches, new globals, remote scheduling requests), then
  execute the worker's share of one color-step and reply with its
  update count, dirty entries and fresh schedules;
* ``("sync_count", {inbox})`` — apply the inbox, evaluate each sync's
  partial over owned vertices (Eq. 2), reply with the partials.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.graph import VertexId
from repro.core.kernels import independent_classes, kernel_of
from repro.core.sync import SyncOperation
from repro.core.update import normalize_schedule
from repro.runtime.worker_base import Inbox, WorkerBase, WorkerInitBase


@dataclass(kw_only=True)
class WorkerInit(WorkerInitBase):
    """Launch payload for the chromatic engine's workers.

    ``classes`` is the *global* color-class list (fixed order); each
    worker filters it down to its owned vertices, reproducing exactly
    the ``local_by_color`` ordering of the simulated
    :class:`~repro.distributed.chromatic.ChromaticEngine`.
    """

    classes: List[List[VertexId]]
    syncs: Tuple[SyncOperation, ...] = ()
    #: Dispatch color-steps to the program's batch kernel when it has
    #: one and the graph's typed columns are compatible (the engine's
    #: ``use_kernel`` knob, shipped so every worker decides identically).
    use_kernel: bool = True


class RuntimeWorker(WorkerBase):
    """Worker of the chromatic engine: color-steps over a task mask."""

    def __init__(self, init: WorkerInit) -> None:
        super().__init__(init)
        self.syncs = tuple(init.syncs)
        # The local task set T_w is a boolean mask in dense index space,
        # and this worker's share of each color class (global class
        # order) an index array, so scheduling and counts vectorize in
        # both execution modes.
        csr = init.graph.compiled
        index_of = self._index_of
        self._sched_mask = np.zeros(len(csr.vertex_ids), dtype=bool)
        self._owner_idx = csr.dense_map(init.owner)
        me = self.worker_id
        self._by_color_idx = [
            np.array(
                [index_of[v] for v in members if init.owner[v] == me],
                dtype=np.int64,
            )
            for members in init.classes
        ]
        # Batch-kernel mode: when the program advertises a compatible
        # kernel, color-steps execute as numpy passes over the shard's
        # typed columns. The scalar interpreter remains the fallback —
        # and the oracle the kernel is property-tested against.
        kernel = kernel_of(self.update_fn) if init.use_kernel else None
        if (
            kernel is not None
            and kernel.compatible(init.graph)
            and independent_classes(init.graph, init.classes)
        ):
            kernel.bind(init.graph)
            self.kernel = kernel
        else:
            self.kernel = None

    def _handle(self, tag: str, payload: Mapping[str, Any]) -> Any:
        if tag == "step":
            return self._step(payload["color"], payload.get("inbox"))
        if tag == "sync_count":
            return self._sync_count(payload.get("inbox"))
        return super()._handle(tag, payload)

    # ------------------------------------------------------------------
    # The task mask.
    # ------------------------------------------------------------------
    def _schedule(self, indices: np.ndarray) -> np.ndarray:
        """Merge dense indices into the task mask (set semantics);
        returns the freshly added indices.

        No dedup pass: kernels already emit unique schedule sets, the
        scalar path dedups its requests, and a duplicate "fresh" index
        is harmless everywhere it flows (mask writes are idempotent)."""
        mask = self._sched_mask
        fresh = indices[~mask[indices]]
        if fresh.size:
            mask[fresh] = True
        return fresh

    def _reset_tasks(self, sched: Any) -> None:
        """The snapshot's task set: dense indices of this worker's share
        of the coordinator's mask (which the checkpoint meta journals —
        so a chromatic checkpoint journals no task set of its own)."""
        self._sched_mask[:] = False
        self._sched_mask[np.asarray(sched, dtype=np.int64)] = True

    # ------------------------------------------------------------------
    # Color-steps.
    # ------------------------------------------------------------------
    def _step(self, color: int, inbox: Optional[Inbox]) -> Tuple:
        """One color-step: apply the inbox, then run this worker's
        scheduled members of ``color``.

        The work list is fixed when the step starts; members of the
        color scheduled during the step wait for the color's next visit,
        matching the simulated chromatic engine, and the result is
        independent of intra-color execution order — the property the
        coloring guarantees (Sec. 4.2.1). The reply is ``(ring_half,
        part)`` where ``part`` is ``(updates, pipe_batches, ring_meta,
        fresh_local_idx, remote_idx_by_dst)`` with empty fields as
        ``None``.
        """
        self._apply_inbox(inbox)
        # This worker's scheduled members of the color, in member order,
        # cleared from the task set before they execute (so a
        # self-reschedule survives to the color's next visit).
        members = self._by_color_idx[color]
        mask = self._sched_mask
        work = members[mask[members]]
        mask[work] = False
        if not work.size:
            # This worker holds none of the frontier: no writes, no
            # dirty state, nothing to collect.
            return self._reply((0, None, None, None, None))
        t0 = perf_counter() if self._obs is not None else 0.0
        if self.kernel is not None:
            requested, span = self._run_kernel(work), "kernel"
        else:
            requested, span = self._run_scalar(work), "compute"
        return self._reply(self._finish_step(work, requested, span, t0))

    def _finish_step(
        self, work: np.ndarray, requested: np.ndarray, span: str, t0: float
    ) -> Tuple:
        """The tail both step kinds share: count the executed ``work``,
        route its scheduling ``requested`` (dense indices) by owner —
        local ones join the task set and the fresh ones are reported
        for the coordinator's task mask, remote ones become int32
        batches per owner — then drain dirty state. Returns the step's
        reply part."""
        self._counts[work] += 1
        sched_out: Dict[int, np.ndarray] = {}
        local_new = None
        if requested.size:
            owners = self._owner_idx[requested]
            me = self.worker_id
            local = requested[owners == me]
            if local.size:
                fresh = self._schedule(local).astype(np.int32)
                local_new = fresh if fresh.size else None
            remote = requested[owners != me]
            if remote.size:
                remote_owners = owners[owners != me]
                for dst in np.flatnonzero(np.bincount(remote_owners)):
                    sched_out[int(dst)] = (
                        remote[remote_owners == dst].astype(np.int32)
                    )
        rec = self._obs
        if rec is not None:
            t1 = perf_counter()
            rec.span(span, t0, t1, int(work.size))
        meta, overflow = self._collect_dirty_part()
        if rec is not None:
            rec.span("ser", t1, perf_counter())
        return (
            int(work.size),
            overflow or None,
            meta or None,
            local_new,
            sched_out or None,
        )

    def _run_scalar(self, work: np.ndarray) -> np.ndarray:
        """Interpret the program over ``work``; returns the first
        scheduling request of each vertex, in request order."""
        vertex_ids = self._vertex_ids
        index_of = self._index_of
        graph = self.graph
        update_fn = self.update_fn
        scope = self._scope
        rebind = scope.rebind
        drain = scope.drain_scheduled
        requested: List[int] = []
        for i in work.tolist():
            rebind(vertex_ids[i])
            returned = update_fn(scope)
            pairs = drain()
            if returned is not None:
                pairs.extend(normalize_schedule(returned, graph=graph))
            requested.extend(index_of[u] for (u, _prio) in pairs)
        return np.array(list(dict.fromkeys(requested)), dtype=np.int64)

    def _run_kernel(self, work: np.ndarray) -> np.ndarray:
        """One numpy pass of the batch kernel over ``work``; returns its
        schedule set."""
        store = self.store
        result = self.kernel.step(
            self.graph,
            work,
            store.vdata_flat,
            store.edata_flat,
            self.globals.view(),
        )
        store.apply_kernel_result(result)
        return result.scheduled

    # ------------------------------------------------------------------
    def _sync_count(self, inbox: Optional[Inbox]) -> Dict[str, Any]:
        self._apply_inbox(inbox)
        partials = [
            sync.partial(self.graph, self.store.owned_vertices, store=self.store)
            for sync in self.syncs
        ]
        return {"partials": partials}
