"""The runtime chromatic engine: color-steps on real OS processes.

This is the execution backend the simulated
:class:`~repro.distributed.chromatic.ChromaticEngine` models, made real:
the same color-step schedule (all scheduled vertices of one color run in
parallel, full communication barrier between colors — Sec. 4.2.1), the
same per-shard storage (:class:`~repro.runtime.shard.CSRShardStore` with
version-filtered ghosts: the simulated machines hold the same store),
the same partitioning pipeline (:func:`~repro.distributed.deploy.plan_ownership`: atoms,
atom-index placement, vertex ownership — deterministic, so placement is
reproducible across the simulator and this backend), and the same sync
aggregation between sweeps (Eq. 2: per-worker partials, master combine,
broadcast). What changes is only *where* updates run: on worker OS
processes via a :class:`~repro.runtime.transport.Transport`, instead of
simulated machines on a discrete-event kernel.

Communication cost stays near zero (the intra-node story of Sec. 4.2.1,
where ghost propagation is a memory write, not a message) through the
**shared-memory data plane** (:mod:`repro.runtime.plane`). On
typed-column graphs each worker's data columns live in a shared segment
with a double-buffered dirty-entry ring; ghost exchange is a ring write
on one side and a version-filtered slice application on the other, and
the pipes carry only control messages — descriptors, scheduling
indices, counts, sync partials. ``InprocTransport`` emulates the plane
with in-process arrays over the identical code path; untyped graphs
(and ``REPRO_NO_SHM=1``) keep the pickled wire.

The coordinator keeps the *exact* global task set as a dense mask (it
routes every scheduling request, and workers report fresh local
schedules as index arrays), so a color nobody holds work of is elided
without a round. Every other color is **one barrier**: a sweep costs
one round per nonempty color, plus the sync preamble round when syncs
are configured, and a run ends with one ``collect`` round.

Determinism: with a coloring proper for the consistency model, scopes
of same-color vertices never read each other's writes, so a color-step's
outcome is independent of intra-step ordering, and since each color is
its own barrier, every step sees exactly the writes the sequential
color order would have made before it. Results are then
bit-identical across ``InprocTransport``, ``MpTransport`` (any worker
count), the simulated chromatic engine, and a
:class:`~repro.core.engine.SequentialEngine` driven by the
:class:`~repro.runtime.oracle.ColorSweepScheduler`.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.coloring import Coloring, color_classes, coloring_for
from repro.core.consistency import Consistency
from repro.core.graph import DataGraph, VertexId
from repro.core.sync import SyncOperation
from repro.core.update import normalize_schedule
from repro.errors import EngineError
from repro.runtime.core import (  # noqa: F401 — re-exported names
    RuntimeCore,
    RuntimeRunResult,
    baseline_journals,
    route_ghost_entries,
)
from repro.runtime.chromatic_worker import WorkerInit
from repro.runtime.transport import Transport
from repro.runtime.worker_base import empty_inbox


class RuntimeChromaticEngine(RuntimeCore):
    """Chromatic color-step execution on real worker processes.

    Parameters
    ----------
    graph:
        Finalized data graph. After :meth:`run`, its data holds the
        final state (owned shards are collected and written back), so
        downstream analysis code works unchanged.
    program:
        A picklable update function, or an
        :class:`~repro.runtime.program.UpdateProgram` wrapping a factory
        call (required for closure-building factories like
        ``make_pagerank_update``).
    num_workers / transport:
        Worker count and backend: ``"mp"`` (real processes, the
        default), ``"inproc"`` (deterministic single-process), or an
        unlaunched :class:`~repro.runtime.transport.Transport`.
    consistency / coloring:
        As for the simulated chromatic engine: the coloring must be
        valid for the model (validated; defaults to the model's
        heuristic from :func:`~repro.core.coloring.coloring_for`).
    partitioner / assignment / atoms_per_worker:
        Over-partitioning knobs passed to
        :func:`~repro.distributed.deploy.plan_ownership`. The default
        random hash cut is the paper's communication worst case and is
        deterministic across backends.
    syncs / initial_globals:
        Sync operations (evaluated distributed between sweeps) and
        seeded global values.
    max_sweeps / max_updates:
        Stop conditions checked at sweep boundaries, exactly like the
        simulated engine.
    reply_timeout:
        Seconds an ``"mp"`` round waits on a silent-but-alive worker
        before declaring it dead (default 120; raise it for color-steps
        that legitimately compute longer). Ignored by ``"inproc"`` and
        by pre-built transport instances.
    use_kernel:
        When true (the default) workers dispatch whole color-steps to
        the program's batch kernel (:mod:`repro.core.kernels`) if it
        has one and the graph carries compatible typed data columns —
        bit-identical by the kernel contract. ``False`` pins the scalar
        interpreter (the oracle the kernels are tested against).
    use_plane:
        When true (the default) typed-column graphs get the
        shared-memory data plane (or its in-process emulation);
        ``False`` — like ``REPRO_NO_SHM=1`` — pins the pickled wire.
    snapshot_every / snapshot_dir:
        Fault tolerance (Sec. 4.3). ``snapshot_every=N`` journals a
        consistent snapshot every N sweeps (``"auto"``: wall-clock
        cadence from Young's interval, Eq. 3, fed with measured
        snapshot cost); ``None`` (the default) disables snapshots *and*
        recovery. ``snapshot_dir`` roots the on-disk journals; ``None``
        uses a temporary directory removed when the run ends.
    max_recoveries / recovery_backoff:
        With snapshots on, a :class:`~repro.runtime.transport.
        WorkerFailure` triggers respawn + rollback to the latest
        complete snapshot instead of aborting the run — at most
        ``max_recoveries`` times, sleeping ``recovery_backoff *
        attempt`` seconds before each (a restarted machine is rarely
        instantly healthy).
    """

    def __init__(
        self,
        graph: DataGraph,
        program: Any,
        num_workers: int = 2,
        transport: Union[str, Transport] = "mp",
        consistency: Consistency = Consistency.EDGE,
        coloring: Optional[Coloring] = None,
        partitioner: Any = "hash",
        assignment: Optional[Dict[VertexId, int]] = None,
        atoms_per_worker: int = 4,
        syncs: Iterable[SyncOperation] = (),
        initial_globals: Optional[Dict[str, Any]] = None,
        max_sweeps: Optional[int] = None,
        max_updates: Optional[int] = None,
        reply_timeout: Optional[float] = None,
        use_kernel: bool = True,
        use_plane: bool = True,
        snapshot_every: Optional[Union[int, str]] = None,
        snapshot_dir: Optional[str] = None,
        max_recoveries: int = 2,
        recovery_backoff: float = 0.05,
        telemetry: bool = False,
    ) -> None:
        super().__init__(
            graph,
            program,
            num_workers=num_workers,
            transport=transport,
            consistency=consistency,
            partitioner=partitioner,
            assignment=assignment,
            atoms_per_worker=atoms_per_worker,
            initial_globals=initial_globals,
            max_updates=max_updates,
            reply_timeout=reply_timeout,
            use_plane=use_plane,
            snapshot_every=snapshot_every,
            snapshot_dir=snapshot_dir,
            max_recoveries=max_recoveries,
            recovery_backoff=recovery_backoff,
            telemetry=telemetry,
        )
        self.coloring = coloring_for(graph, consistency, coloring)
        self.classes = color_classes(self.coloring)
        self.num_colors = len(self.classes)
        self.syncs = tuple(syncs)
        self.max_sweeps = max_sweeps
        self.use_kernel = use_kernel
        # Color membership in the compiled (dense) numbering.
        csr = self._csr
        self._num_vertices = len(csr.vertex_ids)
        index_of = csr.index_of
        self._class_idx = [
            np.fromiter(
                (index_of[v] for v in members),
                dtype=np.int64,
                count=len(members),
            )
            for members in self.classes
        ]

    # ------------------------------------------------------------------
    # Scheduling policy: the exact global task mask, swept by color.
    # ------------------------------------------------------------------
    engine_name = "chromatic"
    _empty_inbox = staticmethod(empty_inbox)

    def _clock(self) -> int:
        return self._sweeps

    def _reset_progress(self, initial: Iterable) -> None:
        #: The exact global task set T in dense index space — the
        #: coordinator routes every scheduling request and absorbs every
        #: worker's fresh-schedule report, so this mask always equals
        #: the union of worker task sets plus in-flight requests.
        self._mask = np.zeros(self._num_vertices, dtype=bool)
        self._schedule_fresh(initial)
        self._sweeps = 0
        self._published: List[Tuple[str, Any]] = []

    def _schedule_fresh(self, schedule: Iterable) -> int:
        """Add not-yet-scheduled vertices to the task mask and route them
        to their owners as dense int32 index arrays; returns how many."""
        index_of = self._csr.index_of
        owner_idx = self._owner_idx
        mask = self._mask
        by_worker: List[List[int]] = [[] for _ in range(self.num_workers)]
        count = 0
        for vertex, _prio in normalize_schedule(schedule, graph=self.graph):
            idx = index_of[vertex]
            if not mask[idx]:
                mask[idx] = True
                by_worker[owner_idx[idx]].append(idx)
                count += 1
        for w, indices in enumerate(by_worker):
            if indices:
                self._inboxes[w]["sched"].append(
                    np.asarray(indices, dtype=np.int32)
                )
        return count

    def _run_loop(self) -> None:
        """Sweep until convergence or a stop condition (resumable)."""
        mask = self._mask
        while True:
            if self.syncs:
                # Sweep preamble: distributed sync evaluation. The
                # round doubles as the master's delivery flush.
                self._published = self._combine_syncs(
                    self._send_round("sync_count", {})
                )
            if not mask.any():
                self._converged = True
                break
            if (
                self.max_sweeps is not None
                and self._sweeps >= self.max_sweeps
            ):
                break
            if (
                self.max_updates is not None
                and self._total_updates >= self.max_updates
            ):
                break
            if self._cadence is not None and self._cadence.due(
                self._sweeps, time.perf_counter()
            ):
                self._take_snapshot()
            for color in range(self.num_colors):
                frontier = self._frontier(color, mask)
                if frontier.size == 0:
                    # Nobody holds (or is being sent) work of this
                    # color: the step would be a global no-op, so it
                    # is elided. Undelivered inbox entries persist to
                    # the next executed round.
                    continue
                if self._published:
                    for inbox in self._inboxes:
                        inbox["globals"] = self._published
                    self._published = []  # globals ship once per sweep
                replies = self._send_round("step", {"color": color})
                self._total_updates += self._process_replies(
                    replies, frontier
                )
            self._sweeps += 1

    # ------------------------------------------------------------------
    # Serving mode (repro.serve): the chromatic fallback behind
    # GraphService when the locking engine can't be used.
    # ------------------------------------------------------------------
    def _check_servable(self) -> None:
        if self.max_sweeps is not None or self.max_updates is not None:
            raise EngineError(
                "serving mode pumps to quiescence between bursts; "
                "max_sweeps/max_updates stop conditions would park the "
                "service short of convergence forever"
            )

    def _absorb_serve_replies(
        self, replies: List[Any], writes_by: List[List]
    ) -> None:
        for w, (half, body) in enumerate(replies):
            route_ghost_entries(
                self._inboxes, w, half, body.get("plane"), body.get("data")
            )

    def service_schedule(self, schedule: Iterable) -> int:
        """Inject dynamic updates into the global task set.

        Chromatic variant: deduplicates against the coordinator's exact
        task mask and routes dense int32 index arrays to the owners,
        exactly like a run's initial schedule (priorities are a locking
        engine concept). Returns the number of *fresh* tasks injected.
        """
        return self._schedule_fresh(schedule)

    def service_pump_round(self) -> bool:
        """Run sweeps until the task set drains; always ends quiescent.

        The chromatic engine has no notion of a single background round
        — its unit of progress is the color-step sweep — so one pump
        call runs :meth:`_run_loop` to convergence and returns ``True``.
        With an empty task set this is free: no round is sent — not even
        the sync preamble — so any residual routed entries stay valid for
        the next barrier (the ring's consumption window counts commands,
        not method calls).
        """
        if not self._mask.any():
            return True
        self._converged = False
        self._run_loop()
        return True

    # ------------------------------------------------------------------
    # Snapshots and recovery (Sec. 4.3).
    # ------------------------------------------------------------------
    def _snapshot_meta(self, mode: str = "sync") -> Dict[str, Any]:
        """Coordinator progress record stored beside the journals.

        Snapshots are taken at sweep barriers; scheduling state is not
        journaled per worker — the coordinator's global mask is exact
        and rides here."""
        return {
            "engine": "chromatic",
            "mode": mode,
            "sweeps": self._sweeps,
            "total_updates": self._total_updates,
            "updates_per_worker": dict(self.updates_per_worker),
            "globals": self.globals.snapshot(),
            "mask": np.nonzero(self._mask)[0],
        }

    def _restore_progress(
        self, meta: Dict[str, Any], journals: List[Dict[str, Any]]
    ) -> List[np.ndarray]:
        """Progress counters and the task mask reset from the meta
        record; each worker re-seeds its share of the snapshot's mask.
        Other meta keys are ignored, so a directory whose meta records
        extra progress fields still resumes."""
        mask = np.zeros(self._num_vertices, dtype=bool)
        mask_idx = np.asarray(meta["mask"], dtype=np.int64)
        if mask_idx.size:
            mask[mask_idx] = True
        self._mask = mask
        self._sweeps = meta["sweeps"]
        self._total_updates = meta["total_updates"]
        self.updates_per_worker = dict(meta["updates_per_worker"])
        self._published = []
        mask_owner = self._owner_idx[mask_idx]
        return [
            mask_idx[mask_owner == w].astype(np.int32)
            for w in range(self.num_workers)
        ]

    # ------------------------------------------------------------------
    # Rounds.
    # ------------------------------------------------------------------
    def _frontier(self, color: int, mask: np.ndarray) -> np.ndarray:
        members = self._class_idx[color]
        return members[mask[members]]

    def _process_replies(
        self, replies: List[Tuple[int, Tuple]], frontier: np.ndarray
    ) -> int:
        """Commit one color-step and route its exchange; returns the
        step's update count.

        The executed frontier leaves the mask first, then each reply's
        fresh schedules join it — so a vertex that rescheduled itself
        stays scheduled for the color's next visit. Remote schedule
        requests go to their owners' inboxes, dirty ring descriptors and
        pickled overflow batches to their destinations. A proper
        coloring means at most one worker writes any given slot in one
        step, so reply order cannot change outcomes.
        """
        mask = self._mask
        inboxes = self._inboxes
        mask[frontier] = False
        updates = 0
        for w, (half, part) in enumerate(replies):
            n, dirty, plane, local, remote = part
            if local is not None:
                mask[local] = True
            if remote is not None:
                for dst, arr in remote.items():
                    mask[arr] = True
                    inboxes[dst]["sched"].append(arr)
            route_ghost_entries(inboxes, w, half, plane, dirty)
            if n:
                updates += n
                self.updates_per_worker[w] += n
        return updates

    # ------------------------------------------------------------------
    # Launch plumbing.
    # ------------------------------------------------------------------
    def _worker_init(self, worker_id: int) -> WorkerInit:
        return WorkerInit(
            worker_id=worker_id,
            num_workers=self.num_workers,
            graph=self.graph,
            owner=self.owner,
            classes=self.classes,
            consistency=self.consistency,
            program=self.program,
            syncs=self.syncs,
            initial_globals=self._initial_globals,
            use_kernel=self.use_kernel,
            plane=self._plane.spec if self._plane is not None else None,
            telemetry=self.telemetry,
        )

    def _combine_syncs(self, replies: List[Dict]) -> List[Tuple[str, Any]]:
        """Master side of Eq. 2: combine partials, publish, broadcast."""
        published = []
        for i, sync in enumerate(self.syncs):
            value = sync.combine_partials(
                reply["partials"][i] for reply in replies
            )
            self.globals.publish(sync.key, value)
            published.append((sync.key, value))
        return published
