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

Two mechanisms keep the communication cost near zero (the intra-node
story of Sec. 4.2.1, where ghost propagation is a memory write, not a
message):

* **Shared-memory data plane** (:mod:`repro.runtime.plane`). On
  typed-column graphs each worker's data columns live in a shared
  segment with a double-buffered dirty-entry ring; ghost exchange is a
  ring write on one side and a version-filtered slice application on
  the other, and the pipes carry only control messages — descriptors,
  scheduling indices, counts, sync partials. ``InprocTransport``
  emulates the plane with in-process arrays over the identical code
  path; untyped graphs (and ``REPRO_NO_SHM=1``) keep the pickled wire.
* **Color-merged rounds.** The coordinator maintains the *exact* global
  task set as a dense mask (it routes every scheduling request and
  workers report fresh local schedules as index arrays), so before each
  barrier it can merge the scheduled frontiers of consecutive colors
  whose members are mutually independent under the active consistency
  model — distance-2 for full consistency — into one round.
  Statically compatible class pairs (precomputed at deploy time over
  the compiled CSR endpoint arrays —
  :func:`~repro.core.coloring.merge_compatible_matrix`) skip the
  per-sweep frontier check. Because an update may *schedule* mid-round
  work that the sequential chromatic order would have executed between
  the merged colors, every color after a group's first executes
  **speculatively**: workers keep undo logs, and after the barrier the
  coordinator inspects the round's fresh schedules and commits the
  longest prefix of the group the oracle would have executed
  identically, rolling the rest back (the verdict rides the next
  round's inbox, so aborts cost no extra barrier). Bit-identity to the
  :class:`~repro.runtime.oracle.ColorSweepScheduler` oracle therefore
  holds **by construction**, for arbitrary update functions.

Execution per sweep costs ``merged_rounds + 1`` message rounds, where
``merged_rounds <= num_nonempty_colors`` — on high-color graphs with
sparse frontiers the per-color barrier collapses toward one round per
sweep.

Determinism: with a coloring proper for the consistency model, scopes
of same-color vertices never read each other's writes, so a color-step's
outcome is independent of intra-step ordering. Results are then
bit-identical across ``InprocTransport``, ``MpTransport`` (any worker
count), the simulated chromatic engine, and a
:class:`~repro.core.engine.SequentialEngine` driven by the
:class:`~repro.runtime.oracle.ColorSweepScheduler`.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.coloring import (
    Coloring,
    color_classes,
    coloring_for,
    frontiers_independent,
    merge_compatible_matrix,
    model_distance,
)
from repro.core.consistency import Consistency
from repro.core.graph import DataGraph, VertexId
from repro.core.sync import SyncOperation
from repro.core.update import normalize_schedule
from repro.errors import EngineError
from repro.obs.events import Stopwatch
from repro.runtime.core import (  # noqa: F401 — re-exported names
    RuntimeCore,
    RuntimeRunResult,
    baseline_journals,
    route_ghost_entries,
)
from repro.runtime.transport import Transport
from repro.runtime.worker import WorkerInit, empty_inbox

#: Ceiling on how many colors one merged round may span. Groups larger
#: than this see diminishing returns (one barrier already amortized) and
#: raise the cost of an abort.
_MAX_MERGE_GROUP = 8


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
    merge_rounds:
        When true (the default) consecutive mutually-independent
        scheduled frontiers execute in one merged round (speculative
        tail, commit/abort validated — see the module docstring).
        ``False`` pins one barrier per nonempty color.
    use_plane:
        When true (the default) typed-column graphs get the
        shared-memory data plane (or its in-process emulation);
        ``False`` — like ``REPRO_NO_SHM=1`` — pins the pickled wire.
    plane_ring_cap:
        Override for the dirty-ring capacity (entries per column per
        half); small values exercise the overflow-to-pipe contract.
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
        merge_rounds: bool = True,
        use_plane: bool = True,
        plane_ring_cap: Optional[int] = None,
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
            plane_ring_cap=plane_ring_cap,
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
        self.merge_rounds = merge_rounds
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
        self._color_of_idx = np.zeros(self._num_vertices, dtype=np.int64)
        for color, members in enumerate(self._class_idx):
            self._color_of_idx[members] = color
        # Deploy-time merge precompute: class pairs that can never touch
        # under the model skip the per-sweep frontier independence
        # check, and the cross-worker edge mask restricts the dynamic
        # check to edges whose endpoints execute on different workers
        # (same-worker merged colors run in color order with late
        # snapshots — literally the oracle's order — so only remote
        # adjacency can diverge; distance-1 models only).
        self._distance = model_distance(consistency)
        self._merge_static = (
            merge_compatible_matrix(graph, self.classes, consistency)
            if merge_rounds and self.num_colors > 1
            else None
        )
        self._cross_edge = (
            self._owner_idx[csr.edge_src_index]
            != self._owner_idx[csr.edge_dst_index]
        )
        #: Pending speculation verdict (count of committed parts of the
        #: last merged round), attached to every worker's next inbox.
        self._pending_spec: Optional[int] = None
        self.rounds_saved = 0

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
            merge_enabled = self.merge_rounds and self.num_colors > 1
            pos = 0
            while pos < self.num_colors:
                frontier = self._frontier(pos, mask)
                if frontier.size == 0:
                    # Nobody holds (or is being sent) work of this
                    # color: the step would be a global no-op, so it
                    # is elided. Undelivered inbox entries persist to
                    # the next executed round.
                    pos += 1
                    continue
                group = self._plan_group(pos, frontier, mask, merge_enabled)
                if self._published:
                    for inbox in self._inboxes:
                        inbox["globals"] = self._published
                    self._published = []  # globals ship once per sweep
                colors = [color for color, _frontier in group]
                replies = self._send_round("step", {"colors": colors})
                committed, aborted = self._process_replies(
                    replies, group, mask, self._inboxes
                )
                self._total_updates += committed
                if aborted:
                    # The oracle would have run freshly scheduled
                    # intervening work inside the span: resume the
                    # scan right after the group's first color, with
                    # the rolled-back frontiers still scheduled.
                    # (An abort costs no extra barrier — the
                    # rolled-back colors run in the rounds the
                    # unmerged schedule would have used anyway.)
                    pos = group[0][0] + 1
                else:
                    pos = group[-1][0] + 1
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
        With an empty task set this is free: no round is sent, so any
        residual routed entries stay valid for the next barrier (the
        ring's consumption window counts commands, not method calls).
        """
        self._converged = False
        self._run_loop()
        return True

    # ------------------------------------------------------------------
    # Snapshots and recovery (Sec. 4.3).
    # ------------------------------------------------------------------
    def _snapshot_meta(self, mode: str = "sync") -> Dict[str, Any]:
        """Coordinator progress record stored beside the journals."""
        return {
            "engine": "chromatic",
            "mode": mode,
            "sweeps": self._sweeps,
            "total_updates": self._total_updates,
            "updates_per_worker": dict(self.updates_per_worker),
            "globals": self.globals.snapshot(),
            "rounds_saved": self.rounds_saved,
            "mask": np.nonzero(self._mask)[0],
        }

    def _take_snapshot(self) -> None:
        """Synchronous snapshot at a sweep barrier.

        The checkpoint round delivers each worker's residual inbox
        (including any pending speculation verdict, so journals are
        post-verdict) and replies with its journal; scheduling state is
        not journaled per worker — the coordinator's global mask is
        exact and rides the meta record.
        """
        with Stopwatch(self._rec, "snap") as sw:
            snapshot_id = self._ckpt.next_id()
            journals = self._send_round("checkpoint", {})
            self._ckpt.write(snapshot_id, journals, self._snapshot_meta())
        self._cadence.mark(self._sweeps, sw.end, cost=sw.seconds)

    def _restore_progress(
        self, meta: Dict[str, Any], journals: List[Dict[str, Any]]
    ) -> List[np.ndarray]:
        """Progress counters and the task mask reset from the meta
        record; each worker re-seeds its share of the snapshot's mask."""
        mask = np.zeros(self._num_vertices, dtype=bool)
        mask_idx = np.asarray(meta["mask"], dtype=np.int64)
        if mask_idx.size:
            mask[mask_idx] = True
        self._mask = mask
        self._sweeps = meta["sweeps"]
        self._total_updates = meta["total_updates"]
        self.updates_per_worker = dict(meta["updates_per_worker"])
        self.rounds_saved = meta.get("rounds_saved", 0)
        self._pending_spec = None
        self._published = []
        mask_owner = self._owner_idx[mask_idx]
        return [
            mask_idx[mask_owner == w].astype(np.int32)
            for w in range(self.num_workers)
        ]

    # ------------------------------------------------------------------
    # Rounds.
    # ------------------------------------------------------------------
    def _attach_pending(self, inboxes: List[Dict[str, Any]]) -> None:
        """The speculation verdict rides the next round of any kind
        (it is >= 1, so the empty-field strip keeps it)."""
        if self._pending_spec is not None:
            for inbox in inboxes:
                inbox["spec"] = self._pending_spec
            self._pending_spec = None

    def _frontier(self, color: int, mask: np.ndarray) -> np.ndarray:
        members = self._class_idx[color]
        return members[mask[members]]

    def _plan_group(
        self,
        pos: int,
        frontier: np.ndarray,
        mask: np.ndarray,
        merge_enabled: bool,
    ) -> List[Tuple[int, np.ndarray]]:
        """Greedily extend one round across merge-compatible colors.

        A later color joins the group when its scheduled frontier is
        :func:`~repro.core.coloring.frontiers_independent` of the
        group's union under the model distance (statically compatible
        class pairs skip the check). The scan stops at the first
        incompatible nonempty color — it must get its own barrier.
        """
        group = [(pos, frontier)]
        if not merge_enabled:
            return group
        csr = self._csr
        static = self._merge_static
        distance = self._distance
        cross = self._cross_edge if distance == 1 else None
        union = np.zeros(self._num_vertices, dtype=bool)
        union[frontier] = True
        color = pos + 1
        while color < self.num_colors and len(group) < _MAX_MERGE_GROUP:
            nxt = self._frontier(color, mask)
            if nxt.size == 0:
                color += 1
                continue
            if all(static[c, color] for c, _f in group):
                ok = True
            else:
                fmask = np.zeros(self._num_vertices, dtype=bool)
                fmask[nxt] = True
                ok = frontiers_independent(
                    csr, union, fmask, distance, edge_mask=cross
                )
            if not ok:
                break
            group.append((color, nxt))
            union[nxt] = True
            color += 1
        return group

    def _process_replies(
        self,
        replies: List[Dict],
        group: List[Tuple[int, np.ndarray]],
        mask: np.ndarray,
        inboxes: List[Dict],
    ) -> Tuple[int, bool]:
        """Validate speculation, commit the safe prefix, route exchange.

        Returns ``(committed_updates, aborted)``. Acceptance follows the
        oracle's order exactly: a fresh schedule (not in the pre-round
        task set) with a color inside the group's remaining span would,
        in chromatic order, have executed before — or joined the
        snapshot of — a later merged color, so the first part the oracle
        would have diverged at (and everything after it) is rolled back;
        the verdict (count of committed parts) rides the next round's
        inboxes. Exception, under distance-1 models: a *local* fresh
        schedule targeting a later merged color is executed by its own
        worker at exactly that part (late snapshots, color order — the
        oracle's interleaving), so it aborts nothing; instead the
        post-round conflict scan checks that no cross-worker edge joins
        vertices executed in different parts (each side would have
        missed the other's intra-round writes), aborting from the later
        conflicting part on.

        Routing of a committed part: dirty ring descriptors and pickled
        overflow batches to their destination inboxes, remote schedule
        requests to their owners, fresh schedules into the global mask
        (after clearing the part's executed frontier — including fresh
        vertices a committed earlier part locally scheduled into it).
        Within one round at most one worker writes any given slot (the
        merged frontiers are mutually independent where it matters), so
        merge order cannot change outcomes.
        """
        k = len(group)
        colors = [color for color, _f in group]
        committed = k
        #: part index -> fresh locally-scheduled vertices that executed
        #: there (cleared from the mask when the part commits).
        exec_at: Dict[int, List[np.ndarray]] = {}
        if k > 1:
            colors_arr = np.asarray(colors, dtype=np.int64)
            color_of = self._color_of_idx
            dk = colors[-1]
            cross_mode = self._distance == 1
            for i in range(k):
                di = colors[i]
                for reply in replies:
                    part = reply[1][i]
                    _n, _dirty, _plane, local, remote = part
                    arrays = [] if local is None else [(local, True)]
                    if remote is not None:
                        arrays.extend(
                            (arr, False) for arr in remote.values()
                        )
                    for arr, is_local in arrays:
                        arr = np.asarray(arr, dtype=np.int64)
                        fresh = arr[~mask[arr]]
                        if not fresh.size:
                            continue
                        cols = color_of[fresh]
                        window = (cols > di) & (cols <= dk)
                        if not window.any():
                            continue
                        if is_local and cross_mode:
                            # Locals into later merged colors execute
                            # at that part on their own worker — record
                            # for mask clearing, exempt from abort.
                            in_group = window & np.isin(cols, colors_arr)
                            for c in np.unique(cols[in_group]):
                                m = int(np.searchsorted(colors_arr, c))
                                exec_at.setdefault(m, []).append(
                                    fresh[in_group & (cols == c)]
                                )
                            window = window & ~in_group
                            if not window.any():
                                continue
                        first = int(
                            np.searchsorted(
                                colors_arr, cols[window], side="left"
                            ).min()
                        )
                        committed = min(committed, max(first, 1))
            if cross_mode and committed > 1:
                committed = min(
                    committed, self._conflict_point(group, exec_at)
                )
        updates = 0
        for i in range(committed):
            _color, frontier = group[i]
            mask[frontier] = False
            for executed in exec_at.pop(i, ()):
                mask[executed] = False
            for w, reply in enumerate(replies):
                half, parts = reply
                n, dirty, plane, local, remote = parts[i]
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
        if k > 1:
            self._pending_spec = committed
            # Every committed part beyond the first is a barrier the
            # unmerged schedule would have paid — counted even when the
            # tail aborted (a partial commit still elided barriers).
            self.rounds_saved += committed - 1
        return updates, committed < k

    def _conflict_point(
        self,
        group: List[Tuple[int, np.ndarray]],
        exec_at: Dict[int, List[np.ndarray]],
    ) -> int:
        """First part invalidated by a cross-worker execution conflict.

        Builds the round's actual per-vertex execution map — planned
        frontiers plus fresh locals executed at later parts — and scans
        the endpoint arrays once: an edge whose ends executed in
        *different* parts on *different* workers means the later end
        missed the earlier end's intra-round writes (or the earlier end
        missed serving the later one), which the oracle would have
        delivered; the later part (and everything after) must roll
        back. Planned frontiers were vetted at planning time, so real
        conflicts always involve a fresh locally-scheduled vertex.
        """
        exec_part = np.full(self._num_vertices, -1, dtype=np.int64)
        for i, (_color, frontier) in enumerate(group):
            exec_part[frontier] = i
        for part, arrays in exec_at.items():
            for arr in arrays:
                exec_part[arr] = part
        csr = self._csr
        src_part = exec_part[csr.edge_src_index]
        dst_part = exec_part[csr.edge_dst_index]
        conflicts = (
            (src_part >= 0)
            & (dst_part >= 0)
            & (src_part != dst_part)
            & self._cross_edge
        )
        if not conflicts.any():
            return len(group)
        return int(
            np.maximum(src_part[conflicts], dst_part[conflicts]).min()
        )

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
