"""Plumbing shared by the distributed engines (Sec. 4.2).

Both engines — chromatic and locking — need the same machinery: real
update-function execution charged in modeled cycles, version-filtered
ghost pushes batched per destination, distributed sync evaluation, a
progress time series (Fig. 4 plots "vertices updated vs time"), and the
EC2 cost roll-up. It lives here so the engines contain only their
scheduling logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Generator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.consistency import Consistency
from repro.core.graph import DataGraph, VertexId
from repro.core.scope import Scope
from repro.core.sync import GlobalValues, SyncOperation
from repro.core.update import UpdateFunction, UpdateResult, run_update
from repro.distributed.models import (
    SCHEDULE_REQUEST_BYTES,
    DataSizeModel,
    UpdateCostModel,
)
from repro.errors import EngineError
from repro.sim.cluster import Cluster
from repro.sim.kernel import Future

if TYPE_CHECKING:
    from repro.runtime.shard import CSRShardStore

#: Cycles to evaluate Map(S_v) for one vertex during a sync.
SYNC_CYCLES_PER_VERTEX = 200.0
#: Wire size of a published global value.
GLOBAL_VALUE_BYTES = 64.0
#: Header bytes on a batched data push.
BATCH_HEADER_BYTES = 32.0


@dataclass
class SnapshotRecord:
    """One completed snapshot: timing, bytes, and mode."""

    mode: str
    start: float
    end: float
    bytes_written: float
    updates_at_start: int


@dataclass
class DistributedRunResult:
    """Outcome of a distributed engine run.

    ``runtime`` is simulated seconds from run start to termination
    (including ingress only if the caller timed it); ``progress`` is the
    sampled ``(time, cumulative_updates)`` series used by Fig. 4.
    """

    runtime: float
    num_updates: int
    updates_per_machine: Dict[int, int]
    converged: bool
    sweeps: int = 0
    globals: Dict[str, Any] = field(default_factory=dict)
    bytes_sent_per_machine: Dict[int, float] = field(default_factory=dict)
    mean_mbps_per_machine: float = 0.0
    cost_dollars: float = 0.0
    progress: List[Tuple[float, int]] = field(default_factory=list)
    snapshots: List[SnapshotRecord] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)


class DistributedEngineBase:
    """State and helpers common to both distributed engines."""

    def __init__(
        self,
        cluster: Cluster,
        graph: DataGraph,
        update_fn: UpdateFunction,
        stores: Mapping[int, "CSRShardStore"],
        owner: Mapping[VertexId, int],
        cost_model: UpdateCostModel,
        sizes: DataSizeModel,
        consistency: Consistency = Consistency.EDGE,
        syncs: Sequence[SyncOperation] = (),
        initial_globals: Optional[Mapping[str, Any]] = None,
        progress_interval: Optional[float] = None,
        max_updates: Optional[int] = None,
    ) -> None:
        graph.require_finalized()
        if set(stores) != set(range(cluster.num_machines)):
            raise EngineError(
                "stores must cover every machine of the cluster exactly"
            )
        self.cluster = cluster
        self.kernel = cluster.kernel
        self.graph = graph
        self.update_fn = update_fn
        self.stores = dict(stores)
        self.owner = owner
        self.cost_model = cost_model
        self.sizes = sizes
        self.consistency = consistency
        self.syncs = tuple(syncs)
        self.max_updates = max_updates
        self.globals: Dict[int, GlobalValues] = {
            m: GlobalValues(initial_globals)
            for m in range(cluster.num_machines)
        }
        self.updates_per_machine: Dict[int, int] = {
            m: 0 for m in range(cluster.num_machines)
        }
        self.progress_interval = progress_interval
        self.progress: List[Tuple[float, int]] = []
        self.snapshots: List[SnapshotRecord] = []
        self._running = False
        # One pooled scope per machine, rebound per update. Safe because
        # the simulated kernel never interleaves inside the synchronous
        # run_update call, and scheduling requests are drained before the
        # next rebind.
        self._scope_pool: Dict[int, Scope] = {}

    # ------------------------------------------------------------------
    # Update execution.
    # ------------------------------------------------------------------
    @property
    def total_updates(self) -> int:
        """Updates executed so far, across all machines."""
        return sum(self.updates_per_machine.values())

    def execute_update(
        self, machine_id: int, vertex: VertexId
    ) -> Generator[Any, Any, UpdateResult]:
        """Process fragment: run the *real* update on ``vertex``.

        Charges the modeled cycle cost on one core of ``machine_id``,
        then applies the user function against the machine's local
        store (so ghost staleness is exactly what the protocol allows).
        """
        machine = self.cluster.machine(machine_id)
        yield from machine.execute(self.cost_model.cycles(self.graph, vertex))
        scope = self._scope_pool.get(machine_id)
        if scope is None:
            scope = self._scope_pool[machine_id] = Scope(
                self.graph,
                vertex,
                model=self.consistency,
                store=self.stores[machine_id],
                globals_view=self.globals[machine_id].view(),
                # Engines that trace (the locking engine) need real
                # read/write sets in the UpdateResult for the
                # serializability checker.
                record=getattr(self, "trace", None) is not None,
            )
        else:
            scope.rebind(vertex)
        result = run_update(self.update_fn, scope)
        self.updates_per_machine[machine_id] += 1
        return result

    # ------------------------------------------------------------------
    # Ghost pushes.
    # ------------------------------------------------------------------
    def push_batch(
        self,
        src: int,
        dst: int,
        entries: List[Tuple[Any, Any, int, float]],
    ) -> Future:
        """Ship dirty data entries to ``dst``; apply on arrival.

        Returns a future resolving at delivery. Entries are the per-key
        modeled wire, ``(key, value, version, bytes)`` from
        :meth:`~repro.runtime.shard.CSRShardStore.collect_dirty`.
        """
        done = self.kernel.event()
        size = BATCH_HEADER_BYTES + sum(e[3] for e in entries)

        def deliver(_payload: Any) -> None:
            store = self.stores[dst]
            for key, value, version, _size in entries:
                store.apply_remote(key, value, version)
            done.resolve()

        self.cluster.network.send(src, dst, size, deliver)
        return done

    def flush_dirty(self, machine_id: int) -> List[Future]:
        """Push all dirty data of one machine, batched per destination."""
        pending = []
        for dst, entries in self.stores[machine_id].collect_dirty().items():
            pending.append(self.push_batch(machine_id, dst, entries))
        return pending

    def send_schedule_requests(
        self,
        src: int,
        dst: int,
        requests: List[Tuple[VertexId, float]],
        deliver,
    ) -> Future:
        """Forward scheduling requests to the owner machine (batched)."""
        done = self.kernel.event()
        size = BATCH_HEADER_BYTES + SCHEDULE_REQUEST_BYTES * len(requests)

        def on_arrival(_payload: Any) -> None:
            deliver(requests)
            done.resolve()

        self.cluster.network.send(src, dst, size, on_arrival)
        return done

    # ------------------------------------------------------------------
    # Distributed sync (Sec. 3.5 over RPC).
    # ------------------------------------------------------------------
    def run_syncs_distributed(self) -> Generator:
        """Process fragment: evaluate every sync across the cluster.

        Each machine computes its partial over owned vertices (charged
        CPU), the master combines + finalizes, and the result is
        broadcast into every machine's globals.
        """
        for sync in self.syncs:
            partial_procs = []
            for m in range(self.cluster.num_machines):
                partial_procs.append(
                    self.kernel.spawn(
                        self._sync_partial(m, sync), name=f"sync@{m}"
                    )
                )
            partials = yield partial_procs
            # Ship partials to the master (machine 0).
            arrivals = []
            for m in range(1, self.cluster.num_machines):
                done = self.kernel.event()
                self.cluster.network.send(
                    m, 0, GLOBAL_VALUE_BYTES, lambda _p, d=done: d.resolve()
                )
                arrivals.append(done)
            if arrivals:
                yield arrivals
            value = sync.combine_partials(partials)
            # Broadcast the published value.
            publishes = []
            for m in range(self.cluster.num_machines):
                done = self.kernel.event()

                def deliver(_p: Any, m=m, done=done) -> None:
                    self.globals[m].publish(sync.key, value)
                    done.resolve()

                self.cluster.network.send(0, m, GLOBAL_VALUE_BYTES, deliver)
                publishes.append(done)
            yield publishes

    def _sync_partial(self, machine_id: int, sync: SyncOperation) -> Generator:
        store = self.stores[machine_id]
        machine = self.cluster.machine(machine_id)
        yield from machine.execute(
            SYNC_CYCLES_PER_VERTEX * len(store.owned_vertices)
        )
        return sync.partial(self.graph, store.owned_vertices, store=store)

    # ------------------------------------------------------------------
    # Progress sampling and results.
    # ------------------------------------------------------------------
    def _progress_monitor(self) -> Generator:
        interval = self.progress_interval
        while self._running:
            self.progress.append((self.kernel.now, self.total_updates))
            yield self.kernel.timeout(interval)

    def start_monitoring(self) -> None:
        """Begin progress sampling (no-op without an interval)."""
        self._running = True
        if self.progress_interval:
            self.kernel.spawn(self._progress_monitor(), name="progress")

    def stop_monitoring(self) -> None:
        """Stop sampling and record the final point."""
        self._running = False
        self.progress.append((self.kernel.now, self.total_updates))

    def build_result(
        self, start_time: float, converged: bool, sweeps: int = 0
    ) -> DistributedRunResult:
        """Assemble the run summary from simulator state."""
        runtime = self.kernel.now - start_time
        stats = self.cluster.network.stats
        return DistributedRunResult(
            runtime=runtime,
            num_updates=self.total_updates,
            updates_per_machine=dict(self.updates_per_machine),
            converged=converged,
            sweeps=sweeps,
            globals=self.globals[0].snapshot(),
            bytes_sent_per_machine={
                m: stats[m].bytes_sent for m in stats
            },
            mean_mbps_per_machine=self.cluster.mean_mbps_per_machine(runtime)
            if runtime > 0
            else 0.0,
            cost_dollars=self.cluster.cost(runtime),
            progress=list(self.progress),
            snapshots=list(self.snapshots),
        )

    # ------------------------------------------------------------------
    # Validation helper.
    # ------------------------------------------------------------------
    def gather_vertex_data(self) -> Dict[VertexId, Any]:
        """Collect owned vertex data from all machines (test oracle)."""
        merged: Dict[VertexId, Any] = {}
        for store in self.stores.values():
            for v in store.owned_vertices:
                merged[v] = store.vertex_data(v)
        return merged
