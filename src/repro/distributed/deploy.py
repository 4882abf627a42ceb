"""End-to-end deployment: graph -> atoms -> DFS -> cluster (Fig. 5a).

:func:`deploy` performs the paper's whole initialization phase: choose
an over-partitioner, cut the graph into ``k ≫ machines`` atoms, store
the journals on the simulated DFS, place atoms via the atom index, and
load every machine's partition + ghosts. The returned
:class:`Deployment` carries everything an engine constructor needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

from repro.core.graph import DataGraph, VertexId
from repro.distributed.atom import Atom, AtomIndex, atom_index, atom_journals
from repro.distributed.dfs import DistributedFileSystem
from repro.distributed.ingress import IngressReport, distributed_load, store_atoms
from repro.distributed.models import DataSizeModel
from repro.distributed.partition import (
    Assignment,
    bfs_assignment,
    grid_assignment,
    random_hash_assignment,
)
from repro.errors import PartitionError
from repro.sim.cluster import CC1_4XLARGE, Cluster, InstanceType
from repro.sim.kernel import SimKernel

if TYPE_CHECKING:
    from repro.runtime.shard import CSRShardStore

_PARTITIONERS: Dict[str, Callable[[DataGraph, int], Assignment]] = {
    "hash": random_hash_assignment,
    "bfs": bfs_assignment,
    "grid": grid_assignment,
}


@dataclass
class Deployment:
    """A loaded cluster ready for an engine."""

    cluster: Cluster
    graph: DataGraph
    stores: Dict[int, "CSRShardStore"]
    owner: Dict[VertexId, int]
    dfs: DistributedFileSystem
    atoms: List[Atom]
    index: AtomIndex
    ingress: IngressReport
    sizes: DataSizeModel


class OwnershipPlan:
    """Atom index, placement, and vertex ownership — no cluster attached.

    The simulator-free half of :func:`deploy`: everything the two-phase
    partitioning pipeline (Sec. 4.1) produces before any machine exists.
    The real-process runtime backend (:mod:`repro.runtime`) consumes
    this directly, so simulated and real executions share one placement
    path — ``random_hash_assignment`` and :meth:`AtomIndex.place` are
    deterministic, making vertex ownership reproducible across backends.

    Placement reads only the atom index (per-atom vertex counts and
    cross-atom edge counts), which :func:`~repro.distributed.atom
    .atom_index` computes from the compiled arrays; ``owner`` is the
    placement looked up per vertex. The atom *journals* matter only to
    ingress, so :attr:`atoms` is built on first access — by
    :func:`deploy`'s simulated DFS load, never by the runtime.
    """

    def __init__(
        self,
        graph: DataGraph,
        assignment: Assignment,
        num_atoms: int,
        num_machines: int,
        sizes: DataSizeModel = DataSizeModel(),
    ) -> None:
        self._graph = graph
        self._sizes = sizes
        self._atom_of, self.index = atom_index(graph, assignment, num_atoms)
        self.num_machines = num_machines

    @cached_property
    def atoms(self) -> List[Atom]:
        """The atom journals (built on demand, for ingress)."""
        return atom_journals(
            self._graph, self._atom_of, self.index.num_atoms, self._sizes
        )

    @cached_property
    def placement(self) -> Dict[int, int]:
        """Balanced atom -> machine placement (via the atom index)."""
        return self.index.place(self.num_machines)

    @cached_property
    def owner(self) -> Dict[VertexId, int]:
        """Vertex -> machine ownership induced by :attr:`placement`."""
        placement = self.placement
        return {
            v: placement[atom]
            for v, atom in zip(
                self._graph.compiled.vertex_ids, self._atom_of.tolist()
            )
        }


def plan_ownership(
    graph: DataGraph,
    num_machines: int,
    partitioner: Union[str, Callable[[DataGraph, int], Assignment], None] = "bfs",
    assignment: Optional[Assignment] = None,
    atoms_per_machine: int = 4,
    sizes: DataSizeModel = DataSizeModel(),
) -> OwnershipPlan:
    """Over-partition ``graph`` into atoms and place them on machines.

    Runs the graph-cut + atom-index placement phase of Fig. 5a without
    touching the simulator: choose (or accept) an assignment into
    ``atoms_per_machine * num_machines`` atoms, build the atom index,
    and place atoms greedily (on demand). :func:`deploy` layers the
    simulated DFS/ingress — and with it the atom journals — on top of
    this plan.
    """
    graph.require_finalized()
    num_atoms = max(1, atoms_per_machine) * num_machines
    if assignment is None:
        if partitioner is None:
            raise PartitionError("need a partitioner or an assignment")
        if isinstance(partitioner, str):
            try:
                partitioner = _PARTITIONERS[partitioner]
            except KeyError:
                raise PartitionError(
                    f"unknown partitioner {partitioner!r}; expected one of "
                    f"{sorted(_PARTITIONERS)}"
                ) from None
        assignment = partitioner(graph, num_atoms)
    return OwnershipPlan(graph, assignment, num_atoms, num_machines, sizes)


def deploy(
    graph: DataGraph,
    num_machines: int,
    partitioner: Union[str, Callable[[DataGraph, int], Assignment], None] = "bfs",
    assignment: Optional[Assignment] = None,
    atoms_per_machine: int = 4,
    sizes: DataSizeModel = DataSizeModel(),
    instance: InstanceType = CC1_4XLARGE,
    latency: float = 1e-4,
    effective_bandwidth_bps: Optional[float] = None,
    replication: int = 1,
    kernel: Optional[SimKernel] = None,
    skip_ingress_io: bool = False,
) -> Deployment:
    """Build a cluster and load ``graph`` onto it.

    Parameters mirror the paper's knobs: the over-partitioner (or an
    explicit ``assignment``), the over-partitioning factor
    (``atoms_per_machine``; the paper uses k much larger than machine
    count so placements rebalance on any cluster size), the data size
    model of the experiment, instance type and network characteristics,
    and the DFS replication factor (the paper sets 1 for benchmarks).
    ``sizes`` prices only the atom journals' ingress I/O; an engine
    prices everything it ships with the model it is given.

    ``skip_ingress_io=True`` constructs the stores without charging the
    DFS/journal-playback time — handy for unit tests where load time is
    noise.
    """
    # Function-local: repro.runtime imports this module at package init.
    from repro.runtime.shard import CSRShardStore

    plan = plan_ownership(
        graph,
        num_machines,
        partitioner=partitioner,
        assignment=assignment,
        atoms_per_machine=atoms_per_machine,
        sizes=sizes,
    )
    atoms, index = plan.atoms, plan.index
    cluster = Cluster(
        num_machines,
        instance=instance,
        latency=latency,
        effective_bandwidth_bps=effective_bandwidth_bps,
        kernel=kernel,
    )
    dfs = DistributedFileSystem(cluster, replication=replication)
    if skip_ingress_io:
        placement = plan.placement
        owner = plan.owner
        stores = {
            m: CSRShardStore(m, graph, owner) for m in range(num_machines)
        }
        ingress = IngressReport(
            placement=placement,
            owner=owner,
            load_seconds=0.0,
            atoms_per_machine={
                m: [a for a, p in placement.items() if p == m]
                for m in range(num_machines)
            },
        )
    else:
        store_atoms(dfs, atoms, writer_machine=0)
        stores, ingress = distributed_load(cluster, dfs, graph, atoms, index)
        owner = ingress.owner
    return Deployment(
        cluster=cluster,
        graph=graph,
        stores=stores,
        owner=owner,
        dfs=dfs,
        atoms=atoms,
        index=index,
        ingress=ingress,
        sizes=sizes,
    )


def canonical_order_key(
    graph: DataGraph, owner: Dict[VertexId, int]
) -> Callable[[VertexId], tuple]:
    """The canonical lock-acquisition total order ``(owner(u), index(u))``.

    One definition for every locking backend (Sec. 4.2.2): machines are
    visited in ascending id and vertices within a machine in ascending
    dense compiled index, so lock chains built from any placement are
    deadlock-free by fixed total order. The dense numbering comes from
    the finalize-time compilation (``graph.vertex_index()``), which is
    identical on every machine/process of a run.
    """
    index = graph.vertex_index()
    return lambda u: (owner[u], index[u])
