"""Distributed graph loading (Sec. 4.1, Fig. 5a).

The ingress path of the paper: atoms live as journal files on the DFS;
at launch the master computes a balanced placement of atoms over the
physical machines from the *atom index*; every machine then loads its
assigned atoms in parallel — replaying each journal to instantiate its
local partition and the ghosts of the boundary.

:func:`distributed_load` performs that whole dance on the simulated
cluster and returns per-machine
:class:`~repro.runtime.shard.CSRShardStore` instances plus the vertex
ownership map, charging DFS reads and playback CPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence, Tuple

from repro.core.graph import DataGraph, VertexId
from repro.distributed.atom import Atom, AtomIndex
from repro.distributed.dfs import DistributedFileSystem
from repro.errors import PartitionError
from repro.sim.cluster import Cluster

if TYPE_CHECKING:
    from repro.runtime.shard import CSRShardStore

#: CPU cost of replaying one journal command (decode + insert).
PLAYBACK_CYCLES_PER_COMMAND = 400.0


@dataclass
class IngressReport:
    """What loading cost and produced."""

    placement: Dict[int, int]
    owner: Dict[VertexId, int]
    load_seconds: float
    atoms_per_machine: Dict[int, List[int]]


def store_atoms(
    dfs: DistributedFileSystem, atoms: Sequence[Atom], writer_machine: int = 0
) -> None:
    """Write atom journals onto the DFS (the initialization phase).

    Runs the writes to completion on the cluster's kernel; atom files
    are named ``atom/<id>``.
    """
    kernel = dfs.kernel

    def write_all():
        futures = [
            kernel.spawn(
                dfs.write(
                    writer_machine,
                    f"atom/{atom.atom_id}",
                    atom.size_bytes,
                    payload=atom,
                )
            )
            for atom in atoms
        ]
        yield futures

    kernel.run_process(write_all(), name="store-atoms")


def ownership_from_placement(
    atoms: Sequence[Atom], placement: Mapping[int, int]
) -> Dict[VertexId, int]:
    """Vertex -> machine map induced by an atom placement."""
    owner: Dict[VertexId, int] = {}
    for atom in atoms:
        machine = placement[atom.atom_id]
        for v in atom.owned_vertices:
            if v in owner:
                raise PartitionError(
                    f"vertex {v!r} owned by two atoms"
                )
            owner[v] = machine
    return owner


def distributed_load(
    cluster: Cluster,
    dfs: DistributedFileSystem,
    graph: DataGraph,
    atoms: Sequence[Atom],
    index: AtomIndex,
) -> Tuple[Dict[int, "CSRShardStore"], IngressReport]:
    """Load the atom graph onto the cluster (parallel journal playback).

    The master (machine 0) computes the placement from the atom index;
    every machine then reads its atoms from the DFS and replays them,
    charging :data:`PLAYBACK_CYCLES_PER_COMMAND` per journal command.
    Returns the per-machine stores and an :class:`IngressReport`.
    """
    # Function-local: repro.runtime imports this package at its init.
    from repro.runtime.shard import CSRShardStore

    kernel = cluster.kernel
    start = kernel.now
    placement = index.place(cluster.num_machines)
    owner = ownership_from_placement(atoms, placement)
    atoms_per_machine: Dict[int, List[int]] = {
        m: [] for m in range(cluster.num_machines)
    }
    for atom_id, machine in placement.items():
        atoms_per_machine[machine].append(atom_id)

    def load_machine(machine_id: int):
        machine = cluster.machine(machine_id)
        for atom_id in atoms_per_machine[machine_id]:
            atom = yield kernel.spawn(
                dfs.read(machine_id, f"atom/{atom_id}")
            )
            yield from machine.execute(
                PLAYBACK_CYCLES_PER_COMMAND * len(atom.commands)
            )

    def load_all():
        yield [
            kernel.spawn(load_machine(m), name=f"ingress@{m}")
            for m in range(cluster.num_machines)
        ]

    kernel.run_process(load_all(), name="distributed-load")
    stores = {
        m: CSRShardStore(m, graph, owner)
        for m in range(cluster.num_machines)
    }
    report = IngressReport(
        placement=placement,
        owner=owner,
        load_seconds=kernel.now - start,
        atoms_per_machine=atoms_per_machine,
    )
    return stores, report
