"""Atoms: the on-disk representation of the distributed graph (Sec. 4.1).

The data graph is over-partitioned into ``k ≫ #machines`` parts called
*atoms*. Each atom is a binary, compressed journal of graph-generating
commands (``AddVertex``, ``AddEdge``) plus *ghost* information: the
vertices and edges adjacent to the partition boundary. An *atom index*
stores the meta-graph — one vertex per atom, edges weighted by the
number of cross-atom graph edges — which is what the master partitions
over the physical machines at load time. Two-phase partitioning means
the expensive graph cut is computed once and reused for any cluster
size.

Placement needs only the index, so :func:`atom_index` computes it
straight from the compiled CSR arrays (one bincount, one ``np.unique``
over the cut edges) without writing a journal; :func:`atom_journals`
writes the journals, which only ingress (:func:`repro.distributed
.deploy.deploy`) reads. :func:`build_atoms` returns both.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Tuple

import numpy as np

from repro.core.graph import DataGraph, VertexId
from repro.distributed.models import DataSizeModel
from repro.errors import AtomFormatError, PartitionError

#: Journal command opcodes.
ADD_VERTEX = "AddVertex"
ADD_EDGE = "AddEdge"

#: Fixed journal overhead per command (opcode + ids + framing).
COMMAND_OVERHEAD_BYTES = 12.0


@dataclass(frozen=True)
class AtomCommand:
    """One journal entry: ``AddVertex(vid, data)`` or
    ``AddEdge(src -> dst, data)``."""

    op: str
    args: Tuple
    data: object = None


@dataclass
class Atom:
    """One partition's journal file.

    Attributes
    ----------
    atom_id:
        Dense id in ``[0, k)``.
    commands:
        The journal: vertex commands strictly before edge commands, as
        playback requires endpoints to exist.
    owned_vertices:
        Vertices whose *primary* copy this atom holds.
    ghost_vertices:
        Boundary vertices owned by other atoms but adjacent to this one
        (instantiated as caches at load time).
    size_bytes:
        Modeled on-DFS file size (from the experiment's
        :class:`DataSizeModel`), used to charge ingress I/O.
    """

    atom_id: int
    commands: List[AtomCommand] = field(default_factory=list)
    owned_vertices: FrozenSet[VertexId] = frozenset()
    ghost_vertices: FrozenSet[VertexId] = frozenset()
    size_bytes: float = 0.0

    def encode(self) -> bytes:
        """Serialize to the on-disk format (compressed binary journal)."""
        raw = pickle.dumps(
            (
                self.atom_id,
                [(c.op, c.args, c.data) for c in self.commands],
                sorted(self.owned_vertices, key=repr),
                sorted(self.ghost_vertices, key=repr),
                self.size_bytes,
            ),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        return zlib.compress(raw, level=6)

    @classmethod
    def decode(cls, blob: bytes) -> "Atom":
        """Parse an encoded atom; raises :class:`AtomFormatError` on
        corruption."""
        try:
            atom_id, commands, owned, ghosts, size_bytes = pickle.loads(
                zlib.decompress(blob)
            )
        except Exception as exc:
            raise AtomFormatError(f"corrupt atom file: {exc}") from exc
        return cls(
            atom_id=atom_id,
            commands=[AtomCommand(op, tuple(args), data) for op, args, data in commands],
            owned_vertices=frozenset(owned),
            ghost_vertices=frozenset(ghosts),
            size_bytes=size_bytes,
        )


@dataclass
class AtomIndex:
    """The meta-graph over atoms (the *atom index file*).

    ``connectivity[(a, b)]`` (with ``a < b``) counts graph edges crossing
    between atoms ``a`` and ``b``; ``vertex_counts[a]`` is the atom's
    weight for balanced placement. Built by :func:`atom_index` from the
    compiled arrays — no journal is needed to place atoms.
    """

    num_atoms: int
    vertex_counts: Dict[int, int]
    connectivity: Dict[Tuple[int, int], int]

    def place(self, num_machines: int) -> Dict[int, int]:
        """Balanced placement of atoms onto machines.

        Greedy heaviest-first bin packing by vertex count, with a
        connectivity bonus pulling an atom toward machines already
        holding its meta-neighbors. Fast (the point of two-phase
        partitioning) and balanced within one atom's weight.
        """
        if num_machines < 1:
            raise PartitionError("need at least one machine")
        neighbors: Dict[int, Dict[int, int]] = {
            a: {} for a in range(self.num_atoms)
        }
        for (a, b), weight in self.connectivity.items():
            neighbors[a][b] = weight
            neighbors[b][a] = weight
        order = sorted(
            range(self.num_atoms),
            key=lambda a: -self.vertex_counts.get(a, 0),
        )
        load = [0.0] * num_machines
        placement: Dict[int, int] = {}
        mean_load = (
            sum(self.vertex_counts.values()) / num_machines
            if self.vertex_counts
            else 0.0
        )
        for atom in order:
            affinity = [0.0] * num_machines
            for peer, weight in neighbors[atom].items():
                if peer in placement:
                    affinity[placement[peer]] += weight
            best = min(
                range(num_machines),
                key=lambda m: (
                    load[m] + self.vertex_counts.get(atom, 0) > mean_load * 1.1,
                    -affinity[m],
                    load[m],
                    m,
                ),
            )
            placement[atom] = best
            load[best] += self.vertex_counts.get(atom, 0)
        return placement


def atom_index(
    graph: DataGraph, assignment: Mapping[VertexId, int], num_atoms: int
) -> Tuple[np.ndarray, AtomIndex]:
    """``(atom_of, index)``: each vertex's atom in dense order, and the
    atom index — from the compiled arrays, building no journal.

    ``assignment`` maps every vertex to an atom in ``[0, num_atoms)``
    (produced by :mod:`repro.distributed.partition`); anything else
    raises :class:`PartitionError`. ``vertex_counts`` is one bincount
    and ``connectivity`` one ``np.unique`` over the ``(min, max)`` atom
    pairs of the cut edges.
    """
    graph.require_finalized()
    missing = [v for v in graph.vertices() if v not in assignment]
    if missing:
        raise PartitionError(
            f"assignment misses {len(missing)} vertices "
            f"(first: {missing[0]!r})"
        )
    bad = [a for a in assignment.values() if not 0 <= a < num_atoms]
    if bad:
        raise PartitionError(
            f"atom id {bad[0]} outside [0, {num_atoms})"
        )
    csr = graph.compiled
    atom_of = csr.dense_map(assignment)
    counts = np.bincount(atom_of, minlength=num_atoms)
    src_atom = atom_of[csr.edge_src_index]
    dst_atom = atom_of[csr.edge_dst_index]
    cut = src_atom != dst_atom
    low = np.minimum(src_atom[cut], dst_atom[cut])
    high = np.maximum(src_atom[cut], dst_atom[cut])
    pairs, weights = np.unique(low * num_atoms + high, return_counts=True)
    index = AtomIndex(
        num_atoms=num_atoms,
        vertex_counts=dict(enumerate(counts.tolist())),
        connectivity={
            (int(pair // num_atoms), int(pair % num_atoms)): weight
            for pair, weight in zip(pairs.tolist(), weights.tolist())
        },
    )
    return atom_of, index


def atom_journals(
    graph: DataGraph,
    atom_of: np.ndarray,
    num_atoms: int,
    sizes: DataSizeModel = DataSizeModel(),
) -> List[Atom]:
    """The atom journals of a checked assignment (see :func:`atom_index`).

    Each directed edge is journaled in the atom of its *source*; ghost
    vertex commands are appended for boundary vertices so playback can
    instantiate caches. Only ingress reads journals.
    """
    csr = graph.compiled
    vertex_ids = csr.vertex_ids
    atom_list = atom_of.tolist()
    owned: List[List[int]] = [[] for _ in range(num_atoms)]
    for i, atom in enumerate(atom_list):
        owned[atom].append(i)

    ghosts: List[set] = [set() for _ in range(num_atoms)]
    for s, d in zip(csr.edge_src_index.tolist(), csr.edge_dst_index.tolist()):
        a_s, a_d = atom_list[s], atom_list[d]
        if a_s != a_d:
            ghosts[a_s].add(vertex_ids[d])
            ghosts[a_d].add(vertex_ids[s])

    out_offsets = csr.out_offsets.tolist()
    out_targets = csr.out_targets.tolist()
    atoms: List[Atom] = []
    for atom_id in range(num_atoms):
        commands: List[AtomCommand] = []
        size = 0.0
        for i in owned[atom_id]:
            v = vertex_ids[i]
            commands.append(
                AtomCommand(ADD_VERTEX, (v,), graph.vertex_data(v))
            )
            size += sizes.vbytes(v) + COMMAND_OVERHEAD_BYTES
        for v in sorted(ghosts[atom_id], key=repr):
            # Ghost vertices are journaled structurally (no data; the
            # cache is filled during ingress synchronization).
            commands.append(AtomCommand(ADD_VERTEX, (v,), None))
            size += COMMAND_OVERHEAD_BYTES
        for i in owned[atom_id]:
            v = vertex_ids[i]
            for j in out_targets[out_offsets[i]:out_offsets[i + 1]]:
                w = vertex_ids[j]
                commands.append(
                    AtomCommand(ADD_EDGE, (v, w), graph.edge_data(v, w))
                )
                size += sizes.ebytes(v, w) + COMMAND_OVERHEAD_BYTES
        atoms.append(
            Atom(
                atom_id=atom_id,
                commands=commands,
                owned_vertices=frozenset(vertex_ids[i] for i in owned[atom_id]),
                ghost_vertices=frozenset(ghosts[atom_id]),
                size_bytes=size,
            )
        )
    return atoms


def build_atoms(
    graph: DataGraph,
    assignment: Mapping[VertexId, int],
    num_atoms: int,
    sizes: DataSizeModel = DataSizeModel(),
) -> Tuple[List[Atom], AtomIndex]:
    """Split a finalized graph into atom journals plus the atom index
    (:func:`atom_journals` over :func:`atom_index`)."""
    atom_of, index = atom_index(graph, assignment, num_atoms)
    return atom_journals(graph, atom_of, num_atoms, sizes), index
