"""Over-partitioners: graph -> atom assignment (Sec. 4.1).

The paper over-partitions with domain knowledge (planar/grid embedding),
a partitioning heuristic (ParMetis), or random hashing. We provide the
same spectrum:

* :func:`random_hash_assignment` — the random cut the NER experiment
  uses (worst-case communication);
* :func:`bfs_assignment` — a cheap Metis-like heuristic growing
  balanced connected parts (low cut on meshes and webs);
* :func:`grid_assignment` — block decomposition for graphs keyed by
  coordinate tuples (the 3-D mesh and CoSeg grids);
* :func:`stripe_assignment` — adversarial striping (CoSeg's "worst-case
  partition" in Fig. 8b, which forces every scope to grab remote locks);
* :func:`frame_assignment` — CoSeg's "optimal partition": contiguous
  frame blocks.

All return ``dict vertex -> atom_id`` over ``[0, k)`` for
:func:`repro.distributed.atom.build_atoms`.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Callable, Dict, Iterable, Optional

from repro.core.csr import undirected_plan
from repro.core.graph import DataGraph, VertexId
from repro.errors import PartitionError

Assignment = Dict[VertexId, int]


def _check_k(k: int) -> None:
    if k < 1:
        raise PartitionError(f"need at least one atom, got k={k}")


def random_hash_assignment(graph: DataGraph, k: int) -> Assignment:
    """Hash-partition vertices into ``k`` atoms.

    Deterministic (CRC of the vertex repr), so runs are reproducible.
    Expected cut fraction approaches ``1 - 1/k`` — the communication
    worst case the NER evaluation deliberately runs in.
    """
    _check_k(k)
    return {
        v: zlib.crc32(repr(v).encode()) % k for v in graph.vertices()
    }


def bfs_assignment(graph: DataGraph, k: int) -> Assignment:
    """Grow ``k`` balanced connected parts by breadth-first flooding.

    A light-weight stand-in for Metis: repeatedly BFS from the first
    unassigned vertex, capping each part at ``ceil(|V| / k)``. On meshes
    and other local graphs this yields compact, low-cut parts. Floods
    the compiled undirected CSR (:func:`~repro.core.csr.undirected_plan`)
    in dense indices, so the graph must be finalized.
    """
    _check_k(k)
    graph.require_finalized()
    csr = graph.compiled
    vertex_ids = csr.vertex_ids
    offsets, targets = (a.tolist() for a in undirected_plan(csr))
    target = max(1, -(-len(vertex_ids) // k))
    part_of = [-1] * len(vertex_ids)
    assignment: Assignment = {}
    part = 0
    filled = 0
    for root in range(len(vertex_ids)):
        if part_of[root] >= 0:
            continue
        queue = deque([root])
        while queue:
            i = queue.popleft()
            if part_of[i] >= 0:
                continue
            if filled >= target and part < k - 1:
                part += 1
                filled = 0
            part_of[i] = assignment[vertex_ids[i]] = part
            filled += 1
            for j in targets[offsets[i]:offsets[i + 1]]:
                if part_of[j] < 0:
                    queue.append(j)
    return assignment


def grid_assignment(
    graph: DataGraph,
    k: int,
    key_fn: Optional[Callable[[VertexId], Iterable[float]]] = None,
) -> Assignment:
    """Block-decompose a coordinate-keyed graph into ``k`` atoms.

    Vertices are sorted by their coordinate tuple (``key_fn`` defaults
    to the vertex id itself, which works for ``(x, y, z)`` mesh ids) and
    chopped into ``k`` contiguous slabs — the "domain specific
    knowledge" route of Sec. 4.1.
    """
    _check_k(k)
    key_fn = key_fn or (lambda v: v)
    try:
        ordered = sorted(graph.vertices(), key=lambda v: tuple(key_fn(v)))
    except TypeError as exc:
        raise PartitionError(
            "grid_assignment requires coordinate-tuple vertex ids or a "
            f"key_fn ({exc})"
        ) from exc
    n = len(ordered)
    if n == 0:
        return {}
    slab = max(1, -(-n // k))
    return {
        v: min(i // slab, k - 1) for i, v in enumerate(ordered)
    }


def stripe_assignment(
    graph: DataGraph,
    k: int,
    key_fn: Optional[Callable[[VertexId], int]] = None,
) -> Assignment:
    """Adversarial striping: vertex ``i`` goes to atom ``i mod k``.

    With ``key_fn`` mapping a vertex to its stripe index (e.g. the frame
    number for CoSeg), neighbors land on different atoms, so nearly
    every scope crosses machines — Fig. 8(b)'s worst case.
    """
    _check_k(k)
    if key_fn is None:
        return {v: i % k for i, v in enumerate(graph.vertices())}
    return {v: int(key_fn(v)) % k for v in graph.vertices()}


def frame_assignment(
    graph: DataGraph,
    k: int,
    frame_fn: Callable[[VertexId], int],
    num_frames: int,
) -> Assignment:
    """Contiguous frame-block partition (CoSeg's optimal layout).

    Frames ``[0, num_frames)`` are divided into ``k`` contiguous blocks;
    a vertex goes to the atom of its frame. Cross-atom edges are only
    the temporal edges between adjacent blocks.
    """
    _check_k(k)
    if num_frames < 1:
        raise PartitionError("num_frames must be >= 1")
    block = max(1, -(-num_frames // k))
    assignment: Assignment = {}
    for v in graph.vertices():
        frame = frame_fn(v)
        if not 0 <= frame < num_frames:
            raise PartitionError(
                f"frame {frame} of vertex {v!r} outside [0, {num_frames})"
            )
        assignment[v] = min(frame // block, k - 1)
    return assignment


def cut_edges(graph: DataGraph, assignment: Assignment) -> int:
    """Number of directed edges crossing between atoms."""
    return sum(
        1
        for (u, w) in graph.edges()
        if assignment[u] != assignment[w]
    )


def balance(assignment: Assignment, k: int) -> float:
    """Load-balance ratio: max part size over mean part size (1.0 = even)."""
    if not assignment:
        return 1.0
    counts = [0] * k
    for atom in assignment.values():
        counts[atom] += 1
    mean = len(assignment) / k
    return max(counts) / mean if mean else 1.0
