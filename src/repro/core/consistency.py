"""Consistency models and their lock plans (paper Sec. 3.4, Fig. 2).

GraphLab trades parallelism for isolation through three models:

* **full** — exclusive read/write over the entire scope ``S_v``;
  concurrently executing updates must be two hops apart.
* **edge** — exclusive read/write on the central vertex and adjacent
  edges, read-only access to adjacent vertices. Sufficient for updates
  (like PageRank or ALS) that only *read* neighbors.
* **vertex** — exclusive write on the central vertex only. Maximum
  parallelism; neighbor reads are *unprotected* and may race, which is
  exactly what Fig. 1(d) exploits to show non-serializable ALS diverging.

Two artifacts are derived from a model:

* *permission sets* used by :class:`repro.core.scope.Scope` to reject
  illegal writes at the API boundary, and
* *lock plans* used by the locking engine (Sec. 4.2.2): an ordered list of
  ``(vertex, kind)`` lock requests following the canonical total order so
  that deadlock is impossible.
"""

from __future__ import annotations

import enum
from typing import Callable, FrozenSet, List, Tuple

from repro.core.graph import DataGraph, VertexId

#: Data-key naming scheme shared by tracing and the distributed stores:
#: ``("v", vid)`` for vertex data, ``("e", src, dst)`` for edge data.
DataKey = Tuple


def vertex_key(vid: VertexId) -> DataKey:
    """Data key for the vertex datum ``D_v``."""
    return ("v", vid)


def edge_key(src: VertexId, dst: VertexId) -> DataKey:
    """Data key for the directed edge datum ``D_{src->dst}``."""
    return ("e", src, dst)


class Consistency(enum.Enum):
    """The three GraphLab consistency models, weakest to strongest."""

    VERTEX = "vertex"
    EDGE = "edge"
    FULL = "full"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class LockKind(enum.Enum):
    """Readers-writer lock request kinds used by lock plans."""

    READ = "read"
    WRITE = "write"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def _compute_write_set(
    graph: DataGraph, vid: VertexId, model: Consistency
) -> FrozenSet[DataKey]:
    keys = {vertex_key(vid)}
    if model is Consistency.VERTEX:
        return frozenset(keys)
    keys.update(edge_key(u, w) for (u, w) in graph.adjacent_edges(vid))
    if model is Consistency.EDGE:
        return frozenset(keys)
    keys.update(vertex_key(u) for u in graph.neighbors(vid))
    return frozenset(keys)


def write_set(graph: DataGraph, vid: VertexId, model: Consistency) -> FrozenSet[DataKey]:
    """Data keys an update on ``vid`` may *write* under ``model``.

    Per Fig. 2(b): vertex => ``{D_v}``; edge => ``{D_v} + adjacent edges``;
    full => the whole scope.

    Structure is static after ``finalize()``, so on a compiled graph the
    result is memoized per ``(vertex, model)`` in the CSR storage (shared
    by copies and by every machine of a distributed run) — scope binding
    costs one dict hit instead of an O(degree) frozenset build.
    """
    csr = getattr(graph, "compiled", None)
    if csr is None:
        return _compute_write_set(graph, vid, model)
    cache = csr.write_set_cache
    key = (vid, model)
    keys = cache.get(key)
    if keys is None:
        keys = cache[key] = _compute_write_set(graph, vid, model)
    return keys


def read_set(graph: DataGraph, vid: VertexId, model: Consistency) -> FrozenSet[DataKey]:
    """Data keys an update on ``vid`` may read *with isolation guaranteed*.

    Everything in the scope is *readable* through the API under every
    model, but only the keys returned here are protected from concurrent
    writers. Under vertex consistency that is just ``D_v``; under edge and
    full consistency it is the entire scope.
    """
    if model is Consistency.VERTEX:
        return frozenset({vertex_key(vid)})
    keys = {vertex_key(vid)}
    keys.update(vertex_key(u) for u in graph.neighbors(vid))
    keys.update(edge_key(u, w) for (u, w) in graph.adjacent_edges(vid))
    return frozenset(keys)


def scope_keys(graph: DataGraph, vid: VertexId) -> FrozenSet[DataKey]:
    """All data keys in the scope ``S_v`` regardless of model."""
    keys = {vertex_key(vid)}
    keys.update(vertex_key(u) for u in graph.neighbors(vid))
    keys.update(edge_key(u, w) for (u, w) in graph.adjacent_edges(vid))
    return frozenset(keys)


def lock_plan(
    graph: DataGraph,
    vid: VertexId,
    model: Consistency,
    order_key: Callable[[VertexId], object] = None,
) -> List[Tuple[VertexId, LockKind]]:
    """The per-vertex RW-lock requests implementing ``model`` (Sec. 4.2.2).

    * vertex: write-lock the central vertex;
    * edge: write-lock the central vertex, read-lock each neighbor;
    * full: write-lock the central vertex and every neighbor.

    Requests are returned sorted by ``order_key`` (defaulting to the
    vertex id itself) — the canonical total order ``(owner(v), v)`` used
    in the distributed engine is passed in by the caller. Acquiring locks
    in this fixed order makes deadlock impossible.
    """
    if order_key is None:
        order_key = lambda v: v  # noqa: E731 - trivial default
    plan = [(vid, LockKind.WRITE)]
    if model is Consistency.VERTEX:
        return plan
    neighbor_kind = LockKind.READ if model is Consistency.EDGE else LockKind.WRITE
    plan.extend((u, neighbor_kind) for u in graph.neighbors(vid))
    plan.sort(key=lambda item: order_key(item[0]))
    return plan


def scopes_conflict(
    graph: DataGraph, a: VertexId, b: VertexId, model: Consistency
) -> bool:
    """Whether updates on ``a`` and ``b`` may not run concurrently.

    Two updates conflict when one's write set intersects the other's
    read-or-write set (standard conflict serializability). This is the
    predicate the consistency/parallelism trade-off of Fig. 2(c) encodes:
    under *full* consistency vertices within two hops conflict, under
    *edge* consistency adjacent vertices conflict, and under *vertex*
    consistency only identical vertices conflict.
    """
    if a == b:
        return True
    wa, wb = write_set(graph, a, model), write_set(graph, b, model)
    ra, rb = read_set(graph, a, model), read_set(graph, b, model)
    return bool(wa & (rb | wb)) or bool(wb & (ra | wa))
