"""Scopes: the overlapping data contexts update functions run in (Sec. 3.2).

The scope ``S_v`` of vertex ``v`` is the data stored in ``v``, in all
adjacent vertices, and on all adjacent edges (Fig. 2a). An update function
receives a :class:`Scope` and, through it, reads and writes graph data.
The scope enforces the active :class:`~repro.core.consistency.Consistency`
model at the API boundary: an illegal write raises
:class:`~repro.errors.ConsistencyError` immediately, so consistency bugs
surface at their source rather than as data races.

The scope is backed by two collaborators:

* ``graph`` answers *structure* queries (neighbors, adjacent edges) — in
  the distributed setting structure is locally known via ghosts;
* ``store`` answers *data* queries with ``vertex_data / set_vertex_data /
  edge_data / set_edge_data`` methods. :class:`repro.core.graph.DataGraph`
  itself satisfies this protocol, as does the distributed
  :class:`repro.distributed.graph_store.LocalGraphStore`.

Scopes also collect scheduling requests (``scope.schedule(u, prio)``) and
expose read-only global values maintained by sync operations (Sec. 3.5).

Scopes are designed to be **pooled**: engines allocate one scope per
worker and :meth:`Scope.rebind` it to each popped vertex, so the hot loop
performs zero per-update scope allocation. Binding resolves the model's
write set through the finalize-time memo (see
:func:`repro.core.consistency.write_set`) — one dict hit, not an
O(degree) rebuild — and caches the neighbor frozenset so adjacency checks
are O(1) instead of a linear scan. Read/write recording costs a single
falsy attribute test when tracing is off.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Set, Tuple

from repro.core.consistency import (
    Consistency,
    DataKey,
    edge_key,
    vertex_key,
    write_set,
)
from repro.core.graph import DataGraph, VertexId
from repro.core.kernels import out_gather
from repro.errors import ConsistencyError, GraphStructureError

_EMPTY_GLOBALS: Mapping[str, Any] = {}
_EMPTY_FROZENSET: frozenset = frozenset()


class Scope:
    """Consistency-enforced view of ``S_v`` handed to update functions.

    Parameters
    ----------
    graph:
        Structure provider (usually the :class:`DataGraph` itself).
    vertex:
        The central vertex ``v``. May be ``None`` to create an unbound
        pooled scope; call :meth:`rebind` before use.
    model:
        Active consistency model; writes outside the model's write set
        raise :class:`ConsistencyError`.
    store:
        Data provider; defaults to ``graph``.
    globals_view:
        Read-only mapping of global values maintained by sync operations.
    record:
        When true, every data access is recorded in :attr:`reads` /
        :attr:`writes` (used by the serializability tracer).
    """

    __slots__ = (
        "graph",
        "vertex",
        "model",
        "_store",
        "_globals",
        "_write_keys",
        "_nbr_set",
        "_scheduled",
        "reads",
        "writes",
        "_record",
        "_bind_cache",
        "_csr_direct",
        "_csr_gather",
        "_flat_store",
        "_bulk_store",
        "_vidx",
    )

    def __init__(
        self,
        graph: DataGraph,
        vertex: Optional[VertexId],
        model: Consistency = Consistency.EDGE,
        store: Optional[Any] = None,
        globals_view: Mapping[str, Any] = _EMPTY_GLOBALS,
        record: bool = False,
    ) -> None:
        self.graph = graph
        self.model = model
        self._store = store if store is not None else graph
        self._globals = globals_view
        self._record = record
        self._scheduled: List[Tuple[VertexId, float]] = []
        self.reads: Set[DataKey] = set()
        self.writes: Set[DataKey] = set()
        csr = graph.compiled
        self._bind_cache = csr.bind_cache_for(model) if csr is not None else None
        # Direct slot-addressed data access is only legal when the scope
        # reads the compiled graph itself (not a distributed store) and
        # does not need access recording.
        self._csr_direct = (
            csr if (csr is not None and self._store is graph and not record)
            else None
        )
        # The bulk gather fast paths are legal even when tracing: the
        # compiled gather plans enumerate exactly the keys the slow path
        # reads, so recording is a guarded branch, not a different path.
        self._csr_gather = (
            csr if (csr is not None and self._store is graph) else None
        )
        # Slot-addressed distributed shards (repro.runtime.shard) expose
        # the compiled layout directly: flat data lists aligned to the
        # CSR indices and bulk in/out gathers. Reads then skip the store
        # method call; writes still go through the store, which owns the
        # version/dirty bookkeeping. Only legal untraced, on a finalized
        # graph (the dense _vidx must be bound).
        flat = self._store if (csr is not None and not record) else None
        self._flat_store = (
            flat if (flat is not None and hasattr(flat, "vdata_flat"))
            else None
        )
        self._bulk_store = (
            self._store
            if (not record and hasattr(self._store, "gather_in"))
            else None
        )
        self.vertex = vertex
        # Non-indexable sentinel: touching data on an unbound pooled
        # scope must fail loudly, not read/write vdata[-1].
        self._vidx = None
        if vertex is not None:
            self.rebind(vertex)
        else:
            self._write_keys = _EMPTY_FROZENSET
            self._nbr_set = _EMPTY_FROZENSET

    def rebind(self, vertex: VertexId) -> "Scope":
        """Re-center the scope on ``vertex`` (pooled reuse, zero alloc).

        Engines call this once per popped vertex instead of constructing
        a fresh scope. Binding resolves through the structure memo —
        write set, neighbor frozenset, and dense index in one dict hit.
        Pending scheduling requests are expected to have been drained by
        the engine; recorded reads/writes are reset.
        """
        self.vertex = vertex
        cache = self._bind_cache
        if cache is not None:
            entry = cache.get(vertex)
            if entry is None:
                graph = self.graph
                entry = cache[vertex] = (
                    write_set(graph, vertex, self.model),
                    graph.neighbor_set(vertex),
                    graph.compiled.index_of[vertex],
                )
            self._write_keys, self._nbr_set, self._vidx = entry
        else:
            self._write_keys = write_set(self.graph, vertex, self.model)
            self._nbr_set = self.graph.neighbor_set(vertex)
        if self._record:
            self.reads.clear()
            self.writes.clear()
        return self

    # ------------------------------------------------------------------
    # Central vertex data.
    # ------------------------------------------------------------------
    @property
    def data(self) -> Any:
        """Read the central vertex datum ``D_v``."""
        csr = self._csr_direct
        if csr is not None:
            return csr.vdata[self._vidx]
        flat = self._flat_store
        if flat is not None:
            return flat.vdata_flat[self._vidx]
        if self._record:
            self.reads.add(vertex_key(self.vertex))
        return self._store.vertex_data(self.vertex)

    @data.setter
    def data(self, value: Any) -> None:
        """Write ``D_v`` (legal under every model)."""
        csr = self._csr_direct
        if csr is not None:
            csr.vdata[self._vidx] = value
            return
        if self._record:
            self.writes.add(vertex_key(self.vertex))
        self._store.set_vertex_data(self.vertex, value)

    # ------------------------------------------------------------------
    # Neighbor vertex data.
    # ------------------------------------------------------------------
    def neighbor(self, u: VertexId) -> Any:
        """Read neighbor vertex datum ``D_u``.

        Readable under every model; note that under *vertex* consistency
        the read is unprotected and may race with a concurrent writer.
        """
        if u != self.vertex and u not in self._nbr_set:
            self._check_adjacent(u)  # single source of the scope error
        csr = self._csr_direct
        if csr is not None:
            return csr.vdata[csr.index_of[u]]
        if self._record:
            self.reads.add(vertex_key(u))
        return self._store.vertex_data(u)

    def set_neighbor(self, u: VertexId, value: Any) -> None:
        """Write ``D_u`` — only legal under the *full* consistency model."""
        self._check_adjacent(u)
        key = vertex_key(u)
        if key not in self._write_keys:
            raise ConsistencyError(
                f"writing neighbor {u!r} requires the FULL consistency "
                f"model (active model: {self.model})"
            )
        if self._record:
            self.writes.add(key)
        self._store.set_vertex_data(u, value)

    # ------------------------------------------------------------------
    # Edge data (both directions of adjacent edges).
    # ------------------------------------------------------------------
    def edge(self, src: VertexId, dst: VertexId) -> Any:
        """Read edge datum ``D_{src->dst}`` on an adjacent edge."""
        vertex = self.vertex
        if src is not vertex and dst is not vertex and vertex not in (src, dst):
            self._check_adjacent_edge(src, dst)  # shared out-of-scope raise
        csr = self._csr_direct
        if csr is not None:
            try:
                return csr.edata[csr.edge_slot[(src, dst)]]
            except KeyError:
                raise GraphStructureError(
                    f"unknown edge {src!r} -> {dst!r}"
                ) from None
        # An unknown edge surfaces as GraphStructureError from the store,
        # exactly as _check_adjacent_edge would raise it; record only
        # reads that actually happened.
        value = self._store.edge_data(src, dst)
        if self._record:
            self.reads.add(edge_key(src, dst))
        return value

    def set_edge(self, src: VertexId, dst: VertexId, value: Any) -> None:
        """Write an adjacent edge datum — needs *edge* or *full* model."""
        self._check_adjacent_edge(src, dst)
        key = edge_key(src, dst)
        if key not in self._write_keys:
            raise ConsistencyError(
                f"writing edge {src!r}->{dst!r} requires the EDGE or FULL "
                f"consistency model (active model: {self.model})"
            )
        if self._record:
            self.writes.add(key)
        self._store.set_edge_data(src, dst, value)

    def gather_in(self) -> List[Tuple[VertexId, Any, Any]]:
        """Bulk read ``[(u, D_{u->v}, D_u)]`` over the in-neighbors of ``v``.

        Semantically identical to ``[(u, self.edge(u, self.vertex),
        self.neighbor(u)) for u in self.in_neighbors]`` (same order, same
        recording) but resolved in one call; when the store is the
        compiled graph itself the reads go straight through the
        finalize-time edge-slot and vertex-index arrays.
        """
        vertex = self.vertex
        store = self._store
        graph = self.graph
        csr = self._csr_gather
        if csr is not None:
            plan = csr.in_gather[self._vidx]
            if self._record:
                # Tracing-enabled runs must observe the same read set as
                # the slow path: one edge key and one vertex key per
                # in-neighbor.
                reads = self.reads
                for (u, _slot, _ui) in plan:
                    reads.add(edge_key(u, vertex))
                    reads.add(vertex_key(u))
            vdata = csr.vdata
            edata = csr.edata
            return [
                (u, edata[slot], vdata[ui]) for (u, slot, ui) in plan
            ]
        bulk = self._bulk_store
        if bulk is not None:
            return bulk.gather_in(vertex)
        if self._record:
            reads = self.reads
            out = []
            for u in graph.in_neighbors(vertex):
                reads.add(edge_key(u, vertex))
                reads.add(vertex_key(u))
                out.append((u, store.edge_data(u, vertex), store.vertex_data(u)))
            return out
        edge_data = store.edge_data
        vertex_data = store.vertex_data
        return [
            (u, edge_data(u, vertex), vertex_data(u))
            for u in graph.in_neighbors(vertex)
        ]

    def gather_out(self) -> List[Tuple[VertexId, Any, Any]]:
        """Bulk read ``[(w, D_{v->w}, D_w)]`` over the out-neighbors of ``v``.

        The mirror of :meth:`gather_in`: semantically identical to
        ``[(w, self.edge(self.vertex, w), self.neighbor(w)) for w in
        self.out_neighbors]`` (same order, same recording), resolved in
        one call. On the compiled graph the reads go through the
        per-vertex plan :func:`~repro.core.kernels.out_gather` builds
        from the canonical out-CSR arrays and edge slots; a
        slot-addressed shard answers with its own ``gather_out``.
        """
        vertex = self.vertex
        store = self._store
        csr = self._csr_gather
        if csr is not None:
            plan = out_gather(csr, self._vidx)
            if self._record:
                reads = self.reads
                for (w, _slot, _wi) in plan:
                    reads.add(edge_key(vertex, w))
                    reads.add(vertex_key(w))
            vdata = csr.vdata
            edata = csr.edata
            return [
                (w, edata[slot], vdata[wi]) for (w, slot, wi) in plan
            ]
        bulk = self._bulk_store
        if bulk is not None:
            return bulk.gather_out(vertex)
        if self._record:
            reads = self.reads
            out = []
            for w in self.graph.out_neighbors(vertex):
                reads.add(edge_key(vertex, w))
                reads.add(vertex_key(w))
                out.append((w, store.edge_data(vertex, w), store.vertex_data(w)))
            return out
        edge_data = store.edge_data
        vertex_data = store.vertex_data
        return [
            (w, edge_data(vertex, w), vertex_data(w))
            for w in self.graph.out_neighbors(vertex)
        ]

    # ------------------------------------------------------------------
    # Structure queries (always legal; structure is static).
    # ------------------------------------------------------------------
    @property
    def neighbors(self) -> Tuple[VertexId, ...]:
        """Undirected neighborhood ``N[v]``."""
        return self.graph.neighbors(self.vertex)

    @property
    def in_neighbors(self) -> Tuple[VertexId, ...]:
        """Sources of in-edges of ``v``."""
        return self.graph.in_neighbors(self.vertex)

    @property
    def out_neighbors(self) -> Tuple[VertexId, ...]:
        """Targets of out-edges of ``v``."""
        return self.graph.out_neighbors(self.vertex)

    @property
    def degree(self) -> int:
        """Undirected degree of ``v``."""
        return self.graph.degree(self.vertex)

    def adjacent_edges(self) -> Tuple[Tuple[VertexId, VertexId], ...]:
        """All directed edges incident to ``v``."""
        return self.graph.adjacent_edges(self.vertex)

    # ------------------------------------------------------------------
    # Global values and dynamic scheduling.
    # ------------------------------------------------------------------
    @property
    def globals(self) -> Mapping[str, Any]:
        """Read-only view of sync-maintained global values (Sec. 3.5)."""
        return self._globals

    def schedule(self, u: VertexId, priority: float = 0.0) -> None:
        """Request a future update of vertex ``u`` with ``priority``.

        Equivalent to returning ``u`` in the task set ``T'`` of
        ``f(v, S_v) -> (S_v, T')``; both styles may be mixed and the
        engine merges them. Only vertices of the graph may be scheduled.
        """
        if not self.graph.has_vertex(u):
            raise GraphStructureError(f"cannot schedule unknown vertex {u!r}")
        self._scheduled.append((u, float(priority)))

    def schedule_neighbors(self, priority: float = 0.0) -> None:
        """Convenience: schedule every vertex in ``N[v]``."""
        priority = float(priority)
        scheduled = self._scheduled
        for u in self.neighbors:
            scheduled.append((u, priority))

    def drain_scheduled(self) -> List[Tuple[VertexId, float]]:
        """Return and clear the scheduling requests collected so far.

        Called by engines after running the update function.
        """
        out, self._scheduled = self._scheduled, []
        return out

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------
    def _check_adjacent(self, u: VertexId) -> None:
        if u == self.vertex or u in self._nbr_set:
            return
        raise ConsistencyError(
            f"vertex {u!r} is outside the scope of {self.vertex!r}"
        )

    def _check_adjacent_edge(self, src: VertexId, dst: VertexId) -> None:
        if self.vertex not in (src, dst):
            raise ConsistencyError(
                f"edge {src!r}->{dst!r} is outside the scope of "
                f"{self.vertex!r}"
            )
        if not self.graph.has_edge(src, dst):
            raise GraphStructureError(f"unknown edge {src!r} -> {dst!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Scope(v={self.vertex!r}, model={self.model})"
