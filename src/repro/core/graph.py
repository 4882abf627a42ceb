"""The data graph: ``G = (V, E, D)`` (paper Sec. 3.1).

The :class:`DataGraph` stores the user's program state: arbitrary mutable
data attached to every vertex and to every *directed* edge, over a static
structure. Following the paper:

* data is "model parameters, algorithm state, and even statistical data";
* the structure is immutable once execution begins (``finalize()``);
* the abstraction is not dependent on edge direction — the scope of a
  vertex contains data on *both* directions of every adjacent edge, and
  neighborhood queries default to the undirected neighborhood ``N[v]``.

Storage is two-phase. While *building*, vertices and edges live in plain
dictionaries keyed by user ids. ``finalize()`` **compiles** them into a
:class:`repro.core.csr.CSRGraph` — dense vertex indices, CSR adjacency
arrays, pre-materialized neighborhood tuples, and flat slot-addressed
data lists — and every query and data access afterwards delegates to the
compiled form. The public API is identical in both phases; the compiled
structure is immutable and shared by :meth:`copy`, only the flat data
lists are cloned.

Vertex identifiers may be any hashable value, though the distributed
layer is fastest with dense integers (atom journals store raw ids).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.csr import CSRGraph
from repro.errors import GraphNotFinalizedError, GraphStructureError

VertexId = Hashable
EdgeKey = Tuple[Hashable, Hashable]


def _span(offsets: Any, index: int) -> int:
    """Length of CSR row ``index``."""
    return int(offsets[index + 1] - offsets[index])


class DataGraph:
    """Directed graph with mutable per-vertex and per-edge data.

    Parameters
    ----------
    vertices:
        Optional iterable of ``vertex_id`` or ``(vertex_id, data)`` pairs.
    edges:
        Optional iterable of ``(src, dst)`` or ``(src, dst, data)`` tuples.
        Vertices referenced by edges must be added explicitly; this mirrors
        the atom-journal format where ``AddVertex`` precedes ``AddEdge``.

    Examples
    --------
    >>> g = DataGraph()
    >>> g.add_vertex(0, data=1.0)
    >>> g.add_vertex(1, data=2.0)
    >>> g.add_edge(0, 1, data=0.5)
    >>> g.finalize()
    >>> g.vertex_data(0)
    1.0
    >>> sorted(g.neighbors(1))
    [0]
    """

    def __init__(
        self,
        vertices: Iterable[Any] = (),
        edges: Iterable[Any] = (),
    ) -> None:
        self._vdata: Optional[Dict[VertexId, Any]] = {}
        self._edata: Optional[Dict[EdgeKey, Any]] = {}
        self._out: Optional[Dict[VertexId, List[VertexId]]] = {}
        self._in: Optional[Dict[VertexId, List[VertexId]]] = {}
        self._csr: Optional[CSRGraph] = None
        self._finalized = False
        for item in vertices:
            if isinstance(item, tuple) and len(item) == 2:
                self.add_vertex(item[0], data=item[1])
            else:
                self.add_vertex(item)
        for item in edges:
            if len(item) == 3:
                self.add_edge(item[0], item[1], data=item[2])
            else:
                self.add_edge(item[0], item[1])

    # ------------------------------------------------------------------
    # Structure construction (legal only before finalize()).
    # ------------------------------------------------------------------
    def add_vertex(self, vid: VertexId, data: Any = None) -> None:
        """Add vertex ``vid`` carrying ``data``.

        Raises :class:`GraphStructureError` if the vertex already exists
        or the graph has been finalized.
        """
        self._check_mutable()
        if vid in self._vdata:
            raise GraphStructureError(f"duplicate vertex {vid!r}")
        self._vdata[vid] = data
        self._out[vid] = []
        self._in[vid] = []

    def add_edge(self, src: VertexId, dst: VertexId, data: Any = None) -> None:
        """Add the directed edge ``src -> dst`` carrying ``data``.

        Both endpoints must already exist; self-loops and duplicate edges
        are rejected (the paper's data graph is simple).
        """
        self._check_mutable()
        if src == dst:
            raise GraphStructureError(f"self-loop on vertex {src!r}")
        if src not in self._vdata:
            raise GraphStructureError(f"unknown source vertex {src!r}")
        if dst not in self._vdata:
            raise GraphStructureError(f"unknown target vertex {dst!r}")
        key = (src, dst)
        if key in self._edata:
            raise GraphStructureError(f"duplicate edge {src!r} -> {dst!r}")
        self._edata[key] = data
        self._out[src].append(dst)
        self._in[dst].append(src)

    def finalize(
        self,
        vertex_dtype: Any = None,
        edge_dtype: Any = None,
        vertex_shape: Tuple[int, ...] = (),
        edge_shape: Tuple[int, ...] = (),
    ) -> "DataGraph":
        """Freeze the structure and compile it to CSR form.

        After this call the structure is immutable (data stays mutable),
        matching the paper's static-structure requirement: vertex ids are
        mapped to dense indices, adjacency becomes CSR index/offset
        arrays plus pre-materialized neighborhood tuples, and data moves
        into flat slot-addressed lists (:class:`repro.core.csr.CSRGraph`).

        ``vertex_dtype`` / ``edge_dtype`` (with optional per-item
        ``vertex_shape`` / ``edge_shape``) declare **typed data
        columns**: the flat data compiles into numpy arrays of shape
        ``(count, *shape)`` instead of object lists. ``None`` builder
        values become zeros (apps may fill the column post-finalize).
        Typed columns unlock the batch kernels
        (:mod:`repro.core.kernels`) and the runtime backend's
        array-buffer wire format; the public data API is unchanged.

        Idempotent (repeat calls ignore the dtype arguments). Returns
        ``self`` for chaining.
        """
        if self._finalized:
            return self
        self._csr = CSRGraph.build(
            self._vdata,
            self._edata,
            self._out,
            self._in,
            vertex_dtype=vertex_dtype,
            edge_dtype=edge_dtype,
            vertex_shape=vertex_shape,
            edge_shape=edge_shape,
        )
        # Builder dicts are dropped: the compiled form is the single
        # source of truth, so stale reads fail loudly.
        self._vdata = self._edata = self._out = self._in = None
        self._finalized = True
        return self

    @property
    def finalized(self) -> bool:
        """Whether :meth:`finalize` has been called."""
        return self._finalized

    @property
    def compiled(self) -> Optional[CSRGraph]:
        """The compiled CSR storage (``None`` before :meth:`finalize`)."""
        return self._csr

    def _check_mutable(self) -> None:
        if self._finalized:
            raise GraphStructureError(
                "graph structure is static after finalize() (paper Sec. 3.1)"
            )

    def require_finalized(self) -> None:
        """Raise :class:`GraphNotFinalizedError` unless finalized."""
        if not self._finalized:
            raise GraphNotFinalizedError(
                "operation requires a finalized graph; call finalize() first"
            )

    # ------------------------------------------------------------------
    # Structure queries.
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        csr = self._csr
        if csr is not None:
            return len(csr.vertex_ids)
        return len(self._vdata)

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``|E|``."""
        csr = self._csr
        if csr is not None:
            return len(csr.edge_keys)
        return len(self._edata)

    def vertices(self) -> Iterator[VertexId]:
        """Iterate over vertex ids in insertion order."""
        csr = self._csr
        if csr is not None:
            return iter(csr.vertex_ids)
        return iter(self._vdata)

    def edges(self) -> Iterator[EdgeKey]:
        """Iterate over directed edge keys ``(src, dst)``."""
        csr = self._csr
        if csr is not None:
            return iter(csr.edge_keys)
        return iter(self._edata)

    def vertex_index(self) -> Mapping[VertexId, int]:
        """Dense ``vertex id -> index`` mapping (insertion order).

        Post-finalize this is a read-only proxy of the compiled
        numbering shared by the CSR arrays (mutating it would corrupt
        every copy sharing the structure, so the proxy enforces the
        contract); lookups stay O(1).
        """
        csr = self._csr
        if csr is not None:
            return MappingProxyType(csr.index_of)
        return {v: i for i, v in enumerate(self._vdata)}

    def has_vertex(self, vid: VertexId) -> bool:
        """Whether ``vid`` is a vertex of the graph."""
        csr = self._csr
        if csr is not None:
            return vid in csr.index_of
        return vid in self._vdata

    def has_edge(self, src: VertexId, dst: VertexId) -> bool:
        """Whether the directed edge ``src -> dst`` exists."""
        csr = self._csr
        if csr is not None:
            return (src, dst) in csr.edge_slot
        return (src, dst) in self._edata

    def out_neighbors(self, vid: VertexId) -> Tuple[VertexId, ...]:
        """Targets of out-edges of ``vid``."""
        csr = self._csr
        if csr is not None:
            return csr.out_ids[csr.index_of[vid]]
        return tuple(self._out[vid])

    def in_neighbors(self, vid: VertexId) -> Tuple[VertexId, ...]:
        """Sources of in-edges of ``vid``."""
        csr = self._csr
        if csr is not None:
            return csr.in_ids[csr.index_of[vid]]
        return tuple(self._in[vid])

    def neighbors(self, vid: VertexId) -> Tuple[VertexId, ...]:
        """Undirected neighborhood ``N[v]`` (in- and out-neighbors, deduped).

        This is the neighborhood the scope ``S_v`` is built from; the
        tuple is pre-materialized by :meth:`finalize` (zero-allocation).
        """
        csr = self._csr
        if csr is not None:
            return csr.nbr_ids[csr.index_of[vid]]
        merged = dict.fromkeys(self._in[vid])
        merged.update(dict.fromkeys(self._out[vid]))
        return tuple(merged)

    def neighbor_set(self, vid: VertexId) -> frozenset:
        """``N[v]`` as a frozenset for O(1) membership checks."""
        csr = self._csr
        if csr is not None:
            return csr.nbr_sets[csr.index_of[vid]]
        return frozenset(self.neighbors(vid))

    # Compiled degrees are CSR offset differences: no view is built.
    def degree(self, vid: VertexId) -> int:
        """Undirected degree ``|N[v]|``."""
        csr = self._csr
        if csr is not None:
            return _span(csr.nbr_offsets, csr.index_of[vid])
        return len(self.neighbors(vid))

    def out_degree(self, vid: VertexId) -> int:
        """Number of out-edges of ``vid``."""
        csr = self._csr
        if csr is not None:
            return _span(csr.out_offsets, csr.index_of[vid])
        return len(self._out[vid])

    def in_degree(self, vid: VertexId) -> int:
        """Number of in-edges of ``vid``."""
        csr = self._csr
        if csr is not None:
            return _span(csr.in_offsets, csr.index_of[vid])
        return len(self._in[vid])

    def adjacent_edges(self, vid: VertexId) -> Tuple[EdgeKey, ...]:
        """All directed edges incident to ``vid`` (both directions).

        In-edges first, then out-edges; post-finalize the tuple is
        pre-materialized and must not be mutated.
        """
        csr = self._csr
        if csr is not None:
            return csr.adj_edges[csr.index_of[vid]]
        return tuple(
            [(u, vid) for u in self._in[vid]]
            + [(vid, w) for w in self._out[vid]]
        )

    # ------------------------------------------------------------------
    # Data access (always legal; data is mutable during execution).
    # ------------------------------------------------------------------
    def vertex_data(self, vid: VertexId) -> Any:
        """Return ``D_v``."""
        csr = self._csr
        if csr is not None:
            return csr.vertex_data(vid)
        try:
            return self._vdata[vid]
        except KeyError:
            raise GraphStructureError(f"unknown vertex {vid!r}") from None

    def set_vertex_data(self, vid: VertexId, value: Any) -> None:
        """Overwrite ``D_v``."""
        csr = self._csr
        if csr is not None:
            csr.set_vertex_data(vid, value)
            return
        if vid not in self._vdata:
            raise GraphStructureError(f"unknown vertex {vid!r}")
        self._vdata[vid] = value

    def edge_data(self, src: VertexId, dst: VertexId) -> Any:
        """Return ``D_{src -> dst}``."""
        csr = self._csr
        if csr is not None:
            return csr.edge_data(src, dst)
        try:
            return self._edata[(src, dst)]
        except KeyError:
            raise GraphStructureError(f"unknown edge {src!r} -> {dst!r}") from None

    def set_edge_data(self, src: VertexId, dst: VertexId, value: Any) -> None:
        """Overwrite ``D_{src -> dst}``."""
        csr = self._csr
        if csr is not None:
            csr.set_edge_data(src, dst, value)
            return
        if (src, dst) not in self._edata:
            raise GraphStructureError(f"unknown edge {src!r} -> {dst!r}")
        self._edata[(src, dst)] = value

    # ------------------------------------------------------------------
    # Convenience.
    # ------------------------------------------------------------------
    def copy(self) -> "DataGraph":
        """Copy with shared immutable structure, cloned data containers.

        Used by engines that need a pristine baseline (e.g. snapshot
        recovery tests). Post-finalize the compiled CSR structure (and
        its memo caches) is shared outright and only the flat data lists
        are cloned; data values themselves are shared — update functions
        in this codebase replace values rather than mutating them in
        place, which keeps copies cheap.
        """
        other = DataGraph()
        if self._finalized:
            other._vdata = other._edata = other._out = other._in = None
            other._csr = self._csr.clone_with_data()
            other._finalized = True
            return other
        other._vdata = dict(self._vdata)
        other._edata = dict(self._edata)
        other._out = {v: list(ns) for v, ns in self._out.items()}
        other._in = {v: list(ns) for v, ns in self._in.items()}
        return other

    def __contains__(self, vid: VertexId) -> bool:
        return self.has_vertex(vid)

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:
        state = "finalized" if self._finalized else "building"
        return (
            f"DataGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"{state})"
        )
