"""Finalize-time compiled CSR storage backing :class:`DataGraph`.

The paper's C++ runtime owes much of its throughput to a compact
adjacency representation resolved *once*, when the graph structure is
frozen — not per update. This module is the Python equivalent: at
``DataGraph.finalize()`` the builder dictionaries are compiled into a
:class:`CSRGraph` holding

* a dense ``vertex id -> index`` mapping (``index_of`` / ``vertex_ids``);
* numpy index/offset arrays in CSR form for the out-, in-, and
  undirected neighborhoods (``out_offsets``/``out_targets`` etc.; the
  undirected one, :func:`undirected_plan`, is derived from the other
  two on first use and memoized) plus per-edge endpoint arrays, for
  vectorized consumers;
* per-vertex *pre-materialized* Python tuples (``out_ids``, ``in_ids``,
  ``nbr_ids``, ``adj_edges``) and neighbor frozensets (``nbr_sets``) so
  the interpreter hot path answers structure queries with a single
  index — no per-call tuple allocation, no linear membership scans;
* flat, slot-addressed vertex/edge data lists (``vdata`` / ``edata``)
  with an O(1) ``(src, dst) -> slot`` lookup (``edge_slot``);
* optionally **typed data columns**: apps may declare vertex/edge dtypes
  (and per-item shapes) at ``finalize()``, in which case ``vdata`` /
  ``edata`` are numpy arrays instead of object lists. Slot addressing is
  unchanged — ``vdata[index]`` reads/writes still work — but whole-sweep
  consumers (:mod:`repro.core.kernels`) can run vectorized passes over
  the columns, and the wire format becomes raw array buffers (the
  runtime backend ships one buffer per column instead of pickling a
  Python object per entry).

The compiled **structure is immutable and shared** — ``DataGraph.copy()``
clones only the data lists (see :meth:`CSRGraph.clone_with_data`) — while
the **data lists stay mutable** for the lifetime of the run. Memoization
caches that depend only on structure (consistency write sets, scope
bind plans, kernel plans) live here so every copy and every machine of
a distributed run shares them.

Neighborhood orderings exactly reproduce the pre-compiled dict-of-lists
representation (in-neighbors first, then out-neighbors, deduplicated in
first-seen order), so engine executions are bit-identical across the
representations.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.errors import GraphStructureError

VertexId = Any
EdgeKey = Tuple[Any, Any]


def _typed_column(
    values: List[Any], dtype: Any, shape: Tuple[int, ...], kind: str
) -> np.ndarray:
    """Compile per-item data values into one typed numpy column.

    ``shape`` is the per-item shape (``()`` for scalar columns). ``None``
    values become zeros — apps that install data post-finalize (LBP's
    ``init_lbp_data_typed``) add structure first and fill the column
    later. A value that cannot be coerced to the declared dtype/shape
    fails loudly at finalize time, not mid-run.
    """
    column = np.zeros((len(values),) + tuple(shape), dtype=dtype)
    try:
        for i, value in enumerate(values):
            if value is not None:
                column[i] = value
    except (TypeError, ValueError) as exc:
        raise GraphStructureError(
            f"{kind} data cannot be compiled into a "
            f"dtype={np.dtype(dtype)!r} shape={tuple(shape)} column ({exc})"
        ) from exc
    return column


def _clone_column(column: Any) -> Any:
    """Fresh data column sharing no buffer: list copy or array copy."""
    if isinstance(column, np.ndarray):
        return column.copy()
    return list(column)


def _csr_arrays(
    per_vertex: List[Tuple], index_of: Dict
) -> Tuple[np.ndarray, np.ndarray]:
    """Pack per-vertex id tuples into (offsets, dense-index values)."""
    offsets = np.zeros(len(per_vertex) + 1, dtype=np.int64)
    np.cumsum([len(ids) for ids in per_vertex], out=offsets[1:])
    values = np.fromiter(
        (index_of[u] for ids in per_vertex for u in ids),
        dtype=np.int64,
        count=int(offsets[-1]),
    )
    return offsets, values


def undirected_plan(csr: "CSRGraph") -> Tuple[np.ndarray, np.ndarray]:
    """The undirected neighborhood ``N[v]`` in CSR form: the one definition.

    ``(offsets, targets)`` in dense indices: each vertex's in-neighbors
    then its out-neighbors, deduplicated with the first occurrence
    kept — the order the pre-compiled dict-of-lists representation
    produced. Built from the canonical in/out arrays alone and memoized
    in the plan cache, so colorings, partitioners and batch kernels read
    ``N[v]`` without materializing the interpreter views; ``nbr_ids``
    and friends are derived from it.

    Two numpy order rules carry the result: a stable argsort keeps each
    vertex's candidates in in-then-out order, and ``np.unique(...,
    return_index=True)`` returns each pair's *first* occurrence
    (pinned by a canary in ``tests/test_coloring_arrays.py``).
    """
    plan = csr.plan_cache.get("nbr_csr")
    if plan is None:
        num_vertices = len(csr.vertex_ids)
        rows = np.arange(num_vertices, dtype=np.int64)
        vert = np.concatenate((
            np.repeat(rows, np.diff(csr.in_offsets)),
            np.repeat(rows, np.diff(csr.out_offsets)),
        ))
        nbrs = np.concatenate((csr.in_sources, csr.out_targets))
        order = np.argsort(vert, kind="stable")
        vert, nbrs = vert[order], nbrs[order]
        _codes, first = np.unique(
            vert * num_vertices + nbrs, return_index=True
        )
        keep = np.sort(first)
        offsets = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(vert[keep], minlength=num_vertices),
            out=offsets[1:],
        )
        plan = csr.plan_cache["nbr_csr"] = (offsets, nbrs[keep])
    return plan


class _Views:
    """Interpreter-facing views, built lazily and shared by copies.

    The pre-materialized Python tuples (neighbor lists, edge lists,
    frozensets) cost tens of milliseconds to build on non-trivial
    graphs — the dominant share of a runtime worker's launch before
    they went lazy. Batch-kernel workers never touch them (they run on
    the canonical numpy arrays alone), so the holder starts empty and
    the first access to any view attribute materializes the whole
    group. One holder object is shared by every ``clone_with_data``
    copy, preserving the views-are-shared contract regardless of which
    copy triggers the build.
    """

    __slots__ = (
        "built",
        "out_ids",
        "in_ids",
        "nbr_ids",
        "nbr_sets",
        "adj_edges",
    )

    def __init__(self) -> None:
        self.built = False


class CSRGraph:
    """Compiled graph: immutable CSR structure + mutable flat data."""

    __slots__ = (
        # dense vertex numbering
        "vertex_ids",
        "index_of",
        # numpy CSR adjacency (dense indices)
        "out_offsets",
        "out_targets",
        "in_offsets",
        "in_sources",
        # edge slots
        "edge_keys",
        "edge_slot",
        "edge_src_index",
        "edge_dst_index",
        # lazily-built view holder (see _Views); accessed via properties
        "_views",
        # flat mutable data
        "vdata",
        "edata",
        # structure-derived memo caches (shared across copies)
        "write_set_cache",
        "bind_cache",
        "plan_cache",
    )

    #: The canonical wire form: everything else is derived from these by
    #: :meth:`_derive_views` (see ``__getstate__``).
    _CANONICAL = (
        "vertex_ids",
        "vdata",
        "edge_keys",
        "edata",
        "edge_src_index",
        "edge_dst_index",
        "out_offsets",
        "out_targets",
        "in_offsets",
        "in_sources",
    )

    @classmethod
    def build(
        cls,
        vdata: Dict[VertexId, Any],
        edata: Dict[EdgeKey, Any],
        out: Dict[VertexId, List[VertexId]],
        in_: Dict[VertexId, List[VertexId]],
        vertex_dtype: Any = None,
        edge_dtype: Any = None,
        vertex_shape: Tuple[int, ...] = (),
        edge_shape: Tuple[int, ...] = (),
    ) -> "CSRGraph":
        """Compile the builder dictionaries (insertion orders preserved).

        ``vertex_dtype`` / ``edge_dtype`` (with optional per-item
        ``*_shape``) declare typed data columns: the flat data becomes a
        numpy array of shape ``(count, *shape)`` instead of an object
        list. ``None`` keeps the object-list representation.
        """
        obj = cls.__new__(cls)
        vertex_ids = tuple(vdata)
        index_of = {v: i for i, v in enumerate(vertex_ids)}
        obj.vertex_ids = vertex_ids
        vvalues = [vdata[v] for v in vertex_ids]
        obj.vdata = (
            vvalues
            if vertex_dtype is None
            else _typed_column(vvalues, vertex_dtype, vertex_shape, "vertex")
        )

        edge_keys = tuple(edata)
        obj.edge_keys = edge_keys
        evalues = [edata[key] for key in edge_keys]
        obj.edata = (
            evalues
            if edge_dtype is None
            else _typed_column(evalues, edge_dtype, edge_shape, "edge")
        )
        obj.edge_src_index = np.fromiter(
            (index_of[s] for (s, _d) in edge_keys),
            dtype=np.int64,
            count=len(edge_keys),
        )
        obj.edge_dst_index = np.fromiter(
            (index_of[d] for (_s, d) in edge_keys),
            dtype=np.int64,
            count=len(edge_keys),
        )
        obj.out_offsets, obj.out_targets = _csr_arrays(
            [out[v] for v in vertex_ids], index_of
        )
        obj.in_offsets, obj.in_sources = _csr_arrays(
            [in_[v] for v in vertex_ids], index_of
        )
        obj._derive_views(index_of=index_of)
        return obj

    def _derive_views(self, index_of: Optional[Dict] = None) -> None:
        """Resolve the slot maps and reset memo caches + the lazy views.

        Runs at compile time *and* after unpickling: the wire format is
        just the canonical numpy/flat form, so structure ships compactly
        (the runtime backend sends one copy per worker process). Only
        the O(1)-lookup maps (``index_of``, ``edge_slot``) build
        eagerly; the pre-materialized interpreter views (tuples,
        frozensets) are *lazy* — batch-kernel consumers
        run entirely on the canonical arrays and never pay for them
        (see :class:`_Views` and :meth:`_build_views`). ``index_of``
        may be passed when the caller already built it (:meth:`build`
        does); the unpickle path recomputes it.
        """
        vertex_ids = self.vertex_ids
        if index_of is None:
            index_of = {v: i for i, v in enumerate(vertex_ids)}
        self.index_of = index_of
        self.edge_slot = {
            key: slot for slot, key in enumerate(self.edge_keys)
        }
        self._views = _Views()
        self.write_set_cache = {}
        self.bind_cache = {}
        #: Structure-only plans for the batch kernels (in-edge slot
        #: arrays, message direction plans — see repro.core.kernels),
        #: memoized here so every copy/machine shares them.
        self.plan_cache = {}

    def _build_views(self) -> "_Views":
        """Materialize every interpreter view (first access, then memo).

        Orderings reproduce the builder-dict insertion orders the
        canonical arrays were compiled from, exactly as when the views
        were built eagerly; ``nbr_ids`` is :func:`undirected_plan`
        spelled in vertex ids.
        """
        views = self._views
        vertex_ids = self.vertex_ids

        def id_lists(offsets, targets):
            ids = [vertex_ids[j] for j in targets.tolist()]
            bounds = offsets.tolist()
            return tuple(
                tuple(ids[bounds[i]:bounds[i + 1]])
                for i in range(len(vertex_ids))
            )

        views.out_ids = id_lists(self.out_offsets, self.out_targets)
        views.in_ids = id_lists(self.in_offsets, self.in_sources)
        views.nbr_ids = id_lists(*undirected_plan(self))
        views.nbr_sets = tuple(frozenset(nbrs) for nbrs in views.nbr_ids)
        views.adj_edges = tuple(
            tuple([(u, v) for u in ins] + [(v, w) for w in outs])
            for v, ins, outs in zip(vertex_ids, views.in_ids, views.out_ids)
        )
        views.built = True
        return views

    def _view(self) -> "_Views":
        views = self._views
        return views if views.built else self._build_views()

    # Lazy view accessors (one shared holder per structure; see _Views).
    @property
    def out_ids(self) -> Tuple[Tuple, ...]:
        return self._view().out_ids

    @property
    def in_ids(self) -> Tuple[Tuple, ...]:
        return self._view().in_ids

    @property
    def nbr_ids(self) -> Tuple[Tuple, ...]:
        return self._view().nbr_ids

    @property
    def nbr_sets(self) -> Tuple[FrozenSet, ...]:
        return self._view().nbr_sets

    @property
    def adj_edges(self) -> Tuple[Tuple[EdgeKey, ...], ...]:
        return self._view().adj_edges

    # The undirected CSR is canonical-derived: reading it builds no view.
    @property
    def nbr_offsets(self) -> np.ndarray:
        return undirected_plan(self)[0]

    @property
    def nbr_targets(self) -> np.ndarray:
        return undirected_plan(self)[1]

    # ------------------------------------------------------------------
    # Pickling: canonical structure + data ship; views and memo caches
    # are rebuilt on arrival.
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """Serialize only the canonical arrays and flat data.

        The runtime backend (:mod:`repro.runtime`) ships one pickled
        ``CSRGraph`` to every worker process at launch; the derived
        views and memo caches are pure functions of the canonical form,
        so each process rebuilds them instead of paying their wire cost.
        Shipping caches would also break the sharing contract — an
        unpickled cache dict is a *copy*, no longer the one object every
        local clone shares.
        """
        return {name: getattr(self, name) for name in CSRGraph._CANONICAL}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._derive_views()

    def bind_cache_for(self, model: Any) -> Dict:
        """Per-consistency-model scope-binding memo: ``vertex ->
        (write_keys, neighbor_set, vertex_index)``.

        Populated lazily by :meth:`repro.core.scope.Scope.rebind`; like
        the other caches it depends only on structure, so it is shared
        by every copy/machine.
        """
        cache = self.bind_cache.get(model)
        if cache is None:
            cache = self.bind_cache[model] = {}
        return cache

    # ------------------------------------------------------------------
    # Copies: structure (and memo caches) shared, data cloned.
    # ------------------------------------------------------------------
    def clone_with_data(self) -> "CSRGraph":
        """A copy sharing every structure array but with fresh data lists.

        Data *values* are shared (updates in this codebase replace values
        rather than mutating in place), so cloning is O(|V| + |E|) list
        copies — the cheap ``DataGraph.copy()`` contract.
        """
        other = CSRGraph.__new__(CSRGraph)
        for name in CSRGraph.__slots__:
            setattr(other, name, getattr(self, name))
        other.vdata = _clone_column(self.vdata)
        other.edata = _clone_column(self.edata)
        return other

    # ------------------------------------------------------------------
    # Typed-column introspection.
    # ------------------------------------------------------------------
    @property
    def vertex_column(self) -> Optional[np.ndarray]:
        """The typed vertex column, or ``None`` on the object fallback."""
        vdata = self.vdata
        return vdata if isinstance(vdata, np.ndarray) else None

    @property
    def edge_column(self) -> Optional[np.ndarray]:
        """The typed edge column, or ``None`` on the object fallback."""
        edata = self.edata
        return edata if isinstance(edata, np.ndarray) else None

    # ------------------------------------------------------------------
    # Structure queries (index-based fast path lives in DataGraph/Scope).
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.vertex_ids)

    @property
    def num_edges(self) -> int:
        return len(self.edge_keys)

    def dense_map(self, mapping: Any, dtype: Any = np.int64) -> np.ndarray:
        """Per-vertex values of an id-keyed mapping, in dense index order.

        The standard bridge from id-keyed coordination state (ownership
        maps, colorings) into index space: runtime shards, workers, and
        the engine all resolve ``mapping[vertex_ids[i]]`` into one flat
        array once and use vectorized index arithmetic afterwards.
        """
        vertex_ids = self.vertex_ids
        return np.fromiter(
            (mapping[v] for v in vertex_ids),
            dtype=dtype,
            count=len(vertex_ids),
        )

    # ------------------------------------------------------------------
    # Flat data access by id (slot addressing for the common case).
    # ------------------------------------------------------------------
    def vertex_data(self, vid: VertexId) -> Any:
        try:
            return self.vdata[self.index_of[vid]]
        except KeyError:
            raise GraphStructureError(f"unknown vertex {vid!r}") from None

    def set_vertex_data(self, vid: VertexId, value: Any) -> None:
        try:
            self.vdata[self.index_of[vid]] = value
        except KeyError:
            raise GraphStructureError(f"unknown vertex {vid!r}") from None

    def edge_data(self, src: VertexId, dst: VertexId) -> Any:
        try:
            return self.edata[self.edge_slot[(src, dst)]]
        except KeyError:
            raise GraphStructureError(
                f"unknown edge {src!r} -> {dst!r}"
            ) from None

    def set_edge_data(self, src: VertexId, dst: VertexId, value: Any) -> None:
        try:
            self.edata[self.edge_slot[(src, dst)]] = value
        except KeyError:
            raise GraphStructureError(
                f"unknown edge {src!r} -> {dst!r}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(|V|={len(self.vertex_ids)}, "
            f"|E|={len(self.edge_keys)})"
        )
