"""Slot-addressed shard storage: the one per-machine store (Sec. 4.1).

:class:`CSRShardStore` is one machine's slice of the distributed data
graph: primary copies of the vertices and edges it owns plus *ghosts* of
the boundary, kept coherent by versioning — monotone versions,
idempotent ``apply_remote``, dirty data drained in batches per
destination. Every distributed engine runs against it: the runtime's
worker processes and the simulated machines of :mod:`repro.distributed`
alike. It is laid out on the finalize-time compiled form: every store
shares the :class:`~repro.core.csr.CSRGraph` structure and keeps its
data in **flat columns aligned to the compiled slots**
(``vdata_flat[index]`` / ``edata_flat[slot]`` — numpy arrays when the
graph declared typed columns, lists otherwise), versions in parallel
numpy arrays, and dirty state as boolean masks. The ROADMAP's storage
contract ("per-machine stores … must treat graph structure queries as
O(1) array hits") applied to data too: reads on the update hot path are
a flat index, not a dict probe, batch kernels
(:mod:`repro.core.kernels`) execute directly on the columns, and dirty
collection / remote application run as vectorized mask passes.

Two wires drain the same dirty state. The runtime ships slot-form
:class:`FlatEntries` batches (:meth:`CSRShardStore.collect_dirty_flat` /
:meth:`~CSRShardStore.apply_flat`, or the data plane's ring). The
simulator's modeled wire charges bytes per datum, so it moves per-key
entries ``(DataKey, value, version, bytes)`` with ``("v", vid)`` /
``("e", src, dst)`` keys and :class:`~repro.distributed.models.
DataSizeModel` sizes: :meth:`~CSRShardStore.collect_dirty`,
:meth:`~CSRShardStore.apply_remote`, :meth:`~CSRShardStore.version` and
:meth:`~CSRShardStore.key_bytes`.

Snapshots use the same layout: owned state leaves and enters a shard
only as a slot-form :class:`FlatEntries` batch (``index``/``value``/
``version`` per column) — :meth:`CSRShardStore.checkpoint_payload`
gathers it, :meth:`CSRShardStore.restore_checkpoint` force-applies it,
and the journal record built around it (:func:`make_journal`, checked
by :func:`check_journal`) is what crosses the wire and lands on disk.
This module is the only one that knows that layout — and likewise the
serving read-reply layout: a worker's ``serve`` command
(:meth:`CSRShardStore.read_snapshot`) and the coordinator's round-free
plane reads (:class:`PlaneReader`) build their replies through the same
two helpers.

Scope contract: access is expected to come through
:class:`~repro.core.scope.Scope`, whose adjacency checks confine reads
to held data (the scope of an owned vertex is always fully held —
primaries plus ghosts). A direct read of a vertex or edge that is in the
graph but not held by this machine is not detected: the flat columns
cover the whole graph, and unheld slots keep their load-time values. An
id outside the graph raises :class:`~repro.errors.GraphStructureError`;
heldness is reported by ``has_vertex`` and by ``version`` (−1), and
``apply_remote`` / ``apply_flat`` drop deliveries to unheld slots.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.consistency import DataKey, edge_key, vertex_key
from repro.core.graph import DataGraph, VertexId
from repro.core.kernels import in_edge_plan, in_gather, out_gather
from repro.distributed.models import VERSION_BYTES, DataSizeModel
from repro.errors import GraphStructureError


def ghost_write_targets(
    graph: DataGraph,
    owner: Mapping[VertexId, int],
    machine_id: int,
    vid: VertexId,
) -> FrozenSet[int]:
    """Remote holders of a ghost vertex, from ``machine_id``'s view.

    The mirror-holder rule: a vertex is held by its owner and by every
    machine owning one of its neighbors, so a FULL-consistency ghost
    write must ship to all of those except the writer itself. Computable
    locally because structure and the owner map are replicated on every
    machine.
    """
    holders = {owner[vid]}
    holders.update(owner[u] for u in graph.neighbors(vid))
    holders.discard(machine_id)
    return frozenset(holders)


def _concat_field(a: Any, b: Any) -> Any:
    """Merge two parallel wire fields (lists and/or numpy arrays).

    Typed-column batches carry numpy arrays; the object fallback carries
    lists. A destination inbox can accumulate several batches per round
    (and across elided rounds), so merging must handle either side being
    empty or array-backed.
    """
    if len(a) == 0:
        return b
    if len(b) == 0:
        return a
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.concatenate((np.asarray(a), np.asarray(b)))
    a.extend(b)
    return a


class FlatEntries:
    """A struct-of-arrays batch of slot-form entries.

    Parallel fields: ``v_index``/``v_value``/``v_version`` for vertex
    data, ``e_slot``/``e_value``/``e_version`` for edge data. On graphs
    with typed data columns every field is a numpy array — the **wire
    format is then raw array buffers** (one pickled buffer per field, no
    per-entry Python objects); on the object fallback the values are a
    parallel list (and the dirty wire ships index/version as lists too).
    Ghost batches merge with :meth:`extend` (the coordinator routes
    several workers' output into one destination inbox per round); the
    same shape carries snapshot journals and the final collect
    (:func:`gather_entries`), where many small batches merge at once
    with :func:`concat_entries`.
    """

    __slots__ = (
        "v_index", "v_value", "v_version", "e_slot", "e_value", "e_version"
    )

    def __init__(self) -> None:
        self.v_index: Any = []
        self.v_value: Any = []
        self.v_version: Any = []
        self.e_slot: Any = []
        self.e_value: Any = []
        self.e_version: Any = []

    def extend(self, other: "FlatEntries") -> None:
        self.v_index = _concat_field(self.v_index, other.v_index)
        self.v_value = _concat_field(self.v_value, other.v_value)
        self.v_version = _concat_field(self.v_version, other.v_version)
        self.e_slot = _concat_field(self.e_slot, other.e_slot)
        self.e_value = _concat_field(self.e_value, other.e_value)
        self.e_version = _concat_field(self.e_version, other.e_version)

    def __len__(self) -> int:
        return len(self.v_index) + len(self.e_slot)

    def __getstate__(self) -> Tuple:
        return (
            self.v_index, self.v_value, self.v_version,
            self.e_slot, self.e_value, self.e_version,
        )

    def __setstate__(self, state: Tuple) -> None:
        (
            self.v_index, self.v_value, self.v_version,
            self.e_slot, self.e_value, self.e_version,
        ) = state


class UndoLog:
    """Snapshot of a conservative write set, for speculative steps.

    Color-merged rounds execute later colors *speculatively*
    (:mod:`repro.runtime.engine`); if the coordinator aborts, the store
    must return to its pre-step state exactly — values, versions, dirty
    bits. The captured set is the union of the frontier's consistency
    write sets (own vertex data — plus neighbor data under FULL
    consistency, where ``set_neighbor`` is legal — and all adjacent edge
    slots), which :class:`~repro.core.scope.Scope` enforces as the only
    writable keys and which bounds every kernel's writes too.
    """

    __slots__ = ("v_idx", "v_vals", "v_vers", "e_slots", "e_vals", "e_vers")

    def __init__(self, v_idx, v_vals, v_vers, e_slots, e_vals, e_vers):
        self.v_idx = v_idx
        self.v_vals = v_vals
        self.v_vers = v_vers
        self.e_slots = e_slots
        self.e_vals = e_vals
        self.e_vers = e_vers


def _gather(column: Any, index: np.ndarray) -> Any:
    """Copy ``column[index]``: an array off a typed column, a parallel
    list off the object fallback."""
    if isinstance(column, np.ndarray):
        return column[index]
    return [column[i] for i in index.tolist()]


def _scatter(column: Any, index: np.ndarray, values: Any) -> None:
    """``column[index] = values`` for either column kind."""
    if isinstance(column, np.ndarray):
        column[index] = values
    else:
        for i, value in zip(index.tolist(), values):
            column[i] = value


def gather_entries(
    vdata: Any,
    edata: Any,
    v_index: np.ndarray,
    e_slot: np.ndarray,
    vversion: Optional[np.ndarray] = None,
    eversion: Optional[np.ndarray] = None,
) -> FlatEntries:
    """The given slots of two data columns as one slot-form batch.

    The one gather behind every snapshot journal and the final collect:
    index and version fields are int32 arrays (same widths as the dirty
    wire), values an array off a typed column or a list off an object
    column. ``None`` versions journal as 0 — the coordinator's launch
    baseline, which must force survivors' version clocks back to zero
    along with their values or post-recovery deliveries would be
    filtered as stale.
    """
    batch = FlatEntries()
    batch.v_index = v_index.astype(np.int32)
    batch.v_value = _gather(vdata, v_index)
    batch.v_version = (
        np.zeros(len(v_index), dtype=np.int32)
        if vversion is None
        else vversion[v_index].astype(np.int32)
    )
    batch.e_slot = e_slot.astype(np.int32)
    batch.e_value = _gather(edata, e_slot)
    batch.e_version = (
        np.zeros(len(e_slot), dtype=np.int32)
        if eversion is None
        else eversion[e_slot].astype(np.int32)
    )
    return batch


def _concat_all(parts: List[Any]) -> Any:
    """One field of several batches of the same store, end to end."""
    if isinstance(parts[0], np.ndarray):
        return np.concatenate(parts)
    return [value for part in parts for value in part]


def concat_entries(batches: Sequence[FlatEntries]) -> FlatEntries:
    """Merge many batches of one store in a single pass per field
    (pairwise :meth:`FlatEntries.extend` would copy quadratically)."""
    merged = FlatEntries()
    for name in FlatEntries.__slots__:
        setattr(
            merged, name, _concat_all([getattr(b, name) for b in batches])
        )
    return merged


def scatter_entries(batch: FlatEntries, vdata: Any, edata: Any) -> None:
    """Write a batch's values into two data columns, unconditionally
    (the coordinator's collect write-back: owners are authoritative)."""
    _scatter(vdata, np.asarray(batch.v_index, dtype=np.int64), batch.v_value)
    _scatter(edata, np.asarray(batch.e_slot, dtype=np.int64), batch.e_value)


#: Format tag of a snapshot journal; anything else on disk (the
#: pre-slot-form per-key dicts included) is rejected at load time.
JOURNAL_FORMAT = "slot-journal/1"


def sparse_counts(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """A dense per-vertex update-count vector as the ``(int32 index,
    int64 count)`` pair that rides journals and collect replies."""
    index = np.nonzero(counts)[0]
    return index.astype(np.int32), counts[index]


def make_journal(
    state: FlatEntries,
    counts: Optional[np.ndarray] = None,
    sched: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Dict[str, Any]:
    """One worker's snapshot journal record.

    ``state`` is the worker's owned slots
    (:meth:`CSRShardStore.checkpoint_payload`), ``counts`` its dense
    update-count vector (journaled through :func:`sparse_counts`; none
    at the launch baseline), ``sched`` the locking engine's journaled
    scheduler as ``(int32 index, float64 priority)`` (the chromatic task
    set rides the coordinator's meta record instead).
    """
    if counts is None:
        counts = np.empty(0, dtype=np.int64)
    journal = {
        "format": JOURNAL_FORMAT,
        "state": state,
        "counts": sparse_counts(counts),
    }
    if sched is not None:
        journal["sched"] = sched
    return journal


def check_journal(journal: Any) -> None:
    """Raise ``ValueError`` unless ``journal`` is a well-formed
    :func:`make_journal` record: right format tag, every field present,
    parallel arrays of equal length. A journal can pass its CRC and
    still be unusable (written by another version, or truncated before
    it was checksummed); this is what keeps that from surfacing as a
    ``KeyError`` inside a worker's restore."""
    tag = journal.get("format") if isinstance(journal, dict) else None
    if tag != JOURNAL_FORMAT:
        raise ValueError(
            f"format tag {tag!r}, expected {JOURNAL_FORMAT!r}"
        )
    state = journal.get("state")
    if not isinstance(state, FlatEntries):
        raise ValueError("field 'state' is missing or not slot entries")
    pairs = {"counts": journal.get("counts")}
    if "sched" in journal:
        pairs["sched"] = journal["sched"]
    for name, pair in pairs.items():
        if not isinstance(pair, tuple) or len(pair) != 2:
            raise ValueError(
                f"field {name!r} is missing or not an (index, value) pair"
            )
    groups = {
        "state vertex": (state.v_index, state.v_value, state.v_version),
        "state edge": (state.e_slot, state.e_value, state.e_version),
        **pairs,
    }
    for name, fields in groups.items():
        try:
            lengths = {len(field) for field in fields}
        except TypeError:
            raise ValueError(f"{name} fields are not arrays") from None
        if len(lengths) != 1:
            raise ValueError(
                f"{name} arrays have mismatched lengths {sorted(lengths)}"
            )


def _read_slots(
    csr: Any, vid: VertexId, scope: bool
) -> Tuple[List[int], Optional[List[int]]]:
    """The slots one serving read covers.

    ``v_index`` starts with the vertex itself; a scope read appends its
    in-neighbors in in-CSR order and returns their in-edge slots aligned
    with them (the kernels' edge-slot plan), so the reply is built from
    the canonical arrays alone — the slots
    :func:`~repro.core.kernels.in_gather` yields, without memoizing a
    plan per served vertex. ``e_slot`` is ``None`` for a point read.
    """
    try:
        index = csr.index_of[vid]
    except KeyError:
        raise GraphStructureError(f"unknown vertex {vid!r}") from None
    if not scope:
        return [index], None
    lo, hi = csr.in_offsets[index], csr.in_offsets[index + 1]
    return (
        [index] + csr.in_sources[lo:hi].tolist(),
        in_edge_plan(csr)[lo:hi].tolist(),
    )


def _read_reply(
    vertex_ids: Sequence[VertexId],
    v_index: List[int],
    v_value: Sequence[Any],
    v_version: Sequence[Any],
    e_value: Optional[Sequence[Any]] = None,
    e_version: Optional[Sequence[Any]] = None,
) -> Dict[str, Any]:
    """The one serving read-reply layout: ``vertex`` / ``value`` /
    ``version``, plus, for a scope read, ``neighbors`` and ``in_edges``
    mapping each in-neighbor id to ``(value, version)``. Inputs are the
    values and versions of :func:`_read_slots`' slots, in its order."""
    out: Dict[str, Any] = {
        "vertex": vertex_ids[v_index[0]],
        "value": v_value[0],
        "version": int(v_version[0]),
    }
    if e_version is not None:
        neighbors: Dict[VertexId, Tuple[Any, int]] = {}
        in_edges: Dict[VertexId, Tuple[Any, int]] = {}
        for k, index in enumerate(v_index[1:]):
            u = vertex_ids[index]
            neighbors[u] = (v_value[k + 1], int(v_version[k + 1]))
            in_edges[u] = (e_value[k], int(e_version[k]))
        out["neighbors"] = neighbors
        out["in_edges"] = in_edges
    return out


def _freshest(
    versions: Sequence[np.ndarray],
    columns: Sequence[np.ndarray],
    index: List[int],
    owner: np.ndarray,
) -> Tuple[List[Any], List[Any]]:
    """Each slot's value and version from its highest-versioned copy.

    ``versions`` / ``columns`` hold one array per worker segment;
    ``owner`` maps a slot to its journal owner, whose copy wins a tie
    (workers that do not hold a slot keep version 0, so they can never
    displace a holder). Values are copies — never views of shared
    memory. A scalar loop: a serving read covers a handful of slots, far
    below where numpy's per-call overhead pays for itself.
    """
    values, tags = [], []
    for i in index:
        best = owner[i]
        tag = versions[best][i]
        for w, version in enumerate(versions):
            if version[i] > tag:
                best, tag = w, version[i]
        values.append(columns[best][i].copy())
        tags.append(tag)
    return values, tags


class PlaneReader:
    """Serving reads answered straight out of the data plane — no round.

    The coordinator maps every worker's segment (:mod:`repro.runtime.
    plane`), data columns and version counters alike. Each datum a read
    covers — the vertex; for a scope read also every in-neighbor and
    in-edge — is taken from whichever segment holds its highest version
    (:func:`_freshest`), and the reply has exactly the layout of
    :meth:`CSRShardStore.read_snapshot`. Not the owner's segment: an
    EDGE-consistency update at ``v`` writes in-edges whose journal owner
    is the source's worker, and a FULL-consistency update writes
    neighbor data, so until the next command delivers the routed
    entries the freshest copy sits at the writer.

    That rule is the barrier read exactly, under two conditions the
    caller must guarantee:

    * **Reads happen between commands**, on the thread that drives the
      engine (the serving thread). Every segment is then quiescent,
      updates are atomic within one command, and every dirty entry of
      the last command has been routed toward every holder — so the
      highest-versioned copy is what the owner's ``serve`` command
      would read after applying its pending inbox.
    * **No speculation can roll back.** The chromatic engine's
      color-merged rounds leave speculative values in an owner's
      segment until the next command delivers the commit/abort verdict.
      The chromatic fallback serves only at sweep quiescence, where an
      outstanding verdict is always a full commit.
    """

    def __init__(self, csr: Any, owner_idx: np.ndarray) -> None:
        self._csr = csr
        self._v_owner = owner_idx
        self._e_owner = owner_idx[csr.edge_src_index]

    def read(
        self, segments: Sequence[Any], reads: Sequence[Tuple[Any, VertexId, bool]]
    ) -> Dict[Any, Dict[str, Any]]:
        """``{request_id: snapshot}`` for ``(request_id, vertex,
        want_scope)`` reads."""
        csr = self._csr
        vversion = [segment.vversion for segment in segments]
        vdata = [segment.vdata for segment in segments]
        eversion = [segment.eversion for segment in segments]
        edata = [segment.edata for segment in segments]
        out: Dict[Any, Dict[str, Any]] = {}
        for req_id, vid, scope in reads:
            v_index, e_slot = _read_slots(csr, vid, bool(scope))
            edges = () if e_slot is None else _freshest(
                eversion, edata, e_slot, self._e_owner
            )
            out[req_id] = _read_reply(
                csr.vertex_ids,
                v_index,
                *_freshest(vversion, vdata, v_index, self._v_owner),
                *edges,
            )
        return out


class CSRShardStore:
    """One worker's slice of the graph, slot-addressed end to end."""

    __slots__ = (
        "machine_id",
        "graph",
        "owner",
        "sizes",
        "owned_vertices",
        "ghost_vertices",
        "vdata_flat",
        "edata_flat",
        "_csr",
        "_index_of",
        "_edge_slot",
        "_vversion",
        "_eversion",
        "_dirty_v",
        "_dirty_e",
        "_held_v_mask",
        "_held_e_mask",
        "_owned_mask",
        "_vtargets",
        "_route_v",
        "_route_e",
    )

    def __init__(
        self,
        machine_id: int,
        graph: DataGraph,
        owner: Mapping[VertexId, int],
        sizes: DataSizeModel = DataSizeModel(),
    ) -> None:
        graph.require_finalized()
        csr = graph.compiled
        self.machine_id = machine_id
        self.graph = graph
        self.owner = owner
        self.sizes = sizes
        self._csr = csr
        self._index_of = csr.index_of
        self._edge_slot = csr.edge_slot
        # Full-length clones of the flat data columns: owned and ghost
        # slots are live, the rest keep their load-time values (never
        # read through a scope, never shipped). Typed columns clone as
        # numpy arrays, so kernels run directly on the shard and dirty
        # values ship as array buffers.
        self.vdata_flat = (
            csr.vdata.copy()
            if isinstance(csr.vdata, np.ndarray)
            else list(csr.vdata)
        )
        self.edata_flat = (
            csr.edata.copy()
            if isinstance(csr.edata, np.ndarray)
            else list(csr.edata)
        )
        num_vertices = len(csr.vertex_ids)
        num_edges = len(csr.edge_keys)
        self._vversion = np.zeros(num_vertices, dtype=np.int64)
        self._eversion = np.zeros(num_edges, dtype=np.int64)
        self._dirty_v = np.zeros(num_vertices, dtype=bool)
        self._dirty_e = np.zeros(num_edges, dtype=bool)

        # Partition geometry, resolved in vectorized passes over the
        # canonical endpoint arrays — no Python-level neighbor views
        # (kernel-mode workers never build them, and eager views were
        # the dominant share of worker launch time).
        vertex_ids = csr.vertex_ids
        owner_idx = np.fromiter(
            (owner[v] for v in vertex_ids),
            dtype=np.int64,
            count=num_vertices,
        )
        owned_mask = owner_idx == machine_id
        self._owned_mask = owned_mask
        self.owned_vertices: List[VertexId] = [
            vertex_ids[i] for i in np.nonzero(owned_mask)[0]
        ]
        src, dst = csr.edge_src_index, csr.edge_dst_index
        held_e_mask = owned_mask[src] | owned_mask[dst]
        self._held_e_mask = held_e_mask
        held_v_mask = owned_mask.copy()
        held_v_mask[src[held_e_mask]] = True
        held_v_mask[dst[held_e_mask]] = True
        self._held_v_mask = held_v_mask
        self.ghost_vertices: FrozenSet[VertexId] = frozenset(
            vertex_ids[i]
            for i in np.nonzero(held_v_mask & ~owned_mask)[0]
        )
        # Mirror pairs (owned boundary vertex index, remote holder):
        # every held edge contributes its owned endpoint(s) paired with
        # the other endpoint's owner when remote.
        pair_v: List[np.ndarray] = []
        pair_m: List[np.ndarray] = []
        he_src, he_dst = src[held_e_mask], dst[held_e_mask]
        for mine, other in ((he_src, he_dst), (he_dst, he_src)):
            remote = owned_mask[mine] & (owner_idx[other] != machine_id)
            pair_v.append(mine[remote])
            pair_m.append(owner_idx[other][remote])
        pairs = np.unique(
            np.stack((np.concatenate(pair_v), np.concatenate(pair_m))),
            axis=1,
        )
        #: vertex index -> remote machines holding a copy. Seeded from
        #: the mirror pairs for owned boundary vertices; targets for
        #: *ghosts* (writable only under FULL consistency via
        #: ``set_neighbor``) are computed lazily on first dirty and
        #: memoized here — their holders are computable locally because
        #: structure and the owner map are replicated.
        vtargets: Dict[int, List[int]] = {}
        #: Static per-destination routing arrays (ascending order), so
        #: draining dirty state is a handful of mask/gather passes.
        route_v: Dict[int, List[int]] = {}
        for index, holder in zip(
            pairs[0].tolist(), pairs[1].tolist()
        ):
            vtargets.setdefault(index, []).append(holder)
            route_v.setdefault(holder, []).append(index)
        self._vtargets: Dict[int, Tuple[int, ...]] = {
            index: tuple(holders) for index, holders in vtargets.items()
        }
        self._route_v = {
            holder: np.array(sorted(members), dtype=np.int64)
            for holder, members in route_v.items()
        }
        self._route_e: Dict[int, np.ndarray] = {}
        for holder in np.unique(owner_idx).tolist():
            if holder == machine_id:
                continue
            routed = held_e_mask & (
                (owner_idx[src] == holder) | (owner_idx[dst] == holder)
            )
            slots = np.nonzero(routed)[0]
            if slots.size:
                self._route_e[holder] = slots

    # ------------------------------------------------------------------
    # Data-plane integration.
    # ------------------------------------------------------------------
    def adopt_buffers(
        self,
        vbuf: Any,
        ebuf: Any,
        vversion: Optional[np.ndarray] = None,
        eversion: Optional[np.ndarray] = None,
    ) -> None:
        """Move the typed data columns and the version counters into
        caller-provided buffers.

        The runtime data plane (:mod:`repro.runtime.plane`) allocates
        each worker's columns in a shared-memory segment; the store
        seeds the buffers with the current values and uses them as its
        flat columns from then on, so every write lands directly in
        shared memory and the coordinator can read owned slots without
        any wire round-trip. The version counters move the same way, so
        the coordinator can also tell which worker holds a datum's
        freshest copy (:class:`PlaneReader`). ``None`` keeps the
        existing column.
        """
        if vbuf is not None:
            vbuf[:] = self.vdata_flat
            self.vdata_flat = vbuf
        if ebuf is not None:
            ebuf[:] = self.edata_flat
            self.edata_flat = ebuf
        if vversion is not None:
            vversion[:] = self._vversion
            self._vversion = vversion
        if eversion is not None:
            eversion[:] = self._eversion
            self._eversion = eversion

    def collect_dirty_plane(
        self, writer: Any
    ) -> Tuple[Dict[int, List[int]], Dict[int, "FlatEntries"]]:
        """Drain dirty data into the shared ring; overflow to the pipe.

        The plane twin of :meth:`collect_dirty_flat`: per-destination
        runs of (slot, version, value) entries are written straight into
        this worker's ring half (``writer`` —
        :class:`~repro.runtime.plane.RingWriter`), and the returned
        ``meta`` maps ``dst -> [v_start, v_count, e_start, e_count]``
        descriptors for the coordinator to route as control data. A
        batch that does not fit the ring half — or belongs to an
        object-typed column, or is a lazily-resolved ghost write — falls
        back to a pickled :class:`FlatEntries` batch in ``overflow``
        (the fixed-capacity contract: correctness never depends on ring
        size, only pipe bytes do).
        """
        meta: Dict[int, List[int]] = {}
        overflow: Dict[int, FlatEntries] = {}
        dirty_v = self._dirty_v
        if dirty_v.any():
            vdata = self.vdata_flat
            typed = isinstance(vdata, np.ndarray) and writer.ring_v > 0
            for dst, route in self._route_v.items():
                sel = route[dirty_v[route]]
                if not sel.size:
                    continue
                placed = None
                if typed:
                    # Ring columns are int32; assignment casts, so the
                    # int64 gathers go in without intermediate copies.
                    placed = writer.append_v(
                        sel, self._vversion[sel], vdata[sel]
                    )
                if placed is not None:
                    run = meta.setdefault(dst, [0, 0, 0, 0])
                    run[0], run[1] = placed
                else:
                    batch = overflow.setdefault(dst, FlatEntries())
                    if isinstance(vdata, np.ndarray):
                        batch.v_index = sel.astype(np.int32)
                        batch.v_value = vdata[sel]
                        batch.v_version = self._vversion[sel].astype(np.int32)
                    else:
                        indices = sel.tolist()
                        batch.v_index = indices
                        batch.v_value = [vdata[i] for i in indices]
                        batch.v_version = self._vversion[sel].tolist()
            self._collect_ghost_dirty(overflow)
            dirty_v[:] = False
        dirty_e = self._dirty_e
        if dirty_e.any():
            edata = self.edata_flat
            typed = isinstance(edata, np.ndarray) and writer.ring_e > 0
            for dst, route in self._route_e.items():
                sel = route[dirty_e[route]]
                if not sel.size:
                    continue
                placed = None
                if typed:
                    placed = writer.append_e(
                        sel, self._eversion[sel], edata[sel]
                    )
                if placed is not None:
                    run = meta.setdefault(dst, [0, 0, 0, 0])
                    run[2], run[3] = placed
                else:
                    batch = overflow.setdefault(dst, FlatEntries())
                    if isinstance(edata, np.ndarray):
                        batch.e_slot = sel.astype(np.int32)
                        batch.e_value = edata[sel]
                        batch.e_version = self._eversion[sel].astype(np.int32)
                    else:
                        slots = sel.tolist()
                        batch.e_slot = slots
                        batch.e_value = [edata[s] for s in slots]
                        batch.e_version = self._eversion[sel].tolist()
            dirty_e[:] = False
        return meta, overflow

    def apply_slices(
        self,
        v_index: Any,
        v_value: Any,
        v_version: Any,
        e_slot: Any,
        e_value: Any,
        e_version: Any,
    ) -> None:
        """Apply one routed plane run (version-filtered, idempotent).

        The slices come straight out of a *source worker's* ring half;
        the same vectorized filter as :meth:`apply_flat` drops stale and
        unheld entries, so plane delivery and pipe delivery are
        semantically indistinguishable.
        """
        # A ring run is one (src, dst) batch gathered off the source's
        # static route array for this destination — slot-unique, and
        # every slot is held here by construction (routes are built
        # from the mirror pairs), so only the stale-version filter
        # remains of the full apply_flat semantics.
        if v_index is not None and len(v_index):
            stored = self._vversion
            ok = v_version > stored[v_index]
            sel = v_index[ok]
            if sel.size:
                stored[sel] = v_version[ok]
                self.vdata_flat[sel] = v_value[ok]
        if e_slot is not None and len(e_slot):
            stored = self._eversion
            ok = e_version > stored[e_slot]
            sel = e_slot[ok]
            if sel.size:
                stored[sel] = e_version[ok]
                self.edata_flat[sel] = e_value[ok]

    # ------------------------------------------------------------------
    # Speculative execution (color-merged rounds).
    # ------------------------------------------------------------------
    def capture_scope(
        self, active: np.ndarray, include_neighbors: bool
    ) -> UndoLog:
        """Snapshot every slot a frontier's execution may write.

        ``active`` are dense vertex indices; ``include_neighbors`` is
        true under FULL consistency (whose write set covers neighbor
        vertex data). The snapshot is conservative — restoring slots the
        step never wrote is a no-op by value equality.
        """
        csr = self._csr
        src, dst = csr.edge_src_index, csr.edge_dst_index
        amask = np.zeros(len(csr.vertex_ids), dtype=bool)
        amask[active] = True
        emask = amask[src] | amask[dst]
        e_slots = np.nonzero(emask)[0]
        if include_neighbors:
            vmask = amask
            vmask[src[emask]] = True
            vmask[dst[emask]] = True
            v_idx = np.nonzero(vmask)[0]
        else:
            v_idx = np.unique(np.asarray(active, dtype=np.int64))
        return UndoLog(
            v_idx,
            _gather(self.vdata_flat, v_idx),
            self._vversion[v_idx].copy(),
            e_slots,
            _gather(self.edata_flat, e_slots),
            self._eversion[e_slots].copy(),
        )

    def restore_scope(self, undo: UndoLog) -> None:
        """Revert an aborted speculative step (values, versions, dirty)."""
        _scatter(self.vdata_flat, undo.v_idx, undo.v_vals)
        self._vversion[undo.v_idx] = undo.v_vers
        self._dirty_v[undo.v_idx] = False
        _scatter(self.edata_flat, undo.e_slots, undo.e_vals)
        self._eversion[undo.e_slots] = undo.e_vers
        self._dirty_e[undo.e_slots] = False

    # ------------------------------------------------------------------
    # Scope data-provider protocol (+ the flat fast path Scope uses).
    # ------------------------------------------------------------------
    def vertex_data(self, vid: VertexId) -> Any:
        try:
            return self.vdata_flat[self._index_of[vid]]
        except KeyError:
            raise GraphStructureError(f"unknown vertex {vid!r}") from None

    def set_vertex_data(self, vid: VertexId, value: Any) -> None:
        try:
            index = self._index_of[vid]
        except KeyError:
            raise GraphStructureError(f"unknown vertex {vid!r}") from None
        self.vdata_flat[index] = value
        self._vversion[index] += 1
        self._dirty_v[index] = True

    def edge_data(self, src: VertexId, dst: VertexId) -> Any:
        try:
            return self.edata_flat[self._edge_slot[(src, dst)]]
        except KeyError:
            raise GraphStructureError(
                f"unknown edge {src!r} -> {dst!r}"
            ) from None

    def set_edge_data(self, src: VertexId, dst: VertexId, value: Any) -> None:
        try:
            slot = self._edge_slot[(src, dst)]
        except KeyError:
            raise GraphStructureError(
                f"unknown edge {src!r} -> {dst!r}"
            ) from None
        self.edata_flat[slot] = value
        self._eversion[slot] += 1
        self._dirty_e[slot] = True

    def gather_in(self, vertex: VertexId) -> List[Tuple[VertexId, Any, Any]]:
        """Bulk ``[(u, D_{u->v}, D_u)]`` through the compiled in-gather
        plan (:func:`~repro.core.kernels.in_gather`), indexing straight
        into the flat shard lists."""
        vdata = self.vdata_flat
        edata = self.edata_flat
        return [
            (u, edata[slot], vdata[ui])
            for (u, slot, ui) in in_gather(self._csr, self._index_of[vertex])
        ]

    def gather_out(self, vertex: VertexId) -> List[Tuple[VertexId, Any, Any]]:
        """Bulk ``[(w, D_{v->w}, D_w)]`` through the compiled out-gather
        plan (:func:`~repro.core.kernels.out_gather`), indexing straight
        into the flat shard lists."""
        vdata = self.vdata_flat
        edata = self.edata_flat
        return [
            (w, edata[slot], vdata[wi])
            for (w, slot, wi) in out_gather(self._csr, self._index_of[vertex])
        ]

    def has_vertex(self, vid: VertexId) -> bool:
        """Whether this shard holds (a copy of) ``vid``."""
        index = self._index_of.get(vid)
        return index is not None and bool(self._held_v_mask[index])

    def read_snapshot(
        self, vid: VertexId, scope: bool = False
    ) -> Dict[str, Any]:
        """Version-tagged read of one vertex (optionally its in-scope).

        The serving read path (``repro.serve``) inside a ``serve``
        command: taken after every routed delivery and client write of
        the barrier applied, so the values and version tags form a
        consistent cut — a concurrently executing update's writes are
        visible either fully or not at all, never partially (updates run
        atomically within one command on the owner). With ``scope``, the
        in-neighborhood travels too: each in-neighbor's data and each
        in-edge's data, every entry tagged with its version counter.
        :class:`PlaneReader` answers the same reads, in the same reply
        layout, without a command.
        """
        v_index, e_slot = _read_slots(self._csr, vid, scope)
        vdata, vversion = self.vdata_flat, self._vversion
        edges: Tuple[List[Any], ...] = ()
        if e_slot is not None:
            edata, eversion = self.edata_flat, self._eversion
            edges = (
                [edata[s] for s in e_slot], [eversion[s] for s in e_slot]
            )
        return _read_reply(
            self._csr.vertex_ids,
            v_index,
            [vdata[i] for i in v_index],
            [vversion[i] for i in v_index],
            *edges,
        )

    # ------------------------------------------------------------------
    # Coherence protocol: the per-key modeled wire of the simulator.
    # ------------------------------------------------------------------
    def version(self, key: DataKey) -> int:
        """Current version of a held datum (-1 if not held)."""
        if key[0] == "v":
            index = self._index_of.get(key[1])
            if index is None or not self._held_v_mask[index]:
                return -1
            return int(self._vversion[index])
        slot = self._edge_slot.get((key[1], key[2]))
        if slot is None or not self._held_e_mask[slot]:
            return -1
        return int(self._eversion[slot])

    def key_bytes(self, key: DataKey) -> float:
        """Wire size of a datum plus its version tag."""
        if key[0] == "v":
            return self.sizes.vbytes(key[1]) + VERSION_BYTES
        return self.sizes.ebytes(key[1], key[2]) + VERSION_BYTES

    def apply_remote(self, key: DataKey, value: Any, version: int) -> bool:
        """Apply a pushed datum if held and newer; idempotent."""
        if key[0] == "v":
            index = self._index_of.get(key[1])
            if index is None or not self._held_v_mask[index]:
                return False
            if version <= self._vversion[index]:
                return False
            self._vversion[index] = version
            self.vdata_flat[index] = value
            return True
        slot = self._edge_slot.get((key[1], key[2]))
        if slot is None or not self._held_e_mask[slot]:
            return False
        if version <= self._eversion[slot]:
            return False
        self._eversion[slot] = version
        self.edata_flat[slot] = value
        return True

    def collect_dirty_flat(self) -> Dict[int, "FlatEntries"]:
        """Drain dirty data in slot form, batched per destination.

        The runtime hot path: indices are canonical across processes
        (every worker shares the compiled numbering), so entries skip
        the id-keyed ``DataKey`` envelope entirely, and each batch is
        struct-of-arrays. Routing is a few mask/gather passes over the
        static per-destination routing arrays; on typed data columns the
        gathered fields are numpy arrays, so a whole batch pickles as
        six raw buffers — no per-entry Python objects on the wire. Same
        routing semantics as :meth:`collect_dirty`; versions still ride
        along, so :meth:`apply_flat` keeps the idempotent stale-drop
        filter.
        """
        out: Dict[int, FlatEntries] = {}
        dirty_v = self._dirty_v
        if dirty_v.any():
            vdata = self.vdata_flat
            typed = isinstance(vdata, np.ndarray)
            for dst, route in self._route_v.items():
                sel = route[dirty_v[route]]
                if not sel.size:
                    continue
                batch = out.get(dst)
                if batch is None:
                    batch = out[dst] = FlatEntries()
                if typed:
                    # int32 wire fields: entry indices and versions both
                    # fit comfortably (graphs < 2^31 vertices, one
                    # version bump per write), and the narrower dtype
                    # halves the non-payload wire bytes per entry.
                    batch.v_index = sel.astype(np.int32)
                    batch.v_value = vdata[sel]
                    batch.v_version = self._vversion[sel].astype(np.int32)
                else:
                    indices = sel.tolist()
                    batch.v_index = indices
                    batch.v_value = [vdata[i] for i in indices]
                    batch.v_version = self._vversion[sel].tolist()
            self._collect_ghost_dirty(out)
            dirty_v[:] = False
        dirty_e = self._dirty_e
        if dirty_e.any():
            edata = self.edata_flat
            typed = isinstance(edata, np.ndarray)
            for dst, route in self._route_e.items():
                sel = route[dirty_e[route]]
                if not sel.size:
                    continue
                batch = out.get(dst)
                if batch is None:
                    batch = out[dst] = FlatEntries()
                if typed:
                    batch.e_slot = sel.astype(np.int32)
                    batch.e_value = edata[sel]
                    batch.e_version = self._eversion[sel].astype(np.int32)
                else:
                    slots = sel.tolist()
                    batch.e_slot = slots
                    batch.e_value = [edata[s] for s in slots]
                    batch.e_version = self._eversion[sel].tolist()
            dirty_e[:] = False
        return out

    def _collect_ghost_dirty(self, out: Dict[int, "FlatEntries"]) -> None:
        """Route dirty non-owned copies: ghost writes (FULL consistency
        only). Their holder sets are resolved lazily and they ship
        through the pickled path even under the data plane — they are
        rare by construction."""
        ghost_dirty = np.nonzero(self._dirty_v & ~self._owned_mask)[0]
        vdata = self.vdata_flat
        for index in ghost_dirty.tolist():
            targets = self._vtargets.get(index)
            if targets is None:
                targets = self._ghost_targets_of(index)
            for target in targets:
                batch = out.get(target)
                if batch is None:
                    batch = out[target] = FlatEntries()
                # A fresh single-entry batch per destination:
                # extend() adopts an incoming list uncopied when the
                # field was empty, so sharing one batch across
                # targets would alias their entry lists.
                extra = FlatEntries()
                extra.v_index = [index]
                extra.v_value = [vdata[index]]
                extra.v_version = [int(self._vversion[index])]
                batch.extend(extra)

    def _ghost_targets_of(self, index: int) -> Tuple[int, ...]:
        """Remote holders of a dirty ghost (memoized into vtargets),
        by :func:`ghost_write_targets`."""
        vid = self._csr.vertex_ids[index]
        targets = self._vtargets[index] = tuple(
            sorted(
                ghost_write_targets(
                    self.graph, self.owner, self.machine_id, vid
                )
            )
        )
        return targets

    def apply_flat(self, batch: "FlatEntries") -> None:
        """Apply a routed slot-form batch (version-filtered, idempotent).

        Array-backed batches (typed columns) apply in a few vectorized
        passes; list-backed batches keep the scalar loop. Either way the
        semantics match: unheld slots are dropped, stale versions are
        dropped, and when an inbox accumulated several rounds' entries
        for one slot (elided color-steps) the chronologically last —
        highest-version — entry wins.
        """
        if isinstance(batch.v_value, np.ndarray):
            self._apply_flat_typed(
                batch.v_index, batch.v_value, batch.v_version,
                self._held_v_mask, self._vversion, self.vdata_flat,
            )
        elif len(batch.v_index):
            held = self._held_v_mask
            versions = self._vversion
            vdata = self.vdata_flat
            for index, value, version in zip(
                batch.v_index, batch.v_value, batch.v_version
            ):
                if held[index] and version > versions[index]:
                    versions[index] = version
                    vdata[index] = value
        if isinstance(batch.e_value, np.ndarray):
            self._apply_flat_typed(
                batch.e_slot, batch.e_value, batch.e_version,
                self._held_e_mask, self._eversion, self.edata_flat,
            )
        elif len(batch.e_slot):
            held_e = self._held_e_mask
            eversions = self._eversion
            edata = self.edata_flat
            for slot, value, version in zip(
                batch.e_slot, batch.e_value, batch.e_version
            ):
                if held_e[slot] and version > eversions[slot]:
                    eversions[slot] = version
                    edata[slot] = value

    @staticmethod
    def _apply_flat_typed(
        indices: Any,
        values: np.ndarray,
        versions: Any,
        held_mask: np.ndarray,
        stored_versions: np.ndarray,
        column: np.ndarray,
    ) -> None:
        indices = np.asarray(indices)
        versions = np.asarray(versions)
        # Duplicate slots appear only when an inbox accumulated several
        # rounds (elided color-steps); the common case — one worker's
        # routed batch — is strictly ascending and needs no dedup pass.
        if indices.size > 1 and not (indices[1:] > indices[:-1]).all():
            indices = indices.astype(np.int64)
            versions = versions.astype(np.int64)
            # Keep, per slot, the entry the scalar per-entry filter
            # would leave standing: the highest version, and the
            # *earliest* occurrence among version ties (the scalar loop
            # drops later entries whose version is not strictly newer).
            # Version counters of different source machines are not
            # comparable across rounds, so positional "newest" is not
            # enough. Sort ascending by version with position
            # descending as tiebreak; the last occurrence per slot in
            # that order is exactly (max version, first position).
            size = indices.size
            order = np.lexsort(
                (np.arange(size - 1, -1, -1, dtype=np.int64), versions)
            )
            indices, versions, values = (
                indices[order], versions[order], values[order]
            )
            _uniq, rev_first = np.unique(indices[::-1], return_index=True)
            keep = size - 1 - rev_first
            indices, versions, values = (
                indices[keep], versions[keep], values[keep]
            )
        ok = held_mask[indices] & (versions > stored_versions[indices])
        if ok.any():
            sel = indices[ok]
            stored_versions[sel] = versions[ok]
            column[sel] = values[ok]

    def apply_kernel_result(self, result: Any) -> None:
        """Version/dirty bookkeeping for a batch kernel's writes.

        The vectorized twin of the per-write accounting in
        :meth:`set_vertex_data` / :meth:`set_edge_data`: one version
        bump and one dirty mark per written slot
        (:class:`~repro.core.kernels.KernelResult` indices are unique
        per step, so the fancy ``+= 1`` is exact).
        """
        wrote_v = result.wrote_v
        if wrote_v.size:
            self._vversion[wrote_v] += 1
            self._dirty_v[wrote_v] = True
        wrote_e = result.wrote_e
        if wrote_e.size:
            self._eversion[wrote_e] += 1
            self._dirty_e[wrote_e] = True

    def collect_dirty(self) -> Dict[int, List[Tuple[DataKey, Any, int, float]]]:
        """Drain dirty data as ``{machine: [(key, value, version,
        bytes), ...]}`` — the simulator's per-key modeled wire.

        A thin envelope over :meth:`collect_dirty_flat` (single source of
        the routing rules): slot indices become ``DataKey`` tuples and
        entries carry their modeled byte size, which the simulated
        network charges.
        """
        out: Dict[int, List[Tuple[DataKey, Any, int, float]]] = {}
        vertex_ids = self._csr.vertex_ids
        edge_keys = self._csr.edge_keys
        for dst, batch in self.collect_dirty_flat().items():
            entries = out.setdefault(dst, [])
            for index, value, version in zip(
                batch.v_index, batch.v_value, batch.v_version
            ):
                vid = vertex_ids[index]
                entries.append(
                    (
                        vertex_key(vid),
                        value,
                        version,
                        self.sizes.vbytes(vid) + VERSION_BYTES,
                    )
                )
            for slot, value, version in zip(
                batch.e_slot, batch.e_value, batch.e_version
            ):
                (a, b) = edge_keys[slot]
                entries.append(
                    (
                        edge_key(a, b),
                        value,
                        version,
                        self.sizes.ebytes(a, b) + VERSION_BYTES,
                    )
                )
        return out

    @property
    def dirty_count(self) -> int:
        """Slots changed since the last :meth:`collect_dirty`."""
        return int(self._dirty_v.sum()) + int(self._dirty_e.sum())

    def checkpoint_payload(
        self,
        v_index: Optional[np.ndarray] = None,
        e_slot: Optional[np.ndarray] = None,
    ) -> FlatEntries:
        """Owned state as one slot-form batch (value + version per slot).

        By default every owned vertex and every edge whose *source* this
        shard owns — the journal partitioning rule: across workers each
        slot is covered exactly once. Explicit ``v_index``/``e_slot``
        arrays journal just those slots (the asynchronous snapshot
        captures one scope at a time; the final collect skips columns
        the data plane already exposes by passing an empty array).
        """
        if v_index is None:
            v_index = np.nonzero(self._owned_mask)[0]
        if e_slot is None:
            e_slot = np.nonzero(
                self._owned_mask[self._csr.edge_src_index]
            )[0]
        return gather_entries(
            self.vdata_flat, self.edata_flat, v_index, e_slot,
            self._vversion, self._eversion,
        )

    def checkpoint_bytes(self, payload: FlatEntries) -> float:
        """Modeled size of a journal (the simulator charges bytes per
        key): each slot's data plus its version tag."""
        sizes = self.sizes
        vertex_ids = self._csr.vertex_ids
        edge_keys = self._csr.edge_keys
        return (
            sum(sizes.vbytes(vertex_ids[i]) for i in payload.v_index)
            + sum(sizes.ebytes(*edge_keys[s]) for s in payload.e_slot)
            + VERSION_BYTES * len(payload)
        )

    def restore_checkpoint(self, payload: FlatEntries) -> None:
        """Force-restore held slots from one journal's entries.

        The recovery inverse of :meth:`checkpoint_payload`, applied once
        per worker journal of the snapshot: this shard takes every slot
        it holds — primaries *and* ghosts — and overwrites value and
        version unconditionally. Recovery rolls state *back*, so the
        monotone version filter of :meth:`apply_flat` must not apply
        here. Slots no journal covers keep their current value. Dirty
        flags are cleared wholesale: the post-restore state is globally
        snapshot-consistent, so nothing needs to ship.
        """
        for index, values, versions, held, column, stored in (
            (
                payload.v_index, payload.v_value, payload.v_version,
                self._held_v_mask, self.vdata_flat, self._vversion,
            ),
            (
                payload.e_slot, payload.e_value, payload.e_version,
                self._held_e_mask, self.edata_flat, self._eversion,
            ),
        ):
            index = np.asarray(index, dtype=np.int64)
            keep = np.nonzero(held[index])[0]
            if keep.size < index.size:
                index = index[keep]
                values = _gather(values, keep)
                versions = np.asarray(versions)[keep]
            _scatter(column, index, values)
            stored[index] = versions
        self._dirty_v[:] = False
        self._dirty_e[:] = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRShardStore(machine={self.machine_id}, "
            f"owned={len(self.owned_vertices)}, "
            f"ghosts={len(self.ghost_vertices)})"
        )
