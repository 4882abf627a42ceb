"""Slot-addressed shard storage: the one per-machine store (Sec. 4.1).

:class:`CSRShardStore` is one machine's slice of the distributed data
graph: primary copies of the vertices and edges it owns plus *ghosts* of
the boundary, kept coherent by versioning — monotone versions,
idempotent ``apply_flat``, dirty data drained in batches per
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

One entry form moves data between copies: the slot-form
:class:`FlatEntries` batch, built only by :func:`gather_entries` (and
merged by :func:`concat_entries`), with int32 index and version arrays
beside a value field gathered from the column. One router drains the
dirty state into per-destination batches, and
:meth:`CSRShardStore.collect_dirty_flat` returns them as they are;
:meth:`~CSRShardStore.collect_dirty_plane` hands them to the data
plane's ring writer, which moves what fits into shared memory and
leaves the rest for the pipe. One filter applies every delivery,
whatever carried it: :meth:`~CSRShardStore.apply_flat` keeps, per slot,
the highest version, the earliest entry on a tie, and drops unheld
slots. The runtime routes the batches between worker processes; the
simulator ships the same batches over its modeled network, and the lock
holders of its locking engine answer a lock request with one
:meth:`~CSRShardStore.gather_newer` batch. The store holds no prices:
the simulator charges each batch's bytes from its own
:class:`~repro.distributed.models.DataSizeModel`.

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
``apply_flat`` drops deliveries to unheld slots.
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

from repro.core.consistency import DataKey
from repro.core.graph import DataGraph, VertexId
from repro.core.kernels import in_edge_plan, in_gather, out_gather
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


class FlatEntries:
    """A struct-of-arrays batch of slot-form entries.

    Parallel fields: ``v_index``/``v_value``/``v_version`` for vertex
    data, ``e_slot``/``e_value``/``e_version`` for edge data. Index and
    version fields are int32 arrays; a value field is a numpy array off
    a typed data column — the **wire format is then raw array buffers**
    (one pickled buffer per field, no per-entry Python objects) — or a
    parallel list off an object column. Every store-built batch comes
    from :func:`gather_entries`: ghost pushes, snapshot journals, the
    final collect and a simulated lock holder's answer alike. Ghost
    batches merge with :meth:`extend` (the coordinator routes several
    workers' output into one destination inbox per round); many small
    batches merge at once with :func:`concat_entries`. The fields are
    positional in the constructor, so a view of a data-plane ring run
    (:meth:`~repro.runtime.plane.RingHalf.entries`) is a batch too.
    """

    __slots__ = (
        "v_index", "v_value", "v_version", "e_slot", "e_value", "e_version"
    )

    def __init__(self, *fields: Any) -> None:
        """``FlatEntries(v_index, v_value, v_version, e_slot, e_value,
        e_version)``; no arguments make the empty batch."""
        self.__setstate__(fields or ([], [], [], [], [], []))

    def extend(self, other: "FlatEntries") -> None:
        self.__setstate__(concat_entries((self, other)).__getstate__())

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


#: The empty slot selection of a column with nothing to route.
_EMPTY_SLOTS = np.empty(0, dtype=np.int64)


def _gather(column: Any, index: np.ndarray) -> Any:
    """Copy ``column[index]``: an array off a typed column, a parallel
    list off the object fallback."""
    if isinstance(column, np.ndarray):
        return column.take(index, axis=0)
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

    The one constructor of store entries: dirty ghost batches, snapshot
    journals, the final collect and :meth:`CSRShardStore.gather_newer`
    all come from here. Index and version fields are int32 arrays —
    graphs stay below 2^31 slots and a version bumps once per write, and
    the narrower dtype halves the non-payload wire bytes per entry —
    values an array off a typed column or a list off an object column.
    ``None`` versions journal as 0 — the coordinator's launch baseline,
    which must force survivors' version clocks back to zero along with
    their values or post-recovery deliveries would be filtered as stale.
    """
    return FlatEntries(
        *_gather_column(vdata, vversion, v_index),
        *_gather_column(edata, eversion, e_slot),
    )


def _gather_column(
    column: Any, versions: Optional[np.ndarray], index: np.ndarray
) -> Tuple[np.ndarray, Any, np.ndarray]:
    """One column's ``(index, value, version)`` fields of
    :func:`gather_entries`."""
    return (
        index.astype(np.int32),
        _gather(column, index),
        np.zeros(len(index), dtype=np.int32)
        if versions is None
        else versions.take(index).astype(np.int32),
    )


def _concat_all(parts: List[Any]) -> Any:
    """One field of several batches of the same store, end to end.

    Empty parts are skipped, so a batch merges into an empty one (whose
    fields are lists) as is; every batch of one store shares its field
    kinds otherwise.
    """
    parts = [part for part in parts if len(part)] or parts[:1]
    if len(parts) == 1:
        return parts[0]
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


def _merge_batches(
    into: Dict[int, FlatEntries], more: Mapping[int, FlatEntries]
) -> None:
    """Append each destination's batch of ``more`` to ``into``'s."""
    for dst, batch in more.items():
        held = into.get(dst)
        into[dst] = batch if held is None else concat_entries((held, batch))


def _first_newest(index: np.ndarray, versions: np.ndarray) -> np.ndarray:
    """Positions of the entry that wins each distinct slot: the highest
    version, the earliest position among equal versions.

    Version counters of different source machines are not comparable
    across rounds, so positional "newest" is not enough. Sort ascending
    by version with position descending as tiebreak; the last
    occurrence per slot in that order is exactly (max version, first
    position).
    """
    size = index.size
    order = np.lexsort(
        (np.arange(size - 1, -1, -1, dtype=np.int64), versions)
    )
    _uniq, rev_first = np.unique(index[order][::-1], return_index=True)
    return order[size - 1 - rev_first]


def _apply_column(
    index: Any,
    values: Any,
    versions: Any,
    held: np.ndarray,
    stored: np.ndarray,
    column: Any,
) -> None:
    """:meth:`CSRShardStore.apply_flat` on one data column."""
    index = np.asarray(index)
    versions = np.asarray(versions)
    # Duplicate slots appear only when an inbox accumulated several
    # rounds; the common case — one worker's routed batch — is strictly
    # ascending and needs no dedup pass. (``take`` and ``count_nonzero``
    # are numpy's cheapest gather and test at ghost-batch sizes.)
    size = index.size
    if size > 1 and np.count_nonzero(index[1:] > index[:-1]) < size - 1:
        keep = _first_newest(index, versions)
        index, versions = index[keep], versions[keep]
        values = _gather(values, keep)
    ok = held.take(index) & (versions > stored.take(index))
    fresh = np.count_nonzero(ok)
    if fresh == ok.size:
        stored[index] = versions
        _scatter(column, index, values)
    elif fresh:
        ok = np.nonzero(ok)[0]
        stored[index[ok]] = versions[ok]
        _scatter(column, index[ok], _gather(values, ok))


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

    That rule is the barrier read exactly, under one condition the
    caller must guarantee: **reads happen between commands**, on the
    thread that drives the engine (the serving thread). Every segment is
    then quiescent, updates are atomic within one command, and every
    dirty entry of the last command has been routed toward every holder
    — so the highest-versioned copy is what the owner's ``serve``
    command would read after applying its pending inbox.
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
    ) -> None:
        graph.require_finalized()
        csr = graph.compiled
        self.machine_id = machine_id
        self.graph = graph
        self.owner = owner
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
        # the other endpoint's owner when remote. Deduped as one int64
        # key ``index * span + holder``, sorted and kept where it differs
        # from its predecessor: the ascending (index, holder) order of a
        # 2-D unique, without ``np.unique`` (whose first call imports
        # ``numpy.ma`` into every worker at launch).
        pair_keys: List[np.ndarray] = []
        span = int(owner_idx.max()) + 1 if num_vertices else 1
        he_src, he_dst = src[held_e_mask], dst[held_e_mask]
        for mine, other in ((he_src, he_dst), (he_dst, he_src)):
            remote = owned_mask[mine] & (owner_idx[other] != machine_id)
            pair_keys.append(mine[remote] * span + owner_idx[other][remote])
        keys = np.sort(np.concatenate(pair_keys))
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        pair_index, pair_holder = np.divmod(keys[first], span)
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
        for index, holder in zip(pair_index.tolist(), pair_holder.tolist()):
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
        for holder in np.flatnonzero(np.bincount(owner_idx)).tolist():
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

        The same batches as :meth:`collect_dirty_flat`, published by
        ``writer`` (:meth:`~repro.runtime.plane.RingWriter.append`): the
        returned ``meta`` maps ``dst -> [v_start, v_count, e_start,
        e_count]`` ring runs for the coordinator to route as control
        data, and ``overflow`` holds, per destination, the fields that
        did not fit the ring half or belong to an object column, plus
        every FULL-consistency ghost write — rare by construction, with
        lazily resolved holders (the fixed-capacity contract:
        correctness never depends on ring size, only pipe bytes do).
        """
        routed, ghosts = self._drain_dirty()
        meta, overflow = writer.append(routed)
        _merge_batches(overflow, ghosts)
        return meta, overflow

    def apply_slices(self, *fields: Any) -> None:
        """:meth:`apply_flat` on six parallel slices, in
        :class:`FlatEntries` field order (a ring run, say)."""
        self.apply_flat(FlatEntries(*fields))

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
    # Coherence protocol: the slot-form wire.
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

    def collect_dirty_flat(self) -> Dict[int, "FlatEntries"]:
        """Drain dirty data in slot form, batched per destination.

        The runtime hot path: indices are canonical across processes
        (every worker shares the compiled numbering), so entries skip
        the id-keyed ``DataKey`` envelope entirely, and each batch is
        struct-of-arrays (:func:`gather_entries`). On typed data columns
        a whole batch pickles as six raw buffers — no per-entry Python
        objects on the wire. Versions ride along, so :meth:`apply_flat`
        keeps the idempotent stale-drop filter.
        """
        routed, ghosts = self._drain_dirty()
        _merge_batches(routed, ghosts)
        return routed

    def _drain_dirty(
        self,
    ) -> Tuple[Dict[int, "FlatEntries"], Dict[int, "FlatEntries"]]:
        """The one router: dirty slots as per-destination batches.

        Returns ``(routed, ghosts)``. ``routed`` covers owned data, both
        columns routed in one loop by a few mask/gather passes over the
        static per-destination routing arrays. ``ghosts`` covers dirty
        non-owned copies: ghost writes, FULL consistency only, whose
        holder sets are resolved lazily. Clears the dirty state.
        """
        slots: Dict[int, List[np.ndarray]] = {}
        ghosts: Dict[int, FlatEntries] = {}
        for column, (dirty, routes) in enumerate(
            ((self._dirty_v, self._route_v), (self._dirty_e, self._route_e))
        ):
            if not dirty.any():
                continue
            for dst, route in routes.items():
                sel = route.compress(dirty.take(route))
                if sel.size:
                    slots.setdefault(dst, [_EMPTY_SLOTS, _EMPTY_SLOTS])
                    slots[dst][column] = sel
            if column == 0:
                ghosts = self._dirty_ghosts()
                # Ghost holders take their place in the destination
                # order between the vertex and the edge routes: the
                # simulator sends a machine's batches in this order.
                for dst in ghosts:
                    slots.setdefault(dst, [_EMPTY_SLOTS, _EMPTY_SLOTS])
            dirty[:] = False
        routed = {
            dst: gather_entries(
                self.vdata_flat, self.edata_flat, v_index, e_slot,
                self._vversion, self._eversion,
            )
            for dst, (v_index, e_slot) in slots.items()
        }
        return routed, ghosts

    def _dirty_ghosts(self) -> Dict[int, "FlatEntries"]:
        """Dirty ghost copies as one vertex batch per remote holder."""
        by_target: Dict[int, List[int]] = {}
        ghost_dirty = self._dirty_v > self._owned_mask  # dirty, not owned
        if not ghost_dirty.any():  # the common case: no FULL ghost write
            return {}
        for index in np.nonzero(ghost_dirty)[0].tolist():
            targets = self._vtargets.get(index)
            if targets is None:
                targets = self._ghost_targets_of(index)
            for target in targets:
                by_target.setdefault(target, []).append(index)
        return {
            target: gather_entries(
                self.vdata_flat, self.edata_flat,
                np.array(indices, dtype=np.int64), _EMPTY_SLOTS,
                self._vversion, self._eversion,
            )
            for target, indices in by_target.items()
        }

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

        The one filter every delivery goes through — pipe batches, ring
        runs and simulated pushes alike, array- or list-valued. Unheld
        slots are dropped, stale versions are dropped, and when a batch
        carries several entries for one slot (an inbox that accumulated
        several rounds, elided color-steps) the highest version wins,
        the earliest entry on a tie: what applying the entries one by
        one, each only if strictly newer, would leave standing.
        """
        if len(batch.v_index):
            _apply_column(
                batch.v_index, batch.v_value, batch.v_version,
                self._held_v_mask, self._vversion, self.vdata_flat,
            )
        if len(batch.e_slot):
            _apply_column(
                batch.e_slot, batch.e_value, batch.e_version,
                self._held_e_mask, self._eversion, self.edata_flat,
            )

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

    def gather_newer(
        self, v_index: np.ndarray, e_slot: np.ndarray, than: "CSRShardStore"
    ) -> FlatEntries:
        """The given slots this shard holds at a newer version than
        ``than`` does, as one slot-form batch.

        A simulated lock holder's answer to a lock request: the scope
        data the requester's cache holds stale. The requester owns the
        scope's vertex, so it holds every slot of the scope and its
        versions are its cached ones; slots this shard does not hold are
        never shipped.
        """
        v_index = v_index[
            self._held_v_mask[v_index]
            & (self._vversion[v_index] > than._vversion[v_index])
        ]
        e_slot = e_slot[
            self._held_e_mask[e_slot]
            & (self._eversion[e_slot] > than._eversion[e_slot])
        ]
        return gather_entries(
            self.vdata_flat, self.edata_flat, v_index, e_slot,
            self._vversion, self._eversion,
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
