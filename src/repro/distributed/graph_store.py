"""Per-machine graph storage with ghosts and version coherence (Sec. 4.1).

Each machine holds the primary copies of the vertices/edges it owns plus
*ghosts*: locally cached copies of remote boundary data. Ghosts are what
give update functions "direct memory access to all information in the
scope" (Sec. 4.2.2); coherence is maintained with a simple versioning
scheme that suppresses retransmission of unchanged data.

Key properties (tested):

* every datum carries a monotonically increasing version; remote
  applications are idempotent and ordered (stale versions are dropped);
* a ghost read returns the *cached* value — staleness is real in this
  simulation, and only the engines' barriers/locks make reads coherent,
  exactly as in the paper;
* ``collect_dirty`` drains the set of owned keys changed since the last
  flush, grouped by destination machine, so engines can batch pushes.

A :class:`LocalGraphStore` satisfies the data-provider protocol of
:class:`repro.core.scope.Scope`, so the *same* update functions run
unmodified on the distributed engines.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple

from repro.core.consistency import DataKey, edge_key, vertex_key
from repro.core.graph import DataGraph, VertexId
from repro.distributed.models import VERSION_BYTES, DataSizeModel
from repro.errors import GraphStructureError


def ghost_write_targets(
    graph: DataGraph,
    owner: Mapping[VertexId, int],
    machine_id: int,
    vid: VertexId,
) -> FrozenSet[int]:
    """Remote holders of a ghost vertex, from ``machine_id``'s view.

    The single source of the mirror-holder rule shared by
    :class:`LocalGraphStore` and the runtime backend's
    :class:`~repro.runtime.shard.CSRShardStore`: a vertex is held by its
    owner and by every machine owning one of its neighbors, so a
    FULL-consistency ghost write must ship to all of those except the
    writer itself. Computable locally because structure and the owner
    map are replicated on every machine.
    """
    holders = {owner[vid]}
    holders.update(owner[u] for u in graph.neighbors(vid))
    holders.discard(machine_id)
    return frozenset(holders)


class LocalGraphStore:
    """One machine's slice of the distributed data graph.

    Parameters
    ----------
    machine_id:
        The owning machine.
    graph:
        The shared immutable *structure* (replicated everywhere in a
        real deployment; shared read-only here).
    owner:
        Mapping vertex -> owning machine for the whole graph.
    sizes:
        Wire sizes used when accounting pushes.
    """

    def __init__(
        self,
        machine_id: int,
        graph: DataGraph,
        owner: Mapping[VertexId, int],
        sizes: DataSizeModel = DataSizeModel(),
    ) -> None:
        graph.require_finalized()
        self.machine_id = machine_id
        self.graph = graph
        self.owner = owner
        self.sizes = sizes
        self._vdata: Dict[VertexId, Any] = {}
        self._edata: Dict[Tuple[VertexId, VertexId], Any] = {}
        self._versions: Dict[DataKey, int] = {}
        self._dirty: Set[DataKey] = set()
        self.owned_vertices: List[VertexId] = []
        #: owned boundary vertex -> machines holding a ghost of it
        self.mirrors: Dict[VertexId, FrozenSet[int]] = {}
        #: ghost vertex -> remote holders (owner + other mirrors), built
        #: lazily: only FULL-consistency neighbor writes dirty ghosts.
        self._ghost_targets: Dict[VertexId, FrozenSet[int]] = {}
        self._build()

    def _build(self) -> None:
        graph = self.graph
        owner = self.owner
        machine_id = self.machine_id
        ghosts: Set[VertexId] = set()
        self.owned_vertices.extend(
            v for v in graph.vertices() if owner[v] == machine_id
        )
        owned = set(self.owned_vertices)
        neighbors = graph.neighbors
        for v in self.owned_vertices:
            mirror_set = set()
            for u in neighbors(v):
                own_u = owner[u]
                if own_u != machine_id:
                    mirror_set.add(own_u)
                    ghosts.add(u)
            if mirror_set:
                self.mirrors[v] = frozenset(mirror_set)
        self.ghost_vertices: FrozenSet[VertexId] = frozenset(ghosts)
        vertex_data = graph.vertex_data
        for v in owned | ghosts:
            self._vdata[v] = vertex_data(v)
            self._versions[vertex_key(v)] = 0
        adjacent_edges = graph.adjacent_edges
        edge_data = graph.edge_data
        edata = self._edata
        versions = self._versions
        for v in self.owned_vertices:
            for (a, b) in adjacent_edges(v):
                if (a, b) not in edata:
                    edata[(a, b)] = edge_data(a, b)
                    versions[edge_key(a, b)] = 0

    # ------------------------------------------------------------------
    # Scope data-provider protocol.
    # ------------------------------------------------------------------
    def vertex_data(self, vid: VertexId) -> Any:
        """Read an owned or ghost vertex datum."""
        try:
            return self._vdata[vid]
        except KeyError:
            raise GraphStructureError(
                f"machine {self.machine_id} holds neither primary nor "
                f"ghost of vertex {vid!r}"
            ) from None

    def set_vertex_data(self, vid: VertexId, value: Any) -> None:
        """Write a vertex datum, bumping its version and dirtying it."""
        if vid not in self._vdata:
            raise GraphStructureError(
                f"machine {self.machine_id} cannot write unknown vertex "
                f"{vid!r}"
            )
        self._vdata[vid] = value
        key = vertex_key(vid)
        self._versions[key] += 1
        self._dirty.add(key)

    def edge_data(self, src: VertexId, dst: VertexId) -> Any:
        """Read an adjacent edge datum."""
        try:
            return self._edata[(src, dst)]
        except KeyError:
            raise GraphStructureError(
                f"machine {self.machine_id} does not hold edge "
                f"{src!r} -> {dst!r}"
            ) from None

    def set_edge_data(self, src: VertexId, dst: VertexId, value: Any) -> None:
        """Write an adjacent edge datum (version-bumped, dirtied)."""
        if (src, dst) not in self._edata:
            raise GraphStructureError(
                f"machine {self.machine_id} does not hold edge "
                f"{src!r} -> {dst!r}"
            )
        self._edata[(src, dst)] = value
        key = edge_key(src, dst)
        self._versions[key] += 1
        self._dirty.add(key)

    # ------------------------------------------------------------------
    # Coherence.
    # ------------------------------------------------------------------
    def has_vertex(self, vid: VertexId) -> bool:
        """Whether this machine holds (a copy of) ``vid``."""
        return vid in self._vdata

    def version(self, key: DataKey) -> int:
        """Current version of a held datum (0 = never written)."""
        return self._versions.get(key, -1)

    def value_of(self, key: DataKey) -> Any:
        """Value behind a data key."""
        if key[0] == "v":
            return self.vertex_data(key[1])
        return self.edge_data(key[1], key[2])

    def key_bytes(self, key: DataKey) -> float:
        """Wire size of a datum plus its version tag."""
        if key[0] == "v":
            return self.sizes.vbytes(key[1]) + VERSION_BYTES
        return self.sizes.ebytes(key[1], key[2]) + VERSION_BYTES

    def apply_remote(self, key: DataKey, value: Any, version: int) -> bool:
        """Apply a pushed datum if ``version`` is newer; returns whether
        it was applied. Out-of-order and duplicate pushes are dropped —
        the idempotence the versioning system exists to provide."""
        if key not in self._versions:
            return False
        if version <= self._versions[key]:
            return False
        self._versions[key] = version
        if key[0] == "v":
            self._vdata[key[1]] = value
        else:
            self._edata[(key[1], key[2])] = value
        return True

    def collect_dirty(self) -> Dict[int, List[Tuple[DataKey, Any, int, float]]]:
        """Drain dirty owned data grouped by destination machine.

        Returns ``{machine: [(key, value, version, bytes), ...]}`` for
        every remote machine holding a copy of a dirty datum: an owned
        vertex travels to its mirrors, a dirty *ghost* (written via
        ``set_neighbor`` under FULL consistency) to its owner plus the
        other mirror holders — computable locally because structure and
        the owner map are replicated. Edge data travels to the owners of
        both endpoints. Unchanged data is never shipped (the versioning
        system's whole point).
        """
        out: Dict[int, List[Tuple[DataKey, Any, int, float]]] = {}
        for key in sorted(self._dirty, key=repr):
            targets: Set[int] = set()
            if key[0] == "v":
                vid = key[1]
                if vid in self.ghost_vertices:
                    targets = set(self._targets_of_ghost(vid))
                else:
                    targets = set(self.mirrors.get(vid, ()))
            else:
                for endpoint in (key[1], key[2]):
                    own = self.owner[endpoint]
                    if own != self.machine_id:
                        targets.add(own)
            if not targets:
                continue
            entry = (
                key,
                self.value_of(key),
                self._versions[key],
                self.key_bytes(key),
            )
            for target in targets:
                out.setdefault(target, []).append(entry)
        self._dirty.clear()
        return out

    def _targets_of_ghost(self, vid: VertexId) -> FrozenSet[int]:
        targets = self._ghost_targets.get(vid)
        if targets is None:
            targets = self._ghost_targets[vid] = ghost_write_targets(
                self.graph, self.owner, self.machine_id, vid
            )
        return targets

    @property
    def dirty_count(self) -> int:
        """Keys changed since the last :meth:`collect_dirty`."""
        return len(self._dirty)

    def checkpoint_payload(self) -> Dict[str, Any]:
        """All owned data (for snapshots): key -> (value, version)."""
        payload: Dict[str, Any] = {"vdata": {}, "edata": {}, "versions": {}}
        for v in self.owned_vertices:
            payload["vdata"][v] = self._vdata[v]
            payload["versions"][vertex_key(v)] = self._versions[vertex_key(v)]
        for (a, b) in self._edata:
            if self.owner[a] == self.machine_id:
                payload["edata"][(a, b)] = self._edata[(a, b)]
                payload["versions"][edge_key(a, b)] = self._versions[
                    edge_key(a, b)
                ]
        return payload

    def checkpoint_bytes(self, payload: Mapping[str, Any]) -> float:
        """Modeled size of a checkpoint payload: every journaled datum
        plus its version tag."""
        return sum(self.key_bytes(key) for key in payload["versions"])

    def restore_checkpoint(self, payload: Mapping[str, Any]) -> None:
        """Overwrite owned data from a checkpoint payload."""
        for v, value in payload["vdata"].items():
            if v in self._vdata:
                self._vdata[v] = value
        for (a, b), value in payload["edata"].items():
            if (a, b) in self._edata:
                self._edata[(a, b)] = value
        for key, version in payload["versions"].items():
            if key in self._versions:
                self._versions[key] = version

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LocalGraphStore(machine={self.machine_id}, "
            f"owned={len(self.owned_vertices)}, "
            f"ghosts={len(self.ghost_vertices)})"
        )


def build_stores(
    graph: DataGraph,
    owner: Mapping[VertexId, int],
    num_machines: int,
    sizes: DataSizeModel = DataSizeModel(),
) -> Dict[int, LocalGraphStore]:
    """Construct every machine's store for a given vertex->machine map."""
    return {
        m: LocalGraphStore(m, graph, owner, sizes=sizes)
        for m in range(num_machines)
    }
