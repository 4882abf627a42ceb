"""Cost and size models shared by the distributed engines.

The simulator executes *real* update functions (real PageRank sums, real
least-squares solves) but charges their cost in **cycles** using a model
calibrated from the paper's own measurements, and charges communication
in **bytes** using Table 2's data sizes. This is the substitution that
lets a Python reproduction exhibit the paper's performance shapes: the
numerics are genuine, the clock is modeled.

Reference points from the paper:

* Netflix update cost by latent dimension ``d`` (Fig. 6c):
  d=5 → 1.0M cycles, d=20 → 2.1M, d=50 → 7.7M, d=100 → 30M;
* Table 2 byte sizes: Netflix vertex ``8d + 13``, edge 16; CoSeg vertex
  392, edge 80; NER vertex 816, edge 4;
* NER's update uses ~5.7× fewer cycles per byte accessed than Netflix
  at d=5 (Sec. 5.3) — the worst computation/communication ratio tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Union

from repro.core.graph import DataGraph, VertexId

#: Bytes of a scheduling request on the wire (vertex id + priority).
SCHEDULE_REQUEST_BYTES = 12
#: Bytes of a lock request/grant token per hop in the pipelined chain.
LOCK_MESSAGE_BYTES = 24
#: Bytes of a version number attached to each shipped datum.
VERSION_BYTES = 8


@dataclass(frozen=True)
class DataSizeModel:
    """Wire/storage size of vertex and edge data, in bytes.

    ``vertex_bytes`` / ``edge_bytes`` may be constants or callables
    (``f(vid)`` and ``f(src, dst)``) for heterogeneous data.
    """

    vertex_bytes: Union[float, Callable[[VertexId], float]] = 8.0
    edge_bytes: Union[float, Callable[[VertexId, VertexId], float]] = 8.0

    def vbytes(self, vid: VertexId) -> float:
        """Size of ``D_v`` on the wire."""
        if callable(self.vertex_bytes):
            return float(self.vertex_bytes(vid))
        return float(self.vertex_bytes)

    def ebytes(self, src: VertexId, dst: VertexId) -> float:
        """Size of ``D_{src->dst}`` on the wire."""
        if callable(self.edge_bytes):
            return float(self.edge_bytes(src, dst))
        return float(self.edge_bytes)

    def entries_bytes(self, csr: Any, entries: Any) -> float:
        """Size of a slot-form batch: each datum plus its version tag.

        ``entries`` is a :class:`~repro.runtime.shard.FlatEntries` over
        the slots of ``csr`` (the compiled graph) — a ghost push, a lock
        holder's scope data or a snapshot journal. The simulator prices
        every one of them here, so one run has one price list.
        """
        vertex_ids, edge_keys = csr.vertex_ids, csr.edge_keys
        return (
            sum(self.vbytes(vertex_ids[i]) for i in entries.v_index)
            + sum(self.ebytes(*edge_keys[s]) for s in entries.e_slot)
            + VERSION_BYTES * len(entries)
        )


@dataclass(frozen=True)
class UpdateCostModel:
    """Cycles charged per update-function execution.

    ``cycles_fn(graph, vid)`` returns the cycle cost of one execution of
    the update function on ``vid``. Constructors below encode the
    paper's calibrations.
    """

    cycles_fn: Callable[[DataGraph, VertexId], float]
    label: str = "custom"

    def cycles(self, graph: DataGraph, vid: VertexId) -> float:
        """Cycle cost of updating ``vid``."""
        return float(self.cycles_fn(graph, vid))


def constant_cost(cycles: float, label: str = "constant") -> UpdateCostModel:
    """Every update costs the same number of cycles."""
    return UpdateCostModel(lambda g, v: cycles, label=label)


def degree_cost(
    cycles_per_neighbor: float,
    base_cycles: float = 0.0,
    label: str = "degree",
) -> UpdateCostModel:
    """``O(deg)`` updates (LBP, CoEM, PageRank — Table 2)."""
    return UpdateCostModel(
        lambda g, v: base_cycles + cycles_per_neighbor * g.degree(v),
        label=label,
    )


#: Paper-measured Netflix per-update cycle counts, keyed by ``d``.
NETFLIX_MEASURED_CYCLES = {
    5: 1.0e6,
    20: 2.1e6,
    50: 7.7e6,
    100: 30.0e6,
}

#: Cubic fit through the measured points (see DESIGN.md): cycles(d) =
#: a·d³ + b·d + c. The ALS normal equations cost O(d³ + d²·deg).
_NETFLIX_FIT_A = 23.2
_NETFLIX_FIT_B = 61153.0
_NETFLIX_FIT_C = 691335.0


def netflix_cycles(d: int) -> float:
    """Per-update cycles for ALS with latent dimension ``d``.

    Returns the paper's measured value for d ∈ {5, 20, 50, 100} and the
    cubic interpolation elsewhere.
    """
    if d in NETFLIX_MEASURED_CYCLES:
        return NETFLIX_MEASURED_CYCLES[d]
    return _NETFLIX_FIT_A * d**3 + _NETFLIX_FIT_B * d + _NETFLIX_FIT_C


def netflix_cost(d: int) -> UpdateCostModel:
    """ALS update cost model for dimension ``d`` (Fig. 6c workloads)."""
    per_update = netflix_cycles(d)
    return UpdateCostModel(lambda g, v: per_update, label=f"netflix-d{d}")


def netflix_sizes(d: int) -> DataSizeModel:
    """Table 2 sizes for the Netflix experiment: vertex 8d+13, edge 16."""
    return DataSizeModel(vertex_bytes=8.0 * d + 13.0, edge_bytes=16.0)


#: Table 2 sizes for CoSeg: 392-byte vertices, 80-byte edges.
COSEG_SIZES = DataSizeModel(vertex_bytes=392.0, edge_bytes=80.0)

#: Table 2 sizes for NER: 816-byte vertices, 4-byte edges.
NER_SIZES = DataSizeModel(vertex_bytes=816.0, edge_bytes=4.0)


def ner_cost(avg_degree: float = 100.0) -> UpdateCostModel:
    """CoEM update cost, calibrated from Sec. 5.3.

    Netflix d=5 touches roughly ``deg × (53 + 16)`` bytes per update at
    1.0M cycles; NER spends 5.7× fewer cycles per byte over ``deg ×
    (816 + 4)`` bytes. With the paper's average degrees this lands near
    1M cycles per update — light arithmetic over heavy data.
    """
    netflix_d5_bytes = 198.0 * (53.0 + 16.0)
    cycles_per_byte = (1.0e6 / netflix_d5_bytes) / 5.7
    per_neighbor = cycles_per_byte * (816.0 + 4.0)
    return degree_cost(per_neighbor, label="ner-coem")


def coseg_cost(num_labels: int = 5) -> UpdateCostModel:
    """LBP update cost: O(deg × L²) message arithmetic, ~40 cycles/op.

    High computation density per byte — the opposite regime from NER,
    which is why CoSeg scales best in Fig. 6(a).
    """
    per_neighbor = 40.0 * num_labels * num_labels * 25.0
    return degree_cost(per_neighbor, label=f"coseg-lbp-L{num_labels}")
