"""PageRank: the paper's running example (Example 1, Alg. 1).

Vertex data: the current rank estimate ``R(v)``. Edge data: the link
weight ``w_{u,v}`` (usually ``1/out_degree(u)``). The update recomputes

    R(v) = alpha/n + (1 - alpha) * sum_u  w_{u,v} R(u)

over in-neighbors — the *pull* model the paper contrasts with Pregel —
and schedules dependents only when the rank moved more than ``epsilon``
(adaptive computation, Sec. 3.2). The scheduled priority is the rank
change, so a priority scheduler yields the prioritized dynamic PageRank
of Fig. 1(b).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.core.csr import undirected_plan
from repro.core.graph import DataGraph, VertexId
from repro.core.kernels import (
    KernelResult,
    UpdateKernel,
    in_edge_plan,
    ordered_segment_add,
    schedule_set,
    segment_positions,
)
from repro.core.scope import Scope


class PageRankKernel(UpdateKernel):
    """Batch form of Alg. 1: one color-step as four numpy passes.

    Requires scalar float64 typed columns (rank per vertex, weight per
    edge — declare them with ``finalize(vertex_dtype=float,
    edge_dtype=float)``). Bit-identity with the scalar closure is kept
    by construction: per-edge contributions are computed with the same
    association order (``(damp * weight) * rank``) and accumulated onto
    the ``alpha/n`` seed in exact in-neighbor order via
    :func:`~repro.core.kernels.ordered_segment_add`.
    """

    def __init__(
        self, alpha: float, epsilon: float, schedule: str
    ) -> None:
        self.alpha = alpha
        self.epsilon = epsilon
        self.schedule = schedule
        self.damp = 1.0 - alpha

    def compatible(self, graph: DataGraph) -> bool:
        csr = graph.compiled
        if csr is None:
            return False
        vcol, ecol = csr.vertex_column, csr.edge_column
        return (
            vcol is not None
            and vcol.ndim == 1
            and vcol.dtype == np.float64
            and ecol is not None
            and ecol.ndim == 1
            and ecol.dtype == np.float64
        )

    def bind(self, graph: DataGraph) -> None:
        in_edge_plan(graph.compiled)
        if self.schedule == "all":
            undirected_plan(graph.compiled)

    def step(self, graph, active, vdata, edata, globals_view=None):
        csr = graph.compiled
        in_slots = in_edge_plan(csr)
        pos, counts, ends = segment_positions(csr.in_offsets, active)
        contrib = (self.damp * edata[in_slots[pos]]) * (
            vdata[csr.in_sources[pos]]
        )
        old = vdata[active]  # fancy indexing: already a copy
        rank = np.full(active.size, self.alpha / len(csr.vertex_ids))
        ordered_segment_add(rank, counts, ends, contrib)
        vdata[active] = rank
        schedule = self.schedule
        if schedule == "self":
            scheduled = active
        elif schedule == "none":
            scheduled = None
        else:
            movers = active[np.abs(rank - old) > self.epsilon]
            if schedule == "out":
                offsets, targets = csr.out_offsets, csr.out_targets
            else:  # "all": the full undirected N[v], canonical-derived
                offsets, targets = undirected_plan(csr)
            tpos, _tc, _te = segment_positions(offsets, movers)
            scheduled = schedule_set(targets[tpos], len(csr.vertex_ids))
        return KernelResult(scheduled=scheduled, wrote_v=active)


def make_pagerank_update(
    alpha: float = 0.15,
    epsilon: float = 1e-3,
    schedule: str = "out",
):
    """Build the Alg. 1 update function.

    ``schedule`` picks who gets rescheduled: ``"out"`` (on a significant
    change, dependents — pages we link to, the pull-model dependency
    direction), ``"all"`` (the full ``N[v]`` of Alg. 1, change-gated),
    ``"self"`` (the vertex unconditionally re-schedules itself:
    continuous round-robin sweeps, the paper's round-robin scheduler —
    every vertex updates once per sweep until the engine's sweep/update
    cap stops the run), or ``"none"`` (static sweeps drive everything).
    """
    if schedule not in ("out", "all", "none", "self"):
        raise ValueError(f"unknown schedule policy {schedule!r}")
    damp = 1.0 - alpha
    dynamic = schedule != "none"
    out_targets = schedule == "out"
    self_target = schedule == "self"

    def pagerank_update(scope: Scope):
        old_rank = scope.data
        rank = alpha / scope.graph.num_vertices
        # Bulk-gather the in-scope (weight, neighbor-rank) pairs: one
        # call resolves D_{u->v} and D_u for every in-neighbor.
        for _u, weight, nbr_rank in scope.gather_in():
            rank += damp * weight * nbr_rank
        scope.data = rank
        if self_target:
            return (scope.vertex,)
        change = abs(rank - old_rank)
        if change > epsilon and dynamic:
            targets = scope.out_neighbors if out_targets else scope.neighbors
            return [(u, change) for u in targets]
        return None

    # Batch twin of the closure above: engines dispatch to it for whole
    # color-steps on typed-column graphs (bit-identical by contract).
    pagerank_update.kernel = PageRankKernel(
        alpha=alpha, epsilon=epsilon, schedule=schedule
    )
    return pagerank_update


#: Default dynamic PageRank update (alpha=0.15, epsilon=1e-3).
pagerank_update = make_pagerank_update()


def make_pagerank_delta_update(
    alpha: float = 0.15,
    epsilon: float = 1e-4,
):
    """Incremental PageRank for serving (``repro.serve``).

    The residual-scheduled variant of :func:`make_pagerank_update`'s
    dynamic form, tuned for a resident graph under a write stream: each
    update recomputes the exact pull-model rank from the current
    neighborhood (so it is self-healing — any perturbation of an
    in-neighbor's rank, e.g. a client write, is fully absorbed by one
    recomputation) and propagates only while the residual ``|change|``
    exceeds ``epsilon``, scheduling out-neighbors at priority equal to
    the residual. A freshly perturbed region therefore re-converges in
    a wave that dies out geometrically (each hop damps the residual by
    ``1 - alpha`` times the edge weight), keeping results warm without
    ever re-running the full graph.

    ``epsilon`` defaults tighter than the batch program's: a serving
    deployment amortizes convergence over the stream, so the steady
    state can afford more precision. The scheduled priority makes the
    locking engine's priority scheduler drain the largest residuals
    first — the prioritized dynamic PageRank of Fig. 1(b), applied to
    the serving write path.
    """
    damp = 1.0 - alpha

    def pagerank_delta_update(scope: Scope):
        old_rank = scope.data
        rank = alpha / scope.graph.num_vertices
        for _u, weight, nbr_rank in scope.gather_in():
            rank += damp * weight * nbr_rank
        scope.data = rank
        residual = abs(rank - old_rank)
        if residual > epsilon:
            return [(u, residual) for u in scope.out_neighbors]
        return None

    # The batch kernel of the non-delta program computes the identical
    # recompute-from-scope rank with "out" scheduling; reuse it so the
    # chromatic fallback can run the delta program in kernel mode.
    pagerank_delta_update.kernel = PageRankKernel(
        alpha=alpha, epsilon=epsilon, schedule="out"
    )
    return pagerank_delta_update


def initialize_ranks(graph: DataGraph, value: Optional[float] = None) -> None:
    """Reset every vertex's rank (default: uniform ``1/n``)."""
    n = graph.num_vertices
    rank = (1.0 / n) if value is None else value
    for v in graph.vertices():
        graph.set_vertex_data(v, rank)


def exact_pagerank(
    graph: DataGraph, alpha: float = 0.15, tol: float = 1e-12
) -> Dict[VertexId, float]:
    """Ground-truth ranks by dense power iteration (test/figure oracle).

    Iterates the same fixed point as the update function (using the
    stored edge weights) to machine precision.
    """
    vertices = list(graph.vertices())
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    ranks = np.full(n, 1.0 / n)
    weights = []
    for v in vertices:
        weights.append(
            [(index[u], graph.edge_data(u, v)) for u in graph.in_neighbors(v)]
        )
    for _ in range(10000):
        new = np.full(n, alpha / n)
        for i, incoming in enumerate(weights):
            for j, w in incoming:
                new[i] += (1.0 - alpha) * w * ranks[j]
        if np.abs(new - ranks).sum() < tol:
            ranks = new
            break
        ranks = new
    return {v: float(ranks[index[v]]) for v in vertices}


def l1_error(
    graph: DataGraph, truth: Dict[VertexId, float]
) -> float:
    """L1 distance between the graph's current ranks and ``truth``
    (the y-axis of Fig. 1a)."""
    return float(
        sum(abs(graph.vertex_data(v) - truth[v]) for v in graph.vertices())
    )


def jacobi_pagerank_sweep(graph: DataGraph, alpha: float = 0.15) -> float:
    """One synchronous (Pregel-style) sweep: all ranks updated from the
    previous iterate simultaneously. Returns the total rank change.

    This is the "Sync. (Pregel)" curve of Fig. 1(a): every vertex
    recomputed per superstep from a frozen snapshot of its neighbors.
    """
    n = graph.num_vertices
    old: Dict[VertexId, float] = {
        v: graph.vertex_data(v) for v in graph.vertices()
    }
    total_change = 0.0
    for v in graph.vertices():
        rank = alpha / n
        for u in graph.in_neighbors(v):
            rank += (1.0 - alpha) * graph.edge_data(u, v) * old[u]
        total_change += abs(rank - old[v])
        graph.set_vertex_data(v, rank)
    return total_change


def total_rank_sync_map(scope: Scope) -> float:
    """Map function for a sync tracking the total rank mass (Sec. 3.5)."""
    return scope.data
