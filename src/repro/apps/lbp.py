"""Loopy Belief Propagation on pairwise MRFs (paper Secs. 4.2.2, 5.2).

The workhorse of two of the paper's evaluations: the 26-connected 3-D
mesh benchmark driving the pipelining and snapshot experiments, and the
CoSeg video-segmentation application (with GMM-derived unaries).

Representation:

* vertex data — ``{"unary": p(L), "belief": p(L)}`` numpy arrays
  (replaced, never mutated, so copies are cheap and ghosts coherent);
* edge data — a pair ``(msg_src_to_dst, msg_dst_to_src)`` of messages,
  one per direction of the stored edge (the paper's ``D_{u<->v}``);
* the pairwise potential ``psi(l, l')`` is a shared ``L x L`` matrix.

The update on ``v`` recomputes all outgoing messages from the incoming
cavity products (sum-product), writes the new belief, and schedules a
neighbor with priority equal to the message residual when it exceeds
``epsilon`` — exactly the residual-BP dynamic schedule [11] the CoSeg
application uses on the locking engine.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.graph import DataGraph, VertexId
from repro.core.kernels import (
    KernelResult,
    UpdateKernel,
    flat_rows,
    nbr_message_index,
    nbr_message_plan,
    ordered_segment_mul,
    schedule_set,
    segment_positions,
)
from repro.core.scope import Scope

_FLOOR = 1e-12


def _normalize(array: np.ndarray) -> np.ndarray:
    array = np.maximum(array, _FLOOR)
    return array / array.sum()


def _row_normalize(array: np.ndarray) -> np.ndarray:
    """Sum-normalize a label-major ``(L, N)`` block: every column is one
    message.

    The sum runs down the label axis as an explicit left-to-right loop,
    so it is the same expression for the typed scalar update (one
    ``(L,)`` message passed as ``(L, 1)``) and for the batch kernel, for
    every ``L`` — never numpy's reduction order, which regroups a
    trailing-axis sum pairwise from eight terms on. Below eight labels
    the loop computes the bits of ``array.sum()``, so it also equals
    :func:`_normalize`.
    """
    array = np.maximum(array, _FLOOR)
    total = array[0].copy()
    for row in array[1:]:
        total += row
    array /= total
    return array


def _label_max(array: np.ndarray) -> np.ndarray:
    """Per-column maximum of a label-major ``(L, N)`` block, as a row
    loop (the residual of every message; exact in any order)."""
    out = array[0].copy()
    for row in array[1:]:
        np.maximum(out, row, out=out)
    return out


def _msg_product(cavity: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """``psi.T @ cavity`` for a label-major ``(L, N)`` cavity block, with
    an explicit label-ordered accumulation.

    Row ``j`` of the result is ``sum_k psi[k, j] * cavity[k]``, folded
    over ``k`` left to right: BLAS ``gemv`` / ``gemm`` may order their
    dot products differently, which would break the kernel/interpreter
    bit-identity contract, so the scalar update (``N = 1``) and the
    batch kernel both use this loop; every step is a contiguous
    ``(L, N)`` row operation.
    """
    columns = psi[:, :, None]
    out = columns[0] * cavity[0]
    for k in range(1, psi.shape[0]):
        out += columns[k] * cavity[k]
    return out


def potts_potential(num_labels: int, smoothing: float = 2.0) -> np.ndarray:
    """Potts pairwise potential: agreement weighted ``exp(smoothing)``."""
    psi = np.ones((num_labels, num_labels))
    np.fill_diagonal(psi, np.exp(smoothing))
    return psi


def get_message(scope: Scope, frm: VertexId, to: VertexId) -> np.ndarray:
    """Message ``frm -> to`` regardless of which direction the edge was
    stored in."""
    if scope.graph.has_edge(frm, to):
        return scope.edge(frm, to)[0]
    return scope.edge(to, frm)[1]


def set_message(
    scope: Scope, frm: VertexId, to: VertexId, message: np.ndarray
) -> None:
    """Write the ``frm -> to`` message (replacing the edge-data pair)."""
    if scope.graph.has_edge(frm, to):
        fwd, bwd = scope.edge(frm, to)
        scope.set_edge(frm, to, (message, bwd))
    else:
        fwd, bwd = scope.edge(to, frm)
        scope.set_edge(to, frm, (fwd, message))


def make_lbp_update(
    psi: np.ndarray,
    epsilon: float = 1e-3,
    damping: float = 0.0,
    unary_fn: Optional[Callable[[Scope], np.ndarray]] = None,
):
    """Build the residual-BP update function.

    ``unary_fn`` optionally recomputes the unary potential from the
    scope at update time (CoSeg derives it from the sync-maintained GMM
    globals); by default the stored unary is used. ``damping`` blends
    new messages with old (0 = undamped).
    """

    def lbp_update(scope: Scope):
        vertex = scope.vertex
        data = scope.data
        unary = unary_fn(scope) if unary_fn is not None else data["unary"]
        neighbors = scope.neighbors
        has_edge = scope.graph.has_edge
        edge = scope.edge
        incoming = {
            u: (edge(u, vertex)[0] if has_edge(u, vertex) else edge(vertex, u)[1])
            for u in neighbors
        }
        prod = unary.copy()
        for message in incoming.values():
            prod = prod * message
        belief = _normalize(prod)
        # Preserve any extra vertex payload (e.g. CoSeg's feature vector).
        scope.data = {**data, "unary": unary, "belief": belief}
        scheduled = []
        for u in neighbors:
            cavity = _normalize(prod / np.maximum(incoming[u], _FLOOR))
            new_message = _normalize(cavity @ psi)
            # Resolve the storage direction of the v -> u message once:
            # the pair datum gives the old message (residual, damping)
            # and its partner for the write-back.
            forward = has_edge(vertex, u)
            if forward:
                old, partner = edge(vertex, u)
            else:
                partner, old = edge(u, vertex)
            if damping > 0.0:
                new_message = _normalize(
                    damping * old + (1.0 - damping) * new_message
                )
            residual = float(np.abs(new_message - old).max())
            if forward:
                scope.set_edge(vertex, u, (new_message, partner))
            else:
                scope.set_edge(u, vertex, (partner, new_message))
            if residual > epsilon:
                scheduled.append((u, residual))
        return scheduled

    return lbp_update


def init_lbp_data(graph: DataGraph, unaries: Dict[VertexId, np.ndarray]) -> int:
    """Install unaries/uniform beliefs and uniform messages.

    Returns the label cardinality. All vertices must appear in
    ``unaries`` with same-length positive vectors.
    """
    num_labels = len(next(iter(unaries.values())))
    uniform = np.full(num_labels, 1.0 / num_labels)
    for v in graph.vertices():
        unary = _normalize(np.asarray(unaries[v], dtype=float))
        graph.set_vertex_data(v, {"unary": unary, "belief": uniform.copy()})
    for (u, w) in graph.edges():
        graph.set_edge_data(u, w, (uniform.copy(), uniform.copy()))
    return num_labels


# ----------------------------------------------------------------------
# Typed-column LBP: the same sum-product on (2, L) array rows.
# ----------------------------------------------------------------------
# Vertex row: [unary, belief]; edge row: [msg_src->dst, msg_dst->src].
# Declare the columns at finalize time with ``finalize(**lbp_dtypes(L))``
# and fill them with :func:`init_lbp_data_typed`. The typed scalar
# update (`make_lbp_update_typed`) computes the exact quantities of
# :func:`make_lbp_update` on this layout, and carries :class:`LBPKernel`
# as its batch twin — bit-identical by the kernel contract.

#: Row indices into the (2, L) vertex column.
UNARY, BELIEF = 0, 1


def lbp_dtypes(num_labels: int) -> dict:
    """``DataGraph.finalize`` keyword arguments for typed LBP columns."""
    return {
        "vertex_dtype": np.float64,
        "vertex_shape": (2, num_labels),
        "edge_dtype": np.float64,
        "edge_shape": (2, num_labels),
    }


def init_lbp_data_typed(
    graph: DataGraph, unaries: Dict[VertexId, np.ndarray]
) -> int:
    """Install unaries/uniform beliefs and uniform messages into the
    typed columns (the :func:`init_lbp_data` twin). Returns ``L``."""
    num_labels = len(next(iter(unaries.values())))
    uniform = np.full(num_labels, 1.0 / num_labels)
    for v in graph.vertices():
        unary = _normalize(np.asarray(unaries[v], dtype=float))
        graph.set_vertex_data(v, np.stack((unary, uniform)))
    pair = np.stack((uniform, uniform))
    for key in graph.edges():
        graph.set_edge_data(*key, pair)
    return num_labels


class LBPKernel(UpdateKernel):
    """Batch residual BP: one color-step as numpy passes over (2, L)
    typed columns, evaluated label-major.

    Both columns are read and written through their
    :func:`~repro.core.kernels.flat_rows` views: a vertex's unary and
    belief are rows ``2 * v`` and ``2 * v + 1``, and every incoming and
    outgoing message is one row of the edge view, addressed by the
    finalize-time :func:`~repro.core.kernels.nbr_message_index`, so each
    gather is one ``take`` and each scatter one fancy assignment. A
    gathered ``(P, L)`` block is transposed once to ``(L, P)``; the
    cavity product (exact neighbor order,
    :func:`~repro.core.kernels.ordered_segment_mul` one label row at a
    time), normalization, the message product and the residual max are
    then short loops of contiguous row operations — the same helpers the
    typed scalar update runs on ``(L, 1)`` blocks, so the two are
    bit-identical by construction for every ``L``. Residual-gated
    rescheduling becomes a task set through
    :func:`~repro.core.kernels.schedule_set`.
    """

    def __init__(
        self, psi: np.ndarray, epsilon: float, damping: float
    ) -> None:
        self.psi = np.asarray(psi, dtype=np.float64)
        self.epsilon = epsilon
        self.damping = damping

    def compatible(self, graph: DataGraph) -> bool:
        csr = graph.compiled
        if csr is None:
            return False
        num_labels = self.psi.shape[0]
        expected = (2, num_labels)
        vcol, ecol = csr.vertex_column, csr.edge_column
        return (
            vcol is not None
            and vcol.dtype == np.float64
            and vcol.shape[1:] == expected
            and ecol is not None
            and ecol.dtype == np.float64
            and ecol.shape[1:] == expected
        )

    def bind(self, graph: DataGraph) -> None:
        csr = graph.compiled
        flat_rows(csr.vdata)
        flat_rows(csr.edata)
        nbr_message_index(csr)

    def step(self, graph, active, vdata, edata, globals_view=None):
        csr = graph.compiled
        nbr_offsets, nbr_targets = nbr_message_plan(csr)[:2]
        in_msg, out_msg = nbr_message_index(csr)
        vertex_rows, messages = flat_rows(vdata), flat_rows(edata)
        pos, counts, ends = segment_positions(nbr_offsets, active)
        incoming = _label_major(messages.take(in_msg[pos], axis=0))
        rows = 2 * active
        prod = _label_major(vertex_rows.take(rows + UNARY, axis=0))
        ordered_segment_mul(prod.T, counts, ends, incoming.T)
        vertex_rows[rows + BELIEF] = _row_normalize(prod).T
        np.maximum(incoming, _FLOOR, out=incoming)
        cavity = _row_normalize(np.repeat(prod, counts, axis=1) / incoming)
        new_message = _row_normalize(_msg_product(cavity, self.psi))
        write = out_msg[pos]
        old = _label_major(messages.take(write, axis=0))
        if self.damping > 0.0:
            new_message = _row_normalize(
                self.damping * old + (1.0 - self.damping) * new_message
            )
        residual = _label_max(np.abs(new_message - old))
        # One fancy assignment suffices: write is duplicate-free, since
        # the frontier is an independent set (no two actives share an
        # edge) and the neighbor plan lists each neighbor once.
        messages[write] = new_message.T
        return KernelResult(
            scheduled=schedule_set(
                nbr_targets[pos[residual > self.epsilon]],
                len(csr.vertex_ids),
            ),
            wrote_v=active,
            wrote_e=write >> 1,
        )


def _label_major(block: np.ndarray) -> np.ndarray:
    """A gathered ``(P, L)`` row block as a contiguous ``(L, P)`` one."""
    return np.ascontiguousarray(block.T)


def make_lbp_update_typed(
    psi: np.ndarray, epsilon: float = 1e-3, damping: float = 0.0
):
    """Residual-BP update for the typed-column layout.

    Same semantics as :func:`make_lbp_update` (without the CoSeg
    ``unary_fn`` hook) on ``(2, L)`` array rows instead of dicts/tuples;
    carries the batch :class:`LBPKernel` for engine dispatch. Every
    ``(L,)`` row enters the label-major helpers as an ``(L, 1)`` block,
    so each message is computed by the kernel's expressions.
    """
    psi = np.asarray(psi, dtype=np.float64)

    def lbp_update(scope: Scope):
        vertex = scope.vertex
        row = scope.data
        neighbors = scope.neighbors
        has_edge = scope.graph.has_edge
        edge = scope.edge
        incoming = []
        for u in neighbors:
            if has_edge(u, vertex):
                incoming.append(edge(u, vertex)[0])
            else:
                incoming.append(edge(vertex, u)[1])
        prod = row[UNARY][:, None].copy()
        for message in incoming:
            prod *= message[:, None]
        new_row = np.empty_like(row)
        new_row[UNARY] = row[UNARY]
        new_row[BELIEF] = _row_normalize(prod)[:, 0]
        scope.data = new_row
        scheduled = []
        for u, message in zip(neighbors, incoming):
            cavity = _row_normalize(
                prod / np.maximum(message[:, None], _FLOOR)
            )
            new_message = _row_normalize(_msg_product(cavity, psi))
            if has_edge(vertex, u):
                a, b, direction = vertex, u, 0
            else:
                a, b, direction = u, vertex, 1
            pair = edge(a, b)
            old = pair[direction][:, None]
            if damping > 0.0:
                new_message = _row_normalize(
                    damping * old + (1.0 - damping) * new_message
                )
            residual = float(_label_max(np.abs(new_message - old))[0])
            new_pair = pair.copy()
            new_pair[direction] = new_message[:, 0]
            scope.set_edge(a, b, new_pair)
            if residual > epsilon:
                scheduled.append((u, residual))
        return scheduled

    lbp_update.kernel = LBPKernel(psi, epsilon=epsilon, damping=damping)
    return lbp_update


def total_residual(graph: DataGraph, psi: np.ndarray) -> float:
    """Max message residual if every vertex updated now (Fig. 1c y-axis).

    Measures how far the current messages are from a fixed point.
    """
    worst = 0.0
    for v in graph.vertices():
        data = graph.vertex_data(v)
        incoming = {}
        for u in graph.neighbors(v):
            if graph.has_edge(u, v):
                incoming[u] = graph.edge_data(u, v)[0]
            else:
                incoming[u] = graph.edge_data(v, u)[1]
        prod = data["unary"].copy()
        for message in incoming.values():
            prod = prod * message
        for u in graph.neighbors(v):
            cavity = _normalize(prod / np.maximum(incoming[u], _FLOOR))
            new_message = _normalize(cavity @ psi)
            if graph.has_edge(v, u):
                old = graph.edge_data(v, u)[0]
            else:
                old = graph.edge_data(u, v)[1]
            worst = max(worst, float(np.abs(new_message - old).max()))
    return worst


def synchronous_lbp_sweep(graph: DataGraph, psi: np.ndarray) -> float:
    """One Pregel-style superstep: all messages recomputed simultaneously
    from the previous iteration's messages. Returns the max residual.

    The "Sync. (Pregel)" baseline of Fig. 1(c).
    """
    old_edges = {key: graph.edge_data(*key) for key in graph.edges()}

    def old_message(frm: VertexId, to: VertexId) -> np.ndarray:
        if (frm, to) in old_edges:
            return old_edges[(frm, to)][0]
        return old_edges[(to, frm)][1]

    worst = 0.0
    new_messages: Dict[Tuple[VertexId, VertexId], np.ndarray] = {}
    for v in graph.vertices():
        data = graph.vertex_data(v)
        prod = data["unary"].copy()
        for u in graph.neighbors(v):
            prod = prod * old_message(u, v)
        graph.set_vertex_data(
            v, {"unary": data["unary"], "belief": _normalize(prod)}
        )
        for u in graph.neighbors(v):
            cavity = _normalize(
                prod / np.maximum(old_message(u, v), _FLOOR)
            )
            new_message = _normalize(cavity @ psi)
            worst = max(
                worst, float(np.abs(new_message - old_message(v, u)).max())
            )
            new_messages[(v, u)] = new_message
    for (frm, to), message in new_messages.items():
        if graph.has_edge(frm, to):
            fwd, bwd = graph.edge_data(frm, to)
            graph.set_edge_data(frm, to, (message, bwd))
        else:
            fwd, bwd = graph.edge_data(to, frm)
            graph.set_edge_data(to, frm, (fwd, message))
    return worst


def map_labels(graph: DataGraph, values: Optional[dict] = None) -> Dict[VertexId, int]:
    """Maximum-a-posteriori label per vertex from current beliefs."""
    get = values.__getitem__ if values is not None else graph.vertex_data
    return {
        v: int(np.argmax(get(v)["belief"])) for v in graph.vertices()
    }
