"""Graph coloring for the chromatic engine (paper Sec. 4.2.1).

A vertex coloring with no two adjacent vertices sharing a color lets the
chromatic engine execute all same-color vertices in parallel while
satisfying the *edge* consistency model. The other models map to
colorings too:

* **full** consistency — a *second-order* coloring (no vertex shares a
  color with any distance-2 neighbor);
* **vertex** consistency — the trivial single-color assignment.

Optimal coloring is NP-hard; the paper uses greedy heuristics and notes
that many MLDM graphs color trivially (bipartite graphs are 2-colorable,
grids 2-colorable, template models color by template). All of those are
provided here.

The heuristics and :func:`validate_coloring` read the compiled
undirected CSR (:func:`repro.core.csr.undirected_plan`) in dense
indices instead of per-id neighbor tuples, so coloring a graph builds
none of its interpreter views; they therefore need a finalized graph.
Outputs are those of the per-id loops they replace: the same colors,
in the same dict order, and validation names the same offending pair.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.consistency import Consistency
from repro.core.csr import CSRGraph, undirected_plan
from repro.core.graph import DataGraph, VertexId
from repro.errors import ColoringError

Coloring = Dict[VertexId, int]


def _neighborhoods(graph: DataGraph) -> Tuple[CSRGraph, List[int], List[int]]:
    """``(csr, offsets, targets)``: ``N[v]`` as plain int lists.

    Every structure read below goes through the compiled undirected CSR
    (:func:`~repro.core.csr.undirected_plan`), in dense indices, so no
    interpreter view is built; an unfinalized graph has no CSR and
    raises :class:`~repro.errors.GraphNotFinalizedError`.
    """
    graph.require_finalized()
    csr = graph.compiled
    offsets, targets = undirected_plan(csr)
    return csr, offsets.tolist(), targets.tolist()


def _degree_order(csr: CSRGraph, offsets: List[int]) -> List[int]:
    """Dense indices by descending degree, ties by :func:`_sort_token`."""
    vertex_ids = csr.vertex_ids
    return sorted(
        range(len(vertex_ids)),
        key=lambda i: (offsets[i] - offsets[i + 1], _sort_token(vertex_ids[i])),
    )


def greedy_coloring(
    graph: DataGraph,
    order: str = "degree",
) -> Coloring:
    """First-fit greedy coloring.

    ``order`` selects the vertex visiting order: ``"degree"`` (largest
    degree first — the classic Welsh-Powell heuristic, usually fewest
    colors) or ``"natural"`` (insertion order — deterministic and cheap).
    """
    if order not in ("degree", "natural"):
        raise ColoringError(f"unknown coloring order {order!r}")
    csr, offsets, targets = _neighborhoods(graph)
    vertex_ids = csr.vertex_ids
    visit = (
        _degree_order(csr, offsets)
        if order == "degree"
        else range(len(vertex_ids))
    )
    color = [-1] * len(vertex_ids)
    colors: Coloring = {}
    for i in visit:
        taken = {color[j] for j in targets[offsets[i]:offsets[i + 1]]}
        c = 0
        while c in taken:
            c += 1
        color[i] = colors[vertex_ids[i]] = c
    return colors


def second_order_coloring(graph: DataGraph) -> Coloring:
    """Greedy coloring of the square of the graph (for full consistency).

    No vertex shares a color with any vertex within two hops, so scopes of
    same-color vertices never overlap at all (Fig. 2c, top row).
    """
    csr, offsets, targets = _neighborhoods(graph)
    vertex_ids = csr.vertex_ids
    color = [-1] * len(vertex_ids)
    colors: Coloring = {}
    for i in _degree_order(csr, offsets):
        taken = set()
        for j in targets[offsets[i]:offsets[i + 1]]:
            taken.add(color[j])
            for k in targets[offsets[j]:offsets[j + 1]]:
                if k != i:
                    taken.add(color[k])
        c = 0
        while c in taken:
            c += 1
        color[i] = colors[vertex_ids[i]] = c
    return colors


def bipartite_coloring(
    graph: DataGraph, side_fn: Optional[Callable[[VertexId], int]] = None
) -> Coloring:
    """2-coloring of a bipartite graph.

    If ``side_fn`` is given it must map each vertex to 0 or 1 (e.g. "is
    this a user or a movie vertex") — the trivial colorings the paper says
    many MLDM problems admit. Otherwise the bipartition is discovered by
    BFS; a non-bipartite graph raises :class:`ColoringError`.
    """
    if side_fn is not None:
        colors = {}
        for v in graph.vertices():
            side = side_fn(v)
            if side not in (0, 1):
                raise ColoringError(
                    f"side_fn must return 0 or 1, got {side!r} for {v!r}"
                )
            colors[v] = side
        validate_coloring(graph, colors, Consistency.EDGE)
        return colors
    csr, offsets, targets = _neighborhoods(graph)
    vertex_ids = csr.vertex_ids
    side = [-1] * len(vertex_ids)
    colors = {}
    for root in range(len(vertex_ids)):
        if side[root] >= 0:
            continue
        side[root] = colors[vertex_ids[root]] = 0
        queue = deque([root])
        while queue:
            i = queue.popleft()
            for j in targets[offsets[i]:offsets[i + 1]]:
                if side[j] < 0:
                    side[j] = colors[vertex_ids[j]] = 1 - side[i]
                    queue.append(j)
                elif side[j] == side[i]:
                    raise ColoringError(
                        "graph is not bipartite: odd cycle through "
                        f"{vertex_ids[i]!r} - {vertex_ids[j]!r}"
                    )
    return colors


def constant_coloring(graph: DataGraph) -> Coloring:
    """All vertices the same color (vertex consistency; maximum overlap)."""
    return {v: 0 for v in graph.vertices()}


def coloring_for(
    graph: DataGraph,
    model: Consistency,
    coloring: Optional[Coloring] = None,
) -> Coloring:
    """Produce (or validate) a coloring adequate for ``model``.

    A user-supplied ``coloring`` is validated against the model; otherwise
    the appropriate heuristic runs: greedy for edge consistency, greedy
    second-order for full consistency, constant for vertex consistency.
    """
    if coloring is not None:
        validate_coloring(graph, coloring, model)
        return dict(coloring)
    if model is Consistency.VERTEX:
        return constant_coloring(graph)
    if model is Consistency.EDGE:
        return greedy_coloring(graph)
    return second_order_coloring(graph)


def validate_coloring(
    graph: DataGraph, coloring: Coloring, model: Consistency
) -> None:
    """Raise :class:`ColoringError` unless ``coloring`` satisfies ``model``.

    Edge consistency requires a proper coloring; full consistency a
    second-order coloring; vertex consistency accepts anything covering
    all vertices. A violation names the first offending pair in vertex
    order, then ``N[v]`` order (for full consistency, ``N[v]`` and then
    each neighbor's ``N[u]``, adjacent pairs checked first).
    """
    missing = [v for v in graph.vertices() if v not in coloring]
    if missing:
        raise ColoringError(
            f"coloring misses {len(missing)} vertices (first: {missing[0]!r})"
        )
    if model is Consistency.VERTEX:
        return
    csr, offsets, targets = _neighborhoods(graph)
    vertex_ids = csr.vertex_ids
    # Colors as dense codes: equal colors share a code.
    codes: Dict = {}
    color = np.fromiter(
        (codes.setdefault(coloring[v], len(codes)) for v in vertex_ids),
        dtype=np.int64,
        count=len(vertex_ids),
    )
    if model is Consistency.EDGE:
        src, dst = csr.edge_src_index, csr.edge_dst_index
        clash = color[src] == color[dst]
        if not clash.any():
            return
        # The first clashing vertex in vertex order is the smallest
        # endpoint of a clashing edge; name its first clashing neighbor.
        i = int(min(src[clash].min(), dst[clash].min()))
        j = next(
            j for j in targets[offsets[i]:offsets[i + 1]]
            if color[j] == color[i]
        )
        raise _adjacent_clash(vertex_ids, coloring, i, j)
    color = color.tolist()
    for i, same in enumerate(color):
        for j in targets[offsets[i]:offsets[i + 1]]:
            if color[j] == same:
                raise _adjacent_clash(vertex_ids, coloring, i, j)
            for k in targets[offsets[j]:offsets[j + 1]]:
                if k != i and color[k] == same:
                    raise ColoringError(
                        f"distance-2 vertices {vertex_ids[i]!r}, "
                        f"{vertex_ids[k]!r} share color "
                        f"{coloring[vertex_ids[i]]} (full consistency "
                        "needs a second-order coloring)"
                    )


def _adjacent_clash(
    vertex_ids: Tuple, coloring: Coloring, i: int, j: int
) -> ColoringError:
    v, u = vertex_ids[i], vertex_ids[j]
    return ColoringError(
        f"adjacent vertices {v!r}, {u!r} share color {coloring[v]}"
    )


def color_classes(coloring: Coloring) -> List[List[VertexId]]:
    """Group vertices by color, ordered by color index.

    The chromatic engine iterates these classes as its color-steps.
    """
    if not coloring:
        return []
    classes: Dict[int, List[VertexId]] = {}
    for v, c in coloring.items():
        classes.setdefault(c, []).append(v)
    return [classes[c] for c in sorted(classes)]


def num_colors(coloring: Coloring) -> int:
    """Number of distinct colors used."""
    return len(set(coloring.values())) if coloring else 0


def _sort_token(v: VertexId):
    """Stable cross-type sort key for vertex ids (ints before tuples...)."""
    return (str(type(v)), repr(v))
