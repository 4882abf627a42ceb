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
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.consistency import Consistency
from repro.core.graph import DataGraph, VertexId
from repro.errors import ColoringError

Coloring = Dict[VertexId, int]


def greedy_coloring(
    graph: DataGraph,
    order: str = "degree",
) -> Coloring:
    """First-fit greedy coloring.

    ``order`` selects the vertex visiting order: ``"degree"`` (largest
    degree first — the classic Welsh-Powell heuristic, usually fewest
    colors) or ``"natural"`` (insertion order — deterministic and cheap).
    """
    if order == "degree":
        vertices = sorted(
            graph.vertices(), key=lambda v: (-graph.degree(v), _sort_token(v))
        )
    elif order == "natural":
        vertices = list(graph.vertices())
    else:
        raise ColoringError(f"unknown coloring order {order!r}")
    colors: Coloring = {}
    for v in vertices:
        taken = {colors[u] for u in graph.neighbors(v) if u in colors}
        color = 0
        while color in taken:
            color += 1
        colors[v] = color
    return colors


def second_order_coloring(graph: DataGraph) -> Coloring:
    """Greedy coloring of the square of the graph (for full consistency).

    No vertex shares a color with any vertex within two hops, so scopes of
    same-color vertices never overlap at all (Fig. 2c, top row).
    """
    vertices = sorted(
        graph.vertices(), key=lambda v: (-graph.degree(v), _sort_token(v))
    )
    colors: Coloring = {}
    for v in vertices:
        taken = set()
        for u in graph.neighbors(v):
            if u in colors:
                taken.add(colors[u])
            for w in graph.neighbors(u):
                if w != v and w in colors:
                    taken.add(colors[w])
        color = 0
        while color in taken:
            color += 1
        colors[v] = color
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
    colors: Coloring = {}
    for root in graph.vertices():
        if root in colors:
            continue
        colors[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u in graph.neighbors(v):
                if u not in colors:
                    colors[u] = 1 - colors[v]
                    queue.append(u)
                elif colors[u] == colors[v]:
                    raise ColoringError(
                        "graph is not bipartite: odd cycle through "
                        f"{v!r} - {u!r}"
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
    all vertices.
    """
    missing = [v for v in graph.vertices() if v not in coloring]
    if missing:
        raise ColoringError(
            f"coloring misses {len(missing)} vertices (first: {missing[0]!r})"
        )
    if model is Consistency.VERTEX:
        return
    for v in graph.vertices():
        for u in graph.neighbors(v):
            if coloring[u] == coloring[v]:
                raise ColoringError(
                    f"adjacent vertices {v!r}, {u!r} share color "
                    f"{coloring[v]}"
                )
            if model is Consistency.FULL:
                for w in graph.neighbors(u):
                    if w != v and coloring[w] == coloring[v]:
                        raise ColoringError(
                            f"distance-2 vertices {v!r}, {w!r} share color "
                            f"{coloring[v]} (full consistency needs a "
                            "second-order coloring)"
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
