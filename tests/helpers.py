"""Shared graph builders used across the test suite."""

from __future__ import annotations

import multiprocessing
import os
from typing import Iterable, Set, Tuple

from repro.core.graph import DataGraph


def plane_segments() -> Set[str]:
    """Names of the data-plane segments currently in ``/dev/shm``."""
    try:
        return {
            name for name in os.listdir("/dev/shm")
            if name.startswith("repro-plane-")
        }
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def assert_torn_down(before: Set[str]) -> None:
    """No worker process survives and no plane segment leaked."""
    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
    assert not multiprocessing.active_children()
    assert plane_segments() <= before


def ring_graph(n: int, vdata: float = 1.0, edata: float = 0.5) -> DataGraph:
    """Directed ring 0 -> 1 -> ... -> n-1 -> 0."""
    g = DataGraph()
    for i in range(n):
        g.add_vertex(i, data=vdata)
    for i in range(n):
        g.add_edge(i, (i + 1) % n, data=edata)
    return g.finalize()


def typed_ring_graph(n: int = 12) -> DataGraph:
    """A ring on typed columns, so ``mp`` really provisions shm segments."""
    g = DataGraph()
    for i in range(n):
        g.add_vertex(i, data=float(i % 5))
    for i in range(n):
        g.add_edge(i, (i + 1) % n, data=0.0)
    return g.finalize(vertex_dtype=float, edge_dtype=float)


def path_graph(n: int, vdata: float = 0.0) -> DataGraph:
    """Directed path 0 -> 1 -> ... -> n-1."""
    g = DataGraph()
    for i in range(n):
        g.add_vertex(i, data=vdata)
    for i in range(n - 1):
        g.add_edge(i, i + 1, data=None)
    return g.finalize()


def star_graph(n_leaves: int) -> DataGraph:
    """Hub vertex 0 with edges 0 -> 1..n."""
    g = DataGraph()
    g.add_vertex(0, data=0.0)
    for i in range(1, n_leaves + 1):
        g.add_vertex(i, data=float(i))
        g.add_edge(0, i, data=None)
    return g.finalize()


def grid_graph(rows: int, cols: int) -> DataGraph:
    """4-connected grid with (r, c) tuple vertex ids."""
    g = DataGraph()
    for r in range(rows):
        for c in range(cols):
            g.add_vertex((r, c), data=0.0)
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                g.add_edge((r, c), (r + 1, c), data=None)
            if c + 1 < cols:
                g.add_edge((r, c), (r, c + 1), data=None)
    return g.finalize()


def graph_from_edges(
    edges: Iterable[Tuple[int, int]], default: float = 0.0
) -> DataGraph:
    """Graph from an edge list, creating vertices on demand."""
    g = DataGraph()
    seen = set()
    edge_list = list(edges)
    for u, v in edge_list:
        for x in (u, v):
            if x not in seen:
                seen.add(x)
                g.add_vertex(x, data=default)
    for u, v in edge_list:
        g.add_edge(u, v, data=None)
    return g.finalize()
