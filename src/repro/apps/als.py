"""Alternating Least Squares for Netflix-style collaborative filtering
(paper Sec. 5.1, Eq. 4).

The sparse ratings matrix ``R`` becomes a bipartite graph: users on one
side, movies on the other, one edge per rating. Vertex data is the
``d``-dimensional latent factor (a numpy array); edge data is the
rating. The update solves a regularized least-squares problem against
the neighbors' current factors:

    w_v = argmin_w  sum_u (rating_uv - w . w_u)^2 + lam * |w|^2

It reads the neighborhood with two bulk gathers and forms the normal
equations in one numpy pass whose summation order is the per-neighbor
loop's, so the factors are exactly the loop's
(:func:`make_als_update`).

This needs *read* access to neighbor vertex data and nothing more, so
the edge consistency model suffices — and since the graph is bipartite
(two-colorable), the chromatic engine runs it serializably (Sec. 5.1).
Dynamic ALS schedules neighbors only on significant factor change,
priority = change magnitude (Fig. 9a); racing it under the vertex
consistency model reproduces Fig. 1(d)'s instability.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.core.graph import DataGraph, VertexId
from repro.core.scope import Scope


def make_als_update(
    d: int,
    regularization: float = 0.05,
    epsilon: float = 0.01,
    dynamic: bool = True,
):
    """Build the ALS update function for latent dimension ``d``.

    With ``dynamic=False`` the update never self-schedules: execution is
    driven by an external static (BSP-style) sweep, the baseline of
    Fig. 9(a).

    One ordered numpy pass per update. The ``(rating, factor)`` rows
    come from two bulk reads, :meth:`~repro.core.scope.Scope.gather_in`
    then :meth:`~repro.core.scope.Scope.gather_out`, merged into
    ``scope.neighbors`` order; a neighbor joined both ways keeps its
    in-neighbor position and takes the out-edge's rating ``D_{v->u}``.
    The normal equations ``xtx`` and ``xty`` are summed side by side by
    one ``np.add.accumulate`` over ``[[reg·n·I | 0], [f0 f0ᵀ | r0 f0],
    …]``: each partial sum adds one more term, left to right — the
    association order of a per-neighbor ``+=`` loop, so the factors are
    exactly the loop's. ``@``, ``einsum`` and ``sum`` may reassociate
    and must not replace it.
    """

    eye = np.eye(d)

    def als_update(scope: Scope):
        neighbors = scope.neighbors
        if not neighbors:
            return None
        rows = {u: (rating, factor) for u, rating, factor in scope.gather_in()}
        rows.update(
            (w, (rating, factor)) for w, rating, factor in scope.gather_out()
        )
        ratings, factors = zip(*rows.values())
        n = len(factors)
        # Row k of ``augmented`` is [f_k | r_k], so term k+1 = f_k ⊗ row k
        # is f_k f_kᵀ beside r_k f_k.
        augmented = np.empty((n, d + 1))
        augmented[:, :d] = factors
        augmented[:, d] = ratings
        terms = np.empty((n + 1, d, d + 1))
        terms[0, :, :d] = regularization * n * eye
        terms[0, :, d] = 0.0
        np.multiply(
            augmented[:, :d, None], augmented[:, None, :], out=terms[1:]
        )
        totals = np.add.accumulate(terms)[-1]
        new_factor = np.linalg.solve(totals[:, :d], totals[:, d])
        old_factor = scope.data
        scope.data = new_factor
        if not dynamic:
            return None
        change = float(np.abs(new_factor - old_factor).mean())
        if change > epsilon:
            return [(u, change) for u in neighbors]
        return None

    return als_update


def als_program(
    d: int,
    regularization: float = 0.05,
    epsilon: float = 0.01,
    dynamic: bool = True,
):
    """The ALS update as a runtime-executable program.

    :func:`make_als_update` returns a closure, which cannot cross a
    process boundary; this wraps the factory call in an
    :class:`~repro.runtime.program.UpdateProgram` so every worker
    process rebuilds the closure from the same configuration — the
    paper's Fig. 1(d) workload, runnable under edge consistency on the
    pipelined locking engine (``RuntimeLockingEngine``), where dynamic
    priorities are the factor-change magnitudes. Also registered as
    ``named_program("als", ...)``.
    """
    from repro.runtime.program import UpdateProgram

    return UpdateProgram(
        make_als_update,
        args=(d,),
        kwargs={
            "regularization": regularization,
            "epsilon": epsilon,
            "dynamic": dynamic,
        },
    )


def initialize_factors(
    graph: DataGraph, d: int, seed: int = 0, scale: float = 0.5
) -> None:
    """Random-initialize every vertex's latent factor (deterministic)."""
    rng = np.random.default_rng(seed)
    for v in graph.vertices():
        graph.set_vertex_data(v, scale * rng.standard_normal(d))


def training_rmse(graph: DataGraph, store=None) -> float:
    """Root-mean-square error over the training edges.

    ``store`` overrides the data provider (pass a
    :class:`LocalGraphStore`-merged view for distributed runs).
    """
    get_v = store.vertex_data if store is not None else graph.vertex_data
    get_e = store.edge_data if store is not None else graph.edge_data
    total = 0.0
    count = 0
    for (u, m) in graph.edges():
        predicted = float(np.dot(get_v(u), get_v(m)))
        total += (get_e(u, m) - predicted) ** 2
        count += 1
    return float(np.sqrt(total / count)) if count else 0.0


def test_rmse(
    graph: DataGraph,
    test_ratings: Iterable[Tuple[VertexId, VertexId, float]],
    values: Optional[dict] = None,
) -> float:
    """RMSE on held-out ratings (the y-axis of Figs. 1d / 9a).

    ``values`` optionally maps vertex -> factor (e.g. gathered from a
    distributed run); defaults to the graph's current data.
    """
    get = values.__getitem__ if values is not None else graph.vertex_data
    total = 0.0
    count = 0
    for (u, m, rating) in test_ratings:
        predicted = float(np.dot(get(u), get(m)))
        total += (rating - predicted) ** 2
        count += 1
    return float(np.sqrt(total / count)) if count else 0.0


# pytest must not collect this helper as a test when imported into
# test modules.
test_rmse.__test__ = False  # type: ignore[attr-defined]


def static_sweep_schedule(graph: DataGraph, side_fn) -> List[List[VertexId]]:
    """BSP-style alternation: [users], [movies], like the MPI/Mahout
    implementations — recompute one whole side per superstep."""
    users = [v for v in graph.vertices() if side_fn(v) == 0]
    movies = [v for v in graph.vertices() if side_fn(v) == 1]
    return [users, movies]
