"""Fig. 1(a): async (GraphLab) vs sync (Pregel) PageRank convergence.

L1 error to the true PageRank vector versus work performed. The paper's
claim: asynchronous (in-place, Gauss-Seidel-style) execution converges
substantially faster than synchronous (Pregel superstep) execution at
equal update counts.
"""

from repro.apps import (
    exact_pagerank,
    initialize_ranks,
    jacobi_pagerank_sweep,
    l1_error,
    make_pagerank_update,
)
from repro.figures import Figure
from repro.core import SequentialEngine, SweepScheduler
from repro.datasets import power_law_web_graph

#: The Fig. 1a workload: a power-law web graph, Jacobi vs Gauss-Seidel
#: sweeps. Its real-runtime counterpart is the bench workload
#: ``pagerank_chromatic`` (``python3 -m bench``).
NUM_PAGES = 1200
OUT_DEGREE = 4
SEED = 7
SWEEPS = 12


def run_experiment():
    graph = power_law_web_graph(NUM_PAGES, out_degree=OUT_DEGREE, seed=SEED)
    truth = exact_pagerank(graph)

    # Synchronous (Pregel): Jacobi sweeps, error sampled per sweep.
    sync_errors = []
    initialize_ranks(graph)
    for _ in range(SWEEPS):
        jacobi_pagerank_sweep(graph)
        sync_errors.append(l1_error(graph, truth))

    # Asynchronous (GraphLab): in-place Gauss-Seidel sweeps, sources
    # updated before the pages they link to (reverse insertion order on
    # a preferential-attachment graph), error sampled every |V| updates
    # so the x-axes align.
    async_errors = []
    initialize_ranks(graph)
    update = make_pagerank_update(epsilon=0.0, schedule="none")
    order = list(graph.vertices())[::-1]
    engine = SequentialEngine(graph, update, scheduler=SweepScheduler(order))
    for _ in range(SWEEPS):
        engine.scheduler.add_all(order)
        engine.run(initial=())
        async_errors.append(l1_error(graph, truth))

    fig = Figure(
        figure_id="fig1a",
        title="Async vs Sync PageRank (L1 error vs sweeps)",
        x_label="sweep",
        x_values=list(range(1, SWEEPS + 1)),
    )
    fig.add("sync_pregel", sync_errors)
    fig.add("async_graphlab", async_errors)
    fig.note(
        f"power-law web graph: {NUM_PAGES} pages (paper: 25M pages); "
        "equal updates per sweep for both systems"
    )
    return fig


def test_fig1a_async_beats_sync():
    fig = run_experiment()
    print("\n" + fig.render())
    fig.save()
    sync = fig.values_of("sync_pregel")
    async_ = fig.values_of("async_graphlab")
    # Both converge...
    assert sync[-1] < sync[0]
    assert async_[-1] < async_[0]
    # ...but async is ahead at every sweep, by a widening margin
    # (the paper's Fig. 1a gap).
    assert all(a <= s for a, s in zip(async_, sync))
    mid = SWEEPS // 2
    assert async_[mid] < 0.5 * sync[mid]
    assert async_[-1] < 0.1 * sync[-1]
