"""Fig. 1(b): update-count distribution of dynamic PageRank.

The paper runs dynamic (adaptive) PageRank to convergence and plots how
many updates each vertex needed: "the majority of the vertices required
only a single update while only about 3% of the vertices required more
than 10 updates".
"""

from collections import Counter

from repro.apps import initialize_ranks, make_pagerank_update
from repro.figures import Figure
from repro.core import SequentialEngine
from repro.datasets import power_law_web_graph

NUM_PAGES = 2000


def run_experiment():
    graph = power_law_web_graph(NUM_PAGES, out_degree=4, seed=3)
    initialize_ranks(graph)
    update = make_pagerank_update(epsilon=3e-4, schedule="out")
    engine = SequentialEngine(graph, update, scheduler="priority")
    result = engine.run(initial=graph.vertices())
    counts = Counter(result.updates_per_vertex.values())
    max_updates = max(counts)
    histogram = [counts.get(k, 0) for k in range(1, max_updates + 1)]
    fig = Figure(
        figure_id="fig1b",
        title="Dynamic PageRank: updates needed at convergence",
        x_label="updates",
        x_values=list(range(1, max_updates + 1)),
    )
    fig.add("num_vertices", histogram)
    single = counts.get(1, 0) / graph.num_vertices
    heavy = (
        sum(v for k, v in counts.items() if k > 10) / graph.num_vertices
    )
    fig.note(f"{single:.0%} of vertices converged in a single update "
             f"(paper: 51%); {heavy:.1%} needed more than 10 (paper: ~3%)")
    return fig, single, heavy, result


def test_fig1b_majority_single_update():
    fig, single, heavy, result = run_experiment()
    print("\n" + fig.render())
    fig.save()
    assert result.converged
    # The skew the paper reports: most vertices converge almost
    # immediately, a small tail needs many updates.
    assert single >= 0.40
    assert heavy <= 0.10
    histogram = fig.values_of("num_vertices")
    assert histogram[0] == max(histogram)  # mode at one update
    assert len(histogram) > 5  # a real tail exists
