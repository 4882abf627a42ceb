"""Table 2: experiment input sizes.

Prints the paper-scale specification next to the reduced-scale
generated datasets, and checks the data-size formulas (vertex bytes
8d+13 for Netflix, 392/80 for CoSeg, 816/4 for NER) and graph shapes
(bipartite / 3-D grid).
"""

from repro.figures import Figure
from repro.core import bipartite_coloring
from repro.baselines import coseg_workload, ner_workload, netflix_workload
from repro.datasets import synthetic_ner, synthetic_netflix, synthetic_video
from repro.distributed import COSEG_SIZES, NER_SIZES, netflix_sizes


def run_experiment():
    netflix = synthetic_netflix(num_users=300, num_movies=100, seed=0)
    video = synthetic_video(frames=6, rows=10, cols=16, seed=0)
    ner = synthetic_ner(seed=0)
    paper = {
        "netflix": netflix_workload(20),
        "coseg": coseg_workload(),
        "ner": ner_workload(),
    }
    fig = Figure(
        figure_id="table2",
        title="Experiment input sizes (paper scale vs generated)",
        x_label="experiment",
        x_values=["netflix", "coseg", "ner"],
    )
    fig.add(
        "paper_verts",
        [paper[k].num_vertices for k in ("netflix", "coseg", "ner")],
    )
    fig.add(
        "paper_edges",
        [paper[k].num_edges for k in ("netflix", "coseg", "ner")],
    )
    fig.add(
        "gen_verts",
        [
            netflix.graph.num_vertices,
            video.graph.num_vertices,
            ner.graph.num_vertices,
        ],
    )
    fig.add(
        "gen_edges",
        [
            netflix.graph.num_edges,
            video.graph.num_edges,
            ner.graph.num_edges,
        ],
    )
    fig.add(
        "vertex_bytes",
        [paper[k].vertex_bytes for k in ("netflix", "coseg", "ner")],
    )
    fig.add(
        "edge_bytes",
        [paper[k].edge_bytes for k in ("netflix", "coseg", "ner")],
    )
    fig.add("shape", ["bipartite", "3D grid", "bipartite"])
    fig.add("partition", ["random", "frames", "random"])
    fig.add("engine", ["chromatic", "locking", "chromatic"])
    return fig, netflix, video, ner


def test_table2_input_sizes():
    fig, netflix, video, ner = run_experiment()
    print("\n" + fig.render())
    fig.save()
    # Byte formulas from Table 2.
    for d in (5, 20, 50, 100):
        sizes = netflix_sizes(d)
        assert sizes.vbytes(("u", 0)) == 8 * d + 13
        assert sizes.ebytes(("u", 0), ("m", 0)) == 16
    assert COSEG_SIZES.vbytes((0, 0, 0)) == 392
    assert COSEG_SIZES.ebytes((0, 0, 0), (0, 0, 1)) == 80
    assert NER_SIZES.vbytes(("np", "x")) == 816
    assert NER_SIZES.ebytes(("np", "x"), ("ctx", 0)) == 4
    # Shapes: the bipartite graphs really are two-colorable.
    bipartite_coloring(netflix.graph, side_fn=netflix.side_fn)
    bipartite_coloring(ner.graph, side_fn=ner.side_fn)
    # The video graph is a 3-D grid: max degree 6 (4 spatial + 2
    # temporal neighbors).
    assert max(
        video.graph.degree(v) for v in video.graph.vertices()
    ) <= 6
    # Paper-scale update complexity ordering (Table 2): ALS most
    # expensive per update.
    assert netflix.graph.num_edges > 0 and ner.graph.num_edges > 0
