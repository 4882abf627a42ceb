"""Fig. 6: overall scalability, network utilization, Netflix d-sweep,
and the Netflix three-system comparison.

(a)/(b)/(c)/(d) are evaluated with the paper-scale cost models (the
inputs are 99M-200M edges; see DESIGN.md), cross-validated by executing
the chromatic engine end-to-end on a reduced Netflix instance and
checking real speedup and numerical agreement between the GraphLab,
Hadoop, and MPI implementations.
"""

import numpy as np

from repro.apps import initialize_factors, make_als_update, training_rmse
from repro.baselines import (
    graphlab_mbps_per_machine,
    graphlab_runtime,
    hadoop_runtime,
    mpi_runtime,
    ner_workload,
    netflix_workload,
    coseg_workload,
    run_hadoop_als,
    run_mpi_als,
    speedup_curve,
)
from repro.figures import Figure
from repro.core import Consistency, bipartite_coloring
from repro.datasets import synthetic_netflix
from repro.distributed import (
    ChromaticEngine,
    DistributedFileSystem,
    deploy,
    netflix_cost,
    netflix_sizes,
)
from repro.sim import Cluster

MACHINES = [4, 8, 16, 24, 32, 40, 48, 56, 64]


def run_fig6a_and_6b():
    workloads = {
        "coseg": coseg_workload(),
        "netflix": netflix_workload(20),
        "ner": ner_workload(),
    }
    fig_a = Figure(
        figure_id="fig6a",
        title="Speedup relative to 4 machines",
        x_label="machines",
        x_values=MACHINES,
    )
    fig_b = Figure(
        figure_id="fig6b",
        title="Average MB/s per machine",
        x_label="machines",
        x_values=MACHINES,
    )
    for name, wl in workloads.items():
        curve = speedup_curve(
            lambda m, wl=wl: graphlab_runtime(m, wl), MACHINES
        )
        fig_a.add(name, [curve[m] for m in MACHINES])
        fig_b.add(
            name, [graphlab_mbps_per_machine(m, wl) for m in MACHINES]
        )
    fig_a.note("paper-scale cost model; paper: CoSeg ~10x, Netflix "
               "moderate, NER ~3x at 64 machines")
    fig_b.note("paper: NER saturates above 100 MB/s beyond 16 machines")
    return fig_a, fig_b


def run_fig6c():
    fig = Figure(
        figure_id="fig6c",
        title="Netflix speedup vs computation intensity d",
        x_label="machines",
        x_values=MACHINES,
    )
    for d in (5, 20, 50, 100):
        wl = netflix_workload(d)
        curve = speedup_curve(
            lambda m, wl=wl: graphlab_runtime(m, wl), MACHINES
        )
        fig.add(f"d={d} ({wl.cycles_per_update/1e6:.1f}M cyc)",
                [curve[m] for m in MACHINES])
    fig.note("higher computation-to-communication ratio scales better")
    return fig


def run_fig6d():
    wl = netflix_workload(20)
    fig = Figure(
        figure_id="fig6d",
        title="Netflix runtime: GraphLab vs Hadoop vs MPI (seconds)",
        x_label="machines",
        x_values=MACHINES,
    )
    fig.add("hadoop", [hadoop_runtime(m, wl) for m in MACHINES])
    fig.add("graphlab", [graphlab_runtime(m, wl) for m in MACHINES])
    fig.add("mpi", [mpi_runtime(m, wl) for m in MACHINES])
    fig.note("paper: GraphLab 40-60x over Hadoop, comparable to MPI")
    return fig


def run_reduced_scale_validation():
    """Execute all three systems on a small Netflix instance."""
    d = 4
    data = synthetic_netflix(num_users=120, num_movies=40, seed=9)
    iterations = 3

    # GraphLab chromatic engine (real distributed execution).
    initialize_factors(data.graph, d, seed=1)
    dep = deploy(
        data.graph, 4, partitioner="hash", atoms_per_machine=4,
        sizes=netflix_sizes(d), skip_ingress_io=True,
    )
    engine = ChromaticEngine(
        dep.cluster,
        data.graph,
        make_als_update(d=d, dynamic=False),
        dep.stores,
        dep.owner,
        netflix_cost(d),
        netflix_sizes(d),
        consistency=Consistency.EDGE,
        coloring=bipartite_coloring(data.graph, side_fn=data.side_fn),
        max_sweeps=1,
    )
    # Static (non-self-scheduling) ALS: re-seed every sweep, exactly
    # like the BSP baselines' per-iteration recomputation.
    for _ in range(iterations):
        engine.run(initial=data.graph.vertices())
    graphlab_rmse = training_rmse(data.graph, store=_merged(engine))
    graphlab_runtime_s = dep.cluster.kernel.now

    # Hadoop (real MapReduce execution).
    cluster = Cluster(4)
    dfs = DistributedFileSystem(cluster, replication=1)
    hadoop = run_hadoop_als(
        cluster, dfs, data.graph, data.side_fn, d, iterations, seed=1
    )
    hadoop_rmse = training_rmse(
        data.graph, store=_value_store(data.graph, hadoop.values)
    )

    # MPI (real BSP execution).
    cluster = Cluster(4)
    mpi = run_mpi_als(
        cluster, data.graph, data.side_fn, d, iterations, seed=1
    )
    mpi_rmse = training_rmse(
        data.graph, store=_value_store(data.graph, mpi.values)
    )
    return (
        graphlab_rmse,
        hadoop_rmse,
        mpi_rmse,
        graphlab_runtime_s,
        hadoop.runtime,
        mpi.runtime,
    )


class _value_store:
    """Adapter: dict of vertex values + graph edges as a data store."""

    def __init__(self, graph, values):
        self._graph = graph
        self._values = values

    def vertex_data(self, v):
        return self._values[v]

    def edge_data(self, u, m):
        return self._graph.edge_data(u, m)


def _merged(engine):
    values = engine.gather_vertex_data()
    return _value_store(engine.graph, values)


def test_fig6a_scalability_shapes():
    fig_a, fig_b = run_fig6a_and_6b()
    print("\n" + fig_a.render())
    print("\n" + fig_b.render())
    fig_a.save()
    fig_b.save()
    at64 = {s.label: s.values[-1] for s in fig_a.series}
    # CoSeg scales best; NER worst with a plateau near 3x (paper).
    assert at64["coseg"] > at64["ner"]
    assert at64["netflix"] > at64["ner"]
    assert 2.0 <= at64["ner"] <= 4.5
    assert at64["coseg"] >= 7.0
    # 6(b): NER saturates >95 MB/s beyond 16 machines; others stay low.
    ner_mbps = fig_b.values_of("ner")
    for m, mbps in zip(MACHINES, ner_mbps):
        if m >= 16:
            assert mbps > 95.0
    assert max(fig_b.values_of("netflix")) < 80.0
    assert max(fig_b.values_of("coseg")) < 20.0
    # NER is the bandwidth hog at every cluster size.
    assert ner_mbps[-1] > fig_b.values_of("netflix")[-1]


def test_fig6c_intensity():
    fig = run_fig6c()
    print("\n" + fig.render())
    fig.save()
    finals = [s.values[-1] for s in fig.series]  # d=5,20,50,100 order
    assert finals == sorted(finals)  # monotone in d
    assert finals[-1] > 1.5 * finals[0]


def test_fig6d_system_comparison():
    fig = run_fig6d()
    print("\n" + fig.render())
    fig.save()
    hadoop = fig.values_of("hadoop")
    graphlab = fig.values_of("graphlab")
    mpi = fig.values_of("mpi")
    for h, g, p in zip(hadoop, graphlab, mpi):
        assert 20.0 <= h / g <= 90.0  # paper: 40-60x
        assert 0.6 <= g / p <= 1.6  # comparable to MPI


def test_fig6_reduced_scale_cross_validation():
    (gl_rmse, h_rmse, mpi_rmse, gl_t, h_t, mpi_t) = (
        run_reduced_scale_validation()
    )
    print(
        f"\nreduced-scale ALS agreement: graphlab={gl_rmse:.4f} "
        f"hadoop={h_rmse:.4f} mpi={mpi_rmse:.4f}; runtimes "
        f"graphlab={gl_t:.2f}s hadoop={h_t:.2f}s mpi={mpi_t:.2f}s"
    )
    # All three implementations solve the same problem.
    assert abs(gl_rmse - h_rmse) < 0.15
    assert abs(gl_rmse - mpi_rmse) < 0.15
    # And even at toy scale, Hadoop is far slower (job startup alone).
    assert h_t > 10.0 * gl_t
