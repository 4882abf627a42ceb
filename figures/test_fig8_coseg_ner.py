"""Fig. 8: CoSeg weak scaling, pipeline-vs-partition, NER systems, and
snapshot overhead.

(a) CoSeg weak scaling on the executing locking engine: dataset grows
    proportionally with machines; runtime should stay near-constant.
(b) pipeline length x partition quality: a longer pipeline compensates
    for a worst-case (striped) partition.
(c) NER GraphLab/Hadoop/MPI at paper scale (cost models).
(d) snapshot overhead per application at 64 machines (cost model:
    checkpoint bytes vs an iteration's work; plus an executing check).
"""

from repro.apps import make_lbp_update, prepare_coseg
from repro.baselines import (
    graphlab_runtime,
    hadoop_runtime,
    mpi_runtime,
    ner_workload,
    netflix_workload,
    coseg_workload,
)
from repro.figures import Figure
from repro.core import Consistency
from repro.datasets import synthetic_video
from repro.distributed import (
    COSEG_SIZES,
    LockingEngine,
    deploy,
    degree_cost,
    frame_assignment,
    stripe_assignment,
)
from repro.baselines.analytic import GRAPHLAB_EFFECTIVE_BW, HADOOP_DISK_BPS

MACHINES = [4, 8, 16, 32, 64]


def _coseg_engine(video, num_machines, assignment, pipeline_length,
                  max_sweeps=3):
    setup = prepare_coseg(video, seed=3)
    dep = deploy(
        video.graph,
        num_machines,
        assignment=assignment,
        sizes=COSEG_SIZES,
        skip_ingress_io=True,
        latency=1e-3,  # realistic EC2 RTT; exposes remote lock chains
    )
    engine = LockingEngine(
        dep.cluster,
        video.graph,
        setup["update_fn"],
        dep.stores,
        dep.owner,
        degree_cost(600000.0),
        COSEG_SIZES,
        consistency=Consistency.EDGE,
        scheduler="priority",
        pipeline_length=pipeline_length,
        syncs=[setup["sync"]],
        initial_globals=setup["initial_globals"],
        max_updates=max_sweeps * video.graph.num_vertices,
    )
    return engine


def run_fig8a():
    """Weak scaling: frames grow with machines."""
    runtimes = []
    machine_counts = [1, 2, 4]
    for m in machine_counts:
        video = synthetic_video(
            frames=8 * m, rows=6, cols=8, num_labels=3, seed=6
        )
        k = max(m * 2, 2)
        assignment = frame_assignment(
            video.graph, k, video.frame_fn, video.frames
        )
        engine = _coseg_engine(video, m, assignment, pipeline_length=64)
        result = engine.run(initial=video.graph.vertices())
        runtimes.append(result.runtime)
    fig = Figure(
        figure_id="fig8a",
        title="CoSeg weak scaling (runtime, data grows with machines)",
        x_label="machines",
        x_values=machine_counts,
    )
    fig.add("runtime_s", runtimes)
    fig.note("paper: 11% runtime growth from 16 to 64 machines")
    return fig


def run_fig8b():
    """Pipeline length vs partition quality on a fixed 4-machine job."""
    # The paper evaluates this on a small 32-frame problem, 4 nodes.
    video = synthetic_video(frames=32, rows=6, cols=8, num_labels=3, seed=8)
    k = 8
    optimal = frame_assignment(video.graph, k, video.frame_fn, video.frames)
    # True worst case: round-robin striping of individual vertices,
    # so nearly every scope crosses machines.
    worst = stripe_assignment(video.graph, k)
    lengths = [1, 8, 64]
    rows = {}
    for label, assignment in (("optimal", optimal), ("worst_case", worst)):
        rows[label] = []
        for length in lengths:
            engine = _coseg_engine(video, 4, assignment, length,
                                   max_sweeps=2)
            result = engine.run(initial=video.graph.vertices())
            rows[label].append(result.runtime)
    fig = Figure(
        figure_id="fig8b",
        title="Pipelined locking vs partition quality (4 machines)",
        x_label="pipeline_length",
        x_values=lengths,
    )
    fig.add("optimal_partition", rows["optimal"])
    fig.add("worst_case_partition", rows["worst_case"])
    fig.note("paper: longer pipelines compensate for poor partitioning")
    return fig


def run_fig8c():
    wl = ner_workload()
    fig = Figure(
        figure_id="fig8c",
        title="NER runtime: GraphLab vs Hadoop vs MPI (seconds)",
        x_label="machines",
        x_values=MACHINES,
    )
    fig.add("hadoop", [hadoop_runtime(m, wl) for m in MACHINES])
    fig.add("graphlab", [graphlab_runtime(m, wl) for m in MACHINES])
    fig.add("mpi", [mpi_runtime(m, wl) for m in MACHINES])
    fig.note("paper: ~80x over Hadoop at few machines, ~30x at many; "
             "MPI outperforms GraphLab (communication-bound)")
    return fig


def run_fig8d():
    """Snapshot overhead % when checkpointing every |V| updates at 64
    machines, from the cost model: checkpoint write time vs one
    sweep's compute/communication time."""
    results = []
    labels = []
    for name, wl in (
        ("netflix_d20", netflix_workload(20)),
        ("coseg", coseg_workload()),
        ("ner", ner_workload()),
    ):
        sweep_seconds = graphlab_runtime(
            64, wl, include_load=False
        ) / wl.iterations
        checkpoint_bytes = (
            wl.num_vertices * wl.vertex_bytes
            + 2 * wl.num_edges * wl.edge_bytes
        ) / 64.0
        checkpoint_seconds = checkpoint_bytes / HADOOP_DISK_BPS
        overhead = 100.0 * checkpoint_seconds / sweep_seconds
        labels.append(name)
        results.append(overhead)
    fig = Figure(
        figure_id="fig8d",
        title="Snapshot overhead (% of one |V|-update epoch), 64 machines",
        x_label="application",
        x_values=labels,
    )
    fig.add("overhead_pct", results)
    fig.note("paper: snapshot every |V| updates costs a modest fraction "
             "of the epoch (largest for NER's 816-byte vertices)")
    return fig


def test_fig8a_weak_scaling():
    fig = run_fig8a()
    print("\n" + fig.render())
    fig.save()
    runtimes = fig.values_of("runtime_s")
    # Ideal weak scaling is flat; allow 2x at quadruple data (the
    # paper saw 11% from 16->64 with far larger per-machine work; the
    # single-machine baseline here pays zero communication).
    assert runtimes[-1] <= 2.0 * runtimes[0]
    assert runtimes[-1] <= 1.6 * runtimes[1]


def test_fig8b_pipeline_compensates_partitioning():
    fig = run_fig8b()
    print("\n" + fig.render())
    fig.save()
    optimal = fig.values_of("optimal_partition")
    worst = fig.values_of("worst_case_partition")
    # Worst-case partition is crippling at pipeline length 1...
    assert worst[0] > 1.5 * optimal[0]
    # ...pipelining rescues it...
    assert worst[-1] < 0.66 * worst[0]
    # ...to within striking distance of the optimal partition.
    assert worst[-1] < 2.0 * optimal[-1]
    # And the optimal partition is much less sensitive to the pipeline.
    optimal_gain = optimal[0] / optimal[-1]
    worst_gain = worst[0] / worst[-1]
    assert worst_gain > optimal_gain


def test_fig8c_ner_systems():
    fig = run_fig8c()
    print("\n" + fig.render())
    fig.save()
    hadoop = fig.values_of("hadoop")
    graphlab = fig.values_of("graphlab")
    mpi = fig.values_of("mpi")
    ratios = [h / g for h, g in zip(hadoop, graphlab)]
    # Paper: ~80x at few machines narrowing to ~30x at many.
    assert ratios[0] > 50.0
    assert ratios[-1] < ratios[0]
    assert 10.0 <= ratios[-1] <= 50.0
    # MPI outperforms GraphLab on this communication-bound task.
    for g, p in zip(graphlab, mpi):
        assert g / p > 1.2


def test_fig8d_snapshot_overhead():
    fig = run_fig8d()
    print("\n" + fig.render())
    fig.save()
    overheads = dict(zip(fig.x_values, fig.values_of("overhead_pct")))
    # All modest (under ~50%, per Fig. 8d's axis) and strictly positive.
    for name, pct in overheads.items():
        assert 0.0 < pct < 60.0, (name, pct)
