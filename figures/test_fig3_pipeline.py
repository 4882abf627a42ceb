"""Fig. 3: distributed locking engine on the synthetic 3-D mesh.

(a) runtime vs number of machines (near-linear scaling);
(b) runtime vs pipeline length (large gain then diminishing returns).

The paper's mesh is 300^3 with 26-connectivity; ours is side-8 (512
vertices) with identical topology, and pipeline lengths are scaled by
the same vertex-count ratio (their 100..10,000 on 27M vertices maps to
single digits..hundreds here).
"""

from repro.figures import Figure
from repro.core import Consistency
from repro.datasets import mesh_3d
from repro.apps import make_lbp_update
from repro.distributed import COSEG_SIZES, LockingEngine, degree_cost, deploy

SIDE = 10
ITERATIONS = 4
MACHINES = [1, 2, 4]
PIPELINE_LENGTHS = [1, 4, 16, 256]


def _run(num_machines: int, pipeline_length: int) -> float:
    graph, psi = mesh_3d(SIDE, connectivity=26, seed=1)
    # epsilon=0: always reschedule; max_updates caps the fixed workload
    update = make_lbp_update(psi, epsilon=0.0)
    dep = deploy(
        graph,
        num_machines,
        partitioner="grid",
        atoms_per_machine=4,
        skip_ingress_io=True,
    )
    engine = LockingEngine(
        dep.cluster,
        graph,
        update,
        dep.stores,
        dep.owner,
        degree_cost(300000.0),
        COSEG_SIZES,
        consistency=Consistency.EDGE,
        pipeline_length=pipeline_length,
        max_updates=ITERATIONS * graph.num_vertices,
    )
    result = engine.run(initial=graph.vertices())
    assert result.num_updates >= ITERATIONS * graph.num_vertices - 8
    return result.runtime


def run_experiment():
    fig_a = Figure(
        figure_id="fig3a",
        title="Locking engine runtime vs machines (pipeline=16)",
        x_label="machines",
        x_values=MACHINES,
    )
    fig_a.add("runtime_s", [_run(m, 16) for m in MACHINES])
    fig_a.note(
        f"side-{SIDE} 26-connected mesh, {ITERATIONS} LBP iterations "
        "(paper: 300^3 mesh, 10 iterations)"
    )

    fig_b = Figure(
        figure_id="fig3b",
        title="Locking engine runtime vs pipeline length (4 machines)",
        x_label="pipeline_length",
        x_values=PIPELINE_LENGTHS,
    )
    fig_b.add("runtime_s", [_run(4, p) for p in PIPELINE_LENGTHS])
    fig_b.note(
        "pipeline lengths scaled to the reduced mesh (paper sweeps "
        "100..10,000 at 27M vertices)"
    )
    return fig_a, fig_b


def test_fig3_pipelined_locking():
    fig_a, fig_b = run_experiment()
    print("\n" + fig_a.render())
    print("\n" + fig_b.render())
    fig_a.save()
    fig_b.save()
    runtimes_a = fig_a.values_of("runtime_s")
    # (a) scaling: more machines, strictly faster, with at least
    # 1.8x total gain from 1 -> 4 machines (the reduced mesh has a far
    # higher boundary fraction than the paper's 300^3 mesh).
    assert runtimes_a[0] > runtimes_a[1] > runtimes_a[2]
    assert runtimes_a[0] / runtimes_a[2] > 1.8
    # (b) longer pipelines help a lot initially...
    runtimes_b = fig_b.values_of("runtime_s")
    assert runtimes_b[0] > 2.0 * runtimes_b[1]
    # ...with diminishing returns at the top end.
    gain_mid = runtimes_b[1] / runtimes_b[2]
    gain_tail = runtimes_b[2] / runtimes_b[3]
    assert gain_tail < gain_mid
    assert gain_tail < 1.5
