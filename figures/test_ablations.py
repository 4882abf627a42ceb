"""Ablations of the paper's design choices (DESIGN.md Sec. 5).

The paper motivates three mechanisms without isolating them; these
suites isolate each on the executing engines:

* **data versioning** (Sec. 4.1) — ghost pushes ship only *changed*
  data. Ablation: compare shipped bytes against re-sending the full
  boundary every color-step.
* **asynchronous change propagation** (Sec. 4.2.1) — the chromatic
  engine overlaps ghost pushes with compute inside a color-step.
  Ablation: flush only at the color barrier (huge batches, no overlap).
* **affinity-aware atom placement** (Sec. 4.1) — the atom index's
  placement pulls connected atoms together. Ablation: round-robin
  placement of the same atoms.
"""

from repro.figures import Figure
from repro.core import greedy_coloring
from repro.core.graph import DataGraph
from repro.datasets import mesh_3d
from repro.apps import make_lbp_update
from repro.distributed import (
    COSEG_SIZES,
    ChromaticEngine,
    LockingEngine,
    bfs_assignment,
    build_atoms,
    constant_cost,
    degree_cost,
    deploy,
)
from repro.distributed.ingress import ownership_from_placement
from repro.runtime.shard import CSRShardStore


def _mesh(side=8, epsilon=0.0):
    graph, psi = mesh_3d(side, connectivity=6, seed=3)
    return graph, make_lbp_update(psi, epsilon=epsilon)


class _NaiveStore(CSRShardStore):
    """Ablation store: re-ships the *entire* local boundary on every
    flush, as if the versioning system did not exist (Sec. 4.1's
    "eliminating the transmission of unchanged or constant data")."""

    def collect_dirty(self):
        # The routing arrays list every mirrored vertex and every
        # cross-machine edge: exactly the boundary.
        for route in self._route_v.values():
            self._dirty_v[route] = True
        for route in self._route_e.values():
            self._dirty_e[route] = True
        return super().collect_dirty()


def run_versioning_ablation():
    """Bytes shipped: version-filtered pushes vs full-boundary resend.

    Both variants execute the same adaptive workload (epsilon > 0, so
    changes die out as the computation converges); the ablated store
    re-dirties its whole boundary before every flush.
    """
    totals = {}
    for label, store_cls in (
        ("version_filtered", CSRShardStore),
        ("naive_resend", _NaiveStore),
    ):
        graph, update = _mesh(epsilon=1e-3)
        dep = deploy(graph, 4, partitioner="grid", skip_ingress_io=True)
        stores = {
            m: store_cls(m, graph, dep.owner, sizes=COSEG_SIZES)
            for m in range(4)
        }
        engine = ChromaticEngine(
            dep.cluster, graph, update, stores, dep.owner,
            degree_cost(200000.0), COSEG_SIZES,
            coloring=greedy_coloring(graph), max_sweeps=12,
        )
        engine.run(initial=graph.vertices())
        totals[label] = sum(
            s.bytes_sent for s in dep.cluster.network.stats.values()
        )
    return totals["version_filtered"], totals["naive_resend"]


def run_async_propagation_ablation():
    """Chromatic flush_batch: overlapped pushes vs barrier-only flush."""
    results = {}
    for label, batch in (("async_overlap", 32), ("barrier_only", 10**9)):
        graph, update = _mesh()
        dep = deploy(graph, 4, partitioner="grid", skip_ingress_io=True)
        engine = ChromaticEngine(
            dep.cluster, graph, update, dep.stores, dep.owner,
            degree_cost(200000.0), COSEG_SIZES,
            coloring=greedy_coloring(graph),
            flush_batch=batch, max_sweeps=3,
        )
        run = engine.run(initial=graph.vertices())
        results[label] = run.runtime
    return results


def run_placement_ablation():
    """Atom placement: affinity-aware vs round-robin, measured in
    cross-machine scope chains (locking engine bytes)."""
    graph, update = _mesh()
    assignment = bfs_assignment(graph, 16)
    atoms, index = build_atoms(graph, assignment, 16, sizes=COSEG_SIZES)
    results = {}
    for label in ("affinity", "round_robin"):
        if label == "affinity":
            placement = index.place(4)
        else:
            placement = {a: a % 4 for a in range(16)}
        owner = ownership_from_placement(atoms, placement)
        dep = deploy(
            graph, 4, assignment=assignment, sizes=COSEG_SIZES,
            skip_ingress_io=True,
        )
        stores = {
            m: CSRShardStore(m, graph, owner, sizes=COSEG_SIZES)
            for m in range(4)
        }
        engine = LockingEngine(
            dep.cluster, graph, update, stores, owner,
            degree_cost(200000.0), COSEG_SIZES,
            pipeline_length=32,
            max_updates=2 * graph.num_vertices,
        )
        run = engine.run(initial=graph.vertices())
        results[label] = (
            run.runtime,
            sum(run.bytes_sent_per_machine.values()),
        )
    return results


def test_ablation_versioning_saves_bytes():
    shipped, naive = run_versioning_ablation()
    fig = Figure(
        figure_id="ablation_versioning",
        title="Ghost traffic: version-filtered vs naive resend (bytes)",
        x_label="scheme",
        x_values=["version_filtered", "naive_resend"],
    ).add("bytes", [shipped, naive])
    print("\n" + fig.render())
    fig.save()
    # Versioning must ship strictly less than re-sending the boundary
    # every color-step ("eliminating the transmission of unchanged or
    # constant data", Sec. 4.1).
    assert shipped < naive


def test_ablation_async_propagation():
    results = run_async_propagation_ablation()
    fig = Figure(
        figure_id="ablation_async_flush",
        title="Chromatic engine: overlapped vs barrier-only ghost pushes",
        x_label="scheme",
        x_values=list(results),
    ).add("runtime_s", list(results.values()))
    print("\n" + fig.render())
    fig.save()
    # Overlapping communication with computation within a color-step
    # must not be slower than deferring everything to the barrier.
    assert results["async_overlap"] <= results["barrier_only"] * 1.05


def test_ablation_placement_affinity():
    results = run_placement_ablation()
    fig = Figure(
        figure_id="ablation_placement",
        title="Atom placement: affinity vs round-robin",
        x_label="scheme",
        x_values=list(results),
    )
    fig.add("runtime_s", [r[0] for r in results.values()])
    fig.add("bytes_sent", [r[1] for r in results.values()])
    print("\n" + fig.render())
    fig.save()
    # Affinity placement puts connected atoms together: it must not
    # ship more bytes than round-robin on a mesh.
    assert results["affinity"][1] <= results["round_robin"][1]
