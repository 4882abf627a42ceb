"""Fig. 4: synchronous vs asynchronous (Chandy-Lamport) snapshots.

(a) updates-completed vs time with one snapshot mid-run: the sync
snapshot "flatlines" progress while the async snapshot only slows it;
(b) the same with a straggler machine stalled during the snapshot: the
sync snapshot absorbs the full stall, the async snapshot a fraction.
"""

from repro.apps import make_lbp_update
from repro.figures import Figure
from repro.core import Consistency
from repro.datasets import mesh_3d
from repro.distributed import COSEG_SIZES, LockingEngine, degree_cost, deploy
from repro.distributed import locking

SIDE = 6
MACHINES = 4
ITERATIONS = 6


def _run(snapshot_mode=None, stall_seconds=0.0, stall_start=0.01):
    graph, psi = mesh_3d(SIDE, connectivity=26, seed=2)
    update = make_lbp_update(psi, epsilon=0.0)
    dep = deploy(
        graph, MACHINES, partitioner="grid", atoms_per_machine=4,
        skip_ingress_io=True,
    )
    # Checkpoint serialization is a visible fraction of the run, as at
    # paper scale (GBs of state vs ~100 MB/s of marshaling throughput).
    locking.CHECKPOINT_SERIALIZE_CYCLES_PER_BYTE = 5e4
    budget = ITERATIONS * graph.num_vertices
    plan = [(budget // 2, snapshot_mode)] if snapshot_mode else []
    engine = LockingEngine(
        dep.cluster,
        graph,
        update,
        dep.stores,
        dep.owner,
        degree_cost(400000.0),
        COSEG_SIZES,
        consistency=Consistency.EDGE,
        pipeline_length=16,
        max_updates=budget,
        dfs=dep.dfs,
        snapshot_plan=plan,
        progress_interval=0.002,
    )
    if stall_seconds > 0.0:
        # Stall one machine shortly after the snapshot begins.
        dep.cluster.machine(MACHINES - 1).add_slowdown(
            stall_start, stall_start + stall_seconds, 0.0
        )
    result = engine.run(initial=graph.vertices())
    result.extra["snapshot_progress"] = getattr(
        engine, "snapshot_progress", []
    )
    return result


def run_experiment():
    baseline = _run(None)
    async_run = _run("async")
    sync_run = _run("sync")
    stall = 0.15 * baseline.runtime
    # The fault lands just after the snapshot begins (as in the paper:
    # "halting one of the processes for 15 seconds after snapshot
    # begins").
    stall_start = sync_run.snapshots[0].start + 0.005
    async_stall = _run("async", stall_seconds=stall, stall_start=stall_start)
    sync_stall = _run("sync", stall_seconds=stall, stall_start=stall_start)

    fig = Figure(
        figure_id="fig4",
        title="Snapshot overhead: runtime to equal update count",
        x_label="scenario",
        x_values=[
            "baseline",
            "async_snapshot",
            "sync_snapshot",
            "async_snapshot+stall",
            "sync_snapshot+stall",
        ],
    )
    fig.add(
        "runtime_s",
        [
            baseline.runtime,
            async_run.runtime,
            sync_run.runtime,
            async_stall.runtime,
            sync_stall.runtime,
        ],
    )
    fig.add(
        "snapshots",
        [
            len(baseline.snapshots),
            len(async_run.snapshots),
            len(sync_run.snapshots),
            len(async_stall.snapshots),
            len(sync_stall.snapshots),
        ],
    )
    fig.note(f"injected stall: {stall:.4f}s (15% of baseline runtime)")
    return fig, baseline, async_run, sync_run, async_stall, sync_stall, stall


def _longest_flatline(result, horizon=None):
    """Longest period without *any* progress: neither user updates nor
    snapshot updates (both are update functions — Fig. 4 plots vertices
    updated, and Alg. 5 runs as an update function). ``horizon`` clips
    trailing journal I/O after the computation finished."""
    events = set()
    last_updates = None
    for (t, updates) in result.progress:
        if horizon is not None and t > horizon:
            continue
        if updates != last_updates:
            events.add(t)
            last_updates = updates
    for (t, _marked) in result.extra.get("snapshot_progress", []):
        if horizon is None or t <= horizon:
            events.add(t)
    ordered = sorted(events)
    if len(ordered) < 2:
        return 0.0
    return max(b - a for a, b in zip(ordered, ordered[1:]))


def _user_done_time(result, budget):
    """Time at which the user-update budget completed (Fig. 4's x-axis
    measures update progress, not trailing snapshot I/O)."""
    for (t, updates) in result.progress:
        if updates >= budget:
            return t
    return result.progress[-1][0]


def test_fig4_async_beats_sync_snapshots():
    (fig, baseline, async_run, sync_run, async_stall, sync_stall, stall) = (
        run_experiment()
    )
    print("\n" + fig.render())
    fig.save()
    # Snapshots actually happened and completed.
    assert len(async_run.snapshots) == 1
    assert async_run.snapshots[0].mode == "async"
    assert len(sync_run.snapshots) == 1
    assert sync_run.snapshots[0].mode == "sync"
    budget = ITERATIONS * (SIDE ** 3)
    base_done = _user_done_time(baseline, budget)
    sync_done = _user_done_time(sync_run, budget)
    async_done = _user_done_time(async_run, budget)
    flat_sync = _longest_flatline(sync_run, horizon=sync_done)
    flat_async = _longest_flatline(async_run, horizon=async_done)
    flat_sync_stall = _longest_flatline(
        sync_stall, horizon=_user_done_time(sync_stall, budget)
    )
    flat_async_stall = _longest_flatline(
        async_stall, horizon=_user_done_time(async_stall, budget)
    )
    print(
        f"flatlines: sync={flat_sync:.4f} async={flat_async:.4f} "
        f"sync+stall={flat_sync_stall:.4f} "
        f"async+stall={flat_async_stall:.4f} stall={stall:.4f}"
    )
    # (a) the sync snapshot costs user-progress time over the baseline
    # and exhibits the characteristic flatline: a zero-progress plateau
    # far longer than anything in the async run, which keeps computing
    # throughout its snapshot (the paper's Fig. 4a).
    assert sync_done > base_done
    assert flat_sync > 2.0 * flat_async
    # (b) a straggler stalled during the snapshot delays the
    # synchronous run's completion by (most of) the stall — the barrier
    # amplifies the fault — and costs the async run strictly less
    # (paper: 16s vs 3s penalty for a 15s fault).
    sync_penalty = _user_done_time(sync_stall, budget) - sync_done
    async_penalty = _user_done_time(async_stall, budget) - async_done
    print(f"penalties: sync={sync_penalty:.4f} async={async_penalty:.4f}")
    # Directional claim at this reduced scale (see EXPERIMENTS.md): the
    # stalled sync run's worst no-progress window stays the longest.
    assert flat_async_stall < flat_sync_stall
    assert flat_sync_stall > 0.5 * stall
