"""Fig. 9: dynamic ALS convergence and EC2 price/performance.

(a) dynamic (GraphLab, priority + adaptive) vs BSP (Pregel-style
    static sweeps) ALS: test error vs updates — dynamic reaches the
    same error in roughly half the updates;
(b) price vs runtime for GraphLab and Hadoop on Netflix with
    fine-grained EC2 billing: GraphLab is ~two orders of magnitude
    more cost-effective.
"""

from repro.apps import (
    initialize_factors,
    make_als_update,
    static_sweep_schedule,
    test_rmse,
)
from repro.baselines import (
    graphlab_runtime,
    hadoop_runtime,
    netflix_workload,
)
from repro.figures import Figure
from repro.core import SequentialEngine
from repro.datasets import synthetic_netflix
from repro.sim import CC1_4XLARGE

D = 4
CHECKPOINT = 200
CHECKPOINTS = 8
MACHINES = [4, 8, 16, 24, 32, 40, 48, 56, 64]


def run_fig9a():
    data = synthetic_netflix(
        num_users=200, num_movies=60, ratings_per_user=18, seed=13
    )
    sweeps = 8

    # BSP baseline: fixed alternating full sweeps over the two sides,
    # error sampled after each sweep — every vertex recomputed every
    # sweep whether it moved or not.
    initialize_factors(data.graph, D, seed=2)
    static = make_als_update(d=D, dynamic=False)
    engine = SequentialEngine(data.graph, static, scheduler="fifo")
    sides = static_sweep_schedule(data.graph, data.side_fn)
    bsp_errors = []
    bsp_updates = 0
    for _ in range(sweeps):
        for side in sides:
            engine.run(initial=side)
            bsp_updates += len(side)
        bsp_errors.append(test_rmse(data.graph, data.test_ratings))

    # Dynamic GraphLab: priority scheduler, adaptive rescheduling; runs
    # until the task set drains (converged vertices stop being updated).
    initialize_factors(data.graph, D, seed=2)
    dynamic = make_als_update(d=D, epsilon=1e-2)
    n = data.graph.num_vertices
    engine = SequentialEngine(
        data.graph, dynamic, scheduler="priority", max_updates=n
    )
    dyn_errors = []
    dyn_updates = 0
    for leg in range(sweeps):
        result = engine.run(
            initial=data.graph.vertices() if leg == 0 else ()
        )
        dyn_updates += result.num_updates
        dyn_errors.append(test_rmse(data.graph, data.test_ratings))
        if result.converged and not engine.scheduler:
            dyn_errors.extend(
                [dyn_errors[-1]] * (sweeps - len(dyn_errors))
            )
            break

    fig = Figure(
        figure_id="fig9a",
        title="Dynamic vs BSP ALS (test RMSE per sweep-equivalent)",
        x_label="sweep",
        x_values=list(range(1, sweeps + 1)),
    )
    fig.add("bsp_pregel", bsp_errors)
    fig.add("dynamic_graphlab", dyn_errors)
    fig.note(
        f"total updates: BSP={bsp_updates}, dynamic={dyn_updates} "
        f"({dyn_updates / bsp_updates:.0%}) — the paper reports ~50% on "
        "real Netflix data, whose convergence skew exceeds our "
        "synthetic generator's (see EXPERIMENTS.md)"
    )
    return fig, bsp_updates, dyn_updates


def run_fig9b():
    wl = netflix_workload(20)
    price = CC1_4XLARGE.price_per_hour
    gl_runtimes = [graphlab_runtime(m, wl) for m in MACHINES]
    gl_costs = [m * price * t / 3600.0 for m, t in zip(MACHINES, gl_runtimes)]
    h_runtimes = [hadoop_runtime(m, wl) for m in MACHINES]
    h_costs = [m * price * t / 3600.0 for m, t in zip(MACHINES, h_runtimes)]
    fig = Figure(
        figure_id="fig9b",
        title="EC2 price vs runtime (Netflix, fine-grained billing)",
        x_label="machines",
        x_values=MACHINES,
    )
    fig.add("graphlab_runtime_s", gl_runtimes)
    fig.add("graphlab_cost_usd", gl_costs)
    fig.add("hadoop_runtime_s", h_runtimes)
    fig.add("hadoop_cost_usd", h_costs)
    fig.note("paper: GraphLab about two orders of magnitude more "
             "cost-effective than Hadoop")
    return fig


def test_fig9a_dynamic_halves_updates():
    fig, bsp_updates, dyn_updates = run_fig9a()
    print("\n" + fig.render())
    fig.save()
    bsp = fig.values_of("bsp_pregel")
    dynamic = fig.values_of("dynamic_graphlab")
    # Equivalent final test error...
    assert dynamic[-1] <= bsp[-1] + 0.02
    # ...reached with meaningfully fewer updates (paper: ~half on the
    # heavily skewed real data; our synthetic skew is milder).
    assert dyn_updates <= 0.85 * bsp_updates


def test_fig9b_cost_effectiveness():
    fig = run_fig9b()
    print("\n" + fig.render())
    fig.save()
    gl_cost = fig.values_of("graphlab_cost_usd")
    gl_rt = fig.values_of("graphlab_runtime_s")
    h_cost = fig.values_of("hadoop_cost_usd")
    h_rt = fig.values_of("hadoop_runtime_s")
    # Pareto dominance: for every Hadoop configuration there is a
    # GraphLab configuration that is both faster and >=20x cheaper.
    for hc, ht in zip(h_cost, h_rt):
        assert any(
            gt < ht and gc * 20.0 <= hc for gc, gt in zip(gl_cost, gl_rt)
        )
    # Two-orders-of-magnitude claim at matched runtime: the fastest
    # Hadoop runtime is slower than the *slowest* GraphLab runtime.
    assert min(h_rt) > max(gl_rt)
    assert min(h_cost) > 20.0 * min(gl_cost)
