"""Fig. 1(c): loopy BP convergence — sync vs async vs dynamic async.

Residual versus sweeps on a web-spam-detection-like MRF. Paper claim:
async (in-place) beats sync (Pregel) per sweep, and dynamic async
(residual-prioritized, GraphLab) beats both.
"""

from repro.apps import make_lbp_update, synchronous_lbp_sweep, total_residual
from repro.figures import Figure
from repro.core import SequentialEngine
from repro.datasets import grid_2d

ROWS, COLS, LABELS = 14, 14, 3
SWEEPS = 8


def _fresh_graph():
    return grid_2d(ROWS, COLS, num_labels=LABELS, seed=11, smoothing=1.5)


def run_experiment():
    n = ROWS * COLS

    # Synchronous supersteps.
    graph, psi = _fresh_graph()
    sync_residuals = []
    for _ in range(SWEEPS):
        synchronous_lbp_sweep(graph, psi)
        sync_residuals.append(total_residual(graph, psi))

    # Asynchronous (in-place, fixed sweep order).
    graph, psi = _fresh_graph()
    update = make_lbp_update(psi, epsilon=float("inf"))  # no self-schedule
    engine = SequentialEngine(graph, update, scheduler="sweep")
    async_residuals = []
    for _ in range(SWEEPS):
        engine.run(initial=graph.vertices())
        async_residuals.append(total_residual(graph, psi))

    # Dynamic async (residual-prioritized), sampled every |V| updates.
    graph, psi = _fresh_graph()
    dynamic_update = make_lbp_update(psi, epsilon=1e-4)
    engine = SequentialEngine(
        graph, dynamic_update, scheduler="priority"
    )
    engine.max_updates = n
    dynamic_residuals = []
    for sweep in range(SWEEPS):
        result = engine.run(
            initial=graph.vertices() if sweep == 0 else ()
        )
        dynamic_residuals.append(total_residual(graph, psi))
        if result.converged and not engine.scheduler:
            # Converged early: flat-fill remaining sweeps.
            dynamic_residuals.extend(
                [dynamic_residuals[-1]] * (SWEEPS - len(dynamic_residuals))
            )
            break

    fig = Figure(
        figure_id="fig1c",
        title="Loopy BP convergence (residual vs sweeps)",
        x_label="sweep",
        x_values=list(range(1, SWEEPS + 1)),
    )
    fig.add("sync_pregel", sync_residuals)
    fig.add("async", async_residuals)
    fig.add("dynamic_async_graphlab", dynamic_residuals)
    fig.note(
        f"{ROWS}x{COLS} grid MRF, {LABELS} labels (paper: web-spam "
        "graph); residual = max message change if updated now"
    )
    return fig


def test_fig1c_dynamic_fastest():
    fig = run_experiment()
    print("\n" + fig.render())
    fig.save()
    sync = fig.values_of("sync_pregel")
    async_ = fig.values_of("async")
    dynamic = fig.values_of("dynamic_async_graphlab")
    # All converge.
    assert sync[-1] < sync[0]
    assert async_[-1] < async_[0]
    # Ordering at the last sweep: dynamic <= async <= sync (with slack
    # for the async/dynamic pair mid-run).
    assert async_[-1] <= sync[-1] * 1.05
    assert dynamic[-1] <= async_[-1] * 1.05
    # Dynamic is meaningfully ahead of sync well before the end.
    mid = SWEEPS // 2
    assert dynamic[mid] < sync[mid]
