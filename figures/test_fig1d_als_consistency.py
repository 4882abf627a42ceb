"""Fig. 1(d): serializable vs non-serializable (racing) dynamic ALS.

The paper: "Non-serializable execution exhibits unstable convergence
behavior" on the Netflix problem, while the serializable execution
converges smoothly. We run dynamic ALS (a) serializably (edge
consistency) and (b) racing (vertex consistency on the threaded engine,
where neighbor reads are unprotected) and verify both the detected
serializability violations and the stability gap.
"""

import numpy as np

from repro.apps import initialize_factors, make_als_update, test_rmse
from repro.figures import Figure
from repro.core import Consistency, SequentialEngine, ThreadedEngine
from repro.datasets import synthetic_netflix

D = 4
CHECKPOINTS = 10
UPDATES_PER_CHECKPOINT = 150


def _error_curve(engine_factory, data):
    """Test-RMSE sampled every UPDATES_PER_CHECKPOINT updates."""
    errors = []
    engine = engine_factory()
    engine.max_updates = UPDATES_PER_CHECKPOINT
    initial = list(data.graph.vertices())
    for leg in range(CHECKPOINTS):
        # The first leg seeds every vertex; later legs continue from
        # the dynamically scheduled task set.
        engine.run(initial=initial if leg == 0 else ())
        errors.append(test_rmse(data.graph, data.test_ratings))
        if not engine.scheduler:
            errors.extend([errors[-1]] * (CHECKPOINTS - len(errors)))
            break
    return errors


def run_experiment():
    data = synthetic_netflix(
        num_users=150, num_movies=60, ratings_per_user=15, seed=21
    )
    als = make_als_update(d=D, epsilon=1e-3)

    # Serializable: sequential engine, edge consistency.
    initialize_factors(data.graph, D, seed=5)
    serial_errors = _error_curve(
        lambda: SequentialEngine(
            data.graph, als, consistency=Consistency.EDGE,
            scheduler="priority",
        ),
        data,
    )

    # Racing: threaded engine under the *vertex* consistency model —
    # neighbor factor reads are unprotected.
    initialize_factors(data.graph, D, seed=5)
    racing_errors = []
    trace_violations = 0
    for leg in range(CHECKPOINTS):
        engine = ThreadedEngine(
            data.graph,
            als,
            consistency=Consistency.VERTEX,
            scheduler="priority",
            num_workers=8,
            max_updates=UPDATES_PER_CHECKPOINT,
            trace=True,
        )
        result = engine.run(initial=data.graph.vertices())
        trace_violations += len(result.trace.violations())
        racing_errors.append(test_rmse(data.graph, data.test_ratings))

    fig = Figure(
        figure_id="fig1d",
        title="ALS consistency: serializable vs racing (test RMSE)",
        x_label="updates",
        x_values=[
            (i + 1) * UPDATES_PER_CHECKPOINT for i in range(CHECKPOINTS)
        ],
    )
    fig.add("serializable", serial_errors)
    fig.note(
        "the not_serializable column and its violation count come from "
        "real ThreadedEngine interleaving and differ on every run, so "
        "the test prints them instead of tracking them in this file"
    )
    fig.note(
        "Python object writes are atomic reference swaps, so races "
        "manifest as stale (Jacobi-style) reads slowing convergence; "
        "the paper's C++ in-place vector writes add torn reads and "
        "stronger oscillation (see EXPERIMENTS.md)"
    )
    return fig, racing_errors, trace_violations


def _instability(errors):
    """Total upward error movement after the first checkpoint."""
    return sum(
        max(0.0, errors[i + 1] - errors[i]) for i in range(1, len(errors) - 1)
    )


def test_fig1d_racing_is_not_serializable():
    fig, racing, violations = run_experiment()
    print("\n" + fig.render())
    print("not_serializable (this run):", [round(e, 3) for e in racing])
    print(
        f"racing run produced {violations} detected serializability "
        "violations (vertex-consistency neighbor reads)"
    )
    fig.save()  # deterministic content only: tier-1 must not dirty the tree
    serial = fig.values_of("serializable")
    # The serializable run converges and is near-monotone.
    assert serial[-1] <= serial[0]
    assert _instability(serial) <= 0.02
    # The racing run truly raced: overlapping conflicting scopes.
    assert violations > 0
    # Racing hurts: higher error on average and over the second half
    # of the run (per-checkpoint comparisons are thread-timing noisy).
    mid = len(serial) // 2
    assert sum(racing) / len(racing) > sum(serial) / len(serial)
    assert sum(racing[mid:]) > sum(serial[mid:])
