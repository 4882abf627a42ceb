"""Eq. 3 / Sec. 4.3: Young's optimal checkpoint interval.

The paper: 64 machines, per-machine MTBF of one year, two-minute
checkpoints -> optimal interval about 3 hours, "far exceeding the
runtime of our experiments" — the argument against Hadoop's always-on
fault-tolerance tax.
"""

from repro.figures import Figure
from repro.baselines import netflix_workload, graphlab_runtime
from repro.distributed import young_checkpoint_interval
from repro.distributed.snapshot import SECONDS_PER_YEAR


def run_experiment():
    machine_counts = [4, 16, 64, 256]
    intervals = [
        young_checkpoint_interval(120.0, SECONDS_PER_YEAR, m)
        for m in machine_counts
    ]
    fig = Figure(
        figure_id="eq3_young",
        title="Young's optimal checkpoint interval (2-min checkpoints, "
        "1-year per-machine MTBF)",
        x_label="machines",
        x_values=machine_counts,
    )
    fig.add("interval_hours", [t / 3600.0 for t in intervals])
    fig.note("paper: ~3 hours at 64 machines")
    return fig


def test_young_interval():
    fig = run_experiment()
    print("\n" + fig.render())
    fig.save()
    hours = dict(zip(fig.x_values, fig.values_of("interval_hours")))
    # The paper's example: ~3 hours at 64 machines.
    assert 2.7 <= hours[64] <= 3.3
    # Monotone: more machines -> shorter intervals.
    values = fig.values_of("interval_hours")
    assert values == sorted(values, reverse=True)
    # And the interval dwarfs the modeled experiment runtimes, which is
    # the paper's argument for skipping snapshots during benchmarks.
    runtime = graphlab_runtime(64, netflix_workload(20))
    assert hours[64] * 3600.0 > 10.0 * runtime
