"""Table 1: comparison chart of large-scale computation frameworks."""

from repro.figures import Figure, capability_table, graphlab_claims


def build_table1():
    rows = capability_table()
    fig = Figure(
        figure_id="table1",
        title="Framework capability matrix (Table 1)",
        x_label="framework",
        x_values=[r.name for r in rows],
    )
    fig.add("model", [r.computation_model for r in rows])
    fig.add("sparse", [r.sparse_dependencies for r in rows])
    fig.add("async", [r.async_computation for r in rows])
    fig.add("iterative", [r.iterative for r in rows])
    fig.add("priority", [r.prioritized_ordering for r in rows])
    fig.add("consistency", [r.enforce_consistency for r in rows])
    fig.add("distributed", [r.distributed for r in rows])
    for prop, module in graphlab_claims().items():
        fig.note(f"GraphLab {prop}: {module}")
    return fig, rows


def test_table1_capability_matrix():
    fig, rows = build_table1()
    print("\n" + fig.render())
    fig.save()
    by_name = {r.name: r for r in rows}
    graphlab = by_name["GraphLab"]
    # GraphLab is the only row with every property (the paper's point).
    assert all(
        getattr(graphlab, prop)
        for prop in (
            "sparse_dependencies",
            "async_computation",
            "iterative",
            "prioritized_ordering",
            "enforce_consistency",
            "distributed",
        )
    )
    for row in rows:
        if row.name != "GraphLab":
            assert not all(
                (
                    row.sparse_dependencies,
                    row.async_computation,
                    row.iterative,
                    row.prioritized_ordering,
                    row.enforce_consistency,
                    row.distributed,
                )
            )
    # Every implemented claim is importable.
    import importlib

    for module in ("repro.baselines.mpi", "repro.baselines.mapreduce",
                   "repro.baselines.pregel", "repro.distributed"):
        importlib.import_module(module)
