"""Batch kernel tests: typed columns, segment primitives, and the
kernel/interpreter bit-identity contract (ISSUE 3).

The load-bearing property: a batch kernel is the *same* update function
as the scalar closure it rides on, evaluated as numpy passes over an
independent frontier — so every engine that dispatches to it
(``SequentialEngine`` on a color-sweep drive, the simulated
``ChromaticEngine`` on slot-addressed stores, ``RuntimeChromaticEngine``
at any worker count) must produce results **bit-identical** to the
scalar interpreter, which remains the oracle. Every comparison here is
exact equality, never approx.
"""

import json
import operator
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Consistency,
    SequentialEngine,
    constant_coloring,
    greedy_coloring,
    kernel_of,
    second_order_coloring,
)
from repro.core.graph import DataGraph
from repro.core.kernels import (
    KernelResult,
    flat_rows,
    nbr_message_plan,
    ordered_segment_add,
    ordered_segment_mul,
    schedule_set,
    segment_positions,
)
from repro.core.scope import Scope
from repro.apps.lbp import (
    LBPKernel,
    init_lbp_data_typed,
    lbp_dtypes,
    make_lbp_update_typed,
    potts_potential,
)
from repro.datasets.mesh import grid_2d_typed
from repro.apps.pagerank import make_pagerank_update
from repro.distributed import (
    ChromaticEngine,
    DataSizeModel,
    DistributedFileSystem,
    constant_cost,
    deploy,
)
from repro.distributed.deploy import plan_ownership
from repro.distributed.models import VERSION_BYTES
from repro.errors import EngineError, GraphStructureError
from repro.runtime import (
    ColorSweepScheduler,
    CSRShardStore,
    RuntimeChromaticEngine,
    UpdateProgram,
)
from repro.runtime.plane import (
    LocalDataPlane,
    ShmDataPlane,
    plane_spec_for,
    shm_available,
)

from tests.helpers import grid_graph


# ----------------------------------------------------------------------
# Workload builders.
# ----------------------------------------------------------------------
def typed_pagerank_graph(n=60, edges_factor=3, seed=7):
    """Seeded random digraph with 1/out-degree weights, typed columns."""
    rng = random.Random(seed)
    g = DataGraph()
    for i in range(n):
        g.add_vertex(i, data=1.0 / n)
    edges = set()
    attempts = 0
    while len(edges) < edges_factor * n and attempts < 30 * n:
        attempts += 1
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((a, b))
    out_count = {}
    for (a, _b) in edges:
        out_count[a] = out_count.get(a, 0) + 1
    for (a, b) in sorted(edges):
        g.add_edge(a, b, data=1.0 / out_count[a])
    return g.finalize(vertex_dtype=float, edge_dtype=float)


def typed_lbp_grid(rows=6, cols=6, labels=3, seed=3):
    graph, _psi = grid_2d_typed(rows, cols, labels, seed=seed, smoothing=1.5)
    return graph


def graph_values(graph):
    vdata = {v: graph.vertex_data(v) for v in graph.vertices()}
    edata = {key: graph.edge_data(*key) for key in graph.edges()}
    return vdata, edata


def assert_identical_data(g1, g2):
    """Exact per-datum equality, array-valued data included."""
    for v in g1.vertices():
        a, b = g1.vertex_data(v), g2.vertex_data(v)
        assert np.array_equal(np.asarray(a), np.asarray(b)), v
    for key in g1.edges():
        a, b = g1.edge_data(*key), g2.edge_data(*key)
        assert np.array_equal(np.asarray(a), np.asarray(b)), key


# ----------------------------------------------------------------------
# Typed columns on CSRGraph.
# ----------------------------------------------------------------------
class TestTypedColumns:
    def test_finalize_compiles_numpy_columns(self):
        g = typed_pagerank_graph()
        csr = g.compiled
        assert isinstance(csr.vdata, np.ndarray)
        assert csr.vdata.dtype == np.float64
        assert csr.vertex_column is csr.vdata
        assert csr.edge_column is csr.edata
        # Scalar data API is unchanged.
        first = next(iter(g.vertices()))
        assert g.vertex_data(first) == 1.0 / g.num_vertices
        g.set_vertex_data(first, 0.5)
        assert g.vertex_data(first) == 0.5

    def test_untyped_graph_has_no_columns(self):
        g = grid_graph(3, 3)
        assert g.compiled.vertex_column is None
        assert g.compiled.edge_column is None

    def test_shaped_columns_default_to_zeros(self):
        g = DataGraph()
        g.add_vertex(0)
        g.add_vertex(1, data=[[1.0, 2.0], [3.0, 4.0]])
        g.add_edge(0, 1)
        g.finalize(vertex_dtype=float, vertex_shape=(2, 2))
        assert np.array_equal(g.vertex_data(0), np.zeros((2, 2)))
        assert np.array_equal(
            g.vertex_data(1), np.array([[1.0, 2.0], [3.0, 4.0]])
        )

    def test_incompatible_data_fails_at_finalize(self):
        g = DataGraph()
        g.add_vertex(0, data="not a number")
        with pytest.raises(GraphStructureError):
            g.finalize(vertex_dtype=float)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_dtype_roundtrips_through_pickle(self, seed):
        """Property: typed columns survive CSRGraph.__getstate__ —
        dtype, shape, and exact values (ISSUE 3 satellite)."""
        g = typed_pagerank_graph(n=12 + seed % 20, seed=seed)
        clone = pickle.loads(pickle.dumps(g))
        csr, csr2 = g.compiled, clone.compiled
        assert isinstance(csr2.vdata, np.ndarray)
        assert csr2.vdata.dtype == csr.vdata.dtype
        assert csr2.edata.dtype == csr.edata.dtype
        assert np.array_equal(csr2.vdata, csr.vdata)
        assert np.array_equal(csr2.edata, csr.edata)
        # Structure plans are process-local, like the other memo caches.
        assert csr2.plan_cache == {}

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_copies_share_structure_but_not_columns(self, seed):
        """Property: DataGraph.copy() on a typed graph clones the data
        columns (independent buffers) while sharing every structure
        array and memo cache (ISSUE 3 satellite)."""
        g = typed_pagerank_graph(n=12 + seed % 20, seed=seed)
        other = g.copy()
        csr, csr2 = g.compiled, other.compiled
        assert csr2.vdata is not csr.vdata
        assert csr2.edata is not csr.edata
        assert csr2.out_offsets is csr.out_offsets
        assert csr2.in_sources is csr.in_sources
        assert csr2.plan_cache is csr.plan_cache
        assert csr2.bind_cache is csr.bind_cache
        first = next(iter(g.vertices()))
        g.set_vertex_data(first, 123.0)
        assert other.vertex_data(first) != 123.0


# ----------------------------------------------------------------------
# Segment primitives.
# ----------------------------------------------------------------------
class TestSegmentPrimitives:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_ordered_add_matches_scalar_loop(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 9, size=rng.integers(1, 12))
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        values = (rng.random(int(offsets[-1])) - 0.5) * np.exp(
            rng.integers(-20, 20, int(offsets[-1])).astype(float)
        )
        active = np.arange(counts.size, dtype=np.int64)
        pos, seg_counts, ends = segment_positions(offsets, active)
        base = rng.random(counts.size)
        expected = base.copy()
        for i in range(counts.size):
            acc = expected[i]
            for k in range(offsets[i], offsets[i + 1]):
                acc = acc + values[k]
            expected[i] = acc
        ordered_segment_add(base, seg_counts, ends, values[pos])
        assert np.array_equal(base, expected)

    def test_ordered_mul_rows(self):
        rng = np.random.default_rng(0)
        offsets = np.array([0, 2, 2, 5], dtype=np.int64)
        factors = rng.random((5, 3)) * 1.7
        active = np.array([0, 1, 2], dtype=np.int64)
        pos, counts, ends = segment_positions(offsets, active)
        base = rng.random((3, 3))
        expected = base.copy()
        for i, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
            acc = expected[i].copy()
            for k in range(lo, hi):
                acc = acc * factors[k]
            expected[i] = acc
        ordered_segment_mul(base, counts, ends, factors[pos])
        assert np.array_equal(base, expected)

    def test_segment_positions_subset(self):
        offsets = np.array([0, 3, 3, 7, 9], dtype=np.int64)
        active = np.array([2, 0], dtype=np.int64)
        pos, counts, ends = segment_positions(offsets, active)
        assert pos.tolist() == [3, 4, 5, 6, 0, 1, 2]
        assert counts.tolist() == [4, 3]
        assert ends.tolist() == [4, 7]


def _left_fold(op, base, counts, values):
    """The scalar loop in pure Python: per segment (and per row cell),
    ``acc = op(acc, v)`` left to right from the seed in ``base``."""
    out = base.copy()
    flat_out = out.reshape(counts.size, -1)
    flat_values = values.reshape(values.shape[0], -1)
    lo = 0
    for i, count in enumerate(counts.tolist()):
        for cell in range(flat_out.shape[1]):
            acc = float(flat_out[i, cell])
            for v in flat_values[lo:lo + count, cell].tolist():
                acc = op(acc, v)
            flat_out[i, cell] = acc
        lo += count
    return out


def _bits(array):
    return np.ascontiguousarray(array).view(np.int64)


def _power_law_case(seed, row_width=None):
    """~600 segments shaped like a power-law frontier: many short or
    empty ones, three hubs of 1000+ entries; values log-uniform over
    1e-8..1e8 with both signs, plus -0.0, +-inf and NaN in short
    segments (a NaN in a hub would hide every later bit of it)."""
    rng = np.random.default_rng(seed)
    counts = np.minimum(rng.zipf(2.0, 600) - 1, 40).astype(np.int64)
    counts[rng.choice(600, 40, replace=False)] = 0
    hubs = rng.choice(np.nonzero(counts == 0)[0], 3, replace=False)
    counts[hubs] = rng.integers(1000, 1600, 3)
    ends = np.cumsum(counts)
    shape = (int(ends[-1]),) + (() if row_width is None else (row_width,))
    values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 8, shape)
    in_hub = np.zeros(shape[0], dtype=bool)
    for h in hubs:
        in_hub[ends[h] - counts[h]:ends[h]] = True
    short = np.nonzero(~in_hub)[0]
    flat = values.reshape(shape[0], -1)
    for special in (-0.0, np.inf, -np.inf, np.nan):
        flat[rng.choice(short, 6, replace=False), 0] = special
    base_shape = (counts.size,) + shape[1:]
    base = rng.choice([-1.0, 1.0], base_shape) * rng.random(base_shape)
    base.reshape(counts.size, -1)[rng.choice(counts.size, 30), 0] = -0.0
    return base, counts, ends, values


class TestOrderedReduceExactness:
    """The reduction is one ``ufunc.at`` scatter; these pin its order
    rule bit for bit (signed zeros and NaN payloads included) at the
    shape the chromatic engines hit: power-law frontiers with hubs."""

    @pytest.mark.parametrize("row_width", [None, 3])
    @pytest.mark.parametrize(
        "reduce, op",
        [(ordered_segment_add, operator.add), (ordered_segment_mul, operator.mul)],
        ids=["add", "mul"],
    )
    def test_power_law_matches_left_fold(self, reduce, op, row_width):
        base, counts, ends, values = _power_law_case(11, row_width)
        expected = _left_fold(op, base, counts, values)
        with np.errstate(all="ignore"):
            out = reduce(base, counts, ends, values)
        assert out is base
        assert np.array_equal(_bits(base), _bits(expected))

    @pytest.mark.parametrize("row_width", [None, 3])
    def test_non_contiguous_base_updated_in_place(self, row_width):
        base, counts, ends, values = _power_law_case(5, row_width)
        expected = _left_fold(operator.add, base, counts, values)
        storage = np.zeros(base.shape[:1] + (2,) + base.shape[1:])
        view = storage[:, 1]
        view[...] = base
        assert not view.flags.c_contiguous
        with np.errstate(all="ignore"):
            ordered_segment_add(view, counts, ends, values)
        assert np.array_equal(_bits(storage[:, 1]), _bits(expected))
        assert not storage[:, 0].any()

    def test_add_at_applies_repeated_indices_in_order(self):
        # Canary for the numpy release: if ufunc.at ever buffers or
        # regroups repeated indices, this fails before any engine test.
        rng = np.random.default_rng(3)
        values = rng.choice([-1.0, 1.0], 5000) * 10.0 ** rng.uniform(
            -8, 8, 5000
        )
        fold = 0.0
        for v in values.tolist():
            fold = fold + v
        assert fold != float(np.sum(values))  # pairwise order differs
        target = np.zeros(1)
        np.add.at(target, np.zeros(values.size, dtype=np.int64), values)
        assert _bits(target)[0] == _bits(np.array([fold]))[0]


# ----------------------------------------------------------------------
# Engine dispatch and bit-identity.
# ----------------------------------------------------------------------
class TestSequentialDispatch:
    def test_kernel_attached_to_factories(self):
        assert kernel_of(make_pagerank_update()) is not None
        assert (
            kernel_of(make_lbp_update_typed(potts_potential(3))) is not None
        )

    def test_untyped_graph_falls_back_to_scalar(self):
        g = typed_pagerank_graph()
        untyped = typed_pagerank_graph()
        fn = make_pagerank_update(epsilon=1e-4)
        engine = SequentialEngine(
            g, fn, scheduler=ColorSweepScheduler(greedy_coloring(g))
        )
        assert engine.batch_kernel() is not None
        # fifo scheduler: no independent frontiers -> scalar.
        assert SequentialEngine(g, fn, scheduler="fifo").batch_kernel() is None
        # tracing -> scalar.
        assert (
            SequentialEngine(
                untyped,
                fn,
                scheduler=ColorSweepScheduler(greedy_coloring(untyped)),
                trace=True,
            ).batch_kernel()
            is None
        )

    def test_constant_coloring_refuses_kernel(self):
        """A constant coloring (legal under VERTEX consistency) is not
        an independent frontier: batch Jacobi would diverge from the
        scalar in-order execution, so every dispatch gate refuses it and
        the scalar interpreter runs instead."""
        g = typed_pagerank_graph(n=20)
        coloring = constant_coloring(g)
        fn = make_pagerank_update(epsilon=1e-3)
        engine = SequentialEngine(
            g,
            fn,
            consistency=Consistency.VERTEX,
            scheduler=ColorSweepScheduler(coloring),
        )
        assert engine.batch_kernel() is None
        g2 = g.copy()
        rt = RuntimeChromaticEngine(
            g2,
            UpdateProgram(make_pagerank_update, kwargs={"epsilon": 1e-3}),
            num_workers=2,
            transport="inproc",
            consistency=Consistency.VERTEX,
            coloring=coloring,
            max_updates=4 * g.num_vertices,
        )
        rt.run(initial=g2.vertices())

    def test_batch_equals_scalar_pagerank_with_caps(self):
        g0 = typed_pagerank_graph()
        coloring = greedy_coloring(g0)
        fn = make_pagerank_update(epsilon=1e-4)
        for cap in (None, 7, 61, 123):
            g1, g2 = g0.copy(), g0.copy()
            r1 = SequentialEngine(
                g1,
                fn,
                scheduler=ColorSweepScheduler(coloring),
                max_updates=cap,
                use_kernel=False,
            ).run(initial=g1.vertices())
            r2 = SequentialEngine(
                g2,
                fn,
                scheduler=ColorSweepScheduler(coloring),
                max_updates=cap,
            ).run(initial=g2.vertices())
            assert r1.num_updates == r2.num_updates
            assert r1.converged == r2.converged
            assert r1.updates_per_vertex == r2.updates_per_vertex
            assert graph_values(g1) == graph_values(g2)

    def test_batch_equals_scalar_lbp(self):
        g0 = typed_lbp_grid()
        coloring = greedy_coloring(g0)
        for damping in (0.0, 0.3):
            fn = make_lbp_update_typed(
                potts_potential(3, smoothing=1.5), epsilon=1e-3,
                damping=damping,
            )
            g1, g2 = g0.copy(), g0.copy()
            r1 = SequentialEngine(
                g1,
                fn,
                scheduler=ColorSweepScheduler(coloring),
                max_updates=4000,
                use_kernel=False,
            ).run(initial=g1.vertices())
            r2 = SequentialEngine(
                g2,
                fn,
                scheduler=ColorSweepScheduler(coloring),
                max_updates=4000,
            ).run(initial=g2.vertices())
            assert r1.num_updates == r2.num_updates
            assert r1.updates_per_vertex == r2.updates_per_vertex
            assert_identical_data(g1, g2)


class TestRuntimeKernelEquivalence:
    """Kernel execution on worker processes == scalar oracle, at every
    worker count and across vertex/edge/full consistency (ISSUE 3)."""

    @given(
        seed=st.integers(0, 10_000),
        num_workers=st.integers(1, 4),
        model=st.sampled_from(
            [Consistency.VERTEX, Consistency.EDGE, Consistency.FULL]
        ),
    )
    @settings(max_examples=10, deadline=None)
    def test_pagerank_bit_identical_at_every_worker_count(
        self, seed, num_workers, model
    ):
        rng = random.Random(seed)
        n = rng.randrange(6, 24)
        g = typed_pagerank_graph(n=n, edges_factor=2, seed=seed)
        # A proper (or second-order, for FULL) coloring makes the
        # chromatic order deterministic under every model — the same
        # convention as the scalar runtime property tests. (A constant
        # coloring under VERTEX is legal but racy; kernels refuse it —
        # see test_constant_coloring_refuses_kernel.)
        coloring = (
            second_order_coloring(g)
            if model is Consistency.FULL
            else greedy_coloring(g)
        )
        fn = make_pagerank_update(epsilon=1e-3)
        cap = 6 * n
        g1, g2, g3 = g.copy(), g.copy(), g.copy()
        r1 = SequentialEngine(
            g1,
            fn,
            consistency=model,
            scheduler=ColorSweepScheduler(coloring),
            max_updates=cap,
            use_kernel=False,
        ).run(initial=g1.vertices())
        r2 = RuntimeChromaticEngine(
            g2,
            UpdateProgram(make_pagerank_update, kwargs={"epsilon": 1e-3}),
            num_workers=num_workers,
            transport="inproc",
            consistency=model,
            coloring=coloring,
            partitioner="hash",
            max_updates=cap,
        ).run(initial=g2.vertices())
        # The same runtime configuration with the kernel pinned off must
        # agree too (oracle fallback really is the same function).
        r3 = RuntimeChromaticEngine(
            g3,
            UpdateProgram(make_pagerank_update, kwargs={"epsilon": 1e-3}),
            num_workers=num_workers,
            transport="inproc",
            consistency=model,
            coloring=coloring,
            partitioner="hash",
            max_updates=cap,
            use_kernel=False,
        ).run(initial=g3.vertices())
        assert r2.updates_per_vertex == r3.updates_per_vertex
        assert graph_values(g2) == graph_values(g3)
        if r1.converged and r2.converged:
            assert r1.updates_per_vertex == r2.updates_per_vertex
            assert graph_values(g1) == graph_values(g2)
        else:
            # Caps bind at different boundaries; the executed prefix
            # still agrees (same argument as the scalar runtime tests).
            g4 = g.copy()
            SequentialEngine(
                g4,
                fn,
                consistency=model,
                scheduler=ColorSweepScheduler(coloring),
                max_updates=r2.num_updates,
                use_kernel=False,
            ).run(initial=g4.vertices())
            assert graph_values(g4) == graph_values(g2)

    @given(seed=st.integers(0, 10_000), num_workers=st.integers(1, 3))
    @settings(max_examples=6, deadline=None)
    def test_lbp_bit_identical_on_processes(self, seed, num_workers):
        g = typed_lbp_grid(rows=4, cols=5, seed=seed)
        coloring = greedy_coloring(g)
        psi = potts_potential(3, smoothing=1.5)
        g1, g2 = g.copy(), g.copy()
        r1 = SequentialEngine(
            g1,
            make_lbp_update_typed(psi, epsilon=1e-2),
            scheduler=ColorSweepScheduler(coloring),
            max_updates=1500,
            use_kernel=False,
        ).run(initial=g1.vertices())
        r2 = RuntimeChromaticEngine(
            g2,
            UpdateProgram(
                make_lbp_update_typed, args=(psi,), kwargs={"epsilon": 1e-2}
            ),
            num_workers=num_workers,
            transport="inproc",
            coloring=coloring,
            max_updates=1500,
        ).run(initial=g2.vertices())
        assert r1.num_updates == r2.num_updates
        assert r1.updates_per_vertex == r2.updates_per_vertex
        assert_identical_data(g1, g2)

    def test_mp_kernel_matches_inproc_kernel(self):
        g = typed_pagerank_graph(n=50, seed=11)
        coloring = greedy_coloring(g)
        prog = UpdateProgram(make_pagerank_update, kwargs={"epsilon": 1e-4})
        results = {}
        for backend in ("inproc", "mp"):
            copy = g.copy()
            run = RuntimeChromaticEngine(
                copy,
                prog,
                num_workers=3,
                transport=backend,
                coloring=coloring,
            ).run(initial=copy.vertices())
            results[backend] = (run.updates_per_vertex, graph_values(copy))
        assert results["inproc"] == results["mp"]


class TestSimulatedChromaticKernel:
    def test_sim_engine_dispatches_on_shard_stores(self):
        g0 = typed_pagerank_graph(n=70, seed=5)
        coloring = greedy_coloring(g0)
        fn = make_pagerank_update(epsilon=1e-4)
        g1 = g0.copy()
        r1 = SequentialEngine(
            g1,
            fn,
            scheduler=ColorSweepScheduler(coloring),
            use_kernel=False,
        ).run(initial=g1.vertices())
        gathered = {}
        for use_kernel in (True, False):
            g2 = g0.copy()
            dep = deploy(g2, 3, partitioner="hash", skip_ingress_io=True)
            sim = ChromaticEngine(
                dep.cluster,
                g2,
                fn,
                dep.stores,
                dep.owner,
                constant_cost(1e6),
                DataSizeModel(16, 8),
                coloring=coloring,
                use_kernel=use_kernel,
            )
            r2 = sim.run(initial=g2.vertices())
            assert (sim._batch_kernel is not None) == use_kernel
            assert r2.num_updates == r1.num_updates
            gathered[use_kernel] = sim.gather_vertex_data()
        oracle = {v: g1.vertex_data(v) for v in g1.vertices()}
        assert gathered[True] == gathered[False] == oracle

    def test_sim_snapshot_sizes_slot_journals_like_dict_ones(self):
        """The simulator prices a slot journal with the engine's size
        model, and the modeled size equals the per-key sum a dict
        journal of the same ownership reports: every owned vertex and
        every source-owned edge, plus one version tag each."""
        fn = make_pagerank_update(epsilon=1e-4)
        g = typed_pagerank_graph(n=40, seed=5)
        sizes = DataSizeModel(16, 8)
        dep = deploy(g, 2, partitioner="hash", skip_ingress_io=True)
        sim = ChromaticEngine(
            dep.cluster, g, fn, dep.stores, dep.owner,
            constant_cost(1e6), sizes,
            coloring=greedy_coloring(g), max_sweeps=3,
            snapshot_every_updates=1,
            dfs=DistributedFileSystem(dep.cluster, replication=1),
        )
        sim.run(initial=g.vertices())
        assert sim.snapshots
        per_key = sum(
            sizes.vbytes(v) + VERSION_BYTES for v in g.vertices()
        ) + sum(sizes.ebytes(a, b) + VERSION_BYTES for (a, b) in g.edges())
        for record in sim.snapshots:
            assert record.bytes_written == pytest.approx(per_key, rel=1e-12)

    def test_deployed_typed_graph_dispatches_kernel(self):
        """Every simulated machine holds a slot-addressed store, so a
        typed graph loaded through ``deploy()``'s ingress path takes the
        batch kernel by default — bit-identical to ``use_kernel=False``."""
        psi = potts_potential(3, smoothing=1.5)
        fn = make_lbp_update_typed(psi, epsilon=1e-3)
        coloring = greedy_coloring(typed_lbp_grid())
        journals = {}
        for use_kernel in (True, False):
            g = typed_lbp_grid()
            dep = deploy(g, 3, partitioner="bfs")
            sim = ChromaticEngine(
                dep.cluster, g, fn, dep.stores, dep.owner,
                constant_cost(1e6), DataSizeModel(16, 8),
                coloring=coloring, use_kernel=use_kernel,
            )
            run = sim.run(initial=g.vertices())
            assert (sim._batch_kernel is not None) == use_kernel
            assert run.converged
            journals[use_kernel] = (
                run.num_updates,
                [dep.stores[m].checkpoint_payload() for m in range(3)],
            )
        (n_kernel, kernel), (n_scalar, scalar) = (
            journals[True], journals[False]
        )
        assert n_kernel == n_scalar
        for a, b in zip(kernel, scalar):
            for name in ("v_index", "v_value", "e_slot", "e_value"):
                assert np.array_equal(getattr(a, name), getattr(b, name))


# ----------------------------------------------------------------------
# The zero-copy wire format.
# ----------------------------------------------------------------------
class TestArrayWireFormat:
    def _store(self, g, workers=2):
        plan = plan_ownership(g, workers, partitioner="hash")
        return CSRShardStore(0, g, plan.owner), plan

    def test_typed_dirty_batches_are_arrays(self):
        g = typed_pagerank_graph(n=24, seed=2)
        store, _plan = self._store(g, workers=3)
        for v in store.owned_vertices:
            store.set_vertex_data(v, 7.0)
        batches = store.collect_dirty_flat()
        assert batches, "boundary vertices must produce wire batches"
        for batch in batches.values():
            assert isinstance(batch.v_index, np.ndarray)
            assert isinstance(batch.v_value, np.ndarray)
            assert isinstance(batch.v_version, np.ndarray)
            assert batch.v_value.dtype == np.float64
            # Pickling carries buffers, not per-entry objects.
            clone = pickle.loads(pickle.dumps(batch))
            assert np.array_equal(clone.v_value, batch.v_value)

    def test_untyped_dirty_batches_stay_lists(self):
        g = grid_graph(4, 4)
        store, _plan = self._store(g, workers=3)
        for v in store.owned_vertices:
            store.set_vertex_data(v, 7.0)
        for batch in store.collect_dirty_flat().values():
            assert isinstance(batch.v_value, list)

    def test_typed_apply_flat_is_version_filtered(self):
        g = typed_pagerank_graph(n=24, seed=2)
        store, plan = self._store(g, workers=3)
        other = CSRShardStore(1, g, plan.owner)
        for v in other.owned_vertices:
            other.set_vertex_data(v, 9.0)
        routed = other.collect_dirty_flat().get(0)
        assert routed is not None
        before = store._vversion.copy()
        store.apply_flat(routed)
        applied = np.asarray(routed.v_index)
        assert all(store.vdata_flat[i] == 9.0 for i in applied)
        assert all(store._vversion[i] == 1 for i in applied)
        # Replay is dropped (idempotent), stale versions too.
        store.apply_flat(routed)
        assert all(store._vversion[i] == 1 for i in applied)
        assert np.array_equal(
            np.delete(store._vversion, applied), np.delete(before, applied)
        )

    def test_apply_flat_newest_duplicate_wins(self):
        """An inbox that accumulated entries across elided rounds holds
        the same slot twice; the chronologically last (highest-version)
        entry must win regardless of numpy assignment internals."""
        g = typed_pagerank_graph(n=24, seed=2)
        store, _plan = self._store(g, workers=3)
        ghost = next(iter(store.ghost_vertices))
        index = g.compiled.index_of[ghost]
        from repro.runtime.shard import FlatEntries

        batch = FlatEntries()
        batch.v_index = np.array([index, index], dtype=np.int64)
        batch.v_value = np.array([5.0, 6.0])
        batch.v_version = np.array([1, 2], dtype=np.int64)
        store.apply_flat(batch)
        assert store.vertex_data(ghost) == 6.0
        assert store.version(("v", ghost)) == 2

    def test_kernel_writes_version_and_dirty_in_bulk(self):
        g = typed_pagerank_graph(n=24, seed=2)
        store, plan = self._store(g, workers=2)
        from repro.core.kernels import KernelResult

        # Vertices with a neighbour on the other worker, so every dirty
        # slot has a holder to route to.
        boundary = [
            v for v in store.owned_vertices
            if any(plan.owner[u] != 0 for u in g.neighbors(v))
        ][:3]
        indices = np.array(
            [g.compiled.index_of[v] for v in boundary], dtype=np.int64
        )
        store.apply_kernel_result(KernelResult(wrote_v=indices))
        routed = {
            int(i)
            for batch in store.collect_dirty_flat().values()
            for i in batch.v_index
        }
        assert routed == set(indices.tolist())
        for v in boundary:
            assert store.version(("v", v)) == 1


def test_in_edge_plan_matches_gather_view():
    """The argsort-derived in-edge slot plan must agree position by
    position with the interpreter's in-gather plans, and those with the
    edge-slot map over the in-neighbor views."""
    from repro.core.kernels import in_edge_plan, in_gather

    g = typed_pagerank_graph(n=40, seed=9)
    csr = g.compiled
    plan = in_edge_plan(csr)
    rows = [in_gather(csr, i) for i in range(len(csr.vertex_ids))]
    expected = [slot for row in rows for (_u, slot, _ui) in row]
    assert plan.tolist() == expected
    for i, v in enumerate(csr.vertex_ids):
        assert rows[i] == tuple(
            (u, csr.edge_slot[(u, v)], csr.index_of[u])
            for u in csr.in_ids[i]
        )


def test_nbr_message_plan_matches_interpreter_views():
    """The canonical-array neighbor/message plan must agree with the
    interpreter's view-derived layout position by position — CSR
    ordering, message slots, and directions."""
    from repro.core.kernels import nbr_message_plan

    g = typed_lbp_grid(rows=4, cols=5, seed=11)
    csr = g.compiled
    offsets, targets, in_slot, in_dir, out_slot, out_dir = (
        nbr_message_plan(csr)
    )
    assert np.array_equal(offsets, csr.nbr_offsets)
    assert np.array_equal(targets, csr.nbr_targets)
    edge_slot = csr.edge_slot
    k = 0
    for i, v in enumerate(csr.vertex_ids):
        for u in csr.nbr_ids[i]:
            slot = edge_slot.get((u, v))
            expect_in = (slot, 0) if slot is not None else (
                edge_slot[(v, u)], 1
            )
            slot = edge_slot.get((v, u))
            expect_out = (slot, 0) if slot is not None else (
                edge_slot[(u, v)], 1
            )
            assert (in_slot[k], in_dir[k]) == expect_in, (v, u)
            assert (out_slot[k], out_dir[k]) == expect_out, (v, u)
            k += 1
    assert k == len(targets)


def test_uncovered_vertex_raises_like_scalar_scheduler():
    """Batch sweeps must fail as loudly as ColorSweepScheduler.add when
    a scheduled vertex is outside the coloring, not report convergence."""
    from repro.errors import SchedulerError

    g = typed_pagerank_graph(n=12, seed=4)
    coloring = greedy_coloring(g)
    partial = {v: c for v, c in coloring.items() if v != 0}
    fn = make_pagerank_update(epsilon=1e-4)
    engine = SequentialEngine(
        g, fn, scheduler=ColorSweepScheduler(partial)
    )
    assert engine.batch_kernel() is not None
    with pytest.raises(SchedulerError):
        engine.run(initial=g.vertices())


# ----------------------------------------------------------------------
# The label-major LBP kernel against the scalar update and its
# row-major predecessor.
# ----------------------------------------------------------------------
_FLOOR = 1e-12


class ReferenceLBPKernel(LBPKernel):
    """The row-major batch step the label-major kernel replaced, frozen:
    ``(slot, dir)`` fancy gathers and scatters, trailing-axis numpy sums
    and maxima, a widened-id ``ufunc.at`` cavity product and an
    ``np.unique`` schedule set. Below eight labels numpy folds a
    trailing-axis sum left to right, so this computes the kernel's bits
    there; from eight on its pairwise sums differ in the last place."""

    def bind(self, graph):
        nbr_message_plan(graph.compiled)

    @staticmethod
    def _row_normalize(array):
        array = np.maximum(array, _FLOOR)
        return array / array.sum(axis=-1, keepdims=True)

    @staticmethod
    def _msg_product(cavity, psi):
        out = cavity[..., 0, None] * psi[0]
        for k in range(1, psi.shape[0]):
            out = out + cavity[..., k, None] * psi[k]
        return out

    def step(self, graph, active, vdata, edata, globals_view=None):
        norm = self._row_normalize
        csr = graph.compiled
        (
            nbr_offsets, nbr_targets, in_slot, in_dir, out_slot, out_dir,
        ) = nbr_message_plan(csr)
        pos, counts, ends = segment_positions(nbr_offsets, active)
        incoming = edata[in_slot[pos], in_dir[pos]]
        prod = vdata[active, 0]
        if pos.size:
            width = prod.shape[1]
            ids = np.repeat(np.arange(active.size) * width, counts)
            ids = (ids[:, None] + np.arange(width)).reshape(-1)
            np.multiply.at(prod.reshape(-1), ids, incoming.reshape(-1))
        vdata[active, 1] = norm(prod)
        seg = np.repeat(np.arange(active.size), counts)
        cavity = norm(prod[seg] / np.maximum(incoming, _FLOOR))
        new_message = norm(self._msg_product(cavity, self.psi))
        write_slot, write_dir = out_slot[pos], out_dir[pos]
        old = edata[write_slot, write_dir]
        if self.damping > 0.0:
            new_message = norm(
                self.damping * old + (1.0 - self.damping) * new_message
            )
        residual = np.abs(new_message - old).max(axis=-1)
        edata[write_slot, write_dir] = new_message
        scheduled = np.unique(nbr_targets[pos[residual > self.epsilon]])
        return KernelResult(
            scheduled=scheduled, wrote_v=active, wrote_e=write_slot
        )


def _power_law_lbp_graph(rng, num_labels):
    """Preferential attachment with a few reciprocal edges: most
    vertices have degree 1-3, the early ones become hubs."""
    n = int(rng.integers(30, 90))
    g = DataGraph()
    for i in range(n):
        g.add_vertex(i, data=None)
    edges, ends = set(), [0]
    for i in range(1, n):
        for _ in range(int(rng.integers(1, 4))):
            j = int(ends[rng.integers(len(ends))])
            if j != i and (j, i) not in edges:
                edges.add((j, i))
                ends.extend((i, j))
    for (a, b) in sorted(edges):
        g.add_edge(a, b, data=None)
    for (a, b) in sorted(edges)[:: int(rng.integers(4, 9))]:
        g.add_edge(b, a, data=None)
    g.finalize(**lbp_dtypes(num_labels))
    init_lbp_data_typed(
        g, {v: rng.random(num_labels) + 0.1 for v in g.vertices()}
    )
    return g


def _lbp_case(kind, num_labels, seed):
    """A typed LBP graph with random beliefs and messages (some below
    the normalization floor)."""
    rng = np.random.default_rng(seed)
    if kind == "grid":
        g, _psi = grid_2d_typed(
            int(rng.integers(2, 9)), int(rng.integers(2, 9)), num_labels,
            seed=seed,
        )
    else:
        g = _power_law_lbp_graph(rng, num_labels)
    csr = g.compiled
    for column in (csr.vdata, csr.edata):
        column[...] = rng.random(column.shape) * 2.0
        column[rng.random(column.shape) < 0.05] = 1e-14
    psi = rng.random((num_labels, num_labels)) + 0.5
    return g, psi + psi.T, rng


def _random_frontier(csr, rng):
    """A random independent set, in random order."""
    offsets, targets = nbr_message_plan(csr)[:2]
    blocked = np.zeros(len(csr.vertex_ids), dtype=bool)
    chosen = []
    for v in rng.permutation(len(csr.vertex_ids)).tolist():
        if not blocked[v] and rng.random() < 0.7:
            chosen.append(v)
            blocked[v] = True
            blocked[targets[offsets[v]:offsets[v + 1]]] = True
    return np.array(chosen, dtype=np.int64)


def _scalar_step(graph, update, active):
    """The typed scalar update over ``active`` as one KernelResult."""
    csr = graph.compiled
    scope = Scope(graph, None)
    scheduled, wrote_e = set(), []
    for i in active.tolist():
        v = csr.vertex_ids[i]
        for u, _residual in update(scope.rebind(v)):
            scheduled.add(csr.index_of[u])
        for u in graph.neighbors(v):
            key = (v, u) if graph.has_edge(v, u) else (u, v)
            wrote_e.append(csr.edge_slot[key])
    return KernelResult(sorted(scheduled), active, sorted(wrote_e))


def _assert_same_result(r1, r2, sort_edges=False):
    for name in ("scheduled", "wrote_v", "wrote_e"):
        a, b = getattr(r1, name), getattr(r2, name)
        if name == "wrote_e" and sort_edges:
            a = np.sort(a)
        assert a.dtype == b.dtype == np.int64, name
        assert np.array_equal(a, b), name


def _columns_bits(graph):
    csr = graph.compiled
    return csr.vdata.tobytes(), csr.edata.tobytes()


class TestLabelMajorLBP:
    @given(
        seed=st.integers(0, 100_000),
        kind=st.sampled_from(["grid", "power_law"]),
        num_labels=st.integers(2, 9),
        damping=st.sampled_from([0.0, 0.3]),
        epsilon=st.sampled_from([-1.0, 1e-3, 0.1]),
    )
    @settings(max_examples=60, deadline=None)
    def test_kernel_equals_scalar_and_reference(
        self, seed, kind, num_labels, damping, epsilon
    ):
        g, psi, rng = _lbp_case(kind, num_labels, seed)
        update = make_lbp_update_typed(psi, epsilon=epsilon, damping=damping)
        kernel = update.kernel
        reference = ReferenceLBPKernel(psi, epsilon=epsilon, damping=damping)
        g_kernel, g_scalar, g_ref = g.copy(), g.copy(), g.copy()
        kernel.bind(g_kernel)
        frozen = num_labels < 8
        for _ in range(3):
            active = _random_frontier(g.compiled, rng)
            csr = g_kernel.compiled
            got = kernel.step(g_kernel, active, csr.vdata, csr.edata)
            want = _scalar_step(g_scalar, update, active)
            _assert_same_result(got, want, sort_edges=True)
            assert _columns_bits(g_kernel) == _columns_bits(g_scalar)
            if frozen:
                ref_csr = g_ref.compiled
                old = reference.step(
                    g_ref, active, ref_csr.vdata, ref_csr.edata
                )
                _assert_same_result(got, old)
                assert _columns_bits(g_kernel) == _columns_bits(g_ref)

    @given(
        num_vertices=st.integers(1, 300),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_schedule_set_is_unique(self, num_vertices, data):
        targets = np.array(
            data.draw(st.lists(st.integers(0, num_vertices - 1), max_size=400)),
            dtype=np.int64,
        )
        got, want = schedule_set(targets, num_vertices), np.unique(targets)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_step_and_shard_init_never_call_unique(self, monkeypatch):
        lbp = typed_lbp_grid(rows=5, cols=6, labels=4, seed=2)
        web = typed_pagerank_graph(n=40, seed=5)
        steps = [
            (lbp, make_lbp_update_typed(potts_potential(4), epsilon=-1.0)),
            (web, make_pagerank_update(schedule="out", epsilon=-1.0)),
            (web, make_pagerank_update(schedule="all", epsilon=-1.0)),
        ]
        for graph, update in steps:
            update.kernel.bind(graph)

        def refuse(*_args, **_kwargs):
            raise AssertionError("np.unique on a step or launch path")

        monkeypatch.setattr(np, "unique", refuse)
        for graph, update in steps:
            csr = graph.compiled
            classes = {}
            for v, c in greedy_coloring(graph).items():
                classes.setdefault(c, []).append(csr.index_of[v])
            for members in classes.values():
                active = np.array(members, dtype=np.int64)
                result = update.kernel.step(graph, active, csr.vdata, csr.edata)
                assert result.scheduled.size
            owner = {v: i % 3 for i, v in enumerate(graph.vertices())}
            CSRShardStore(1, graph, owner)

    def test_serve_host_never_imports_numpy_ma(self):
        """A serving host after warm start and launch (mp workers fork
        from it) and one with in-process workers leave ``numpy.ma``
        unimported: no ``np.unique`` ran on the way."""
        script = (
            "import json, sys, time\n"
            "from repro.runtime import MpTransport, named_program\n"
            "from repro.serve import GraphService, build_serving_graph\n"
            "out = {}\n"
            "for name in ('mp', 'inproc'):\n"
            "    transport = MpTransport(2) if name == 'mp' else name\n"
            "    service = GraphService(\n"
            "        build_serving_graph(300, seed=4),\n"
            "        named_program('pagerank_delta', epsilon=1e-6),\n"
            "        engine='locking', num_workers=2, transport=transport,\n"
            "        touch='self')\n"
            "    service.start()\n"
            "    while not service.stats()['quiescent']:\n"
            "        time.sleep(0.002)\n"
            "    out[name] = 'numpy.ma' in sys.modules\n"
            "    service.close()\n"
            "print(json.dumps(out))\n"
        )
        root = Path(__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-c", script],
            cwd=root,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == {
            "mp": False, "inproc": False,
        }


class TestFlatRowsAliasing:
    """The kernel writes through a reshaped view of the edge column; a
    copy would drop every write silently."""

    def test_strided_column_is_refused(self):
        g = typed_lbp_grid(rows=3, cols=4, labels=3)
        csr = g.compiled
        kernel = make_lbp_update_typed(potts_potential(3)).kernel
        kernel.bind(g)
        wide = np.ones(csr.edata.shape[:2] + (6,))
        strided = wide[:, :, :3]
        assert not strided.flags.c_contiguous
        active = np.array([0], dtype=np.int64)
        with pytest.raises(EngineError, match="C-contiguous"):
            kernel.step(g, active, csr.vdata, strided)
        with pytest.raises(EngineError, match="C-contiguous"):
            flat_rows(csr.vdata[:, ::-1])
        assert np.all(wide == 1.0)
        csr.edata = strided
        with pytest.raises(EngineError, match="C-contiguous"):
            kernel.bind(g)

    @pytest.mark.parametrize("kind", ["tcp", "local", "shm"])
    def test_view_aliases_the_store_column(self, kind):
        if kind == "shm" and not shm_available():
            pytest.skip("POSIX shared memory is unavailable")
        g = typed_lbp_grid(rows=4, cols=4, labels=3, seed=9)
        owner = {v: (v[0] + v[1]) % 2 for v in g.vertices()}
        store = CSRShardStore(0, g, owner)
        plane = None
        if kind != "tcp":
            csr = g.compiled
            spec = plane_spec_for(
                g, 2, len(csr.vertex_ids), len(csr.edge_keys), kind=kind
            )
            plane = (
                LocalDataPlane(spec) if kind == "local"
                else ShmDataPlane.create(spec)
            )
            segment = plane.segments[0]
            store.adopt_buffers(
                segment.vdata, segment.edata,
                segment.vversion, segment.eversion,
            )
            assert store.edata_flat is segment.edata
        try:
            self._check_aliasing(g, store)
        finally:
            if plane is not None:
                # Every view into the segments goes before they close.
                store.vdata_flat = store.edata_flat = None
                store._vversion = store._eversion = None
                segment = None
                plane.unlink()

    @staticmethod
    def _check_aliasing(g, store):
        for column in (store.vdata_flat, store.edata_flat):
            rows = flat_rows(column)
            assert np.shares_memory(rows, column)
            rows[3] = 7.0
            assert np.all(column.reshape(-1, 3)[3] == 7.0)
        oracle = g.copy()
        kernel = make_lbp_update_typed(potts_potential(3)).kernel
        active = np.array([0, 2, 5], dtype=np.int64)
        ocsr = oracle.compiled
        ocsr.vdata[...] = store.vdata_flat
        ocsr.edata[...] = store.edata_flat
        kernel.step(oracle, active, ocsr.vdata, ocsr.edata)
        kernel.step(g, active, store.vdata_flat, store.edata_flat)
        assert np.array_equal(store.vdata_flat, ocsr.vdata)
        assert np.array_equal(store.edata_flat, ocsr.edata)
