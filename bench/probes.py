"""Layer probes: one public call of each layer, timed in isolation.

Workload-independent. Every probe uses the same loop — one warm-up
call, then ``SAMPLES`` timed calls, median reported — and times only a
public function of the layer its name carries. The numbers feed
:func:`budget`, which adds rounds x empty round + updates x per-update
+ entries x per-entry back up and compares the sum with the measured
execution wall.
"""

from __future__ import annotations

import pickle
import shutil
import statistics
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from bench.workloads import OUT_DIR
from repro.apps.als import initialize_factors, make_als_update
from repro.apps.lbp import make_lbp_update_typed
from repro.apps.pagerank import make_pagerank_update
from repro.core.coloring import color_classes, greedy_coloring
from repro.core.consistency import LockKind
from repro.core.graph import DataGraph
from repro.core.kernels import KernelResult
from repro.core.scheduler import FIFOScheduler, PriorityScheduler
from repro.core.scope import Scope
from repro.datasets.mesh import grid_2d_typed
from repro.datasets.netflix import synthetic_netflix
from repro.datasets.webgraph import power_law_web_graph
from repro.distributed.locks import RWQueueCore
from repro.runtime import (
    CheckpointManager,
    CSRShardStore,
    LocalDataPlane,
    RuntimeChromaticEngine,
    RuntimeLockingEngine,
    UpdateProgram,
)
from repro.runtime.engine import baseline_journals
from repro.runtime.plane import plane_spec_for

SAMPLES = 5
WIRES = ("inproc", "mp", "tcp", "tcp-loopback")


def _median_seconds(
    call: Callable[[], Any], prepare: Optional[Callable[[], Any]] = None
) -> float:
    """Median wall of ``call()``; ``prepare()`` runs untimed before each."""
    samples: List[float] = []
    for index in range(SAMPLES + 1):
        if prepare is not None:
            prepare()
        start = time.perf_counter()
        call()
        elapsed = time.perf_counter() - start
        if index:  # the first call is the warm-up
            samples.append(elapsed)
    return statistics.median(samples)


def _web_graph(vertices: int = 2000, out_degree: int = 4) -> DataGraph:
    return power_law_web_graph(vertices, out_degree=out_degree, seed=7, typed=True)


def probe_finalize() -> Dict[str, float]:
    def unfinalized() -> DataGraph:
        source = _web_graph()
        graph = DataGraph()
        for v in source.vertices():
            graph.add_vertex(v, data=source.vertex_data(v))
        for a, b in source.edges():
            graph.add_edge(a, b, data=source.edge_data(a, b))
        return graph

    pending: List[DataGraph] = []
    seconds = _median_seconds(
        lambda: pending.pop().finalize(vertex_dtype=float, edge_dtype=float),
        prepare=lambda: pending.append(unfinalized()),
    )
    return {"core.csr.finalize_us_per_edge": seconds * 1e6 / _web_graph().num_edges}


def probe_schedulers() -> Dict[str, float]:
    count = 2000
    priorities = np.random.default_rng(0).random(count).tolist()

    def addpop(scheduler_cls: Any) -> Callable[[], None]:
        def call() -> None:
            scheduler = scheduler_cls()
            for vertex, priority in enumerate(priorities):
                scheduler.add(vertex, priority)
            for _ in range(count):
                scheduler.pop()

        return call

    return {
        "core.scheduler.fifo_addpop_ns": _median_seconds(addpop(FIFOScheduler))
        * 1e9
        / count,
        "core.scheduler.priority_addpop_ns": _median_seconds(
            addpop(PriorityScheduler)
        )
        * 1e9
        / count,
    }


def _scalar_sweep(graph: DataGraph, update: Any) -> Callable[[], None]:
    scope = Scope(graph, None)
    vertices = list(graph.vertices())

    def call() -> None:
        for vertex in vertices:
            update(scope.rebind(vertex))
            scope.drain_scheduled()

    return call


def probe_scalar_update() -> Dict[str, float]:
    """``Scope.rebind`` + one scalar PageRank update, mean in-degree 4."""
    graph = _web_graph()
    seconds = _median_seconds(_scalar_sweep(graph, make_pagerank_update(epsilon=1e-3)))
    return {"core.scope.scalar_update_us": seconds * 1e6 / graph.num_vertices}


def probe_als_update() -> Dict[str, float]:
    graph = synthetic_netflix(100, 40, 10, d_true=3, seed=0).graph
    initialize_factors(graph, 5, seed=1)
    seconds = _median_seconds(_scalar_sweep(graph, make_als_update(5, epsilon=1e-3)))
    return {"apps.als.update_us": seconds * 1e6 / graph.num_vertices}


def _kernel_ns_per_edge(graph: DataGraph, update: Any, edges_of: Any) -> float:
    kernel = update.kernel
    kernel.bind(graph)
    csr = graph.compiled
    frontier = color_classes(greedy_coloring(graph))[0]
    active = np.fromiter((csr.index_of[v] for v in frontier), dtype=np.int64)
    seconds = _median_seconds(
        lambda: kernel.step(graph, active, csr.vdata, csr.edata)
    )
    return seconds * 1e9 / sum(edges_of(v) for v in frontier)


def probe_kernels() -> Dict[str, float]:
    web = _web_graph(8000, 8)
    grid, psi = grid_2d_typed(60, 60, 5, seed=7)
    return {
        "core.kernels.pagerank_ns_per_edge": _kernel_ns_per_edge(
            web, make_pagerank_update(schedule="self"), web.in_degree
        ),
        "core.kernels.lbp_ns_per_edge": _kernel_ns_per_edge(
            grid, make_lbp_update_typed(psi, epsilon=-1.0), grid.degree
        ),
    }


def probe_locks() -> Dict[str, float]:
    count = 2000
    table = RWQueueCore(range(count))

    def call() -> None:
        for key in range(count):
            table.request(key, LockKind.WRITE, key)
            table.release(key, LockKind.WRITE)

    return {"distributed.locks.request_release_ns": _median_seconds(call) * 1e9 / count}


def probe_ghost_exchange() -> Dict[str, float]:
    """Ghost entries between two shards of a checkerboard-split LBP grid:
    pickled ``FlatEntries`` (the pipe/TCP wire) and the ring plane."""
    graph, _psi = grid_2d_typed(80, 80, 5, seed=7)
    owner = {v: (v[0] + v[1]) % 2 for v in graph.vertices()}
    csr = graph.compiled
    # What shard 0 writes in a sweep: its own vertices and, on a
    # checkerboard, every edge (each has one endpoint on either shard).
    owned_v = np.array([i for i, v in enumerate(csr.vertex_ids) if owner[v] == 0])
    all_e = np.arange(len(csr.edge_keys))

    def shards() -> Any:
        return CSRShardStore(0, graph, owner), CSRShardStore(1, graph, owner)

    def dirty(store: CSRShardStore) -> Callable[[], None]:
        return lambda: store.apply_kernel_result(
            KernelResult(wrote_v=owned_v, wrote_e=all_e)
        )

    out: Dict[str, float] = {}
    src, dst = shards()
    wire: List[Any] = []

    def encode() -> None:
        batch = src.collect_dirty_flat()[1]
        wire[:] = [pickle.dumps(batch, pickle.HIGHEST_PROTOCOL), len(batch)]

    encode_s = _median_seconds(encode, prepare=dirty(src))
    blob, entries = wire

    def fresh_blob() -> None:
        dirty(src)()
        encode()

    apply_s = _median_seconds(
        lambda: dst.apply_flat(pickle.loads(wire[0])), prepare=fresh_blob
    )
    out["runtime.shard.flat_encode_us_per_1k"] = encode_s * 1e6 * 1000 / entries
    out["runtime.shard.flat_apply_us_per_1k"] = apply_s * 1e6 * 1000 / entries
    out["runtime.shard.flat_bytes_per_entry"] = len(blob) / entries

    src, dst = shards()
    spec = plane_spec_for(graph, 2, len(owned_v), len(all_e), kind="local")
    plane = LocalDataPlane(spec)
    segment = plane.segments[0]
    src.adopt_buffers(segment.vdata, segment.edata)
    writer = plane.writer_for(0)
    runs: List[Any] = []

    def publish() -> None:
        meta, _overflow = src.collect_dirty_plane(writer)
        runs[:] = meta[1]

    def fresh_round() -> None:
        dirty(src)()
        writer.begin_round()

    publish_s = _median_seconds(publish, prepare=fresh_round)

    def fresh_run() -> None:
        fresh_round()
        publish()

    def apply() -> None:
        v_start, v_count, e_start, e_count = runs
        ring = segment.halves[writer.half]
        dst.apply_slices(
            ring.v_index[v_start:v_start + v_count],
            ring.v_value[v_start:v_start + v_count],
            ring.v_version[v_start:v_start + v_count],
            ring.e_slot[e_start:e_start + e_count],
            ring.e_value[e_start:e_start + e_count],
            ring.e_version[e_start:e_start + e_count],
        )

    apply_s = _median_seconds(apply, prepare=fresh_run)
    entries = runs[1] + runs[3]
    out["runtime.plane.publish_us_per_1k"] = publish_s * 1e6 * 1000 / entries
    out["runtime.plane.apply_us_per_1k"] = apply_s * 1e6 * 1000 / entries
    return out


def _tiny_graph() -> DataGraph:
    return _web_graph(64, 2)


def probe_empty_rounds() -> Dict[str, float]:
    """One barrier with nothing to do, per wire, two workers.

    ``sync_count`` with no sync registered is the protocol's cheapest
    command: apply an empty inbox, reply with no partials.
    """
    rounds = 200
    out: Dict[str, float] = {}
    for wire in WIRES:
        engine = RuntimeChromaticEngine(
            _tiny_graph(),
            UpdateProgram(make_pagerank_update),
            num_workers=2,
            transport=wire,
        )
        engine.open_service()
        try:
            messages = [("sync_count", {})] * 2
            seconds = _median_seconds(
                lambda: [engine.transport.round(messages) for _ in range(rounds)]
            )
        finally:
            engine.close_service(snapshot=False)
        out[f"runtime.transport.empty_round_us.{wire}"] = seconds * 1e6 / rounds
    return out


def probe_empty_barrier() -> Dict[str, float]:
    barriers = 200
    engine = RuntimeLockingEngine(
        _tiny_graph(),
        UpdateProgram(make_pagerank_update),
        num_workers=2,
        transport="mp",
    )
    engine.open_service()
    try:
        seconds = _median_seconds(
            lambda: [
                engine.service_barrier(writes=[], reads=[]) for _ in range(barriers)
            ]
        )
    finally:
        engine.close_service(snapshot=False)
    return {"serve.service.empty_barrier_us": seconds * 1e6 / barriers}


def probe_checkpoint() -> Dict[str, float]:
    graph = _web_graph(2000, 8)
    owner = {v: v % 2 for v in graph.vertices()}
    journals = baseline_journals(graph, owner, 2)
    root = OUT_DIR / "tmp" / "probe-checkpoint"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    try:
        manager = CheckpointManager(str(root), 2)
        written: List[int] = []
        ids: List[int] = []

        def write() -> None:
            ids.append(manager.next_id())
            written.append(manager.write(ids[-1], journals, {"probe": True}))

        write_s = _median_seconds(write)
        verify_s = _median_seconds(lambda: manager.dir.verify(ids[-1], 2))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    megabytes = written[-1] / 1e6
    return {
        "runtime.checkpoint.write_mb_per_s": megabytes / write_s,
        "runtime.checkpoint.verify_mb_per_s": megabytes / verify_s,
    }


PROBES = (
    probe_finalize,
    probe_schedulers,
    probe_scalar_update,
    probe_kernels,
    probe_als_update,
    probe_locks,
    probe_ghost_exchange,
    probe_empty_rounds,
    probe_checkpoint,
    probe_empty_barrier,
)


def run_probes() -> Dict[str, float]:
    """Every probe metric, by name."""
    out: Dict[str, float] = {}
    for probe in PROBES:
        out.update(probe())
    return out


def budget(
    probes: Dict[str, float],
    wire: str,
    rounds: float,
    updates: float,
    update_seconds: float,
    entries: float,
    plane: bool,
    exec_seconds: float,
) -> Dict[str, float]:
    """How much of an execution's wall the probe costs add back up to.

    ``update_seconds`` is the probe cost of one update of the workload's
    program; ``entries`` are ghost entries shipped, over the ring plane
    or pickled.
    """
    kind = "runtime.plane." if plane else "runtime.shard.flat_"
    verb = "publish" if plane else "encode"
    per_entry = (
        probes[f"{kind}{verb}_us_per_1k"] + probes[f"{kind}apply_us_per_1k"]
    ) * 1e-9
    explained = (
        rounds * probes[f"runtime.transport.empty_round_us.{wire}"] * 1e-6
        + updates * update_seconds
        + entries * per_entry
    )
    return {
        "budget.explained_share": explained / exec_seconds if exec_seconds else 0.0,
        "budget.residual_s": exec_seconds - explained,
    }
