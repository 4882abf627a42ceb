"""The five batch workloads: how each is set up, run and checked.

One :class:`BatchWorkload` subclass per row of the workload table in
``bench/README.md``. ``setup()`` is everything a user pays before
``engine.run()`` — graph build, finalize, coloring, the engine's
ownership plan — and is timed as ``setup_s``; ``verify()`` is the
untimed correctness check against an oracle computed in this process.

Work is fixed by the size, never by the seed: chromatic workloads run
a fixed number of sweeps, ALS a fixed update budget, and dynamic
PageRank keeps one frozen structure and draws only its starting ranks
from the seed — to-quiescence runs on seeded structures differed by
10 % in rounds from seed to seed, more than any bound here.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from bench import ROOT
from bench.timing import SpanLog, TimingTransport
from repro.apps.als import als_program, initialize_factors, training_rmse
from repro.apps.lbp import make_lbp_update_typed, potts_potential
from repro.apps.pagerank import exact_pagerank, l1_error, make_pagerank_update
from repro.core.coloring import greedy_coloring
from repro.core.engine import SequentialEngine
from repro.datasets.mesh import grid_2d_typed
from repro.datasets.netflix import synthetic_netflix
from repro.datasets.webgraph import power_law_web_graph
from repro.runtime import (
    ColorSweepScheduler,
    RuntimeChromaticEngine,
    RuntimeLockingEngine,
    UpdateProgram,
    make_transport,
)

NUM_WORKERS = 2

#: Everything the benchmark writes lands here (git-ignored).
OUT_DIR = ROOT / "bench" / "out"


@dataclass
class Ready:
    """One execution, set up and not yet run."""

    graph: Any
    engine: Any
    #: Directory to delete once the execution is over (snapshots).
    scratch: Optional[Path] = None

    def run(self) -> Any:
        return self.engine.run(initial=self.graph.vertices())

    def cleanup(self) -> None:
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)


class BatchWorkload:
    """Base: subclasses fill in ``setup``, ``verify`` and ``update_seconds``."""

    name = ""
    wire = "mp"

    def __init__(self, size: Dict[str, Any], seed: int) -> None:
        self.size = size
        self.seed = seed
        self._oracle: Any = None
        self._scratch_count = 0

    def transport(self, log: Optional[SpanLog]) -> Any:
        inner = make_transport(self.wire, NUM_WORKERS)
        return inner if log is None else TimingTransport(inner, log)

    def setup(self, log: Optional[SpanLog] = None) -> Ready:
        """Build the graph and the engine; ``log`` turns the trace on."""
        raise NotImplementedError

    def verify(self, ready: Ready, result: Any) -> List[str]:
        """Reasons this execution's output is wrong (empty: correct)."""
        raise NotImplementedError

    def update_seconds(self, probes: Dict[str, float], graph: Any) -> float:
        """Probe cost of one update of this workload's program."""
        raise NotImplementedError


class _Chromatic(BatchWorkload):
    """Fixed sweeps on the chromatic engine, bit-identical to the oracle."""

    def build_graph(self) -> Any:
        raise NotImplementedError

    def program(self) -> UpdateProgram:
        raise NotImplementedError

    def engine_options(self) -> Dict[str, Any]:
        return {}

    def expected_recoveries(self) -> int:
        return 0

    def setup(self, log: Optional[SpanLog] = None) -> Ready:
        graph = self.build_graph()
        options = self.engine_options()
        scratch = None
        if "snapshot_every" in options:
            self._scratch_count += 1
            scratch = OUT_DIR / "tmp" / f"{self.name}-{self.seed}-{self._scratch_count}"
            shutil.rmtree(scratch, ignore_errors=True)
            scratch.mkdir(parents=True)
            options["snapshot_dir"] = str(scratch)
        engine = RuntimeChromaticEngine(
            graph,
            self.program(),
            num_workers=NUM_WORKERS,
            transport=self.transport(log),
            coloring=greedy_coloring(graph),
            max_sweeps=self.size["sweeps"],
            telemetry=log is not None,
            **options,
        )
        return Ready(graph=graph, engine=engine, scratch=scratch)

    def oracle(self) -> Any:
        """Sequential color-sweep run of the same program, kernel on."""
        if self._oracle is None:
            graph = self.build_graph()
            result = SequentialEngine(
                graph,
                self.program().resolve(),
                scheduler=ColorSweepScheduler(greedy_coloring(graph)),
                max_updates=self.size["sweeps"] * graph.num_vertices,
            ).run(initial=graph.vertices())
            csr = graph.compiled
            self._oracle = (csr.vdata, csr.edata, result.num_updates)
        return self._oracle

    def verify(self, ready: Ready, result: Any) -> List[str]:
        vdata, edata, updates = self.oracle()
        csr = ready.graph.compiled
        failures = []
        if result.num_updates != updates:
            failures.append(f"{result.num_updates} updates, oracle ran {updates}")
        if not np.array_equal(csr.vdata, vdata):
            failures.append("vertex data differs from the sequential oracle")
        if not np.array_equal(csr.edata, edata):
            failures.append("edge data differs from the sequential oracle")
        recoveries = result.extra.get("recoveries", 0)
        if recoveries != self.expected_recoveries():
            failures.append(
                f"{recoveries} recoveries, {self.expected_recoveries()} scheduled"
            )
        return failures


class PageRankChromatic(_Chromatic):
    name = "pagerank_chromatic"

    def build_graph(self) -> Any:
        return power_law_web_graph(
            self.size["vertices"],
            out_degree=self.size["out_degree"],
            seed=self.seed,
            typed=True,
        )

    def program(self) -> UpdateProgram:
        return UpdateProgram(make_pagerank_update, kwargs={"schedule": "self"})

    def update_seconds(self, probes: Dict[str, float], graph: Any) -> float:
        in_degree = graph.num_edges / graph.num_vertices
        return in_degree * probes["core.kernels.pagerank_ns_per_edge"] * 1e-9


class LbpChromaticTcp(_Chromatic):
    name = "lbp_chromatic_tcp"
    wire = "tcp"

    def build_graph(self) -> Any:
        graph, _psi = grid_2d_typed(
            self.size["rows"], self.size["cols"], self.size["labels"], seed=self.seed
        )
        return graph

    def program(self) -> UpdateProgram:
        # A negative epsilon reschedules every neighbour after every
        # update, so each sweep runs every vertex and the update count
        # is sweeps x vertices on any seed.
        psi = potts_potential(self.size["labels"], smoothing=1.5)
        return UpdateProgram(
            make_lbp_update_typed, args=(psi,), kwargs={"epsilon": -1.0}
        )

    def update_seconds(self, probes: Dict[str, float], graph: Any) -> float:
        degree = 2 * graph.num_edges / graph.num_vertices
        return degree * probes["core.kernels.lbp_ns_per_edge"] * 1e-9


class PageRankChromaticRecover(PageRankChromatic):
    name = "pagerank_chromatic_recover"

    def engine_options(self) -> Dict[str, Any]:
        return {"snapshot_every": self.size["snapshot_every"]}

    def expected_recoveries(self) -> int:
        return 1

    def setup(self, log: Optional[SpanLog] = None) -> Ready:
        ready = super().setup(log)
        ready.engine.transport.schedule_kill(
            self.size["kill_worker"], self.size["kill_round"]
        )
        return ready


class PageRankLocking(BatchWorkload):
    """Epsilon-gated dynamic PageRank to quiescence on the locking engine."""

    name = "pagerank_locking"

    def setup(self, log: Optional[SpanLog] = None) -> Ready:
        size = self.size
        graph = power_law_web_graph(
            size["vertices"],
            out_degree=size["out_degree"],
            seed=size["structure_seed"],
            typed=True,
        )
        ranks = np.random.default_rng(self.seed).uniform(0.5, 1.5, graph.num_vertices)
        graph.compiled.vdata[:] = ranks / ranks.sum()
        engine = RuntimeLockingEngine(
            graph,
            UpdateProgram(make_pagerank_update, kwargs={"epsilon": size["epsilon"]}),
            num_workers=NUM_WORKERS,
            transport=self.transport(log),
            scheduler="fifo",
            pipeline_window=size["pipeline_window"],
            telemetry=log is not None,
        )
        return Ready(graph=graph, engine=engine)

    def verify(self, ready: Ready, result: Any) -> List[str]:
        if self._oracle is None:
            self._oracle = exact_pagerank(ready.graph)
        tolerance = self.size["epsilon"] * ready.graph.num_vertices
        error = l1_error(ready.graph, self._oracle)
        failures = []
        if not result.converged:
            failures.append("run stopped before quiescence")
        if not error < tolerance:
            failures.append(f"L1 to the dense fixed point {error:.3g} >= {tolerance:.3g}")
        return failures

    def update_seconds(self, probes: Dict[str, float], graph: Any) -> float:
        return probes["core.scope.scalar_update_us"] * 1e-6


class AlsLocking(BatchWorkload):
    """Dynamic ALS (Fig. 1d): priority order, untyped data, pickled wire."""

    name = "als_locking"

    def setup(self, log: Optional[SpanLog] = None) -> Ready:
        size = self.size
        graph = synthetic_netflix(
            num_users=size["users"],
            num_movies=size["movies"],
            ratings_per_user=size["ratings_per_user"],
            d_true=3,
            seed=size["data_seed"],
        ).graph
        initialize_factors(graph, size["d"], seed=self.seed)
        engine = RuntimeLockingEngine(
            graph,
            als_program(size["d"], epsilon=size["epsilon"]),
            num_workers=NUM_WORKERS,
            transport=self.transport(log),
            scheduler="priority",
            pipeline_window=size["pipeline_window"],
            max_updates=size["max_updates"],
            telemetry=log is not None,
        )
        return Ready(graph=graph, engine=engine)

    def verify(self, ready: Ready, result: Any) -> List[str]:
        size = self.size
        rmse = training_rmse(ready.graph)
        failures = []
        if result.num_updates < size["max_updates"]:
            failures.append(
                f"{result.num_updates} updates, budget is {size['max_updates']}"
            )
        if not rmse <= size["rmse_max"]:
            failures.append(f"training RMSE {rmse:.4f} > {size['rmse_max']}")
        return failures

    def update_seconds(self, probes: Dict[str, float], graph: Any) -> float:
        return probes["apps.als.update_us"] * 1e-6


BATCH = {
    cls.name: cls
    for cls in (
        PageRankChromatic,
        LbpChromaticTcp,
        PageRankLocking,
        AlsLocking,
        PageRankChromaticRecover,
    )
}
