"""repro — a faithful reimplementation of *Distributed GraphLab: A
Framework for Machine Learning and Data Mining in the Cloud* (Low et al.,
VLDB 2012).

The package provides:

* :mod:`repro.core` — the GraphLab abstraction: data graph, update
  functions over consistency-enforced scopes, dynamic schedulers, sync
  operations, and in-process reference engines;
* :mod:`repro.sim` — a deterministic discrete-event cluster simulator
  (machines, cores, network, RPC) standing in for the paper's EC2
  testbed;
* :mod:`repro.distributed` — the distributed data graph (atoms, ghosts,
  version coherence), the chromatic and pipelined-locking engines,
  distributed termination detection, and synchronous/asynchronous
  (Chandy-Lamport) snapshots;
* :mod:`repro.baselines` — Pregel-, Hadoop/MapReduce-, and MPI-style
  comparison systems;
* :mod:`repro.apps` — PageRank, ALS (Netflix), loopy BP, CoSeg, and
  NER/CoEM applications;
* :mod:`repro.datasets` — synthetic workload generators matching the
  paper's inputs (Table 2);
* :mod:`repro.figures` — the figure containers and capability table the
  ``figures/`` suites use to regenerate every table and figure of the
  evaluation.

Quickstart::

    from repro import DataGraph, SequentialEngine
    from repro.apps.pagerank import pagerank_update
    from repro.datasets.webgraph import power_law_web_graph

    graph = power_law_web_graph(num_vertices=100, seed=0)
    engine = SequentialEngine(graph, pagerank_update, scheduler="fifo")
    result = engine.run(initial=graph.vertices())
"""

from repro.core import (
    Consistency,
    DataGraph,
    EngineResult,
    GlobalValues,
    Scope,
    SequentialEngine,
    SyncOperation,
    ThreadedEngine,
    Trace,
    run_to_convergence,
    sum_sync,
)
from repro.errors import (
    ConsistencyError,
    GraphLabError,
    GraphStructureError,
    SerializabilityViolation,
)

__version__ = "1.0.0"

__all__ = [
    "Consistency",
    "ConsistencyError",
    "DataGraph",
    "EngineResult",
    "GlobalValues",
    "GraphLabError",
    "GraphStructureError",
    "Scope",
    "SequentialEngine",
    "SerializabilityViolation",
    "SyncOperation",
    "ThreadedEngine",
    "Trace",
    "run_to_convergence",
    "sum_sync",
    "__version__",
]
