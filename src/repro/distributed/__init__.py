"""Distributed GraphLab (paper Sec. 4): the distributed data graph
(atoms, ghosts, version coherence), the chromatic and pipelined-locking
engines, Misra termination detection, and fault tolerance.
"""

from repro.distributed.atom import Atom, AtomCommand, AtomIndex, build_atoms
from repro.distributed.base import (
    DistributedEngineBase,
    DistributedRunResult,
    SnapshotRecord,
)
from repro.distributed.chromatic import ChromaticEngine
from repro.distributed.consensus import install_termination
from repro.distributed.deploy import Deployment, deploy
from repro.distributed.dfs import DFSFile, DistributedFileSystem
from repro.distributed.ingress import (
    IngressReport,
    distributed_load,
    ownership_from_placement,
    store_atoms,
)
from repro.distributed.locking import LockingEngine
from repro.distributed.locks import VertexLockTable
from repro.distributed.models import (
    COSEG_SIZES,
    NER_SIZES,
    DataSizeModel,
    UpdateCostModel,
    constant_cost,
    coseg_cost,
    degree_cost,
    ner_cost,
    netflix_cost,
    netflix_cycles,
    netflix_sizes,
)
from repro.distributed.partition import (
    bfs_assignment,
    balance,
    cut_edges,
    frame_assignment,
    grid_assignment,
    random_hash_assignment,
    stripe_assignment,
)
from repro.distributed.snapshot import (
    cluster_mtbf,
    recover_from_snapshot,
    run_recovery,
    young_checkpoint_interval,
)

__all__ = [
    "Atom",
    "AtomCommand",
    "AtomIndex",
    "COSEG_SIZES",
    "ChromaticEngine",
    "DFSFile",
    "DataSizeModel",
    "Deployment",
    "DistributedEngineBase",
    "DistributedFileSystem",
    "DistributedRunResult",
    "IngressReport",
    "LockingEngine",
    "NER_SIZES",
    "SnapshotRecord",
    "UpdateCostModel",
    "VertexLockTable",
    "balance",
    "bfs_assignment",
    "build_atoms",
    "cluster_mtbf",
    "constant_cost",
    "coseg_cost",
    "cut_edges",
    "degree_cost",
    "deploy",
    "distributed_load",
    "frame_assignment",
    "grid_assignment",
    "install_termination",
    "ner_cost",
    "netflix_cost",
    "netflix_cycles",
    "netflix_sizes",
    "ownership_from_placement",
    "random_hash_assignment",
    "recover_from_snapshot",
    "run_recovery",
    "store_atoms",
    "stripe_assignment",
    "young_checkpoint_interval",
]
