"""Exception hierarchy for the GraphLab reproduction.

Every error raised by this package derives from :class:`GraphLabError` so
callers can catch framework failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class GraphLabError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GraphStructureError(GraphLabError):
    """The graph structure was used illegally.

    Raised when adding duplicate vertices/edges, referencing missing
    vertices, or mutating the structure after :meth:`DataGraph.finalize`.
    The paper requires a *static* structure during execution (Sec. 3.1).
    """


class GraphNotFinalizedError(GraphLabError):
    """An operation required a finalized graph (e.g. engine start)."""


class ConsistencyError(GraphLabError):
    """An update function accessed data outside its consistency model.

    For example, writing to a neighbor's vertex data under the *edge*
    consistency model (Sec. 3.4, Fig. 2b).
    """


class SchedulerError(GraphLabError):
    """Scheduler misuse, e.g. popping from an empty scheduler."""


class SerializabilityViolation(GraphLabError):
    """An execution trace was found not to be serializable (Sec. 3.4)."""


class ColoringError(GraphLabError):
    """A vertex coloring is invalid for the requested consistency model."""


class PartitionError(GraphLabError):
    """Atom partitioning or placement failed (Sec. 4.1)."""


class AtomFormatError(GraphLabError):
    """An atom journal file is malformed or truncated (Sec. 4.1)."""


class SimulationError(GraphLabError):
    """The discrete-event simulator was driven into an illegal state."""


class RPCError(SimulationError):
    """A simulated remote procedure call failed (machine down, bad target)."""


class MachineFailureError(SimulationError):
    """An operation touched a machine that has been killed by fault
    injection and has not been recovered."""


class SnapshotError(GraphLabError):
    """Snapshot construction or recovery failed (Sec. 4.3)."""


class DFSError(GraphLabError):
    """Simulated distributed-file-system failure (missing file, bad
    replication factor, reading past end of file)."""


class EngineError(GraphLabError):
    """Engine configuration or lifecycle misuse (e.g. running an engine
    twice, using the chromatic engine without a valid coloring)."""


class TransportError(EngineError):
    """A transport was used outside its lifecycle contract.

    Transports are single-use: one ``launch``, any number of rounds,
    one ``shutdown``. Reusing one — a second ``launch``, or launching
    after ``shutdown`` — previously died with an incidental error deep
    in backend setup (a closed pipe, a rebound port); now it raises
    this structured error up front.
    """


class FaultSpecError(EngineError, ValueError):
    """A ``REPRO_FAULT`` schedule entry is malformed.

    Derives from both :class:`EngineError` (framework failures stay
    catchable with one clause) and :class:`ValueError` (a bad spec
    string is a plain bad-value bug at the call site); the message
    always names the offending fragment.
    """
