"""Shared-memory data plane for the real-process runtime.

The chromatic runtime's per-round cost used to be dominated by the wire:
every color-step ended with each worker pickling its dirty ghost batches
(`FlatEntries`) into a pipe and the coordinator re-pickling them into
destination inboxes. The paper's C++ system never pays this inside a
node — workers share address space, so ghost propagation is a memory
write (Sec. 4.2.1 hides the barrier's cost precisely because data
movement is memory-bandwidth-bound). This module is the Python
equivalent for graphs with **typed data columns**:

* At launch the coordinator allocates one POSIX shared-memory segment
  per worker (:class:`ShmDataPlane`). A segment holds the worker's
  ``int64`` version counters (``vversion`` / ``eversion``, one per
  vertex and edge slot) and its full vertex/edge data columns — the
  authoritative copy for its *owned* slots — plus a fixed-capacity,
  **double-buffered dirty-entry ring**: the fields of
  :class:`~repro.runtime.shard.FlatEntries` (slot index, version,
  value) in parallel arrays.
* After a color-step the worker routes its dirty entries into the very
  per-destination batches the pickled wire would ship, and
  :meth:`RingWriter.append` *copies them into ring slots*; its pipe
  reply shrinks to control data — per-destination ``(start, count)``
  descriptors, scheduling indices, update counts.
* The coordinator routes descriptors, not data: a destination worker
  applies a run as a :class:`~repro.runtime.shard.FlatEntries` view of
  the *source worker's* ring half (:meth:`RingHalf.entries`) through the
  same filter as the pickled wire
  (:meth:`~repro.runtime.shard.CSRShardStore.apply_flat`).
* At collect time the coordinator reads owned slots straight out of
  each segment — no pickled data dictionaries.
* A read-only serving batch takes no round at all: between commands
  every segment is quiescent, so the coordinator answers each read
  from whichever segment holds the datum's highest version
  (:class:`~repro.runtime.shard.PlaneReader`). The version columns are
  what make that choice possible — a datum's freshest copy is not
  always at its owner (an EDGE-consistency update writes in-edges whose
  journal owner is another worker, a FULL-consistency update writes
  neighbour data) until the next command delivers the routed entries.

Double buffering is what makes the ring safe without locks: entries
written during round *r* are read by their destinations during round
*r + 1*, while the writer is already filling the other half; the half
written in round *r + 2* was last read in round *r + 1*, which the
barrier guarantees is complete. Descriptors carry the half explicitly,
so readers never infer parity.

**Overflow contract:** a ring half has fixed capacity
(:data:`DEFAULT_RING_CAP` entries per column at most). A per-destination
column that does not fit falls back to the pickled pipe wire for that
round (no descriptor covers it; its ``FlatEntries`` fields ride the
reply). Correctness never depends on capacity — only the pipe-byte
count does.

:class:`LocalDataPlane` provides the same segments as plain in-process
numpy arrays, so :class:`~repro.runtime.transport.InprocTransport`
drives the identical worker code path deterministically in tier-1
tests. Untyped (object-column) graphs get no plane at all and keep the
pickled wire untouched.
"""

from __future__ import annotations

import atexit
import dataclasses
import os
import secrets
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import EngineError
from repro.runtime.shard import FlatEntries

try:  # POSIX shared memory; absent on some exotic platforms.
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - platform-dependent
    _shm = None

#: Environment switch forcing the pickled pipe wire (CI runs the runtime
#: matrix once with this set so the fallback path stays green).
NO_SHM_ENV = "REPRO_NO_SHM"

#: Ceiling on ring capacity (entries per column per half). The engine
#: sizes rings to the worst-case routable entry count, capped here;
#: beyond it the overflow contract applies (tests lower it to force
#: overflow).
DEFAULT_RING_CAP = 1 << 16

_EMPTY_I32 = np.empty(0, dtype=np.int32)


def shm_available() -> bool:
    """Whether POSIX shared memory is usable (and not disabled)."""
    if _shm is None:
        return False
    return not os.environ.get(NO_SHM_ENV)


def _item_shape(dtype: Any, shape: Tuple[int, ...]) -> Tuple[np.dtype, Tuple[int, ...], int]:
    dt = np.dtype(dtype)
    shape = tuple(int(s) for s in shape)
    size = dt.itemsize * int(np.prod(shape, dtype=np.int64)) if shape else dt.itemsize
    return dt, shape, size


@dataclass(frozen=True)
class PlaneSpec:
    """Picklable description of the plane (ships in ``WorkerInit``).

    ``names`` are the shared-memory segment names (empty for the local
    emulation, whose arrays cannot cross a pickle boundary — the inproc
    transport injects them after construction instead).
    """

    kind: str  # "shm" | "local"
    num_workers: int
    v_count: int
    e_count: int
    v_dtype: Optional[np.dtype] = None
    v_shape: Tuple[int, ...] = ()
    e_dtype: Optional[np.dtype] = None
    e_shape: Tuple[int, ...] = ()
    ring_v: int = 0
    ring_e: int = 0
    names: Tuple[str, ...] = field(default=())
    #: Whether attaching workers must unregister their mapping from the
    #: ``resource_tracker``. Needed under *spawn* (each child gets its
    #: own tracker, which would otherwise unlink "leaked" segments when
    #: the child exits); wrong under *fork* (the tracker process is
    #: shared, so a child-side unregister would strip the creator's own
    #: registration). The transport sets it from its start method.
    attach_untrack: bool = False

    @property
    def has_v(self) -> bool:
        return self.v_dtype is not None

    @property
    def has_e(self) -> bool:
        return self.e_dtype is not None

    def segment_size(self) -> int:
        """Bytes per worker segment (version columns + data columns +
        both ring halves)."""
        size = 8 * (self.v_count + self.e_count)  # int64 version columns
        if self.has_v:
            _dt, _shape, item = _item_shape(self.v_dtype, self.v_shape)
            size += self.v_count * item
            size += 2 * self.ring_v * (8 + item)  # int32 idx + int32 ver
        if self.has_e:
            _dt, _shape, item = _item_shape(self.e_dtype, self.e_shape)
            size += self.e_count * item
            size += 2 * self.ring_e * (8 + item)
        return max(size, 1)


class RingHalf:
    """One half of a segment's dirty ring: parallel slot/version/value
    arrays for vertex and edge entries, named and typed as the fields of
    :class:`~repro.runtime.shard.FlatEntries` (int32 slot and version,
    the column's dtype for values). A column without a ring keeps
    zero-length arrays."""

    __slots__ = (
        "v_index", "v_version", "v_value", "e_slot", "e_version", "e_value"
    )

    def __init__(self) -> None:
        self.v_index = self.v_version = self.v_value = _EMPTY_I32
        self.e_slot = self.e_version = self.e_value = _EMPTY_I32

    def entries(
        self, v_start: int, v_count: int, e_start: int, e_count: int
    ) -> FlatEntries:
        """One ring run as a :class:`FlatEntries` view (no copy)."""
        v = slice(v_start, v_start + v_count)
        e = slice(e_start, e_start + e_count)
        return FlatEntries(
            self.v_index[v], self.v_value[v], self.v_version[v],
            self.e_slot[e], self.e_value[e], self.e_version[e],
        )


#: Each column's fields, as named on ``RingHalf`` and ``FlatEntries``.
_COLUMNS = (
    ("v_index", "v_version", "v_value"),
    ("e_slot", "e_version", "e_value"),
)


class WorkerSegment:
    """Numpy views over one worker's plane memory.

    Layout: the ``int64`` version columns ``vversion`` / ``eversion``
    (one counter per vertex / edge slot — first, so every later block
    keeps its 8-byte alignment), then the typed data columns, then the
    two ring halves.
    """

    __slots__ = ("vversion", "eversion", "vdata", "edata", "halves")

    def __init__(self, spec: PlaneSpec, buffer: Any) -> None:
        self.vversion = np.frombuffer(
            buffer, dtype=np.int64, count=spec.v_count, offset=0
        )
        self.eversion = np.frombuffer(
            buffer, dtype=np.int64, count=spec.e_count,
            offset=8 * spec.v_count,
        )
        offset = 8 * (spec.v_count + spec.e_count)
        self.vdata = None
        self.edata = None
        self.halves = (RingHalf(), RingHalf())
        if spec.has_v:
            v_dt, v_shape, v_item = _item_shape(spec.v_dtype, spec.v_shape)
            self.vdata = np.frombuffer(
                buffer, dtype=v_dt, count=spec.v_count * v_item // v_dt.itemsize,
                offset=offset,
            ).reshape((spec.v_count,) + v_shape)
            offset += spec.v_count * v_item
        if spec.has_e:
            e_dt, e_shape, e_item = _item_shape(spec.e_dtype, spec.e_shape)
            self.edata = np.frombuffer(
                buffer, dtype=e_dt, count=spec.e_count * e_item // e_dt.itemsize,
                offset=offset,
            ).reshape((spec.e_count,) + e_shape)
            offset += spec.e_count * e_item
        for half in self.halves:
            if spec.has_v and spec.ring_v:
                v_dt, v_shape, v_item = _item_shape(spec.v_dtype, spec.v_shape)
                half.v_index = np.frombuffer(
                    buffer, dtype=np.int32, count=spec.ring_v, offset=offset
                )
                offset += 4 * spec.ring_v
                half.v_version = np.frombuffer(
                    buffer, dtype=np.int32, count=spec.ring_v, offset=offset
                )
                offset += 4 * spec.ring_v
                half.v_value = np.frombuffer(
                    buffer, dtype=v_dt,
                    count=spec.ring_v * v_item // v_dt.itemsize, offset=offset,
                ).reshape((spec.ring_v,) + v_shape)
                offset += spec.ring_v * v_item
            if spec.has_e and spec.ring_e:
                e_dt, e_shape, e_item = _item_shape(spec.e_dtype, spec.e_shape)
                half.e_slot = np.frombuffer(
                    buffer, dtype=np.int32, count=spec.ring_e, offset=offset
                )
                offset += 4 * spec.ring_e
                half.e_version = np.frombuffer(
                    buffer, dtype=np.int32, count=spec.ring_e, offset=offset
                )
                offset += 4 * spec.ring_e
                half.e_value = np.frombuffer(
                    buffer, dtype=e_dt,
                    count=spec.ring_e * e_item // e_dt.itemsize, offset=offset,
                ).reshape((spec.ring_e,) + e_shape)
                offset += spec.ring_e * e_item


class RingWriter:
    """Append-only writer into one worker's own ring.

    ``begin_round`` flips the active half and resets cursors — called
    once per handled command, which is globally synchronous, so the half
    written this round is never the half peers are reading (they read
    last round's descriptors, which point into the other half).
    ``used`` is the ``[vertex, edge]`` entry count written this round.
    """

    __slots__ = ("segment", "capacity", "half", "used")

    def __init__(self, segment: WorkerSegment, spec: PlaneSpec) -> None:
        self.segment = segment
        self.capacity = (
            spec.ring_v if spec.has_v else 0,
            spec.ring_e if spec.has_e else 0,
        )
        self.half = 1  # first begin_round() flips to 0
        self.used = [0, 0]

    def begin_round(self) -> None:
        self.half = 1 - self.half
        self.used = [0, 0]

    def append(
        self, batches: Mapping[int, FlatEntries]
    ) -> Tuple[Dict[int, List[int]], Dict[int, FlatEntries]]:
        """Publish per-destination batches: ``(meta, overflow)``.

        Each batch's vertex and edge fields move into the ring when they
        fit what is left of the half and the values are an array (a
        typed column); ``meta`` maps ``dst -> [v_start, v_count,
        e_start, e_count]`` for what moved. The fields that stay behind
        form ``overflow[dst]``, shipped over the pipe by the caller.
        """
        half = self.segment.halves[self.half]
        meta: Dict[int, List[int]] = {}
        overflow: Dict[int, FlatEntries] = {}
        for dst, batch in batches.items():
            run = [0, 0, 0, 0]
            rest = None
            for column, names in enumerate(_COLUMNS):
                count = len(getattr(batch, names[0]))
                if not count:
                    continue
                fields = [getattr(batch, name) for name in names]
                start = self.used[column]
                if start + count <= self.capacity[column] and isinstance(
                    fields[2], np.ndarray
                ):
                    for name, field in zip(names, fields):
                        getattr(half, name)[start:start + count] = field
                    self.used[column] = start + count
                    run[2 * column:2 * column + 2] = start, count
                else:
                    if rest is None:  # same field kinds, nothing in them
                        rest = FlatEntries(
                            *(field[:0] for field in batch.__getstate__())
                        )
                    for name, field in zip(names, fields):
                        setattr(rest, name, field)
            if run[1] or run[3]:
                meta[dst] = run
            if rest is not None:
                overflow[dst] = rest
        return meta, overflow


class DataPlane:
    """Coordinator- or worker-side handle on every segment."""

    def __init__(self, spec: PlaneSpec) -> None:
        self.spec = spec

    @property
    def segments(self) -> List[WorkerSegment]:
        raise NotImplementedError

    def writer_for(self, worker_id: int) -> RingWriter:
        return RingWriter(self.segments[worker_id], self.spec)

    def reset_rings(self, worker_id: int) -> None:
        """Zero one worker's dirty-ring descriptor arrays (both halves).

        Called by the transports before respawning a dead worker: a
        worker killed mid-write (hang-kill included) can leave a torn
        ring half in shared memory, and the replacement must start from
        clean descriptors. Data columns are left alone — the restore
        round rewrites them, and ring values without descriptors are
        unreachable.
        """
        for half in self.segments[worker_id].halves:
            for arr in (half.v_index, half.v_version, half.e_slot,
                        half.e_version):
                arr.fill(0)

    def close(self) -> None:  # pragma: no cover - trivial
        pass

    def unlink(self) -> None:  # pragma: no cover - trivial
        pass


class LocalDataPlane(DataPlane):
    """Plain in-process arrays — the inproc transport's emulation.

    Same layout, same code path; the "segments" are heap buffers shared
    by coordinator and workers because they live in one process.
    """

    def __init__(self, spec: PlaneSpec) -> None:
        super().__init__(spec)
        size = spec.segment_size()
        self._buffers = [bytearray(size) for _ in range(spec.num_workers)]
        self._segments = [WorkerSegment(spec, buf) for buf in self._buffers]

    @property
    def segments(self) -> List[WorkerSegment]:
        return self._segments


class ShmDataPlane(DataPlane):
    """POSIX shared-memory segments, one per worker.

    The creator (the coordinator) owns the lifecycle: ``unlink`` is
    idempotent, runs from ``MpTransport.shutdown`` on every exit path,
    and is additionally registered with :mod:`atexit` so interpreter
    teardown cannot leak ``/dev/shm`` entries even if shutdown never
    ran. Worker processes *attach* (:meth:`attach`) and only ever close
    their mapping; a fork-inherited handle refuses to unlink because the
    creator pid is recorded.

    Numpy views over the segments build lazily (first ``segments``
    access): the coordinator creates the plane *before* forking workers
    and only reads it at collect time, so at fork the children inherit
    plain mappings with no exported buffer pointers — their interpreter
    teardown can close the inherited handles cleanly.
    """

    def __init__(
        self, spec: PlaneSpec, blocks: List[Any], created: bool
    ) -> None:
        super().__init__(spec)
        self._blocks = blocks
        self._created = created
        self._creator_pid = os.getpid() if created else -1
        self._closed = False
        self._unlinked = False
        self._segments: Optional[List[WorkerSegment]] = None
        if created:
            atexit.register(self.unlink)

    @property
    def segments(self) -> List[WorkerSegment]:
        if self._segments is None:
            if self._closed:
                raise EngineError("data plane is closed")
            self._segments = [
                WorkerSegment(self.spec, blk.buf) for blk in self._blocks
            ]
        return self._segments

    @classmethod
    def create(cls, spec: PlaneSpec) -> "ShmDataPlane":
        if _shm is None:  # pragma: no cover - platform-dependent
            raise EngineError("POSIX shared memory is unavailable")
        size = spec.segment_size()
        blocks: List[Any] = []
        names: List[str] = []
        try:
            for _ in range(spec.num_workers):
                block = _shm.SharedMemory(
                    create=True,
                    size=size,
                    name=f"repro-plane-{secrets.token_hex(6)}",
                )
                blocks.append(block)
                names.append(block.name)
        except BaseException:
            for block in blocks:
                try:
                    block.close()
                    block.unlink()
                except OSError:  # pragma: no cover - cleanup race
                    pass
            raise
        spec = dataclasses.replace(spec, names=tuple(names))
        return cls(spec, blocks, created=True)

    @classmethod
    def attach(cls, spec: PlaneSpec) -> "ShmDataPlane":
        """Worker-side: open every segment by name (read peers, write
        own). Attachments are deliberately unregistered from the
        ``resource_tracker`` — the creator is the single owner of the
        unlink, and tracked attachments in short-lived workers would
        otherwise race it (or spam leak warnings on spawn)."""
        if _shm is None:  # pragma: no cover - platform-dependent
            raise EngineError("POSIX shared memory is unavailable")
        blocks = []
        try:
            for name in spec.names:
                block = _shm.SharedMemory(name=name)
                if spec.attach_untrack:
                    _untrack(block)
                blocks.append(block)
        except BaseException:
            for block in blocks:
                try:
                    block.close()
                except OSError:  # pragma: no cover - cleanup race
                    pass
            raise
        return cls(spec, blocks, created=False)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Views into the buffers must be dropped before the mmap closes.
        self._segments = None
        for block in self._blocks:
            try:
                block.close()
            except (OSError, BufferError):  # pragma: no cover - teardown
                pass

    def unlink(self) -> None:
        """Creator-only removal of the ``/dev/shm`` entries (idempotent)."""
        if not self._created or self._unlinked:
            return
        if os.getpid() != self._creator_pid:
            # Fork-inherited copy (e.g. inside a worker): not the owner.
            return
        self._unlinked = True
        self.close()
        for block in self._blocks:
            try:
                block.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover
                pass
        atexit.unregister(self.unlink)


def _untrack(block: Any) -> None:
    """Best-effort resource_tracker unregistration for an attachment."""
    try:  # pragma: no cover - depends on Python minor version internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(block._name, "shared_memory")
    except Exception:
        pass


def plane_spec_for(
    graph: Any,
    num_workers: int,
    max_routable_v: int,
    max_routable_e: int,
    kind: str,
) -> Optional[PlaneSpec]:
    """Build the plane spec for a finalized graph, or ``None``.

    A plane exists only for typed data columns (objects cannot live in
    shared buffers). Ring halves are sized to the worst-case routable
    entry count (every held boundary slot dirty at once), capped at
    :data:`DEFAULT_RING_CAP` — past the cap the overflow contract routes
    the excess over the pipe.
    """
    csr = graph.compiled
    vcol = csr.vertex_column
    ecol = csr.edge_column
    if vcol is None and ecol is None:
        return None
    cap = DEFAULT_RING_CAP
    return PlaneSpec(
        kind=kind,
        num_workers=num_workers,
        v_count=len(csr.vertex_ids),
        e_count=len(csr.edge_keys),
        v_dtype=None if vcol is None else vcol.dtype,
        v_shape=() if vcol is None else tuple(vcol.shape[1:]),
        e_dtype=None if ecol is None else ecol.dtype,
        e_shape=() if ecol is None else tuple(ecol.shape[1:]),
        ring_v=0 if vcol is None else min(max(int(max_routable_v), 1), cap),
        ring_e=0 if ecol is None else min(max(int(max_routable_e), 1), cap),
    )
