"""Snapshots and recovery for the real-process runtime (Sec. 4.3).

The simulator reproduces the paper's fault-tolerance story on a modeled
DFS (:mod:`repro.distributed.snapshot`); this module is its on-disk
twin for the runtime engines: numbered snapshot directories holding one
journal per worker at the simulated DFS's per-machine paths
(``snapshot/<id>/machine-<worker>``), a coordinator-side manager that
writes and reads them, and the cadence rule deciding *when* to
snapshot. The path scheme is the simulator's; the payload is not — the
simulator models bytes per key, the runtime journals its shards' own
slot arrays (:mod:`repro.runtime.shard`), so a snapshot costs a gather
and a buffer copy instead of a Python object per slot.

The synchronous snapshot (both engines, at a barrier) and the
asynchronous Chandy–Lamport one of Alg. 5 (locking engine, inside the
pipeline) differ only in *when* the workers save. Either way each
worker writes its own journal (:meth:`SnapshotDirectory.write_journal`)
and replies with its manifest record — the paper's "each machine saves
its own state to distributed storage"; only the launch baseline's
journals are the coordinator's. :meth:`CheckpointManager.commit` then
writes meta, MANIFEST and COMPLETE for every snapshot.

A snapshot becomes recoverable only once its ``COMPLETE`` marker
exists, so a crash mid-snapshot — which may leave the survivors'
journals on disk — can never be recovered *from*: the previous complete
snapshot remains the recovery point, and the partial directory's id is
never handed out again.

On-disk format of one snapshot (``<root>/snapshot/<id>/``)::

    machine-<w>   journal of worker w, pickle protocol 5:
                  {"format": shard.JOURNAL_FORMAT,
                   "state":  FlatEntries — per data column, parallel
                             (int32 index/slot, value, int32 version)
                             arrays over the worker's owned vertices
                             and source-owned edges; values are a raw
                             numpy buffer on a typed column, a list on
                             an object column,
                   "counts": (int32 vertex index, int64 update count),
                   "sched":  (int32 vertex index, float64 priority) —
                             locking engine only}
    meta          pickled coordinator bookkeeping (progress counters,
                  globals, the task-set mask)
    MANIFEST      pickled {basename: {"bytes": int, "crc32": int}}
                  covering every machine-<w> journal and meta; crc32 is
                  ``zlib.crc32(blob) & 0xFFFFFFFF`` of the exact bytes
                  on disk
    COMPLETE      empty marker; written last

Every file is written atomically (``<path>.tmp`` then ``os.replace``),
so a crash mid-write never leaves a half-written file under its final
name. At recovery time :meth:`SnapshotDirectory.verify` re-reads every
manifested file and checks both size and CRC; a snapshot that fails —
truncated journal, flipped bits, missing manifest — is *rejected* and
the manager falls back to the next-newest complete snapshot (the
baseline taken right after launch guarantees there is always one). So
is one whose journals pass their CRC but are not well-formed slot
journals — a directory written before the format tag existed, a missing
field, parallel arrays of different lengths
(:func:`repro.runtime.shard.check_journal`): a format mismatch is a
:class:`SnapshotError` naming the file, never a ``KeyError`` inside a
worker's restore.
"""

from __future__ import annotations

import os
import pickle
import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.distributed.snapshot import snapshot_file, suggested_interval
from repro.errors import SnapshotError
from repro.runtime.shard import check_journal

#: Coordinator-side metadata file inside a snapshot directory.
META_NAME = "meta"
#: Marker whose existence makes a snapshot recoverable.
COMPLETE_NAME = "COMPLETE"
#: Integrity record: sizes + CRCs of every journal and the meta file.
MANIFEST_NAME = "MANIFEST"

#: Blob the fault injector overwrites a journal with (``REPRO_FAULT``
#: mode ``corrupt_snapshot``). Deliberately not valid pickle either, so
#: the fault is caught even by manifest-less readers.
_CORRUPT_BLOB = b"repro-corrupt-snapshot"


def _crc(blob: bytes) -> int:
    return zlib.crc32(blob) & 0xFFFFFFFF


class SnapshotDirectory:
    """On-disk snapshot layout, shared by coordinator and workers.

    Journals are pickled slot-array records at the simulated DFS's
    per-machine paths rooted at ``root``; ``meta`` (coordinator
    bookkeeping: engine progress counters, globals, the task-set mask),
    the ``MANIFEST`` and the ``COMPLETE`` marker sit next to them.
    Workers hold only ``root``: every command that finishes a snapshot
    carries the ``journal`` marker ``(snapshot_id, root)``, and each
    worker writes its own journal through :meth:`write_journal`.
    """

    def __init__(self, root: Any) -> None:
        self.root = os.fspath(root)

    def snapshot_dir(self, snapshot_id: int) -> str:
        return os.path.join(self.root, "snapshot", str(snapshot_id))

    def journal_path(self, snapshot_id: int, worker_id: int) -> str:
        return os.path.join(self.root, snapshot_file(snapshot_id, worker_id))

    def _write(self, path: str, payload: Any) -> Dict[str, int]:
        """Atomically persist ``payload``; returns its manifest record
        ``{"bytes": n, "crc32": c}``.

        Writes ``<path>.tmp`` then ``os.replace``s it into place, so a
        crash mid-write can never leave a truncated file under the
        final name — the manifest CRC then only has bit-rot and
        deliberate corruption left to catch.
        """
        os.makedirs(os.path.dirname(path), exist_ok=True)
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
        return {"bytes": len(blob), "crc32": _crc(blob)}

    def _read(self, path: str) -> Any:
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except Exception as exc:
            # Damaged or foreign pickle bytes can raise nearly anything
            # (ValueError, AttributeError, ImportError, IndexError ...);
            # all of it means "not a usable snapshot file".
            raise SnapshotError(f"cannot read snapshot file {path}: {exc}")

    def write_journal(
        self, snapshot_id: int, worker_id: int, payload: Dict[str, Any]
    ) -> Dict[str, int]:
        """Persist one worker's journal; returns its manifest record."""
        return self._write(self.journal_path(snapshot_id, worker_id), payload)

    def read_journal(self, snapshot_id: int, worker_id: int) -> Dict[str, Any]:
        """Load one worker's journal, rejecting anything that is not a
        well-formed slot-form journal (see the module docstring)."""
        path = self.journal_path(snapshot_id, worker_id)
        journal = self._read(path)
        try:
            check_journal(journal)
        except ValueError as exc:
            raise SnapshotError(
                f"snapshot {snapshot_id}: journal "
                f"{os.path.basename(path)!r} is not a usable slot "
                f"journal ({exc})"
            )
        return journal

    def write_meta(
        self, snapshot_id: int, meta: Dict[str, Any]
    ) -> Dict[str, int]:
        return self._write(
            os.path.join(self.snapshot_dir(snapshot_id), META_NAME), meta
        )

    def read_meta(self, snapshot_id: int) -> Dict[str, Any]:
        return self._read(
            os.path.join(self.snapshot_dir(snapshot_id), META_NAME)
        )

    def write_manifest(
        self, snapshot_id: int, entries: Dict[str, Dict[str, int]]
    ) -> int:
        """Persist the integrity manifest (see module docstring);
        returns bytes written. ``entries`` maps basenames to
        ``{"bytes": n, "crc32": c}`` and must cover every journal and
        the meta file — :meth:`verify` checks exactly that."""
        return self._write(
            os.path.join(self.snapshot_dir(snapshot_id), MANIFEST_NAME),
            entries,
        )["bytes"]

    def read_manifest(self, snapshot_id: int) -> Dict[str, Dict[str, int]]:
        return self._read(
            os.path.join(self.snapshot_dir(snapshot_id), MANIFEST_NAME)
        )

    def verify(self, snapshot_id: int, num_workers: int) -> None:
        """Integrity-check one snapshot against its manifest.

        Raises :class:`SnapshotError` naming the failing file when the
        manifest is missing/unreadable, a manifested file is absent,
        its size disagrees (truncation), or its CRC32 disagrees (bit
        rot, deliberate corruption), or any ``machine-<w>`` journal for
        ``w < num_workers`` is not covered. Passing means every byte the
        recovery path will read is exactly what was written.
        """
        entries = self.read_manifest(snapshot_id)
        for worker_id in range(num_workers):
            name = os.path.basename(self.journal_path(snapshot_id, worker_id))
            if name not in entries:
                raise SnapshotError(
                    f"snapshot {snapshot_id}: manifest does not cover "
                    f"journal {name!r}"
                )
        if META_NAME not in entries:
            raise SnapshotError(
                f"snapshot {snapshot_id}: manifest does not cover "
                f"{META_NAME!r}"
            )
        base = self.snapshot_dir(snapshot_id)
        for name, record in sorted(entries.items()):
            path = os.path.join(base, name)
            try:
                with open(path, "rb") as fh:
                    blob = fh.read()
            except OSError as exc:
                raise SnapshotError(
                    f"snapshot {snapshot_id}: cannot read manifested "
                    f"file {name!r}: {exc}"
                )
            if len(blob) != record["bytes"]:
                raise SnapshotError(
                    f"snapshot {snapshot_id}: file {name!r} is "
                    f"{len(blob)} bytes, manifest says "
                    f"{record['bytes']} (truncated or overwritten)"
                )
            if _crc(blob) != record["crc32"]:
                raise SnapshotError(
                    f"snapshot {snapshot_id}: file {name!r} fails its "
                    "CRC32 check (corrupt)"
                )

    def mark_complete(self, snapshot_id: int) -> None:
        path = os.path.join(self.snapshot_dir(snapshot_id), COMPLETE_NAME)
        with open(path, "wb"):
            pass

    def is_complete(self, snapshot_id: int) -> bool:
        return os.path.exists(
            os.path.join(self.snapshot_dir(snapshot_id), COMPLETE_NAME)
        )

    def snapshot_ids(self) -> List[int]:
        """Every snapshot directory present, complete or not."""
        base = os.path.join(self.root, "snapshot")
        try:
            names = os.listdir(base)
        except OSError:
            return []
        ids = []
        for name in names:
            try:
                ids.append(int(name))
            except ValueError:
                continue
        return sorted(ids)

    def latest(self) -> Optional[int]:
        """Highest *complete* snapshot id, or ``None``."""
        complete = [s for s in self.snapshot_ids() if self.is_complete(s)]
        return max(complete) if complete else None


class SnapshotCadence:
    """Decides when the next snapshot is due.

    ``every=N`` (int): every N barriers — sweeps for the chromatic
    engine, rounds for the locking engine. ``every="auto"``: wall-clock
    cadence from Young's interval (Eq. 3), with the *measured* cost of
    the last snapshot as the checkpoint-time estimate — the paper's own
    cadence rule, applied to real seconds. The engine baseline snapshot
    (taken right after launch) provides the first measurement.
    """

    def __init__(self, every: Any, num_workers: int) -> None:
        if every == "auto":
            self.mode = "auto"
            self.every = None
        elif isinstance(every, int) and not isinstance(every, bool) and every >= 1:
            self.mode = "count"
            self.every = every
        else:
            raise SnapshotError(
                "snapshot_every must be a positive int (barriers) or "
                f"'auto', got {every!r}"
            )
        self.num_workers = num_workers
        self._last_counter = 0
        self._last_time: Optional[float] = None
        self._interval: Optional[float] = None

    def due(self, counter: int, now: float) -> bool:
        if self.mode == "count":
            return counter - self._last_counter >= self.every
        if self._last_time is None or self._interval is None:
            return False
        return now - self._last_time >= self._interval

    def mark(
        self, counter: int, now: float, cost: Optional[float] = None
    ) -> None:
        """Record that a snapshot finished (or that the clock re-anchors
        after a recovery). ``cost`` feeds the auto interval."""
        self._last_counter = counter
        self._last_time = now
        if self.mode == "auto" and cost is not None:
            self._interval = suggested_interval(
                self.num_workers,
                checkpoint_seconds=max(cost, 1e-3),
            )


class CheckpointManager:
    """Coordinator side of runtime snapshots: numbered snapshots in a
    :class:`SnapshotDirectory`, id allocation that never reuses a
    partially-written directory, manifest/CRC integrity on every write,
    and the verified read-back for recovery (newest snapshot that
    passes :meth:`SnapshotDirectory.verify` wins; rejected ones are
    counted in ``snapshots_rejected``).

    Also the consumer of ``REPRO_FAULT`` entries with mode
    ``corrupt_snapshot``: ``worker:<snapshot_id>:corrupt_snapshot``
    overwrites that worker's journal with garbage right after snapshot
    ``<snapshot_id>`` completes — the disk-side twin of the transports'
    process faults, exercising exactly the fallback path above.
    """

    def __init__(self, root: Any, num_workers: int) -> None:
        self.dir = SnapshotDirectory(root)
        self.num_workers = num_workers
        existing = self.dir.snapshot_ids()
        self._next_id = max(existing) + 1 if existing else 0
        self.snapshots_taken = 0
        self.snapshots_rejected = 0
        self.bytes_written = 0
        # Imported here: transport imports worker imports this module.
        from repro.runtime.transport import FAULT_ENV, parse_fault_plan

        self._corruption_plan: Dict[int, int] = {
            w: spec.when
            for w, spec in parse_fault_plan(os.environ.get(FAULT_ENV)).items()
            if spec.mode == "corrupt_snapshot"
            and isinstance(spec.when, int)
            and 0 <= w < num_workers
        }

    def _maybe_corrupt(self, snapshot_id: int) -> None:
        for worker_id, target in list(self._corruption_plan.items()):
            if target == snapshot_id:
                path = self.dir.journal_path(snapshot_id, worker_id)
                with open(path, "wb") as fh:
                    fh.write(_CORRUPT_BLOB)
                del self._corruption_plan[worker_id]

    def next_id(self) -> int:
        snapshot_id = self._next_id
        self._next_id += 1
        return snapshot_id

    def commit(
        self,
        snapshot_id: int,
        records: Sequence[Optional[Dict[str, int]]],
        meta: Dict[str, Any],
    ) -> int:
        """Make one snapshot recoverable; returns its bytes on disk.

        ``records[w]`` is the ``{"bytes", "crc32"}`` manifest record of
        worker ``w``'s journal, already on disk. Writes ``meta``, then
        the manifest covering every journal and ``meta``, then the
        ``COMPLETE`` marker — the only code that writes either — and
        counts the snapshot. A missing record means a journal never got
        written: :class:`SnapshotError`, and the snapshot stays partial.
        """
        if len(records) != self.num_workers or None in records:
            raise SnapshotError(
                f"snapshot {snapshot_id}: {len(records)} journal records "
                f"for {self.num_workers} workers, or one is missing"
            )
        # Rebuilt so the manifest pickle memoizes the key strings.
        entries: Dict[str, Dict[str, int]] = {
            os.path.basename(self.dir.journal_path(snapshot_id, w)): {
                "bytes": record["bytes"], "crc32": record["crc32"]
            }
            for w, record in enumerate(records)
        }
        entries[META_NAME] = self.dir.write_meta(snapshot_id, meta)
        total = sum(record["bytes"] for record in entries.values())
        total += self.dir.write_manifest(snapshot_id, entries)
        self.dir.mark_complete(snapshot_id)
        self._maybe_corrupt(snapshot_id)
        self.snapshots_taken += 1
        self.bytes_written += total
        return total

    def write(
        self,
        snapshot_id: int,
        journals: List[Dict[str, Any]],
        meta: Dict[str, Any],
    ) -> int:
        """Write coordinator-held journals, then :meth:`commit` them.
        Returns bytes written."""
        write = self.dir.write_journal
        records = [write(snapshot_id, w, j) for w, j in enumerate(journals)]
        return self.commit(snapshot_id, records, meta)

    def latest_state(
        self,
    ) -> Tuple[int, Dict[str, Any], List[Dict[str, Any]]]:
        """``(snapshot_id, meta, journals)`` of the newest complete
        snapshot that passes integrity verification.

        Complete snapshots are tried newest-first; one that fails
        :meth:`SnapshotDirectory.verify` (or whose files fail to load)
        is counted in ``snapshots_rejected`` and skipped — the fallback
        the baseline snapshot guarantees can't run dry unless every
        snapshot on disk is damaged, in which case a
        :class:`SnapshotError` lists what was rejected.
        """
        complete = [
            s for s in self.dir.snapshot_ids() if self.dir.is_complete(s)
        ]
        if not complete:
            raise SnapshotError("no complete snapshot to recover from")
        rejected: List[str] = []
        for snapshot_id in sorted(complete, reverse=True):
            try:
                self.dir.verify(snapshot_id, self.num_workers)
                meta = self.dir.read_meta(snapshot_id)
                journals = [
                    self.dir.read_journal(snapshot_id, worker_id)
                    for worker_id in range(self.num_workers)
                ]
            except SnapshotError as exc:
                self.snapshots_rejected += 1
                rejected.append(f"snapshot {snapshot_id}: {exc}")
                continue
            return snapshot_id, meta, journals
        raise SnapshotError(
            "every complete snapshot failed integrity verification:\n"
            + "\n".join(rejected)
        )
