"""Snapshots and crash/recover equivalence on the runtime engines.

The fault-tolerance contract (paper Sec. 4.3, PR 6):

* **Chromatic**: snapshots are taken at sweep barriers, where execution
  is deterministic — a run that loses a worker mid-flight and recovers
  from the last snapshot finishes **bit-identical** to an unkilled run.
* **Locking**: execution is only conflict-serializable, so the promise
  after recovery is **fixed-point equivalence** with the sequential
  oracle, for both the synchronous (drain-to-quiescence) snapshot and
  the asynchronous Chandy–Lamport snapshot of Alg. 5.
* Recovery happens inside ``run()`` — no coordinator restart — and the
  respawned cluster keeps going through *further* failures up to
  ``max_recoveries``.

Both ``use_plane`` settings run, pinning the shm and the pipe wire
(``REPRO_NO_SHM`` CI lane re-runs the whole file without shm anyway).
"""

import os
import pickle

import numpy as np
import pytest

from repro.apps.pagerank import make_pagerank_update
from repro.datasets.webgraph import power_law_web_graph
from repro.errors import SnapshotError, EngineError
from repro.runtime import (
    CheckpointManager,
    InprocTransport,
    LoopbackTcpTransport,
    RuntimeChromaticEngine,
    RuntimeLockingEngine,
    SnapshotCadence,
    SnapshotDirectory,
    UpdateProgram,
    WorkerFailure,
    make_transport,
)
from repro.runtime.shard import (
    JOURNAL_FORMAT,
    FlatEntries,
    gather_entries,
    make_journal,
)
from repro.runtime.transport import FAULT_ENV

from tests.helpers import grid_graph


@pytest.fixture(autouse=True)
def _clear_fault_env(monkeypatch):
    """Every kill here is scheduled explicitly; an ambient REPRO_FAULT
    (the CI fault lane sets one job-wide) must not add extras."""
    monkeypatch.delenv(FAULT_ENV, raising=False)


def flood_max(scope):
    best = scope.data
    for u in scope.neighbors:
        best = max(best, scope.neighbor(u))
    if best != scope.data:
        scope.data = best
        return [(u, best) for u in scope.neighbors]


PAGERANK = UpdateProgram(
    make_pagerank_update, kwargs={"schedule": "out", "epsilon": 1e-4}
)


def web(n=60, typed=False):
    return power_law_web_graph(n, out_degree=3, seed=11, typed=typed)


def slot_journal(index, value, version=1):
    """A one-vertex slot-form journal (float64 typed columns)."""
    v_index = np.array([index], dtype=np.int64)
    return make_journal(
        gather_entries(
            np.full(index + 1, value),
            np.empty(0),
            v_index,
            np.empty(0, dtype=np.int64),
            np.full(index + 1, version),
            np.empty(0, dtype=np.int64),
        )
    )


def old_format_journal(vid, value):
    """What the pre-slot-form runtime wrote: one dict entry per key."""
    return {
        "vdata": {vid: value},
        "edata": {},
        "versions": {("v", vid): 1},
        "counts": {},
    }


def _bytes_on_disk(root):
    """Total size of every file under a snapshot root."""
    return sum(
        os.path.getsize(os.path.join(base, name))
        for base, _dirs, names in os.walk(root)
        for name in names
    )


def ranks(graph):
    return {v: graph.vertex_data(v) for v in graph.vertices()}


def clean_chromatic(transport="inproc", **kw):
    g = web()
    result = RuntimeChromaticEngine(
        g, PAGERANK, num_workers=2, transport=transport,
        max_sweeps=100, **kw,
    ).run(initial=g.vertices())
    return ranks(g), result


class TestChromaticCrashRecover:
    """Bit-identity through kill + respawn + rollback."""

    @pytest.mark.parametrize("kill_round", [0, 1, 5, 9])
    @pytest.mark.parametrize("use_plane", [True, False])
    def test_inproc_bit_identical(self, kill_round, use_plane):
        clean, _ = clean_chromatic(use_plane=use_plane)
        g = web()
        engine = RuntimeChromaticEngine(
            g, PAGERANK, num_workers=2, transport="inproc",
            max_sweeps=100, use_plane=use_plane,
            snapshot_every=2, recovery_backoff=0.0,
        )
        engine.transport.schedule_kill(1, kill_round)
        result = engine.run(initial=g.vertices())
        assert result.extra["recoveries"] == 1
        assert result.extra["snapshots"] >= 1
        assert ranks(g) == clean

    def test_mp_bit_identical(self):
        clean, _ = clean_chromatic(transport="mp")
        g = web()
        engine = RuntimeChromaticEngine(
            g, PAGERANK, num_workers=2, transport="mp",
            max_sweeps=100, snapshot_every=2, recovery_backoff=0.0,
        )
        engine.transport.schedule_kill(0, 4)
        result = engine.run(initial=g.vertices())
        assert result.extra["recoveries"] == 1
        assert ranks(g) == clean

    def test_two_failures_two_recoveries(self):
        clean, _ = clean_chromatic()
        g = web()
        engine = RuntimeChromaticEngine(
            g, PAGERANK, num_workers=2, transport="inproc",
            max_sweeps=100, snapshot_every=2, recovery_backoff=0.0,
        )
        engine.transport.schedule_kill(1, 3)
        engine.transport.schedule_kill(0, 9)
        result = engine.run(initial=g.vertices())
        assert result.extra["recoveries"] == 2
        assert ranks(g) == clean

    def test_max_recoveries_exceeded(self):
        g = web()
        engine = RuntimeChromaticEngine(
            g, PAGERANK, num_workers=2, transport="inproc",
            max_sweeps=100, snapshot_every=2,
            max_recoveries=1, recovery_backoff=0.0,
        )
        engine.transport.schedule_kill(1, 3)
        engine.transport.schedule_kill(0, 7)
        with pytest.raises(WorkerFailure):
            engine.run(initial=g.vertices())

    def test_no_snapshots_means_no_recovery(self):
        g = web()
        engine = RuntimeChromaticEngine(
            g, PAGERANK, num_workers=2, transport="inproc", max_sweeps=100
        )
        engine.transport.schedule_kill(1, 3)
        with pytest.raises(WorkerFailure):
            engine.run(initial=g.vertices())

    def test_snapshots_persist_to_user_dir(self, tmp_path):
        g = web()
        result = RuntimeChromaticEngine(
            g, PAGERANK, num_workers=2, transport="inproc",
            max_sweeps=100, snapshot_every=2,
            snapshot_dir=str(tmp_path),
        ).run(initial=g.vertices())
        directory = SnapshotDirectory(str(tmp_path))
        assert directory.latest() is not None
        meta = directory.read_meta(directory.latest())
        assert meta["engine"] == "chromatic"
        assert result.extra["snapshot_bytes"] > 0

    def test_typed_kernel_graph_recovers(self):
        """Kill + recover on a typed-column graph (kernel fast path)."""
        g1 = web()
        RuntimeChromaticEngine(
            g1, PAGERANK, num_workers=2, transport="inproc",
            max_sweeps=40,
        ).run(initial=g1.vertices())
        g2 = web()
        engine = RuntimeChromaticEngine(
            g2, PAGERANK, num_workers=2, transport="inproc",
            max_sweeps=40, snapshot_every=3, recovery_backoff=0.0,
        )
        engine.transport.schedule_kill(0, 6)
        result = engine.run(initial=g2.vertices())
        assert result.extra["recoveries"] == 1
        assert ranks(g2) == ranks(g1)


class TestLockingCrashRecover:
    """Fixed-point equivalence through kill + respawn + rollback."""

    def _clean(self):
        g = web()
        RuntimeLockingEngine(
            g, PAGERANK, num_workers=2, transport="inproc",
        ).run(initial=g.vertices())
        return ranks(g)

    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize("use_plane", [True, False])
    def test_inproc_fixed_point(self, mode, use_plane):
        clean = self._clean()
        g = web()
        engine = RuntimeLockingEngine(
            g, PAGERANK, num_workers=2, transport="inproc",
            use_plane=use_plane, snapshot_every=3,
            snapshot_mode=mode, recovery_backoff=0.0,
        )
        engine.transport.schedule_kill(1, 6)
        result = engine.run(initial=g.vertices())
        assert result.converged
        assert result.extra["recoveries"] == 1
        got = ranks(g)
        for v, rank in clean.items():
            assert got[v] == pytest.approx(rank, abs=1e-3)

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_mp_fixed_point(self, mode):
        clean = self._clean()
        g = web()
        engine = RuntimeLockingEngine(
            g, PAGERANK, num_workers=2, transport="mp",
            snapshot_every=3, snapshot_mode=mode, recovery_backoff=0.0,
        )
        engine.transport.schedule_kill(0, 6)
        result = engine.run(initial=g.vertices())
        assert result.converged
        assert result.extra["recoveries"] == 1
        got = ranks(g)
        for v, rank in clean.items():
            assert got[v] == pytest.approx(rank, abs=1e-3)

    def test_kill_at_round_zero_recovers_from_baseline(self):
        clean = self._clean()
        g = web()
        engine = RuntimeLockingEngine(
            g, PAGERANK, num_workers=2, transport="inproc",
            snapshot_every=1000, recovery_backoff=0.0,
        )
        engine.transport.schedule_kill(1, 0)
        result = engine.run(initial=g.vertices())
        # Only the baseline snapshot existed; the whole run replays.
        assert result.converged
        assert result.extra["recoveries"] == 1
        got = ranks(g)
        for v, rank in clean.items():
            assert got[v] == pytest.approx(rank, abs=1e-3)

    def test_async_snapshot_covers_whole_graph(self, tmp_path):
        """The Chandy–Lamport cut journals every vertex and edge."""
        g = web()
        engine = RuntimeLockingEngine(
            g, PAGERANK, num_workers=3, transport="inproc",
            snapshot_every=2, snapshot_mode="async",
            snapshot_dir=str(tmp_path),
        )
        engine.run(initial=g.vertices())
        directory = SnapshotDirectory(str(tmp_path))
        latest = directory.latest()
        assert latest is not None
        journals = [directory.read_journal(latest, w) for w in range(3)]
        # Every vertex and every edge exactly once across the journals.
        csr = g.compiled
        v_index = np.concatenate([j["state"].v_index for j in journals])
        e_slot = np.concatenate([j["state"].e_slot for j in journals])
        assert sorted(v_index.tolist()) == list(range(len(csr.vertex_ids)))
        assert sorted(e_slot.tolist()) == list(range(len(csr.edge_keys)))
        owner = engine.owner
        for w, journal in enumerate(journals):
            state = journal["state"]
            assert all(owner[csr.vertex_ids[i]] == w for i in state.v_index)
            assert all(
                owner[csr.edge_keys[s][0]] == w for s in state.e_slot
            )
            # The async task set is every owned vertex at priority 0.
            assert sorted(journal["sched"][0].tolist()) == sorted(
                state.v_index.tolist()
            )
        # Async snapshots exist alongside the sync baseline.
        metas = [
            directory.read_meta(s)
            for s in directory.snapshot_ids()
            if directory.is_complete(s)
        ]
        assert any(m["mode"] == "async" for m in metas)

    def test_bad_snapshot_mode_rejected(self):
        with pytest.raises(EngineError):
            RuntimeLockingEngine(
                grid_graph(2, 2), flood_max, num_workers=1,
                transport="inproc", snapshot_mode="lazy",
            )


class TestCheckpointManager:
    def test_write_read_roundtrip(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), 2)
        journals = [slot_journal(0, 1.0, 3), slot_journal(1, 2.0, 4)]
        sid = manager.next_id()
        manager.write(sid, journals, {"engine": "test", "rounds": 7})
        got_sid, meta, got = manager.latest_state()
        assert got_sid == sid
        assert meta["rounds"] == 7
        for want, have in zip(journals, got):
            assert have["format"] == JOURNAL_FORMAT
            for name in FlatEntries.__slots__:
                a = getattr(want["state"], name)
                b = getattr(have["state"], name)
                assert a.dtype == b.dtype and np.array_equal(a, b)
            for a, b in zip(want["counts"], have["counts"]):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        # Across journals: each slot once, value and version intact.
        assert [j["state"].v_index.tolist() for j in got] == [[0], [1]]
        assert [j["state"].v_value.tolist() for j in got] == [[1.0], [2.0]]
        assert [j["state"].v_version.tolist() for j in got] == [[3], [4]]

    def test_incomplete_snapshot_is_not_a_recovery_point(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), 1)
        sid = manager.next_id()
        manager.dir.write_journal(sid, 0, {"vdata": {}})
        with pytest.raises(SnapshotError):
            manager.latest_state()

    def test_commit_requires_every_worker_record(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), 2)
        sid = manager.next_id()
        record = manager.dir.write_journal(sid, 0, slot_journal(0, 1.0))
        for records in ([record], [record, None]):
            with pytest.raises(SnapshotError) as info:
                manager.commit(sid, records, {})
            assert f"snapshot {sid}" in str(info.value)
        assert not manager.dir.is_complete(sid)
        assert manager.snapshots_taken == 0 and manager.bytes_written == 0

    def test_ids_never_reuse_partial_directories(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), 1)
        sid = manager.next_id()
        manager.dir.write_journal(sid, 0, {"vdata": {}})
        fresh = CheckpointManager(str(tmp_path), 1)
        assert fresh.next_id() == sid + 1


class TestSnapshotIntegrity:
    """Tentpole: per-file CRCs + manifest; load-time verification
    rejects corrupt/truncated snapshots and falls back to the previous
    valid one."""

    def _write_one(self, manager, value=1.0):
        journals = [slot_journal(0, value), slot_journal(1, value)]
        sid = manager.next_id()
        manager.write(sid, journals, {"engine": "test", "value": value})
        return sid

    def test_manifest_written_and_verifies(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), 2)
        sid = self._write_one(manager)
        entries = manager.dir.read_manifest(sid)
        assert set(entries) == {"machine-0", "machine-1", "meta"}
        for record in entries.values():
            assert record["bytes"] > 0
            assert 0 <= record["crc32"] <= 0xFFFFFFFF
        manager.dir.verify(sid, 2)  # does not raise

    def test_atomic_writes_leave_no_tmp_files(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), 2)
        sid = self._write_one(manager)
        leftovers = [
            name
            for name in os.listdir(manager.dir.snapshot_dir(sid))
            if name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_corrupt_journal_rejected_with_filename(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), 2)
        sid = self._write_one(manager)
        path = manager.dir.journal_path(sid, 1)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:  # flip one byte, same size
            fh.write(blob[:-1] + bytes([blob[-1] ^ 0xFF]))
        with pytest.raises(SnapshotError) as info:
            manager.dir.verify(sid, 2)
        assert "machine-1" in str(info.value)
        assert "CRC32" in str(info.value)

    def test_truncated_journal_rejected(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), 2)
        sid = self._write_one(manager)
        path = manager.dir.journal_path(sid, 0)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        with pytest.raises(SnapshotError) as info:
            manager.dir.verify(sid, 2)
        assert "machine-0" in str(info.value)
        assert "truncated" in str(info.value)

    def test_missing_manifest_rejected(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), 2)
        sid = self._write_one(manager)
        os.remove(
            os.path.join(manager.dir.snapshot_dir(sid), "MANIFEST")
        )
        with pytest.raises(SnapshotError):
            manager.dir.verify(sid, 2)

    def test_latest_state_falls_back_to_previous_valid(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), 2)
        good = self._write_one(manager, value=1.0)
        bad = self._write_one(manager, value=2.0)
        path = manager.dir.journal_path(bad, 0)
        with open(path, "wb") as fh:
            fh.write(b"garbage")
        sid, meta, journals = manager.latest_state()
        assert sid == good
        assert meta["value"] == 1.0
        assert manager.snapshots_rejected == 1

    def test_all_snapshots_damaged_raises_with_list(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), 1)
        sid = manager.next_id()
        manager.write(sid, [{"vdata": {}}], {})
        with open(manager.dir.journal_path(sid, 0), "wb") as fh:
            fh.write(b"garbage")
        with pytest.raises(SnapshotError) as info:
            manager.latest_state()
        assert "failed integrity verification" in str(info.value)
        assert f"snapshot {sid}" in str(info.value)

    def test_old_format_directory_rejected_by_name(self, tmp_path):
        """A directory in the pre-slot-form dict format passes its own
        manifest but is rejected at load, through the fallback."""
        manager = CheckpointManager(str(tmp_path), 2)
        good = self._write_one(manager, value=1.0)
        old = manager.next_id()
        manager.write(
            old,
            [old_format_journal(0, 2.0), old_format_journal(1, 2.0)],
            {"engine": "test", "value": 2.0},
        )
        manager.dir.verify(old, 2)  # bytes are intact; the format is not
        with pytest.raises(SnapshotError) as info:
            manager.dir.read_journal(old, 0)
        assert "machine-0" in str(info.value)
        assert "format" in str(info.value)
        sid, meta, _journals = manager.latest_state()
        assert sid == good and meta["value"] == 1.0
        assert manager.snapshots_rejected == 1

    @pytest.mark.parametrize("damage", ["truncated", "no_counts", "no_state"])
    def test_malformed_journal_that_passes_its_crc_rejected(
        self, tmp_path, damage
    ):
        manager = CheckpointManager(str(tmp_path), 2)
        good = self._write_one(manager, value=1.0)
        bad = slot_journal(1, 2.0)
        if damage == "truncated":
            bad["state"].v_value = bad["state"].v_value[:0]
        elif damage == "no_counts":
            del bad["counts"]
        else:
            del bad["state"]
        sid = manager.next_id()
        manager.write(sid, [slot_journal(0, 2.0), bad], {"value": 2.0})
        manager.dir.verify(sid, 2)
        with pytest.raises(SnapshotError) as info:
            manager.dir.read_journal(sid, 1)
        assert "machine-1" in str(info.value)
        got, meta, _journals = manager.latest_state()
        assert got == good and meta["value"] == 1.0
        assert manager.snapshots_rejected == 1

    def test_commit_builds_manifest_from_worker_records(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), 2)
        sid = manager.next_id()
        records = [
            manager.dir.write_journal(sid, w, slot_journal(w, float(w)))
            for w in range(2)
        ]
        total = manager.commit(sid, records, {"engine": "test"})
        manager.dir.verify(sid, 2)
        entries = manager.dir.read_manifest(sid)
        assert [entries[f"machine-{w}"] for w in range(2)] == records
        assert total == manager.bytes_written == _bytes_on_disk(tmp_path)
        got_sid, _meta, _journals = manager.latest_state()
        assert got_sid == sid

    def test_env_knob_corrupts_scheduled_snapshot(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FAULT_ENV, "1:1:corrupt_snapshot")
        manager = CheckpointManager(str(tmp_path), 2)
        first = self._write_one(manager, value=1.0)
        second = self._write_one(manager, value=2.0)
        assert second == 1
        with pytest.raises(SnapshotError):
            manager.dir.verify(second, 2)
        sid, meta, _ = manager.latest_state()
        assert sid == first
        assert manager.snapshots_rejected == 1



class TestResumeFromDisk:
    """Tentpole: ``run(resume_from=...)`` cold-restarts a crashed run
    from its snapshot directory, rejecting damaged snapshots on the
    way."""

    def _crashed_run(self, tmp_path):
        g = web()
        engine = RuntimeChromaticEngine(
            g, PAGERANK, num_workers=2, transport="inproc",
            max_sweeps=100, snapshot_every=1,
            snapshot_dir=str(tmp_path), max_recoveries=0,
        )
        engine.transport.schedule_kill(1, 6)
        with pytest.raises(WorkerFailure):
            engine.run(initial=g.vertices())

    def test_chromatic_resume_bit_identical(self, tmp_path):
        clean, _ = clean_chromatic()
        self._crashed_run(tmp_path)
        g = web()
        result = RuntimeChromaticEngine(
            g, PAGERANK, num_workers=2, transport="inproc",
            max_sweeps=100, snapshot_every=1,
        ).run(initial=g.vertices(), resume_from=str(tmp_path))
        assert result.converged
        assert result.extra["resume_seconds"] >= 0.0
        assert ranks(g) == clean

    def test_resume_rejects_corrupt_then_falls_back(self, tmp_path):
        clean, _ = clean_chromatic()
        self._crashed_run(tmp_path)
        directory = SnapshotDirectory(str(tmp_path))
        newest = directory.latest()
        assert newest is not None and newest >= 1
        with open(directory.journal_path(newest, 0), "wb") as fh:
            fh.write(b"repro-corrupt-snapshot")
        g = web()
        result = RuntimeChromaticEngine(
            g, PAGERANK, num_workers=2, transport="inproc",
            max_sweeps=100, snapshot_every=1,
        ).run(initial=g.vertices(), resume_from=str(tmp_path))
        assert result.converged
        assert result.extra["snapshots_rejected"] >= 1
        assert ranks(g) == clean

    def test_resume_rejects_old_format_snapshot_then_falls_back(
        self, tmp_path
    ):
        """A newest snapshot in the old dict format is a rejected
        snapshot (counted, named), never a KeyError in a worker."""
        clean, _ = clean_chromatic()
        self._crashed_run(tmp_path)
        manager = CheckpointManager(str(tmp_path), 2)
        newest = manager.dir.latest()
        manager.write(
            manager.next_id(),
            [old_format_journal(0, 9.0), old_format_journal(1, 9.0)],
            manager.dir.read_meta(newest),
        )
        g = web()
        result = RuntimeChromaticEngine(
            g, PAGERANK, num_workers=2, transport="inproc",
            max_sweeps=100, snapshot_every=1,
        ).run(initial=g.vertices(), resume_from=str(tmp_path))
        assert result.converged
        assert result.extra["snapshots_rejected"] == 1
        assert ranks(g) == clean

    def test_chromatic_resume_ignores_unread_meta_keys(self, tmp_path):
        """A newest snapshot whose meta carries a progress field the
        engine does not read (``rounds_saved``, as older chromatic
        snapshots recorded) still restores."""
        clean, _ = clean_chromatic()
        self._crashed_run(tmp_path)
        manager = CheckpointManager(str(tmp_path), 2)
        _newest, meta, journals = manager.latest_state()
        manager.write(
            manager.next_id(), journals, {**meta, "rounds_saved": 3}
        )
        g = web()
        result = RuntimeChromaticEngine(
            g, PAGERANK, num_workers=2, transport="inproc",
            max_sweeps=100, snapshot_every=1,
        ).run(initial=g.vertices(), resume_from=str(tmp_path))
        assert result.converged
        assert result.extra["snapshots_rejected"] == 0
        assert ranks(g) == clean

    def test_locking_resume_fixed_point(self, tmp_path):
        """Resume from a mid-run synchronous snapshot: the first one is
        on disk by transport round 20 (drain rounds included), so the
        kill at round 25 leaves snapshot 1 — not just the launch
        baseline — to resume from."""
        g_clean = web()
        RuntimeLockingEngine(
            g_clean, PAGERANK, num_workers=2, transport="inproc",
        ).run(initial=g_clean.vertices())
        clean = ranks(g_clean)
        g = web()
        engine = RuntimeLockingEngine(
            g, PAGERANK, num_workers=2, transport="inproc",
            snapshot_every=3, snapshot_dir=str(tmp_path),
            max_recoveries=0,
        )
        engine.transport.schedule_kill(1, 25)
        with pytest.raises(WorkerFailure):
            engine.run(initial=g.vertices())
        newest, _meta, _journals = CheckpointManager(
            str(tmp_path), 2
        ).latest_state()
        assert newest >= 1
        g2 = web()
        result = RuntimeLockingEngine(
            g2, PAGERANK, num_workers=2, transport="inproc",
            snapshot_every=3,
        ).run(initial=g2.vertices(), resume_from=str(tmp_path))
        assert result.converged
        assert result.extra["resume_seconds"] >= 0.0
        got = ranks(g2)
        for v, rank in clean.items():
            assert got[v] == pytest.approx(rank, abs=1e-3)

    def test_resume_requires_snapshots(self, tmp_path):
        g = web()
        engine = RuntimeChromaticEngine(
            g, PAGERANK, num_workers=2, transport="inproc",
        )
        with pytest.raises(EngineError):
            engine.run(initial=g.vertices(), resume_from=str(tmp_path))

    def test_resume_from_empty_dir_raises(self, tmp_path):
        g = web()
        engine = RuntimeChromaticEngine(
            g, PAGERANK, num_workers=2, transport="inproc",
            snapshot_every=2,
        )
        with pytest.raises(SnapshotError):
            engine.run(initial=g.vertices(), resume_from=str(tmp_path))


class TestAsyncSnapshotNoShm:
    """Satellite: recovery with ``snapshot_mode="async"`` combined with
    the pickled wire (``use_plane=False`` inproc, ``REPRO_NO_SHM=1``
    mp) — the corner the CI lanes previously only covered separately."""

    def test_inproc_async_no_plane_recovers(self):
        g_clean = web()
        RuntimeLockingEngine(
            g_clean, PAGERANK, num_workers=2, transport="inproc",
            use_plane=False,
        ).run(initial=g_clean.vertices())
        clean = ranks(g_clean)
        g = web()
        engine = RuntimeLockingEngine(
            g, PAGERANK, num_workers=2, transport="inproc",
            use_plane=False, snapshot_every=3, snapshot_mode="async",
            recovery_backoff=0.0,
        )
        engine.transport.schedule_kill(1, 6)
        result = engine.run(initial=g.vertices())
        assert result.converged
        assert result.extra["recoveries"] == 1
        assert result.data_plane is None
        got = ranks(g)
        for v, rank in clean.items():
            assert got[v] == pytest.approx(rank, abs=1e-3)

    def test_mp_async_no_shm_recovers(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_SHM", "1")
        g_clean = web()
        RuntimeLockingEngine(
            g_clean, PAGERANK, num_workers=2, transport="inproc",
        ).run(initial=g_clean.vertices())
        clean = ranks(g_clean)
        g = web()
        engine = RuntimeLockingEngine(
            g, PAGERANK, num_workers=2, transport="mp",
            snapshot_every=3, snapshot_mode="async",
            recovery_backoff=0.0,
        )
        engine.transport.schedule_kill(0, 6)
        result = engine.run(initial=g.vertices())
        assert result.converged
        assert result.extra["recoveries"] == 1
        assert result.data_plane is None
        got = ranks(g)
        for v, rank in clean.items():
            assert got[v] == pytest.approx(rank, abs=1e-3)


@pytest.mark.parametrize("no_shm", [False, True])
@pytest.mark.parametrize("transport", ["inproc", "mp", "tcp-loopback"])
class TestRecoveryOnEveryWire:
    """Kill → recover on typed columns over every wire the slot-form
    journal crosses: plane-backed and pickled (``REPRO_NO_SHM``), pipe
    and socket frames."""

    @staticmethod
    def _shm(monkeypatch, no_shm):
        if no_shm:
            monkeypatch.setenv("REPRO_NO_SHM", "1")
        else:
            monkeypatch.delenv("REPRO_NO_SHM", raising=False)

    @staticmethod
    def _doomed(transport, worker, when):
        """A transport that loses ``worker`` for good at round ``when``:
        a process kill, or — the loopback double has no process to
        kill — a partition that outlasts its retry budget."""
        if transport != "tcp-loopback":
            link = make_transport(transport, 2)
            link.schedule_kill(worker, when)
            return link
        link = LoopbackTcpTransport(
            2, retry_budget=3, heartbeat_interval=0.02,
            heartbeat_timeout=1.0, reply_timeout=60.0,
        )
        link.schedule_fault(worker, when, mode="partition", arg=5)
        return link

    def test_chromatic_bit_identical(self, transport, no_shm, monkeypatch):
        self._shm(monkeypatch, no_shm)
        g_clean = web(typed=True)
        RuntimeChromaticEngine(
            g_clean, PAGERANK, num_workers=2, transport="inproc",
            max_sweeps=100,
        ).run(initial=g_clean.vertices())
        g = web(typed=True)
        result = RuntimeChromaticEngine(
            g, PAGERANK, num_workers=2,
            transport=self._doomed(transport, 1, 5),
            max_sweeps=100, snapshot_every=2, recovery_backoff=0.0,
        ).run(initial=g.vertices())
        assert result.extra["recoveries"] == 1
        assert result.extra["snapshots_rejected"] == 0
        (cause,) = result.extra["recovery_causes"]
        assert cause["worker"] == 1 and cause["last_command"] == "step"
        assert cause["phase"] in ("send", "reply") and cause["detail"]
        assert ranks(g) == ranks(g_clean)

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_locking_fixed_point(
        self, transport, no_shm, mode, monkeypatch
    ):
        self._shm(monkeypatch, no_shm)
        g_clean = web(typed=True)
        RuntimeLockingEngine(
            g_clean, PAGERANK, num_workers=2, transport="inproc",
        ).run(initial=g_clean.vertices())
        clean = ranks(g_clean)
        g = web(typed=True)
        result = RuntimeLockingEngine(
            g, PAGERANK, num_workers=2,
            transport=self._doomed(transport, 0, 6),
            snapshot_every=3, snapshot_mode=mode, recovery_backoff=0.0,
        ).run(initial=g.vertices())
        assert result.converged
        assert result.extra["recoveries"] == 1
        assert result.extra["snapshots_rejected"] == 0
        got = ranks(g)
        for v, rank in clean.items():
            assert got[v] == pytest.approx(rank, abs=1e-3)


class TestJournalSize:
    """The journal is slot arrays, not per-key objects — pinned by size
    and by type, never by time."""

    def test_typed_snapshot_bytes_per_slot_and_ndarray_fields(
        self, tmp_path
    ):
        g = web(400, typed=True)
        result = RuntimeChromaticEngine(
            g, PAGERANK, num_workers=2, transport="inproc",
            max_sweeps=6, snapshot_every=2, snapshot_dir=str(tmp_path),
        ).run(initial=g.vertices())
        snapshots = result.extra["snapshots"]
        assert snapshots >= 3  # the baseline + two sweep barriers
        slots = g.num_vertices + g.num_edges
        assert result.extra["snapshot_bytes"] <= snapshots * (
            32 * slots + 4096
        )
        directory = SnapshotDirectory(str(tmp_path))
        for sid in directory.snapshot_ids():
            for w in range(2):
                with open(directory.journal_path(sid, w), "rb") as fh:
                    journal = pickle.load(fh)
                state = journal["state"]
                fields = [
                    getattr(state, name) for name in FlatEntries.__slots__
                ]
                fields += list(journal["counts"])
                assert all(type(f) is np.ndarray for f in fields)
                assert all(f.dtype != object for f in fields)

    def test_recovery_free_run_reports_no_causes(self):
        g = web()
        result = RuntimeChromaticEngine(
            g, PAGERANK, num_workers=2, transport="inproc",
            max_sweeps=100, snapshot_every=2,
        ).run(initial=g.vertices())
        assert result.extra["recoveries"] == 0
        assert result.extra["recovery_causes"] == []


class TestSnapshotCadence:
    def test_count_mode(self):
        cadence = SnapshotCadence(3, 4)
        assert not cadence.due(2, 0.0)
        assert cadence.due(3, 0.0)
        cadence.mark(3, 0.0)
        assert not cadence.due(5, 100.0)
        assert cadence.due(6, 100.0)

    def test_auto_mode_needs_a_first_measurement(self):
        cadence = SnapshotCadence("auto", 64)
        assert not cadence.due(0, 0.0)
        cadence.mark(0, 0.0, cost=120.0)
        # Young's interval for 64 workers, 120 s checkpoints: ~3 h.
        assert not cadence.due(0, 3600.0)
        assert cadence.due(0, 4 * 3600.0)

    @pytest.mark.parametrize("bad", [0, -1, True, "often", 2.5])
    def test_rejects_bad_cadence(self, bad):
        with pytest.raises(SnapshotError):
            SnapshotCadence(bad, 2)


class _CountingTransport(InprocTransport):
    """Inproc transport that logs every completed round as ``(command,
    updates the replies report)`` — an update count independent of the
    engine's own bookkeeping."""

    def __init__(self, num_workers):
        super().__init__(num_workers)
        self.log = []

    def round(self, messages):
        replies = super().round(messages)
        updates = 0
        for reply in replies:
            if isinstance(reply, tuple):  # step / lstep: (half, body)
                body = reply[1]
                updates += (
                    body[0] if isinstance(body, tuple) else body["executed"]
                )
        self.log.append((messages[0][0], updates))
        return replies


def _counting_engine(engine_cls, **kw):
    g = web()
    transport = _CountingTransport(2)
    engine = engine_cls(
        g, PAGERANK, num_workers=2, transport=transport,
        snapshot_every=2, recovery_backoff=0.0, **kw,
    )
    return g, engine, transport


class TestLostUpdates:
    """Each recovery cause reports the updates the rollback discarded:
    the coordinator's total when the failure surfaced minus the restored
    snapshot's total."""

    ENGINES = [
        (RuntimeChromaticEngine, {"max_sweeps": 100}),
        (RuntimeLockingEngine, {"round_budget": 16}),
    ]

    @pytest.mark.parametrize("engine_cls,kw", ENGINES)
    def test_kill_after_first_snapshot_reports_updates_since_it(
        self, engine_cls, kw
    ):
        g, engine, clean = _counting_engine(engine_cls, **kw)
        engine.run(initial=g.vertices())
        tags = [tag for tag, _updates in clean.log]
        kill = tags.index("checkpoint") + 6
        # The snapshot restored is the last one committed before the
        # kill; every update after its checkpoint round is lost.
        last = kill - 1 - tags[:kill][::-1].index("checkpoint")
        expected = sum(updates for _tag, updates in clean.log[last + 1:kill])
        assert expected > 0
        g, engine, transport = _counting_engine(engine_cls, **kw)
        transport.schedule_kill(1, kill)
        result = engine.run(initial=g.vertices())
        assert result.extra["recoveries"] == 1
        assert transport.log[:kill] == clean.log[:kill]
        [cause] = result.extra["recovery_causes"]
        assert cause["lost_updates"] == expected

    @pytest.mark.parametrize("engine_cls,kw", ENGINES)
    def test_round_zero_kill_loses_nothing(self, engine_cls, kw):
        g, engine, transport = _counting_engine(engine_cls, **kw)
        transport.schedule_kill(0, 0)
        result = engine.run(initial=g.vertices())
        [cause] = result.extra["recovery_causes"]
        assert cause["lost_updates"] == 0


class TestWorkersWriteJournals:
    """Every journal is written by the worker that owns the data; the
    coordinator commits the records they reply with."""

    def test_sync_crash_mid_snapshot_leaves_partial_directory(
        self, tmp_path
    ):
        clean, _ = clean_chromatic()
        g = web()
        engine = RuntimeChromaticEngine(
            g, PAGERANK, num_workers=2, transport="mp", max_sweeps=100,
            snapshot_every=1, snapshot_dir=str(tmp_path),
            recovery_backoff=0.0,
        )
        engine.transport.schedule_fault(0, 0, mode="crash_mid_snapshot")
        result = engine.run(initial=g.vertices())
        assert ranks(g) == clean
        [cause] = result.extra["recovery_causes"]
        assert cause["last_command"] == "checkpoint"
        directory = SnapshotDirectory(str(tmp_path))
        # Snapshot 1 was the first checkpoint round: worker 1 wrote its
        # journal, worker 0 died first, so it never became complete.
        assert os.path.exists(directory.journal_path(1, 1))
        assert not os.path.exists(directory.journal_path(1, 0))
        assert not directory.is_complete(1)
        # Recovery fell back to the baseline: the updates of the first
        # sweep are what the rollback discarded.
        assert cause["lost_updates"] == g.num_vertices
        ids = directory.snapshot_ids()
        complete = [s for s in ids if directory.is_complete(s)]
        assert complete[0] == 0 and complete[1] == 2
        assert ids == list(range(len(ids)))
        assert CheckpointManager(str(tmp_path), 2).next_id() == len(ids)
        assert result.extra["snapshots"] == len(complete)

    @pytest.mark.parametrize(
        "engine_cls,kw",
        [
            (RuntimeChromaticEngine, {"max_sweeps": 100}),
            (RuntimeLockingEngine, {"snapshot_mode": "sync"}),
            (RuntimeLockingEngine, {"snapshot_mode": "async"}),
        ],
    )
    def test_snapshot_bytes_are_the_files_on_disk(
        self, tmp_path, engine_cls, kw
    ):
        g = web()
        result = engine_cls(
            g, PAGERANK, num_workers=2, transport="inproc",
            snapshot_every=2, snapshot_dir=str(tmp_path), **kw,
        ).run(initial=g.vertices())
        assert result.extra["snapshots"] >= 2
        assert result.extra["snapshot_bytes"] == _bytes_on_disk(tmp_path)

    @pytest.mark.parametrize(
        "engine_cls,kw",
        [
            (RuntimeChromaticEngine, {"max_sweeps": 2}),
            (RuntimeLockingEngine, {"max_rounds": 3, "round_budget": 8}),
        ],
    )
    @pytest.mark.parametrize("typed", [False, True])
    def test_worker_journal_matches_coordinator_write(
        self, tmp_path, engine_cls, kw, typed
    ):
        g = web(typed=typed)
        engine = engine_cls(
            g, PAGERANK, num_workers=2, transport="inproc", **kw
        )
        engine._begin(g.vertices())
        try:
            engine._launch()
            engine._run_loop()
            engine._quiesce()
            records = engine._send_round(
                "checkpoint", {"journal": (0, str(tmp_path / "worker"))}
            )
            by_worker = SnapshotDirectory(str(tmp_path / "worker"))
            by_coordinator = SnapshotDirectory(str(tmp_path / "coordinator"))
            for w, worker in enumerate(engine.transport._workers):
                # What the coordinator used to write: the worker's
                # journal, after a trip through the pipe's pickle.
                journal = pickle.loads(pickle.dumps(make_journal(
                    worker.store.checkpoint_payload(),
                    worker._counts,
                    worker._task_journal(),
                )))
                assert by_coordinator.write_journal(0, w, journal) == (
                    records[w]
                )
                with open(by_worker.journal_path(0, w), "rb") as fh:
                    mine = fh.read()
                with open(by_coordinator.journal_path(0, w), "rb") as fh:
                    assert fh.read() == mine
        finally:
            engine._teardown()
