"""Seeded chaos harness for the runtime (the PR 8 tentpole's court of
last resort).

Every test here builds a *randomized but reproducible* fault schedule —
``random.Random`` seeded from ``REPRO_CHAOS_SEED`` (default 1337) plus
the case index — injects it through the ``REPRO_FAULT`` grammar, and
runs a PageRank workload to completion. The verdict is binary:

* the run finishes and the answer matches a clean reference exactly
  (chromatic engine: bit-identity) or to fixed-point tolerance
  (locking engine), or
* the run raises a structured :class:`WorkerFailure`.

**Never a hang, never a silently wrong answer.** Anything else — a
different exception, a wrong result — fails the case with the seed and
the schedule echoed, so `REPRO_CHAOS_SEED=<seed> pytest <this test>`
replays it bit-for-bit (schedules only randomize the *fault plan*; the
workload itself is deterministic).

Coverage: 100 inproc schedules (25 cases x 2 engines x both SHM-plane
modes, the deterministic backends where every mode — kill, hang, stall,
corrupt_reply, crash_mid_snapshot, corrupt_snapshot — replays exactly),
mp smoke schedules under tight liveness deadlines, where hangs are real
SIGSTOPs and detection rides the heartbeat protocol, plus the PR 9
network pool: loopback-socket schedules drawing ``drop_conn`` /
``partition`` / ``reset_mid_frame`` / ``delay`` (and the wire-agnostic
``stall`` / ``corrupt_reply``) through the framed TCP layer, and
real-process TCP schedules mixing process kills with link faults.

When ``REPRO_CHAOS_ARTIFACTS`` names a directory (the CI chaos lane
sets it), every failing case dumps its schedule, its snapshot directory,
and — when telemetry was on — a Chrome trace there for upload.
"""

import os
import random
import shutil

import pytest

from repro.apps.pagerank import make_pagerank_update
from repro.datasets.webgraph import power_law_web_graph
from repro.obs import write_chrome_trace
from repro.runtime import (
    FAULT_ENV,
    LoopbackTcpTransport,
    MpTransport,
    RuntimeChromaticEngine,
    RuntimeLockingEngine,
    TcpTransport,
    UpdateProgram,
    WorkerFailure,
)

#: Base seed for every schedule; override to replay a CI failure.
BASE_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1337"))
#: When set (CI chaos lane), failing cases dump schedule + snapshot dir
#: + Chrome trace here.
ARTIFACTS = os.environ.get("REPRO_CHAOS_ARTIFACTS")

#: Kill-biased mode pool: kills are the paper's headline failure and
#: exercise respawn + rollback; the rarer modes each pin one corner of
#: the liveness/integrity layer.
MODES = ["kill"] * 4 + [
    "hang",
    "stall",
    "corrupt_reply",
    "crash_mid_snapshot",
    "corrupt_snapshot",
]

#: Network pool for the socket backends (PR 9): link drops dominate;
#: partitions draw 1–6 eaten reconnect attempts so schedules land on
#: both sides of the retry budget (transparent heal vs. structured
#: failure + rollback); stall/corrupt_reply ride along because they are
#: wire-agnostic and keep heartbeats/integrity honest over frames.
NETWORK_POOL = ["drop_conn"] * 3 + [
    "partition",
    "partition",
    "reset_mid_frame",
    "delay",
    "stall",
    "corrupt_reply",
]

PAGERANK = UpdateProgram(
    make_pagerank_update, kwargs={"schedule": "out", "epsilon": 1e-4}
)


@pytest.fixture(autouse=True)
def _clear_fault_env(monkeypatch):
    monkeypatch.delenv(FAULT_ENV, raising=False)


def web():
    return power_law_web_graph(48, out_degree=3, seed=11)


def ranks(graph):
    return {v: graph.vertex_data(v) for v in graph.vertices()}


def make_schedule(rng):
    """One random 1–2 entry ``REPRO_FAULT`` schedule over workers 0/1."""
    workers = rng.sample([0, 1], k=rng.randint(1, 2))
    parts = []
    for w in workers:
        mode = rng.choice(MODES)
        if mode == "kill":
            when = "launch" if rng.random() < 0.1 else str(rng.randint(0, 8))
            parts.append(f"{w}:{when}")
        elif mode == "stall":
            seconds = round(rng.uniform(0.01, 0.05), 3)
            parts.append(f"{w}:{rng.randint(0, 8)}:stall={seconds}")
        elif mode == "corrupt_snapshot":
            # Never snapshot 0: garbling the baseline leaves nothing to
            # fall back to, which is a legitimate SnapshotError, not a
            # recoverable schedule (pinned by its own unit test).
            parts.append(f"{w}:{rng.randint(1, 3)}:corrupt_snapshot")
        else:
            parts.append(f"{w}:{rng.randint(0, 8)}:{mode}")
    return ",".join(parts)


def make_network_schedule(rng):
    """One random 1–2 entry schedule drawn from the network pool."""
    workers = rng.sample([0, 1], k=rng.randint(1, 2))
    parts = []
    for w in workers:
        mode = rng.choice(NETWORK_POOL)
        when = rng.randint(0, 8)
        if mode == "partition":
            parts.append(f"{w}:{when}:partition={rng.randint(1, 6)}")
        elif mode == "delay":
            parts.append(f"{w}:{when}:delay={rng.randint(1, 30)}")
        elif mode == "stall":
            seconds = round(rng.uniform(0.01, 0.05), 3)
            parts.append(f"{w}:{when}:stall={seconds}")
        else:
            parts.append(f"{w}:{when}:{mode}")
    return ",".join(parts)


#: Clean-run references, computed once per (engine, use_plane) with no
#: fault schedule in the environment.
_REFERENCE = {}


def reference(engine_cls, use_plane):
    key = (engine_cls.__name__, use_plane)
    if key not in _REFERENCE:
        assert FAULT_ENV not in os.environ
        g = web()
        kw = dict(num_workers=2, transport="inproc", use_plane=use_plane)
        if engine_cls is RuntimeChromaticEngine:
            kw["max_sweeps"] = 100
        engine_cls(g, PAGERANK, **kw).run(initial=g.vertices())
        _REFERENCE[key] = ranks(g)
    return _REFERENCE[key]


def dump_artifacts(label, schedule, snapshot_dir, engine):
    if not ARTIFACTS:
        return
    dest = os.path.join(ARTIFACTS, label)
    os.makedirs(dest, exist_ok=True)
    with open(os.path.join(dest, "schedule.txt"), "w") as fh:
        fh.write(f"REPRO_CHAOS_SEED={BASE_SEED}\nschedule={schedule}\n")
    if snapshot_dir and os.path.isdir(snapshot_dir):
        shutil.copytree(
            snapshot_dir, os.path.join(dest, "snapshots"), dirs_exist_ok=True
        )
    collector = getattr(engine, "_collector", None)
    if collector is not None:
        try:
            telemetry = collector.finalize(
                engine.transport.clock_offsets, {"engine": "chaos"}
            )
            write_chrome_trace(
                telemetry, os.path.join(dest, "trace.json")
            )
        except Exception:
            pass  # best-effort: the schedule + snapshots still land


def run_case(engine_cls, exact, label, schedule, tmp_path, monkeypatch,
             transport="inproc", use_plane=True, snapshot_mode="sync"):
    """Run one schedule; the only acceptable outcomes are a verified
    answer or a structured WorkerFailure.

    ``transport`` may be a backend name or a zero-arg factory; a factory
    is called *after* ``REPRO_FAULT`` lands in the environment so socket
    transports pick the schedule up at construction."""
    ref = reference(engine_cls, use_plane if transport == "inproc" else True)
    monkeypatch.setenv(FAULT_ENV, schedule)
    if callable(transport):
        transport = transport()
    g = web()
    kw = dict(
        num_workers=2,
        transport=transport,
        snapshot_every=2,
        max_recoveries=4,
        recovery_backoff=0.0,
        snapshot_dir=str(tmp_path),
        telemetry=bool(ARTIFACTS),
    )
    if transport == "inproc":
        kw["use_plane"] = use_plane
    if engine_cls is RuntimeChromaticEngine:
        kw["max_sweeps"] = 100
    else:
        kw["snapshot_mode"] = snapshot_mode
    engine = engine_cls(g, PAGERANK, **kw)
    context = (
        f"REPRO_CHAOS_SEED={BASE_SEED} case={label} schedule={schedule!r}"
    )
    try:
        result = engine.run(initial=g.vertices())
    except WorkerFailure:
        return  # structured failure: an accepted chaos outcome
    except Exception as exc:
        dump_artifacts(label, schedule, str(tmp_path), engine)
        raise AssertionError(
            f"{context}: unexpected {type(exc).__name__}: {exc}"
        ) from exc
    got = ranks(g)
    try:
        if exact:
            assert got == ref, "chromatic answer not bit-identical"
        else:
            assert result.converged
            for v, rank in ref.items():
                assert got[v] == pytest.approx(rank, abs=1e-3)
    except AssertionError as exc:
        dump_artifacts(label, schedule, str(tmp_path), engine)
        raise AssertionError(f"{context}: {exc}") from exc


class TestChaosInproc:
    """100 seeded schedules on the deterministic backend: 25 cases x
    2 engines x both data-plane modes."""

    @pytest.mark.parametrize("use_plane", [True, False])
    @pytest.mark.parametrize("case", range(25))
    def test_chromatic(self, case, use_plane, tmp_path, monkeypatch):
        label = f"chromatic-{case}-plane{int(use_plane)}"
        rng = random.Random(f"{BASE_SEED}:{label}")
        run_case(
            RuntimeChromaticEngine, True, label, make_schedule(rng),
            tmp_path, monkeypatch, use_plane=use_plane,
        )

    @pytest.mark.parametrize("use_plane", [True, False])
    @pytest.mark.parametrize("case", range(25))
    def test_locking(self, case, use_plane, tmp_path, monkeypatch):
        label = f"locking-{case}-plane{int(use_plane)}"
        rng = random.Random(f"{BASE_SEED}:{label}")
        snapshot_mode = rng.choice(["sync", "async"])
        run_case(
            RuntimeLockingEngine, False, label, make_schedule(rng),
            tmp_path, monkeypatch, use_plane=use_plane,
            snapshot_mode=snapshot_mode,
        )


class TestChaosMp:
    """Real processes under tight liveness deadlines: hangs are real
    SIGSTOPs, detection rides the heartbeat protocol, and the run must
    still end in a verified answer or a structured failure — never a
    120-second pipe wait."""

    @pytest.mark.parametrize("case", range(4))
    def test_chromatic_mp(self, case, tmp_path, monkeypatch):
        label = f"mp-{case}"
        rng = random.Random(f"{BASE_SEED}:{label}")
        # Restrict to process-level modes; the wire/disk modes are
        # covered deterministically above.
        mode = rng.choice(["kill", "hang", "stall", "kill"])
        worker = rng.randint(0, 1)
        when = rng.randint(0, 6)
        if mode == "stall":
            schedule = f"{worker}:{when}:stall={round(rng.uniform(0.3, 0.8), 2)}"
        elif mode == "hang":
            schedule = f"{worker}:{when}:hang"
        else:
            schedule = f"{worker}:{when}"
        ref = reference(RuntimeChromaticEngine, True)
        monkeypatch.setenv(FAULT_ENV, schedule)
        transport = MpTransport(
            2,
            reply_timeout=60.0,
            heartbeat_interval=0.05,
            heartbeat_timeout=1.0,
        )
        g = web()
        engine = RuntimeChromaticEngine(
            g, PAGERANK, num_workers=2, transport=transport,
            max_sweeps=100, snapshot_every=2, max_recoveries=4,
            recovery_backoff=0.0, snapshot_dir=str(tmp_path),
            telemetry=bool(ARTIFACTS),
        )
        context = (
            f"REPRO_CHAOS_SEED={BASE_SEED} case={label} "
            f"schedule={schedule!r}"
        )
        try:
            engine.run(initial=g.vertices())
        except WorkerFailure:
            return
        except Exception as exc:
            dump_artifacts(label, schedule, str(tmp_path), engine)
            raise AssertionError(
                f"{context}: unexpected {type(exc).__name__}: {exc}"
            ) from exc
        try:
            assert ranks(g) == ref, "chromatic answer not bit-identical"
        except AssertionError as exc:
            dump_artifacts(label, schedule, str(tmp_path), engine)
            raise AssertionError(f"{context}: {exc}") from exc


class TestChaosTcpLoopback:
    """Network faults through the framed socket layer, on the
    thread-backed loopback double where every schedule replays exactly:
    drops and torn frames must heal inside the retry budget, partitions
    past it must surface as one structured WorkerFailure that the
    snapshot/recovery path in ``run()`` turns into a respawned,
    rolled-back, *verified* completion."""

    @staticmethod
    def _transport():
        return LoopbackTcpTransport(
            2,
            reply_timeout=60.0,
            heartbeat_interval=0.02,
            heartbeat_timeout=1.0,
            retry_budget=4,
        )

    @pytest.mark.parametrize("case", range(12))
    def test_chromatic(self, case, tmp_path, monkeypatch):
        label = f"tcp-chromatic-{case}"
        rng = random.Random(f"{BASE_SEED}:{label}")
        run_case(
            RuntimeChromaticEngine, True, label,
            make_network_schedule(rng), tmp_path, monkeypatch,
            transport=self._transport,
        )

    @pytest.mark.parametrize("case", range(12))
    def test_locking(self, case, tmp_path, monkeypatch):
        label = f"tcp-locking-{case}"
        rng = random.Random(f"{BASE_SEED}:{label}")
        snapshot_mode = rng.choice(["sync", "async"])
        run_case(
            RuntimeLockingEngine, False, label,
            make_network_schedule(rng), tmp_path, monkeypatch,
            transport=self._transport, snapshot_mode=snapshot_mode,
        )


class TestChaosTcpReal:
    """Real worker processes over localhost TCP: process kills and link
    faults drawn from one combined pool, under tight liveness deadlines
    so dead links and dead processes are both detected in test time."""

    POOL = ["kill", "hang", "drop_conn", "partition", "reset_mid_frame"]

    @pytest.mark.parametrize("case", range(4))
    def test_chromatic_tcp(self, case, tmp_path, monkeypatch):
        label = f"tcp-real-{case}"
        rng = random.Random(f"{BASE_SEED}:{label}")
        mode = rng.choice(self.POOL)
        worker = rng.randint(0, 1)
        when = rng.randint(0, 6)
        if mode == "kill":
            schedule = f"{worker}:{when}"
        elif mode == "partition":
            schedule = f"{worker}:{when}:partition={rng.randint(1, 6)}"
        else:
            schedule = f"{worker}:{when}:{mode}"
        run_case(
            RuntimeChromaticEngine, True, label, schedule,
            tmp_path, monkeypatch,
            transport=lambda: TcpTransport(
                2,
                reply_timeout=60.0,
                heartbeat_interval=0.05,
                heartbeat_timeout=1.0,
                retry_budget=4,
            ),
        )


class TestNoFaultControl:
    """The control arm: with snapshots on and *no* fault injected, a run
    must report zero recoveries and zero rejected snapshots at any size
    — a recovery nobody armed means liveness misread a healthy worker
    (ROADMAP open item 5(c): a multi-second GIL-holding journal pickle
    starved the heartbeat pump). ``recovery_causes`` carries the
    evidence when it fails."""

    @staticmethod
    def _control(graph, **kw):
        result = RuntimeChromaticEngine(
            graph,
            UpdateProgram(make_pagerank_update, kwargs={"schedule": "self"}),
            num_workers=2, transport="mp", **kw,
        ).run(initial=graph.vertices())
        assert result.extra["snapshots"] >= 2
        assert result.extra["recovery_causes"] == []
        assert result.extra["recoveries"] == 0
        assert result.extra["snapshots_rejected"] == 0

    def test_small(self):
        self._control(
            power_law_web_graph(48, out_degree=3, seed=11, typed=True),
            max_sweeps=8, snapshot_every=2,
        )

    @pytest.mark.chaos_large
    def test_fifty_thousand_vertices(self):
        self._control(
            power_law_web_graph(50_000, out_degree=8, seed=0, typed=True),
            max_sweeps=30, snapshot_every=4,
        )


def test_schedule_generator_is_reproducible():
    """Same seed, same schedules — the property the failure-replay
    instructions depend on."""
    first = [
        make_schedule(random.Random(f"{BASE_SEED}:{i}")) for i in range(25)
    ]
    second = [
        make_schedule(random.Random(f"{BASE_SEED}:{i}")) for i in range(25)
    ]
    assert first == second


def test_harness_covers_at_least_100_schedules():
    """The acceptance bar: >=100 seeded fault schedules across engines,
    transports, and SHM modes, drawn from the combined process +
    network pools."""
    inproc = 25 * 2 * 2  # cases x engines x plane modes
    mp = 4
    tcp_loopback = 12 * 2  # network-pool cases x engines
    tcp_real = 4
    assert inproc + mp + tcp_loopback + tcp_real >= 100
