"""The arithmetic of ``tools/bench_ab.py`` on synthetic records.

The tool's runs are a black box (git worktree + ``python3 -m bench``);
what it concludes from their records is pinned here: quartiles, pair
wins with ties counting for neither side, the metric rows with their
verdicts, and the exact-count comparison — and, with a fake bench and
worktree standing in for the runs, how ``--workload all`` drives every
workload and sums them up.
"""

import contextlib
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)


def record(counts=None, **metrics):
    return {
        "correct": True,
        "failed": 0,
        "metrics": {name: {"value": value} for name, value in metrics.items()},
        "counts": counts if counts is not None else {"rounds": 541},
    }


END_TO_END = [
    {"name": "exec_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "absent", "unit": "s", "better": "lower", "bound": 0.25},
]


def test_quartiles_inclusive():
    assert bench_ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_ab.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_pair_wins_follow_direction_and_ties_count_for_neither():
    base = [1.0, 2.0, 3.0, 4.0]
    head = [0.5, 2.0, 3.5, 3.0]
    assert bench_ab.pair_wins(base, head, "lower") == (2, 1, 1)
    assert bench_ab.pair_wins(base, head, "higher") == (1, 2, 1)


def test_summarize_rows():
    base = [record(exec_s=v, rate=r) for v, r in ((1.0, 10), (2.0, 20), (3.0, 30))]
    head = [record(exec_s=v, rate=r) for v, r in ((0.5, 10), (1.0, 25), (4.0, 35))]
    rows = {row["name"]: row for row in bench_ab.summarize(END_TO_END, base, head)}
    assert set(rows) == {"exec_s", "rate"}
    exec_s = rows["exec_s"]
    assert exec_s["base"] == (1.5, 2.0, 2.5)
    assert exec_s["head"] == (0.75, 1.0, 2.5)
    assert exec_s["ratio"] == pytest.approx(0.5)
    assert (exec_s["head_wins"], exec_s["base_wins"], exec_s["ties"]) == (2, 1, 0)
    rate = rows["rate"]
    assert (rate["head_wins"], rate["base_wins"], rate["ties"]) == (2, 0, 1)
    assert rate["ratio"] == pytest.approx(25 / 20)
    lines = bench_ab.format_rows(list(rows.values()))
    assert len(lines) == 3 and lines[1].startswith("exec_s")
    assert lines[1].rstrip().endswith("2:1:0")


def _verdict(base, head, name="exec_s"):
    """The verdict of one metric over aligned pairs of values."""
    rows = bench_ab.summarize(
        END_TO_END,
        [record(**{name: v}) for v in base],
        [record(**{name: v}) for v in head],
    )
    (row,) = rows
    return row["verdict"]


# Ten tight base runs: median 1.0, q1-q3 0.99-1.01.
TIGHT = [0.97, 0.98, 0.99, 0.99, 1.0, 1.0, 1.01, 1.01, 1.02, 1.03]


def test_verdict_worse_beyond_the_bound():
    assert _verdict(TIGHT, [v * 1.3 for v in TIGHT]) == "worse"
    assert _verdict(TIGHT, [v * 0.7 for v in TIGHT], "rate") == "worse"
    # Within the bound is not worse, and never a gain when head loses.
    assert _verdict(TIGHT, [v * 1.2 for v in TIGHT]) == "ok"


def test_verdict_unresolved_when_either_spread_exceeds_the_bound():
    wide = [0.6, 0.7, 0.8, 0.9, 1.0, 1.0, 1.1, 1.2, 1.3, 1.4]
    assert _verdict(wide, TIGHT) == "unresolved"
    assert _verdict(TIGHT, wide) == "unresolved"
    # A worse median is reported as worse even when the runs are wide.
    assert _verdict(TIGHT, [v * 1.5 for v in wide]) == "worse"


def test_verdict_gain_needs_ten_pairs_nine_wins_and_a_wide_margin():
    faster = [v * 0.9 for v in TIGHT]
    assert _verdict(TIGHT, faster) == "gain"
    assert _verdict(TIGHT, [v * 1.1 for v in TIGHT], "rate") == "gain"
    # 9 pairs are too few, whatever they read.
    assert _verdict(TIGHT[:9], faster[:9]) == "ok"
    # One lost pair in ten still claims; two do not.
    one_lost = faster[:9] + [TIGHT[9] + 0.01]
    assert _verdict(TIGHT, one_lost) == "gain"
    two_lost = faster[:8] + [TIGHT[8] + 0.01, TIGHT[9] + 0.01]
    assert _verdict(TIGHT, two_lost) == "ok"
    # Winning every pair by less than the base's q1-q3 is no gain.
    assert _verdict(TIGHT, [v - 0.015 for v in TIGHT]) == "ok"


def test_verdict_is_printed_per_row():
    base = [record(exec_s=v, rate=10.0) for v in TIGHT]
    head = [record(exec_s=v * 1.3, rate=10.0) for v in TIGHT]
    rows = bench_ab.summarize(END_TO_END, base, head)
    assert [row["verdict"] for row in rows] == ["worse", "ok"]
    lines = bench_ab.format_rows(rows)
    assert "verdict" in lines[0]
    assert "worse" in lines[1] and "ok" in lines[2]


def test_counts_mismatch_names_the_differing_counts():
    same = [record({"rounds": 541, "updates": 600000}) for _ in range(3)]
    assert bench_ab.counts_mismatch(same) == []
    differ = same + [record({"rounds": 542, "updates": 600000})]
    assert bench_ab.counts_mismatch(differ) == ["rounds"]
    missing = same + [record({"rounds": 541})]
    assert bench_ab.counts_mismatch(missing) == ["updates"]


def test_problems_flag_failed_and_incorrect_runs():
    bad = record()
    bad["correct"] = False
    problems = bench_ab._problems("head", [record(), None, bad])
    assert len(problems) == 2
    assert problems[0].startswith("head run 1")
    assert problems[1].startswith("head run 2")


# ----------------------------------------------------------------------
# Driving: a fake bench and worktree stand in for the runs.
# ----------------------------------------------------------------------
WORKLOADS = ["w_fast", "w_same", "w_drift"]


@pytest.fixture
def fake_runs(monkeypatch, tmp_path):
    """Every workload's runs without a process: the head is faster on
    ``w_fast``, equal on ``w_same``, and its counts drift on ``w_drift``."""
    calls = []

    def run_bench(tree, workload, seed, out):
        side = "base" if tree != bench_ab.ROOT else "head"
        calls.append((workload, side))
        pair = sum(1 for w, s in calls if (w, s) == (workload, side)) - 1
        value = TIGHT[pair % len(TIGHT)]
        counts = {"rounds": 541}
        if workload == "w_fast" and side == "head":
            value *= 0.5
        if workload == "w_drift" and side == "head":
            counts = {"rounds": 542}
        return record(counts, exec_s=value)

    @contextlib.contextmanager
    def worktree(ref, path):
        calls.append(("worktree", ref))
        yield path

    declared = {
        "workloads": [{"name": name} for name in WORKLOADS],
        "end_to_end": END_TO_END,
    }
    root = tmp_path / "root"
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps(declared))
    monkeypatch.setattr(bench_ab, "ROOT", root)
    monkeypatch.setattr(bench_ab, "_run_bench", run_bench)
    monkeypatch.setattr(bench_ab, "worktree", worktree)
    monkeypatch.setattr(bench_ab, "two_process_ratio", lambda: {"python": 1.0})
    return calls


def test_workload_all_runs_every_workload_in_one_worktree(fake_runs, tmp_path, capsys):
    status = bench_ab.run_pairs("HEAD~1", "all", 10, 0, tmp_path)
    out = capsys.readouterr().out
    assert [c for c in fake_runs if c[0] == "worktree"] == [("worktree", "HEAD~1")]
    for name in WORKLOADS:
        assert sum(1 for c in fake_runs if c[0] == name) == 20
        assert f"\n{name}: HEAD~1 (base) vs tree (head), 10 pairs" in out
    summary = out[out.index("\nsummary:"):].splitlines()[2:]
    assert [line.split()[:5] for line in summary] == [
        ["w_fast", "worst", "gain", "counts", "equal"],
        ["w_same", "worst", "ok", "counts", "equal"],
        ["w_drift", "worst", "ok", "counts", "DIFFER"],
    ]
    assert status == 1  # the drifting counts fail the run


def test_single_workload_prints_no_summary(fake_runs, tmp_path, capsys):
    assert bench_ab.run_pairs("HEAD", "w_same", 2, 0, tmp_path) == 0
    out = capsys.readouterr().out
    assert "summary:" not in out
    assert {c[0] for c in fake_runs} == {"worktree", "w_same"}


def test_worst_verdict_ranks_worse_first():
    rows = [{"verdict": v} for v in ("gain", "ok", "unresolved")]
    assert bench_ab.worst_verdict(rows) == "unresolved"
    assert bench_ab.worst_verdict(rows + [{"verdict": "worse"}]) == "worse"
    assert bench_ab.worst_verdict([{"verdict": "gain"}]) == "gain"
    assert bench_ab.worst_verdict([]) == "none"


def test_failed_runs_are_named_in_the_summary(fake_runs, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench_ab, "_run_bench", lambda *a: None)
    assert bench_ab.run_pairs("HEAD", "all", 1, 0, tmp_path) == 1
    summary = capsys.readouterr().out.split("\nsummary:")[1]
    assert summary.count("runs failed") == len(WORKLOADS)
