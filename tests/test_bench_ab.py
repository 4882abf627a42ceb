"""The arithmetic of ``tools/bench_ab.py`` on synthetic records.

The tool's runs are a black box (git worktree + ``python3 -m bench``);
what it concludes from their records is pinned here: quartiles, pair
wins with ties counting for neither side, the metric rows, and the
exact-count comparison.
"""

import importlib.util
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
    {"name": "exec_s", "unit": "s", "better": "lower"},
    {"name": "rate", "unit": "1/s", "better": "higher"},
    {"name": "absent", "unit": "s", "better": "lower"},
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
