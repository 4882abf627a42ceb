"""Paired A/B runs of one benchmark workload: a git ref against the tree.

    python3 tools/bench_ab.py <ref> [--workload W|all] [--pairs N] [--seed S]

(``make ab REF=<ref> W=<workload> N=<pairs>``.) The tool checks ``<ref>``
out into a scratch ``git worktree`` and runs ``python3 -m bench
--workload W --seed S --out <record>`` there and in this tree, ``N``
times each. The two sides alternate which runs first, so a drift of the
machine's speed during the session hits both alike. The benchmark is a
black box: only the JSON records are read. ``--workload all`` runs every
workload of ``BENCHMARK.json`` in turn in the one worktree, prints each
one's report, then one summary line per workload: its worst verdict and
whether its exact counts are equal.

For each end-to-end metric of ``BENCHMARK.json`` it prints both sides'
median and q1–q3, the ratio of the medians, how many pairs each side
won (a tie counts for neither) and a verdict against the metric's
``bound`` (see :func:`verdict`). It says whether the exact counts
(rounds, updates, recoveries) are equal across every run, and prints
beside each pair the two-process ratio of a pure-Python and a numpy
loop — how much of a second core the machine offered at the time (1.0:
two processes run as fast as one; 2.0: they share one core).

Timings are reported and judged, never gated. The exit status is
nonzero only when a run fails, a run reports an incorrect result, or
the exact counts differ. The worktree is removed on every exit path.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: The two loops of the two-process check: one bound by the
#: interpreter, one by numpy's memory traffic.
RATIO_LOOPS = {
    "python": "s = 0\nfor i in range(3_000_000): s += i",
    "numpy": (
        "a = np.random.rand(1_000_000)\n"
        "for _ in range(60): a = np.sqrt(a + 1.0)"
    ),
}
_RATIO_HEAD = (
    "import time, numpy as np\n"
    "while time.time() < {t0}: time.sleep(0.001)\n"
    "t = time.perf_counter()\n"
)


def _loop_seconds(body: str, processes: int) -> float:
    """Slowest of ``processes`` copies of a loop started at one instant."""
    code = (
        _RATIO_HEAD.format(t0=time.time() + 1.0)
        + body
        + "\nprint(time.perf_counter() - t)"
    )
    procs = [
        subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE)
        for _ in range(processes)
    ]
    return max(float(p.communicate()[0]) for p in procs)


def two_process_ratio(repeats: int = 3) -> Dict[str, float]:
    """Per loop: best time of two concurrent copies over best time of
    one (min over ``repeats`` runs each)."""
    ratios = {}
    for name, body in RATIO_LOOPS.items():
        solo = min(_loop_seconds(body, 1) for _ in range(repeats))
        pair = min(_loop_seconds(body, 2) for _ in range(repeats))
        ratios[name] = pair / solo
    return ratios


# ----------------------------------------------------------------------
# Arithmetic over records (pinned by tests/test_bench_ab.py).
# ----------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``, inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def pair_wins(
    base: Sequence[float], head: Sequence[float], better: str
) -> Tuple[int, int, int]:
    """``(head wins, base wins, ties)`` over aligned pairs; ``better``
    is ``"lower"`` or ``"higher"``."""
    sign = 1 if better == "higher" else -1
    head_wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    base_wins = sum(1 for b, h in zip(base, head) if sign * (b - h) > 0)
    return head_wins, base_wins, len(base) - head_wins - base_wins


def verdict(row: Dict[str, Any], bound: float) -> str:
    """One row's reading, the first that applies:

    * ``worse`` — the head median is worse than the base median by more
      than ``bound`` (a fraction of the base median);
    * ``unresolved`` — either side's q1–q3 spread exceeds ``bound`` of
      its own median, so the runs cannot tell a change of that size;
    * ``gain`` — at least 10 pairs, the head won at least 9 in 10 of
      them, and its median is better by more than the base's q1–q3;
    * ``ok`` — otherwise.
    """
    sign = 1 if row["better"] == "higher" else -1
    base_q1, base_median, base_q3 = row["base"]
    head_median = row["head"][1]
    if sign * (base_median - head_median) > bound * abs(base_median):
        return "worse"
    if any(q3 - q1 > bound * abs(median)
           for q1, median, q3 in (row["base"], row["head"])):
        return "unresolved"
    pairs = row["head_wins"] + row["base_wins"] + row["ties"]
    if (
        pairs >= 10
        and 10 * row["head_wins"] >= 9 * pairs
        and sign * (head_median - base_median) > base_q3 - base_q1
    ):
        return "gain"
    return "ok"


def metric_values(records: Sequence[Dict[str, Any]], name: str) -> List[float]:
    """One end-to-end metric's value from each record that has it."""
    return [
        record["metrics"][name]["value"]
        for record in records
        if name in record.get("metrics", {})
    ]


def summarize(
    end_to_end: Sequence[Dict[str, Any]],
    base: Sequence[Dict[str, Any]],
    head: Sequence[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """One row per end-to-end metric present on both sides, with its
    :func:`verdict` against the metric's ``bound``."""
    rows = []
    for spec in end_to_end:
        name = spec["name"]
        b, h = metric_values(base, name), metric_values(head, name)
        if not b or len(b) != len(h):
            continue
        head_wins, base_wins, ties = pair_wins(b, h, spec["better"])
        b_q, h_q = quartiles(b), quartiles(h)
        row = {
            "name": name,
            "unit": spec["unit"],
            "better": spec["better"],
            "base": b_q,
            "head": h_q,
            "ratio": h_q[1] / b_q[1] if b_q[1] else float("nan"),
            "head_wins": head_wins,
            "base_wins": base_wins,
            "ties": ties,
        }
        row["verdict"] = verdict(row, spec["bound"])
        rows.append(row)
    return rows


def counts_mismatch(records: Sequence[Dict[str, Any]]) -> List[str]:
    """The exact counts that are not equal across every record."""
    names = sorted({name for record in records for name in record.get("counts", {})})
    return [
        name
        for name in names
        if len({json.dumps(r.get("counts", {}).get(name)) for r in records}) > 1
    ]


def _spread(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}-{q[2]:.4g}]"


def format_rows(rows: Sequence[Dict[str, Any]]) -> List[str]:
    """The report table: one line per :func:`summarize` row."""
    lines = [
        f"{'metric':<20} {'base median [q1-q3]':>30} "
        f"{'head median [q1-q3]':>30} {'head/base':>9} {'verdict':>10} "
        f"{'wins h:b:tie':>12}"
    ]
    for row in rows:
        wins = f"{row['head_wins']}:{row['base_wins']}:{row['ties']}"
        lines.append(
            f"{row['name']:<20} {_spread(row['base']):>30} "
            f"{_spread(row['head']):>30} {row['ratio']:>9.3f} "
            f"{row['verdict']:>10} {wins:>12}"
        )
    return lines


# ----------------------------------------------------------------------
# Driving the benchmark.
# ----------------------------------------------------------------------
def _run_bench(tree: Path, workload: str, seed: int, out: Path) -> Optional[Dict]:
    """One ``python3 -m bench`` run in ``tree``; its record, or ``None``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [
            sys.executable, "-m", "bench",
            "--workload", workload, "--seed", str(seed), "--out", str(out),
        ],
        cwd=tree,
        env=env,
        stdout=subprocess.DEVNULL,
    )
    if done.returncode != 0 or not out.exists():
        return None
    with open(out) as fh:
        return json.load(fh)


def _problems(side: str, records: Sequence[Optional[Dict]]) -> List[str]:
    out = []
    for i, record in enumerate(records):
        if record is None:
            out.append(f"{side} run {i}: bench exited with an error")
        elif not record.get("correct", False) or record.get("failed", 0):
            out.append(f"{side} run {i}: incorrect ({record.get('problems')})")
    return out


#: Verdicts from worst to best: a workload's summary names the first
#: one any of its rows reads.
VERDICT_ORDER = ("worse", "unresolved", "ok", "gain")


def worst_verdict(rows: Sequence[Dict[str, Any]]) -> str:
    """The worst verdict over a workload's rows (``"none"`` if no row)."""
    found = {row["verdict"] for row in rows}
    return next((v for v in VERDICT_ORDER if v in found), "none")


@contextlib.contextmanager
def worktree(ref: str, path: Path) -> Iterator[Path]:
    """``ref`` checked out at ``path`` for the block, removed on exit."""
    subprocess.run(
        ["git", "worktree", "add", "--detach", "--quiet", str(path), ref],
        cwd=ROOT,
        check=True,
    )
    try:
        yield path
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(path)], cwd=ROOT
        )
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT)


def workload_pairs(
    base_tree: Path,
    ref: str,
    workload: str,
    pairs: int,
    seed: int,
    scratch: Path,
    end_to_end: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """Alternating pairs of one workload in ``base_tree`` and this tree;
    prints its report and returns its rows, the exact counts that
    differ (``"mismatch"``) and whether a run failed (``"failed"``)."""
    base: List[Optional[Dict]] = []
    head: List[Optional[Dict]] = []
    for i in range(pairs):
        order = [("base", base_tree, base), ("head", ROOT, head)]
        if i % 2:
            order.reverse()
        for side, tree, records in order:
            records.append(
                _run_bench(
                    tree, workload, seed, scratch / f"{workload}-{side}-{i}.json"
                )
            )
        ratio = two_process_ratio()
        first = order[0][0]
        print(
            f"pair {i}: {first} first; two-process ratio "
            + ", ".join(f"{k} {v:.2f}" for k, v in ratio.items()),
            flush=True,
        )
    problems = _problems("base", base) + _problems("head", head)
    good = [r for r in base + head if r is not None]
    paired = [
        (b, h) for b, h in zip(base, head) if b is not None and h is not None
    ]
    rows = summarize(
        end_to_end, [b for b, _ in paired], [h for _, h in paired]
    )
    print(f"\n{workload}: {ref} (base) vs tree (head), {len(paired)} pairs, seed {seed}")
    print("\n".join(format_rows(rows)))
    mismatch = counts_mismatch(good)
    if good:
        print(
            "exact counts: "
            + ("equal " + json.dumps(good[0].get("counts", {})) if not mismatch
               else "DIFFER in " + ", ".join(mismatch))
        )
        if mismatch:
            for side, records in (("base", base), ("head", head)):
                for record in records:
                    if record is not None:
                        print(f"  {side}: {json.dumps(record.get('counts'))}")
    for line in problems:
        print(line)
    return {
        "rows": rows,
        "mismatch": mismatch,
        "failed": bool(problems) or not paired,
    }


def summary_line(workload: str, report: Dict[str, Any]) -> str:
    """One workload's line of the ``--workload all`` summary."""
    counts = "DIFFER" if report["mismatch"] else "equal"
    failed = "  runs failed" if report["failed"] else ""
    return (
        f"{workload:<28} worst {worst_verdict(report['rows']):<10} "
        f"counts {counts}{failed}"
    )


def run_pairs(
    ref: str, workload: str, pairs: int, seed: int, scratch: Path
) -> int:
    """Alternating pairs in a worktree of ``ref`` and this tree, for one
    workload or (``"all"``) each of ``BENCHMARK.json``'s in turn; prints
    the reports and returns the exit status."""
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    names = (
        [w["name"] for w in declared["workloads"]]
        if workload == "all" else [workload]
    )
    reports: Dict[str, Dict[str, Any]] = {}
    with worktree(ref, scratch / "base") as base_tree:
        for name in names:
            reports[name] = workload_pairs(
                base_tree, ref, name, pairs, seed, scratch,
                declared["end_to_end"],
            )
    if workload == "all":
        print(f"\nsummary: {ref} (base) vs tree (head), {pairs} pairs each")
        for name in names:
            print(summary_line(name, reports[name]))
    bad = any(r["failed"] or r["mismatch"] for r in reports.values())
    return 1 if bad else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/bench_ab.py",
        description="Alternating pairs of a benchmark workload (or all "
        "of them): a git ref (base) against this tree (head).",
    )
    parser.add_argument("ref", help="git ref of the base side, e.g. HEAD~1")
    parser.add_argument(
        "--workload", default="pagerank_chromatic",
        help='one BENCHMARK.json workload, or "all" for each in turn',
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    # A terminated run (a CI timeout, ``timeout``, ``kill``) still
    # unwinds through the ``finally`` blocks that remove the worktree.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    scratch = Path(tempfile.mkdtemp(prefix="bench-ab-"))
    try:
        return run_pairs(args.ref, args.workload, args.pairs, args.seed, scratch)
    except subprocess.CalledProcessError as exc:
        print(f"bench_ab: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
