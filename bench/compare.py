"""``python3 -m bench compare A.json B.json``: is B worse than A?

Both files are record sets written by ``--all --out`` (or single records
written by ``--workload ... --out``). For every workload and end-to-end
metric the two medians, their relative difference (positive: B is worse)
and the metric's bound are printed. Past the bound is a regression and
the exit code is 1. Within the bound, a metric whose own spread in
either file is wider than the bound is ``unresolved``, not ``ok``: the
runs cannot tell such a difference from noise. A higher share of failed
operations is always a regression.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List

from bench import load_benchmark


def _records(path: str) -> Dict[str, Dict[str, Any]]:
    with open(path) as fh:
        document = json.load(fh)
    if "workloads" in document:
        return document["workloads"]
    return {document["workload"]: document}


def _failed_share(record: Dict[str, Any]) -> float:
    return record["failed"] / record["attempted"]


def compare(
    a: Dict[str, Dict[str, Any]], b: Dict[str, Dict[str, Any]], spec: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """One row per workload x end-to-end metric present in both sets."""
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a or workload not in b:
            continue
        rec_a, rec_b = a[workload], b[workload]
        for declared in spec["end_to_end"]:
            name, bound = declared["name"], declared["bound"]
            if name not in rec_a["metrics"] or name not in rec_b["metrics"]:
                continue
            m_a, m_b = rec_a["metrics"][name], rec_b["metrics"][name]
            change = (m_b["value"] - m_a["value"]) / m_a["value"]
            worse = change if declared["better"] == "lower" else -change
            if worse > bound:
                verdict = "REGRESSION"
            elif max(m_a.get("spread", 0.0), m_b.get("spread", 0.0)) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": declared["unit"],
                    "a": m_a["value"],
                    "b": m_b["value"],
                    "worse": worse,
                    "bound": bound,
                    "verdict": verdict,
                }
            )
        share_a, share_b = _failed_share(rec_a), _failed_share(rec_b)
        rows.append(
            {
                "workload": workload,
                "metric": "failed_share",
                "unit": "share",
                "a": share_a,
                "b": share_b,
                "worse": share_b - share_a,
                "bound": 0.0,
                "verdict": "REGRESSION" if share_b > share_a else "ok",
            }
        )
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 -m bench compare A.json B.json", file=sys.stderr)
        return 2
    rows = compare(_records(argv[0]), _records(argv[1]), load_benchmark())
    if not rows:
        print("bench compare: the two files share no workload", file=sys.stderr)
        return 2
    print(f"{'workload':<28}{'metric':<20}{'A':>12}{'B':>12}  {'worse by':>9}  {'bound':>6}  verdict")
    for row in rows:
        print(
            f"{row['workload']:<28}{row['metric']:<20}{row['a']:>12.5g}{row['b']:>12.5g}"
            f"  {row['worse']:>+9.3f}  {row['bound']:>6.2f}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "REGRESSION" for row in rows) else 0
