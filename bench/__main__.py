"""Command line of the benchmark; see ``bench/README.md``."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

from bench import ROOT, load_benchmark
from bench.measure import (
    BenchError,
    env_block,
    refuse_ambient_faults,
    stop_resource_tracker,
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 -m bench",
        description="Run one workload (or --all, or --probes) of the repo "
        "benchmark, or `compare A.json B.json` two recorded sets.",
    )
    parser.add_argument("--workload", help="a workload name from BENCHMARK.json")
    parser.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--probes", action="store_true", help="only the layer probes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path, help="also write the full record(s) here as JSON")
    return parser


def _write(path: Path, document: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")


def _run_all(args: argparse.Namespace, seconds: float, names: List[str]) -> int:
    """Each workload in a fresh process; the records merged into one set."""
    from bench.workloads import OUT_DIR

    records = {}
    status = 0
    for name in names:
        part = OUT_DIR / f"{name}.record.json"
        command = [
            sys.executable, "-m", "bench",
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", repr(seconds),
            "--trace", str(args.trace),
            "--scale", args.scale,
            "--out", str(part),
        ]
        done = subprocess.run(command, cwd=ROOT)
        if done.returncode != 0:
            status = done.returncode
            continue
        with open(part) as fh:
            records[name] = json.load(fh)
        part.unlink()
    if args.out is not None:
        _write(args.out, {"env": env_block(), "seed": args.seed, "workloads": records})
    return status


def main(argv: Any = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "compare":
        from bench.compare import main as compare_main

        return compare_main(argv[1:])
    args = _parser().parse_args(argv)
    try:
        refuse_ambient_faults()
        # Imported late so that `--help` and the refusals above need no src/.
        from bench.run import print_record, run_workload

        spec = load_benchmark()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.probes:
            from bench.probes import run_probes

            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            probes = run_probes()
            for name, value in probes.items():
                print(f"{name:<48} {value:.6g} {units[name]}")
            if args.out is not None:
                _write(args.out, {"env": env_block(), "probes": probes})
            return 0
        if args.all:
            return _run_all(args, seconds, [w["name"] for w in spec["workloads"]])
        if args.workload is None:
            raise BenchError("give --workload <name>, --all or --probes")
        record = run_workload(
            args.workload, args.seed, seconds, bool(args.trace), args.scale
        )
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        stop_resource_tracker()
    if args.out is not None:
        _write(args.out, record)
    print_record(record)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
