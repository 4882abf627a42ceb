"""Measurement primitives shared by every workload and probe."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
from typing import Any, Dict, Sequence

from bench import ROOT

#: Ambient knobs that inject faults into any engine run. A stray plan
#: must never be timed, so the benchmark refuses to start under them.
FORBIDDEN_ENV = ("REPRO_FAULT", "REPRO_CHAOS_SEED")


class BenchError(Exception):
    """The benchmark cannot produce a result (bad input, no sample)."""


def refuse_ambient_faults() -> None:
    stray = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
    if stray:
        raise BenchError(
            f"refusing to run with {', '.join(stray)} set: a fault plan "
            "in the environment would be timed as if it were the program"
        )


def stop_resource_tracker() -> None:
    """Stop ``multiprocessing``'s resource tracker and wait for it.

    The shm data plane makes ``multiprocessing`` start a tracker process
    that otherwise exits only after its parent has, unwaited. The
    benchmark must leave no process behind, so its entry points call
    this last (``_stop`` is what CPython's own test-suite uses).
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_block() -> Dict[str, Any]:
    """Where and on what a result was measured; stored in every result."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "REPRO_NO_SHM": os.environ.get("REPRO_NO_SHM", ""),
        "loadavg_1m": os.getloadavg()[0],
        "argv": sys.argv[1:],
    }


def stats(samples: Sequence[float]) -> Dict[str, float]:
    """Median, min, max, sample count and spread — what a metric reports.

    ``spread`` is the share of the median the samples scatter over: the
    interquartile range from four samples on, min to max below that.
    """
    if not samples:
        raise BenchError("no sample was measured")
    median = statistics.median(samples)
    if len(samples) >= 4:
        q1, _q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
        scatter = q3 - q1
    else:
        scatter = max(samples) - min(samples)
    return {
        "value": median,
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "spread": scatter / median if median else 0.0,
    }


def peak_rss_mb() -> float:
    """Coordinator peak RSS plus the largest reaped child's.

    ``ru_maxrss`` is kibibytes on Linux; children count once they have
    been waited for, which every transport does in ``shutdown``.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0
