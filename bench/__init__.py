"""The repo benchmark: seven sized workloads measured from outside.

``python3 -m bench --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload in a fresh process, checks its output, prints every
metric by name with its unit, and ends with one JSON line (the contract
in ``BENCHMARK.json``). ``bench/README.md`` is the manual: layer map,
metric glossary, workload table, interaction table, calibration record.

The benchmark imports the program from ``src/`` next to this package,
so no ``PYTHONPATH`` is needed; in a directory without ``src/`` every
entry point fails on ``import repro`` before printing a result.
"""

import json
import sys
from pathlib import Path
from typing import Any, Dict

#: Root of the checkout this package sits in (``BENCHMARK.json`` lives here).
ROOT = Path(__file__).resolve().parent.parent

_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def load_benchmark() -> Dict[str, Any]:
    """The declarations in ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load_sizes(scale: str) -> Dict[str, Dict[str, Any]]:
    """Workload sizes of one scale (``full`` or ``smoke``)."""
    with open(ROOT / "bench" / "sizes.json") as fh:
        return json.load(fh)[scale]
