"""Paper figure harness: figure containers and the Table 1 capability
registry. One suite per paper table/figure lives under ``figures/``.
"""

from repro.figures.capabilities import (
    FrameworkRow,
    PROPERTIES,
    capability_table,
    graphlab_claims,
)
from repro.figures.figure import Figure, Series

__all__ = [
    "Figure",
    "FrameworkRow",
    "PROPERTIES",
    "Series",
    "capability_table",
    "graphlab_claims",
]
