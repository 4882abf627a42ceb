"""Series/figure containers and rendering for the figure suites.

Every suite under ``figures/`` regenerates one table or figure of the
paper as a :class:`Figure`: named series over a shared x-axis, rendered
as an aligned text table and written under ``results/``. The suites
print the rendering, so ``pytest figures/ -s`` reproduces the
evaluation section on stdout.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: Where figure renderings are written (relative to the repo root).
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..", "results")


@dataclass
class Series:
    """One labeled curve: y-values aligned with the figure's x-axis."""

    label: str
    values: List[float]


@dataclass
class Figure:
    """One regenerated table/figure."""

    figure_id: str
    title: str
    x_label: str
    x_values: List
    series: List[Series] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, label: str, values: Sequence[float]) -> "Figure":
        """Attach a series (must match the x-axis length)."""
        values = list(values)
        if len(values) != len(self.x_values):
            raise ValueError(
                f"series {label!r} has {len(values)} points, x-axis has "
                f"{len(self.x_values)}"
            )
        self.series.append(Series(label=label, values=values))
        return self

    def note(self, text: str) -> "Figure":
        """Attach a footnote (shape statements, substitutions)."""
        self.notes.append(text)
        return self

    def render(self) -> str:
        """Aligned text table of the figure."""
        headers = [self.x_label] + [s.label for s in self.series]
        rows = []
        for i, x in enumerate(self.x_values):
            row = [_fmt(x)] + [_fmt(s.values[i]) for s in self.series]
            rows.append(row)
        widths = [
            max(len(headers[c]), *(len(r[c]) for r in rows)) if rows else len(headers[c])
            for c in range(len(headers))
        ]
        lines = [f"== {self.figure_id}: {self.title} =="]
        lines.append(
            "  ".join(h.rjust(w) for h, w in zip(headers, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append(
                "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def save(self, directory: Optional[str] = None) -> str:
        """Write the rendering to ``results/<figure_id>.txt``; returns
        the path."""
        directory = directory or RESULTS_DIR
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(
            directory, f"{self.figure_id.replace('/', '_')}.txt"
        )
        with open(path, "w") as handle:
            handle.write(self.render() + "\n")
        return path

    def values_of(self, label: str) -> List[float]:
        """Series values by label."""
        for s in self.series:
            if s.label == label:
                return list(s.values)
        raise KeyError(f"no series {label!r} in {self.figure_id}")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)
