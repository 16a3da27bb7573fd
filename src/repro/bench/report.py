"""Rendering of experiment results in the paper's reporting style."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..utils.tables import format_table


@dataclass
class Series:
    """One plotted line/bar group: label -> value."""

    name: str
    points: Dict[str, float] = field(default_factory=dict)

    def add(self, label: str, value: float) -> None:
        self.points[label] = value


@dataclass
class ExperimentResult:
    """A finished experiment: metadata plus its series."""

    experiment: str
    title: str
    series: List[Series]
    notes: List[str] = field(default_factory=list)
    #: Expectations from the paper, as human-readable claim -> holds?
    claims: Dict[str, bool] = field(default_factory=dict)

    def series_by_name(self, name: str) -> Series:
        for series in self.series:
            if series.name == name:
                return series
        raise KeyError(name)

    def labels(self) -> List[str]:
        labels: List[str] = []
        for series in self.series:
            for label in series.points:
                if label not in labels:
                    labels.append(label)
        return labels

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form of the result (for --json / archiving)."""
        return {
            "experiment": self.experiment,
            "title": self.title,
            "series": {s.name: dict(s.points) for s in self.series},
            "notes": list(self.notes),
            "claims": dict(self.claims),
        }

    def render(self) -> str:
        """Monospace table: one row per series, one column per label."""
        labels = self.labels()
        headers = [self.experiment] + labels
        rows = []
        for series in self.series:
            rows.append(
                [series.name]
                + [
                    ("%.3f" % series.points[label]) if label in series.points else "-"
                    for label in labels
                ]
            )
        text = format_table(headers, rows, title=self.title)
        if self.notes:
            text += "\n" + "\n".join("  note: %s" % n for n in self.notes)
        if self.claims:
            text += "\n" + "\n".join(
                "  claim [%s]: %s" % ("ok" if ok else "MISS", claim)
                for claim, ok in self.claims.items()
            )
        return text
