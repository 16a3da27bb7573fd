"""Write-endurance accounting.

PCM cells endure a bounded number of writes (~1e8).  The paper notes
(Section 6.3.3) that reducing write traffic directly translates into
lifetime under a uniform wear-leveling scheme such as Start-Gap.  This
tracker records per-line write counts and derives the lifetime metrics
the Figure 14 discussion reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Typical PCM cell endurance (writes per cell) used for estimates.
DEFAULT_CELL_ENDURANCE = 10**8


@dataclass
class WearReport:
    """Summary of device wear at a point in time."""

    total_line_writes: int
    distinct_lines: int
    max_line_writes: int
    mean_line_writes: float
    #: Lifetime fraction consumed assuming perfect (uniform) leveling.
    uniform_lifetime_consumed: float
    #: Lifetime fraction consumed with no leveling (hottest line dies first).
    unleveled_lifetime_consumed: float


class WearTracker:
    """Per-line write counters with lifetime estimation."""

    def __init__(self, cell_endurance: int = DEFAULT_CELL_ENDURANCE) -> None:
        if cell_endurance <= 0:
            raise ValueError("cell endurance must be positive")
        self.cell_endurance = cell_endurance
        self._writes: Dict[int, int] = {}
        self.total_writes = 0

    def record_write(self, line_address: int) -> None:
        self._writes[line_address] = self._writes.get(line_address, 0) + 1
        self.total_writes += 1

    def writes_to(self, line_address: int) -> int:
        return self._writes.get(line_address, 0)

    def report(self) -> WearReport:
        """Produce a :class:`WearReport` for the current state."""
        distinct = len(self._writes)
        max_writes = max(self._writes.values()) if self._writes else 0
        mean_writes = self.total_writes / distinct if distinct else 0.0
        # Uniform leveling spreads total_writes over every touched line.
        uniform = (
            (self.total_writes / distinct) / self.cell_endurance if distinct else 0.0
        )
        unleveled = max_writes / self.cell_endurance
        return WearReport(
            total_line_writes=self.total_writes,
            distinct_lines=distinct,
            max_line_writes=max_writes,
            mean_line_writes=mean_writes,
            uniform_lifetime_consumed=uniform,
            unleveled_lifetime_consumed=unleveled,
        )

    def relative_lifetime(self, other: "WearTracker") -> float:
        """Lifetime of this device relative to ``other``.

        Under uniform wear leveling, lifetime is inversely proportional
        to total write traffic, which is how the paper converts the
        8.1 % traffic reduction into a lifetime improvement.
        """
        if self.total_writes == 0:
            return float("inf")
        return other.total_writes / self.total_writes
