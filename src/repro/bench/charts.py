"""Plain-text chart rendering for experiment results.

The paper's artifacts are bar charts (Figures 12, 14) and line plots
(Figures 13, 15-17).  ``repro-bench --chart`` renders both as
monospace ASCII so the shape of a result is visible directly in a
terminal, with no plotting dependencies.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .report import ExperimentResult

_BAR = "█"
_HALF = "▌"


def render_bars(
    result: ExperimentResult,
    width: int = 40,
    baseline: Optional[float] = 1.0,
) -> str:
    """Grouped horizontal bar chart: one group per label, one bar per series.

    ``baseline`` draws a reference tick (the paper's figures are
    normalized to 1.0); pass None to scale from zero only.
    """
    labels = result.labels()
    maximum = max(
        (value for series in result.series for value in series.points.values()),
        default=1.0,
    )
    if baseline is not None:
        maximum = max(maximum, baseline)
    if maximum <= 0:
        maximum = 1.0
    name_width = max((len(s.name) for s in result.series), default=4)

    lines: List[str] = [result.title, ""]
    for label in labels:
        lines.append("%s:" % label)
        for series in result.series:
            if label not in series.points:
                continue
            value = series.points[label]
            filled = value / maximum * width
            bar = _BAR * int(filled)
            if filled - int(filled) >= 0.5:
                bar += _HALF
            lines.append(
                "  %-*s %s %.3f" % (name_width, series.name, bar.ljust(width), value)
            )
        if baseline is not None:
            tick = int(baseline / maximum * width)
            ruler = [" "] * (width + name_width + 3)
            if 0 <= tick + name_width + 3 < len(ruler):
                ruler[tick + name_width + 3] = "|"
            lines.append("".join(ruler) + " <- %.1f" % baseline)
        lines.append("")
    return "\n".join(lines).rstrip()


def render_lines(
    result: ExperimentResult,
    height: int = 12,
    width_per_point: int = 8,
) -> str:
    """Multi-series line plot using one letter per series.

    The x axis is the label sequence; each series is plotted with a
    distinct marker, with a legend underneath.
    """
    labels = result.labels()
    if not labels:
        return result.title
    values = [
        value for series in result.series for value in series.points.values()
    ]
    low, high = min(values), max(values)
    if high == low:
        high = low + 1.0
    markers = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    columns = len(labels)
    grid = [[" "] * (columns * width_per_point) for _ in range(height)]

    for series_index, series in enumerate(result.series):
        marker = markers[series_index % len(markers)]
        # Offset each series within its column so coinciding values
        # stay individually visible.
        offset = series_index % max(1, width_per_point - 1)
        for column, label in enumerate(labels):
            if label not in series.points:
                continue
            value = series.points[label]
            row = int((high - value) / (high - low) * (height - 1))
            grid[row][column * width_per_point + offset] = marker

    lines: List[str] = [result.title, ""]
    for row_index, row in enumerate(grid):
        level = high - (high - low) * row_index / (height - 1)
        lines.append("%8.3f |%s" % (level, "".join(row)))
    axis = "-" * (columns * width_per_point)
    lines.append("         +%s" % axis)
    label_row = []
    for label in labels:
        label_row.append(label[: width_per_point - 1].ljust(width_per_point))
    lines.append("          %s" % "".join(label_row))
    lines.append("")
    for series_index, series in enumerate(result.series):
        marker = markers[series_index % len(markers)]
        lines.append("  %s = %s" % (marker, series.name))
    return "\n".join(lines)


#: Which renderer suits each experiment (bars for normalized columns,
#: lines for sweeps).
CHART_STYLE: Dict[str, str] = {
    "fig12": "bars",
    "fig13": "lines",
    "fig14": "bars",
    "fig15": "lines",
    "fig16": "lines",
    "fig17": "lines",
    "table1": "bars",
    "table2": "bars",
    "integrity": "bars",
}


def render_chart(result: ExperimentResult) -> str:
    """Pick the appropriate chart style for an experiment result."""
    style = CHART_STYLE.get(result.experiment, "bars")
    if style == "lines":
        return render_lines(result)
    return render_bars(result)
