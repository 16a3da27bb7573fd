"""Compare two sets of end-to-end benchmark runs against the bounds.

Usage::

    python3 benchmarks/e2e/compare.py A.json B.json

``A.json`` and ``B.json`` hold the records ``run.py --json`` appends, one
JSON object per line; ``A`` is the baseline.  For every workload and
end-to-end metric of ``BENCHMARK.json``, and for the :data:`EXTRA_GATES`,
the table gives both medians over the untraced runs, their ratio, the
metric's bound and a verdict:

* ``within``     — B is no worse than A by more than the bound;
* ``worse``      — B is worse than A by more than the bound;
* ``unresolved`` — the run-to-run spread (quartile distance over median,
  the wider of the two sides) exceeds the bound, or a side has fewer
  than two runs, and not every run of B reads better than every run of A.

The exit status is 1 when any pair is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]

#: ``(workload, metric, bound)`` gated beyond BENCHMARK.json, which holds
#: only metrics every workload reports.  On ``recovery`` the task latency
#: is the host latency of one ``RecoverySession.run`` per crash image,
#: scaled like ``rep_s``, whose bound it takes.
EXTRA_GATES = (
    ("recovery", "task_ms_p50", 0.20),
    ("recovery", "task_ms_p90", 0.20),
)


def load_runs(path: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, over the untraced runs in ``path``.

    Besides the result's metrics each record gives ``task_ms_p50`` and
    ``task_ms_p90``, its pooled task latency percentiles.
    """
    runs: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"]:
                continue
            values = runs[record["workload"]]
            for name, metric in record["metrics"].items():
                values[name].append(metric["value"])
            if "task_ms" in record:
                values["task_ms_p50"].append(record["task_ms"]["p50"])
                values["task_ms_p90"].append(record["task_ms"]["p90"])
    return runs


def spread(values: List[float]) -> float:
    """Quartile distance over the median; infinite below two values."""
    if len(values) < 2:
        return float("inf")
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def verdict(before: List[float], after: List[float], bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    change = sign * (statistics.median(after) / statistics.median(before) - 1.0)
    if lower_is_better:
        clearly_better = max(after) < min(before)
    else:
        clearly_better = min(after) > max(before)
    if max(spread(before), spread(after)) > bound and not clearly_better:
        return "unresolved"
    return "worse" if change > bound else "within"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    before, after = load_runs(args.baseline), load_runs(args.candidate)
    print("%-18s %-12s %12s %12s %8s %7s  %s" % (
        "workload", "metric", "A median", "B median", "B/A", "bound", "verdict"))
    gates = [
        (workload["name"], metric["name"], metric["bound"], metric["better"] == "lower")
        for workload in spec["workloads"]
        for metric in spec["end_to_end"]
    ] + [(workload, name, bound, True) for workload, name, bound in EXTRA_GATES]
    worse = False
    for workload, name, bound, lower_is_better in gates:
        a, b = before[workload][name], after[workload][name]
        if not a or not b:
            print("%-18s %-12s %12s" % (workload, name, "missing"))
            continue
        result = verdict(a, b, bound, lower_is_better)
        worse = worse or result == "worse"
        print("%-18s %-12s %12.5g %12.5g %8.4f %6.0f%%  %s (n=%d/%d)" % (
            workload, name, statistics.median(a), statistics.median(b),
            statistics.median(b) / statistics.median(a), bound * 100,
            result, len(a), len(b)))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
