"""Benchmark harness regenerating every table and figure of the paper.

:mod:`repro.bench.harness` runs (workload, design, config) combinations
and collects :class:`repro.sim.stats.MachineStats`;
:mod:`repro.bench.experiments` defines one experiment class per paper
artifact (Figures 12-17, Tables 1-2);
:mod:`repro.bench.report` renders the series the way the paper reports
them.
"""

from .harness import WorkloadRunOutcome, run_workload
from .experiments import (
    EXPERIMENTS,
    Fig12SingleCore,
    Fig13MultiCore,
    Fig14WriteTraffic,
    Fig15CounterCache,
    Fig16TxnSize,
    Fig17NvmLatency,
    Table1Stages,
    Table2Config,
    get_experiment,
)

__all__ = [
    "WorkloadRunOutcome",
    "run_workload",
    "EXPERIMENTS",
    "Fig12SingleCore",
    "Fig13MultiCore",
    "Fig14WriteTraffic",
    "Fig15CounterCache",
    "Fig16TxnSize",
    "Fig17NvmLatency",
    "Table1Stages",
    "Table2Config",
    "get_experiment",
]
