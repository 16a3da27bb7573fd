"""Run workloads under design points and collect results.

The harness is what every figure bench and most integration tests call:
it wires workload -> transaction mechanism -> trace -> machine for each
core and hands back the simulation result plus the per-core bookkeeping
needed for crash validation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import SystemConfig, fast_config
from ..sim.machine import Machine, SimulationResult
from ..sim.trace import Trace, TraceBuilder
from ..txn.heap import MemoryLayout
from ..txn.manager import make_transactions
from ..workloads.base import PrefixValidator, WorkloadParams, WorkloadRun
from ..workloads.registry import get_workload


@dataclass
class WorkloadRunOutcome:
    """One finished (workload, design, machine) combination."""

    design: str
    workload: str
    result: SimulationResult
    runs: List[WorkloadRun]
    layout: MemoryLayout

    @property
    def stats(self):
        return self.result.stats

    def validator(self, core: int = 0) -> PrefixValidator:
        """A crash validator for one core's transaction history."""
        return PrefixValidator(
            self.runs[core],
            txn_end_times=self.result.txn_end_times[core],
        )


def build_traces(
    workload_name: str,
    config: SystemConfig,
    mechanism: str = "undo",
    params: Optional[WorkloadParams] = None,
    log_capacity: Optional[int] = None,
) -> tuple:
    """Generate one trace per core; returns (traces, runs, layout)."""
    if log_capacity is None:
        effective_params = params or WorkloadParams()
        # Each batched op can touch a handful of lines; size the log to
        # the worst batch with headroom for tree splits and rotations.
        log_capacity = max(160, effective_params.ops_per_txn * 12 + 16)
    layout = MemoryLayout.build(config, log_capacity=log_capacity)
    traces: List[Trace] = []
    runs: List[WorkloadRun] = []
    for core in range(config.num_cores):
        workload = get_workload(workload_name, params)
        builder = TraceBuilder(
            name="%s-core%d" % (workload_name, core), functional=config.functional
        )
        arena = layout.arena(core)
        txns = make_transactions(mechanism, builder, arena)
        run = workload.generate(builder, txns, arena, mechanism=mechanism)
        traces.append(builder.build())
        runs.append(run)
    return traces, runs, layout


def run_workload(
    design: str,
    workload_name: str,
    config: Optional[SystemConfig] = None,
    mechanism: str = "undo",
    params: Optional[WorkloadParams] = None,
) -> WorkloadRunOutcome:
    """Run one workload on every core of a machine under one design."""
    if config is None:
        config = fast_config()
    traces, runs, layout = build_traces(workload_name, config, mechanism, params)
    result = Machine(config, design).run(traces)
    return WorkloadRunOutcome(
        design=design,
        workload=workload_name,
        result=result,
        runs=runs,
        layout=layout,
    )


#: Memoized traces for the stats-only sweep path.  Trace generation is
#: pure given ``(workload, config, mechanism, params)`` — workloads seed
#: their own ``random.Random`` from ``params.seed`` — and the figure
#: sweeps replay the *same* traces under five designs, so regenerating
#: per design point is pure waste.  Safe to share because traces are
#: immutable once built (``Op`` is frozen; the machine only reads them)
#: and the stats path discards the per-run bookkeeping.  A single-core
#: timing-only run also keeps its caches' recorded pass on the trace
#: (see ``repro.sim.machine``), so the memo's limit bounds those passes
#: too, and clearing the memo drops them with their traces.
_TRACE_MEMO: "OrderedDict[Tuple, tuple]" = OrderedDict()
_TRACE_MEMO_LIMIT = 64


def _memoized_traces(
    workload_name: str,
    config: SystemConfig,
    mechanism: str,
    params: Optional[WorkloadParams],
) -> List[Trace]:
    key = (workload_name, config, mechanism, params or WorkloadParams())
    cached = _TRACE_MEMO.get(key)
    if cached is None:
        cached = build_traces(workload_name, config, mechanism, params)
        _TRACE_MEMO[key] = cached
        if len(_TRACE_MEMO) > _TRACE_MEMO_LIMIT:
            _TRACE_MEMO.popitem(last=False)
    else:
        _TRACE_MEMO.move_to_end(key)
    return cached[0]


def run_workload_stats(
    design: str,
    workload_name: str,
    config: Optional[SystemConfig] = None,
    mechanism: str = "undo",
    params: Optional[WorkloadParams] = None,
):
    """Like :func:`run_workload` but returns only the machine stats.

    This is the worker-friendly entry point of the parallel sweep
    engine (:mod:`repro.bench.parallel`): stats are small, picklable
    and JSON-serializable, unlike the live controller/hierarchy held by
    a full :class:`WorkloadRunOutcome`.  Traces are memoized across
    calls (per worker process) since only the stats escape.
    """
    if config is None:
        config = fast_config()
    traces = _memoized_traces(workload_name, config, mechanism, params)
    return Machine(config, design).run(traces).stats


def run_workload_multicore(
    design: str,
    workload_name: str,
    core_counts: Sequence[int],
    base_config: Optional[SystemConfig] = None,
    mechanism: str = "undo",
    params: Optional[WorkloadParams] = None,
) -> Dict[int, WorkloadRunOutcome]:
    """Run the same workload at several core counts (Figure 13)."""
    outcomes: Dict[int, WorkloadRunOutcome] = {}
    for cores in core_counts:
        if base_config is None:
            config = fast_config(num_cores=cores)
        else:
            config = base_config.scaled(num_cores=cores)
        outcomes[cores] = run_workload(design, workload_name, config, mechanism, params)
    return outcomes
