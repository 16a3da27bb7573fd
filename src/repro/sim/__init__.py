"""Trace-driven simulation engine.

Programs are expressed as per-core operation traces (loads, stores with
optional ``CounterAtomic`` tags, ``clwb``, ``counter_cache_writeback``,
``sfence``, compute gaps, transaction markers).  The machine replays the
traces against the cache hierarchy and memory controller, advancing the
globally earliest core first so shared-resource contention is resolved
in time order.
"""

from .machine import Machine, SimulationResult
from .snapshot import (
    SnapshotStore,
    read_snapshot,
    result_fingerprint,
    run_with_checkpoints,
    write_snapshot,
)
from .stats import MachineStats
from .tracefile import dumps_trace, load_traces, loads_trace, save_traces
from .trace import (
    Op,
    OpKind,
    Trace,
    TraceBuilder,
    persist_barrier,
)

__all__ = [
    "Machine",
    "SimulationResult",
    "MachineStats",
    "Op",
    "OpKind",
    "Trace",
    "TraceBuilder",
    "persist_barrier",
    "dumps_trace",
    "loads_trace",
    "save_traces",
    "load_traces",
    "SnapshotStore",
    "read_snapshot",
    "result_fingerprint",
    "run_with_checkpoints",
    "write_snapshot",
]
