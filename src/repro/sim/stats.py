"""Simulation statistics: per-core and machine-wide aggregates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class CoreStats:
    """Accounting for one simulated core."""

    core_id: int
    ops_executed: int = 0
    loads: int = 0
    stores: int = 0
    ca_stores: int = 0
    clwbs: int = 0
    ccwbs: int = 0
    fences: int = 0
    transactions: int = 0
    finish_ns: float = 0.0
    fence_stall_ns: float = 0.0
    load_stall_ns: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "ops": self.ops_executed,
            "loads": self.loads,
            "stores": self.stores,
            "ca_stores": self.ca_stores,
            "clwbs": self.clwbs,
            "ccwbs": self.ccwbs,
            "fences": self.fences,
            "transactions": self.transactions,
            "finish_ns": self.finish_ns,
            "fence_stall_ns": self.fence_stall_ns,
            "load_stall_ns": self.load_stall_ns,
        }


@dataclass
class MachineStats:
    """Machine-wide results of one simulation run."""

    design: str
    num_cores: int
    runtime_ns: float
    per_core: List[CoreStats]
    bytes_written: int
    bytes_read: int
    transactions: int
    counter_cache_miss_rate: Optional[float]
    data_wq_peak: int
    counter_wq_peak: int
    coalesced_data_writes: int
    coalesced_counter_writes: int
    paired_writes: int
    mean_read_latency_ns: float
    # Bonsai-tree designs only; defaulted so stats dicts from runs that
    # predate the integrity subsystem still round-trip.
    tree_node_writes: int = 0
    coalesced_tree_writes: int = 0
    tree_verifications: int = 0
    tree_node_fills: int = 0
    root_updates: int = 0
    ccwb_tree_flushes: int = 0
    tree_wq_peak: int = 0

    @property
    def throughput_txn_per_s(self) -> float:
        """Transactions per second (the paper's Figure 13 metric)."""
        if self.runtime_ns <= 0:
            return 0.0
        return self.transactions / (self.runtime_ns * 1e-9)

    def normalized_runtime(self, baseline: "MachineStats") -> float:
        """Runtime relative to a baseline run (Figure 12 metric)."""
        if baseline.runtime_ns <= 0:
            raise ValueError("baseline runtime must be positive")
        return self.runtime_ns / baseline.runtime_ns

    def normalized_write_traffic(self, baseline: "MachineStats") -> float:
        """Bytes written relative to a baseline run (Figure 14 metric)."""
        if baseline.bytes_written <= 0:
            raise ValueError("baseline wrote no bytes")
        return self.bytes_written / baseline.bytes_written

    def normalized_throughput(self, baseline: "MachineStats") -> float:
        """Throughput relative to a baseline run (Figure 13 metric)."""
        base = baseline.throughput_txn_per_s
        if base <= 0:
            raise ValueError("baseline throughput must be positive")
        return self.throughput_txn_per_s / base

    def summary(self) -> Dict[str, float]:
        return {
            "design": self.design,
            "cores": self.num_cores,
            "runtime_ns": self.runtime_ns,
            "transactions": self.transactions,
            "throughput_txn_per_s": self.throughput_txn_per_s,
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
            "counter_cache_miss_rate": self.counter_cache_miss_rate,
            "paired_writes": self.paired_writes,
        }
