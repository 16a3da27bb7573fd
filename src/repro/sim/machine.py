"""The machine: cores + caches + memory controller, replaying traces.

Scheduling: each core is a cursor into its trace with a local clock.
The machine always executes the next operation of the core with the
earliest clock (the lowest core id on a tie), so shared-resource
contention (L2, write queues, banks, bus) is resolved in global time
order.  This is the standard conservative discrete-event discipline at
operation granularity — sufficient because every inter-core
interaction in this model happens through timestamped shared
resources.  :meth:`Machine.run_events` is the one loop that does it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from math import inf, nextafter
from operator import attrgetter
from typing import List, Optional, Sequence, Union

from ..config import SystemConfig
from ..core.designs import DesignPolicy, get_design, sharded_design_name
from ..errors import SimulationError, TraceError
from ..mem.controller import MemoryController
from ..mem.hierarchy import CacheHierarchy
from ..mem.sharded import ShardedMemorySystem
from ..persist.model import PersistencyTracker
from .stats import CoreStats, MachineStats
from .trace import OpKind, Trace

#: What the machine drives: the singleton controller (``shards == 1``,
#: the exact pre-sharding fast path) or the N-way sharded coordinator
#: presenting the same surface (:mod:`repro.mem.sharded`).
MemorySystem = Union[MemoryController, ShardedMemorySystem]


@dataclass
class SimulationResult:
    """Everything a finished run exposes to experiments and checkers."""

    stats: MachineStats
    controller: MemorySystem
    hierarchy: CacheHierarchy
    config: SystemConfig
    policy: DesignPolicy
    #: Per-core list of txn_end completion times (after the commit
    #: barrier) — validators use these for commit-durability checks.
    txn_end_times: List[List[float]] = field(default_factory=list)

    @property
    def journal(self):
        return self.controller.journal


class _CoreState:
    """Execution cursor of one core."""

    __slots__ = ("core_id", "trace", "index", "clock_ns", "tracker", "stats")

    def __init__(self, core_id: int, trace: Trace) -> None:
        self.core_id = core_id
        self.trace = trace
        self.index = 0
        self.clock_ns = 0.0
        self.tracker = PersistencyTracker()
        self.stats = CoreStats(core_id=core_id)

    @property
    def done(self) -> bool:
        return self.index >= len(self.trace.ops)


#: Integer dispatch codes for the event loop (:meth:`Machine.run_events`),
#: cached per trace as ``trace._dispatch_codes``.
_OP_CODE = {
    OpKind.LOAD: 0,
    OpKind.STORE: 1,
    OpKind.CLWB: 2,
    OpKind.CCWB: 3,
    OpKind.SFENCE: 4,
    OpKind.COMPUTE: 5,
    OpKind.TXN_BEGIN: 6,
    OpKind.TXN_END: 7,
    OpKind.LABEL: 8,
}

_clock_of = attrgetter("clock_ns")


class Machine:
    """A complete simulated system under one design point."""

    def __init__(self, config: SystemConfig, design: str | DesignPolicy) -> None:
        self.config = config
        self.policy = get_design(design) if isinstance(design, str) else design
        # shards == 1 keeps the exact singleton-controller path — the
        # sharded coordinator only exists when there is real fan-out.
        self.controller: MemorySystem
        if config.shards == 1:
            self.controller = MemoryController(config, self.policy)
        else:
            self.controller = ShardedMemorySystem(config, self.policy)
        self.hierarchy = CacheHierarchy(config, self.controller)
        self._txn_end_times: List[List[float]] = []
        self._cores: Optional[List[_CoreState]] = None
        self._pending: List[_CoreState] = []
        self.events_executed = 0

    # ------------------------------------------------------------------

    def begin(self, traces: Sequence[Trace]) -> None:
        """Install traces and arm the event loop without running it.

        ``begin`` / ``run_events`` / ``finish`` decompose :meth:`run` so
        a checkpointing harness can pause the simulation at an event
        boundary; ``run`` remains the one-shot path.
        """
        if len(traces) > self.config.num_cores:
            raise TraceError(
                "%d traces but only %d cores" % (len(traces), self.config.num_cores)
            )
        self._cores = [_CoreState(i, trace) for i, trace in enumerate(traces)]
        self._txn_end_times = [[] for _ in traces]
        self._pending = [c for c in self._cores if not c.done]
        self.events_executed = 0

    def step(self) -> bool:
        """Execute one event; returns True while more events remain."""
        return self.run_events(1)

    def finish(self) -> SimulationResult:
        """Assemble the result once every event has run."""
        if self._cores is None:
            raise SimulationError("finish() called before begin()")
        return self._finish(self._cores)

    def run(self, traces: Sequence[Trace]) -> SimulationResult:
        """Replay one trace per core to completion."""
        self.begin(traces)
        self.fast_forward()
        return self.finish()

    def fast_forward(self) -> None:
        """Execute every remaining event."""
        self.run_events(None)

    def run_events(self, budget: Optional[int] = None) -> bool:
        """Execute up to ``budget`` events (all with None); True while more remain.

        The machine's one event loop.  It runs the earliest pending
        core (the lowest core id on a tie) until the budget runs out,
        its trace ends, or its clock passes the next core's
        ``(clock_ns, core_id)`` — exactly the core one event at a time
        would have picked, so any split of a run into calls lands on
        the same event boundaries and state.  A lone pending core runs
        to the end of its trace or budget in one pass.

        Per-op counters accumulate in locals and are written back in a
        ``finally``, so after a mid-loop simulation error the failing
        op counts as executed (its index advanced) but not as a
        completed event.
        """
        if self._cores is None:
            raise SimulationError("run_events() called before begin()")
        overhead = self.config.core.op_overhead_ns
        l1_hit = self.config.l1.hit_latency_ns
        hierarchy = self.hierarchy
        load = hierarchy.load
        store = hierarchy.store
        clwb = hierarchy.clwb
        ccwb = self.controller.counter_cache_writeback
        # Cross-shard commit barrier (None on the singleton controller).
        note_commit = getattr(self.controller, "note_txn_commit", None)
        pending = self._pending
        while pending and (budget is None or budget > 0):
            core = min(pending, key=_clock_of)
            core_id = core.core_id
            # The earliest core runs its next op, and keeps going while its
            # (clock, id) stays below every other pending core's.  Against
            # a higher id a tied clock still wins, so that bound moves one
            # float up: one compare per op.
            limit = inf
            for other in pending:
                if other is not core:
                    bound = other.clock_ns
                    if other.core_id > core_id:
                        bound = nextafter(bound, inf)
                    if bound < limit:
                        limit = bound
            trace = core.trace
            ops = trace.ops
            codes = getattr(trace, "_dispatch_codes", None)
            if codes is None:
                op_code = _OP_CODE
                codes = [op_code[op.kind] for op in ops]
                trace._dispatch_codes = codes
            start = index = core.index
            end = len(ops)
            if budget is not None and index + budget < end:
                end = index + budget
            clock = core.clock_ns
            tracker = core.tracker
            note_writeback = tracker.note_writeback
            fence = tracker.fence
            txn_ends = self._txn_end_times[core_id]
            stats = core.stats
            loads = stats.loads
            stores = stats.stores
            ca_stores = stats.ca_stores
            clwbs = stats.clwbs
            ccwbs = stats.ccwbs
            fences = stats.fences
            transactions = stats.transactions
            load_stall = stats.load_stall_ns
            fence_stall = stats.fence_stall_ns
            completed = 0
            try:
                while index < end:
                    op = ops[index]
                    code = codes[index]
                    index += 1
                    now = clock + overhead
                    if code == 0:  # LOAD
                        loads += 1
                        complete = load(core_id, op.address, op.length, now)
                        load_stall += complete - now
                        clock = complete
                    elif code == 1:  # STORE
                        stores += 1
                        if op.counter_atomic:
                            ca_stores += 1
                        clock = store(
                            core_id, op.address, op.data, op.length, now, op.counter_atomic
                        )
                    elif code == 5:  # COMPUTE
                        clock = now + op.duration_ns
                    elif code == 2:  # CLWB
                        clwbs += 1
                        accept = clwb(core_id, op.address, now)
                        if accept is not None:
                            note_writeback(accept)
                        clock = now + l1_hit
                    elif code == 4:  # SFENCE
                        fences += 1
                        release = fence(now)
                        fence_stall += release - now
                        clock = release
                    elif code == 7:  # TXN_END
                        transactions += 1
                        txn_ends.append(now)
                        if note_commit is not None:
                            note_commit(core_id, now)
                        clock = now
                    elif code == 3:  # CCWB
                        ccwbs += 1
                        ticket = ccwb(op.address, now)
                        if ticket is not None:
                            note_writeback(ticket.accept_ns)
                        clock = now + l1_hit
                    else:  # TXN_BEGIN, LABEL
                        clock = now
                    completed += 1
                    if clock >= limit:
                        break
            finally:
                core.index = index
                core.clock_ns = clock
                stats.loads = loads
                stats.stores = stores
                stats.ca_stores = ca_stores
                stats.clwbs = clwbs
                stats.ccwbs = ccwbs
                stats.fences = fences
                stats.transactions = transactions
                stats.load_stall_ns = load_stall
                stats.fence_stall_ns = fence_stall
                stats.ops_executed += index - start
                self.events_executed += completed
            if budget is not None:
                budget -= completed
            if index >= len(ops):
                stats.finish_ns = clock
                pending = self._pending = [c for c in pending if not c.done]
        return bool(pending)

    # -- result assembly -----------------------------------------------------

    def _finish(self, cores: List[_CoreState]) -> SimulationResult:
        runtime = max((c.clock_ns for c in cores), default=0.0)
        cc_stats = self.controller.counter_cache_stats
        # One folded snapshot — on a sharded system every ``.stats``
        # access re-merges the per-shard counters.
        cstats = self.controller.stats
        stats = MachineStats(
            design=sharded_design_name(self.policy.name, self.config.shards),
            num_cores=self.config.num_cores,
            runtime_ns=runtime,
            per_core=[c.stats for c in cores],
            bytes_written=cstats.bytes_written,
            bytes_read=cstats.bytes_read,
            transactions=sum(c.stats.transactions for c in cores),
            counter_cache_miss_rate=cc_stats.miss_rate if cc_stats else None,
            data_wq_peak=self.controller.data_queue.peak_occupancy,
            counter_wq_peak=self.controller.counter_queue.peak_occupancy,
            coalesced_data_writes=cstats.coalesced_data_writes,
            coalesced_counter_writes=cstats.coalesced_counter_writes,
            paired_writes=cstats.paired_writes,
            mean_read_latency_ns=cstats.mean_read_latency_ns,
            tree_node_writes=cstats.tree_node_writes,
            coalesced_tree_writes=cstats.coalesced_tree_writes,
            tree_verifications=cstats.tree_verifications,
            tree_node_fills=cstats.tree_node_fills,
            root_updates=cstats.root_updates,
            ccwb_tree_flushes=cstats.ccwb_tree_flushes,
            tree_wq_peak=(
                self.controller.tree_queue.peak_occupancy
                if self.controller.tree_queue is not None
                else 0
            ),
        )
        return SimulationResult(
            stats=stats,
            controller=self.controller,
            hierarchy=self.hierarchy,
            config=self.config,
            policy=self.policy,
            txn_end_times=self._txn_end_times,
        )

    # -- checkpoint state -----------------------------------------------------

    def get_state(self) -> dict:
        """Complete machine state at an event boundary.

        Self-contained: carries config, policy, and the traces, so
        :meth:`from_state` can rebuild an identical machine with no
        other inputs.  Resuming and running to completion produces a
        bit-identical result to the uninterrupted run.
        """
        if self._cores is None:
            raise SimulationError("get_state() called before begin()")
        return {
            "config": self.config,
            "policy": self.policy,
            "events": self.events_executed,
            "txn_end_times": [list(times) for times in self._txn_end_times],
            "cores": [
                {
                    "core_id": core.core_id,
                    "trace": core.trace,
                    "index": core.index,
                    "clock_ns": core.clock_ns,
                    "tracker": core.tracker.get_state(),
                    "stats": dataclasses.asdict(core.stats),
                }
                for core in self._cores
            ],
            "controller": self.controller.get_state(),
            "hierarchy": self.hierarchy.get_state(),
        }

    def set_state(self, state: dict) -> None:
        """Restore a state captured by :meth:`get_state`.

        The machine must have been built from the same config and
        design; structural objects are reused, mutable state replaced.
        """
        cores: List[_CoreState] = []
        for stored in state["cores"]:
            core = _CoreState(stored["core_id"], stored["trace"])
            core.index = stored["index"]
            core.clock_ns = stored["clock_ns"]
            core.tracker.set_state(stored["tracker"])
            core.stats = CoreStats(**stored["stats"])
            cores.append(core)
        self._cores = cores
        self._pending = [c for c in cores if not c.done]
        self.events_executed = state["events"]
        self._txn_end_times = [list(times) for times in state["txn_end_times"]]
        self.controller.set_state(state["controller"])
        self.hierarchy.set_state(state["hierarchy"])

    @classmethod
    def from_state(cls, state: dict) -> "Machine":
        """Rebuild a machine purely from a :meth:`get_state` capture."""
        machine = cls(state["config"], state["policy"])
        machine.set_state(state)
        return machine


def run_design(
    config: SystemConfig, design: str | DesignPolicy, traces: Sequence[Trace]
) -> SimulationResult:
    """One-shot helper: build a machine and run the traces."""
    return Machine(config, design).run(traces)
