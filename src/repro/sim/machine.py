"""The machine: cores + caches + memory controller, replaying traces.

Scheduling: each core is a cursor into its trace with a local clock.
The machine always executes the next operation of the core with the
earliest clock (the lowest core id on a tie), so shared-resource
contention (L2, write queues, banks, bus) is resolved in global time
order.  This is the standard conservative discrete-event discipline at
operation granularity — sufficient because every inter-core
interaction in this model happens through timestamped shared
resources.  :meth:`Machine.run_events` is the one loop that does it.

A lone core's caches see the same accesses under every design in a
timing-only run, so such a run splits in two passes: a CPU pass runs
the caches once per trace and cache geometry and is kept on the trace,
and each design's memory pass replays its controller traffic through
the same loop (:func:`_recorded_pass`).

A machine is its own checkpoint: everything a running machine reads is
reachable from it, so a machine pickled at any event boundary and
unpickled continues to the uninterrupted run's result
(:mod:`repro.sim.snapshot` keeps such pickles on disk).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from math import inf, nextafter
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..config import SystemConfig
from ..core.designs import DesignPolicy, get_design, sharded_design_name
from ..crypto.otp import OTPCipher, make_block_cipher
from ..errors import SimulationError, TraceError
from ..mem.controller import MemoryController
from ..mem.hierarchy import CacheHierarchy
from ..mem.sharded import ShardedMemorySystem
from ..persist.model import PersistencyTracker
from .stats import CoreStats, MachineStats
from .trace import Trace

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

    def image_cipher(self) -> Optional[OTPCipher]:
        """The cipher this run's crash and final images are enciphered
        with; None when the design stores lines in the clear."""
        if not self.policy.encrypts:
            return None
        return OTPCipher(make_block_cipher(self.config.encryption))


class _CoreState:
    """Execution cursor of one core."""

    __slots__ = ("core_id", "trace", "codes", "index", "clock_ns", "tracker", "stats")

    def __init__(self, core_id: int, trace: Trace) -> None:
        self.core_id = core_id
        self.trace = trace
        #: The trace's op-code column, the loop's dispatch codes.
        self.codes = trace.codes
        self.index = 0
        self.clock_ns = 0.0
        self.tracker = PersistencyTracker()
        self.stats = CoreStats(core_id=core_id)

    @property
    def done(self) -> bool:
        return self.index >= len(self.codes)


_clock_of = attrgetter("clock_ns")


#: Head of a recorded load or store that L2 served; a memory read's
#: head is the line it read.
_FROM_L2 = -1


class _Answer:
    """A :class:`_TrafficRecorder` reply: the request completes as issued."""

    __slots__ = ("complete_ns", "accept_ns", "plaintext")

    def __init__(self, request_ns: float) -> None:
        self.complete_ns = request_ns
        self.accept_ns = request_ns
        self.plaintext = None


class _TrafficRecorder:
    """Stands in for the controller while a CPU pass runs the caches.

    A CPU pass calls :meth:`CacheHierarchy.load`, ``store`` and ``clwb``
    on a hierarchy built over this recorder, each at time 0.0, and then
    :meth:`close_access` or :meth:`close_clwb` with what the access
    returned.  The recorder offers the controller's ``read_line`` and
    ``write_line``, logs each request and answers at the request time,
    so the returned time tells an L1 hit (``l1`` latency) from an access
    that went on to L2.  Each cache op closes into one entry of
    :attr:`entries`:

    * a load or store: None for an L1 hit, else a flat tuple of its
      head — the line it read from memory, or ``_FROM_L2`` — followed
      by its writebacks in order as line, CounterAtomic pairs;
    * a clwb: None, or its one writeback as ``(line, counter_atomic)``.

    Only timing-only runs record: the log keeps no payloads.
    """

    def __init__(self, l1_hit_ns: float) -> None:
        self.entries: List[Optional[Tuple]] = []
        self._l1_hit_ns = l1_hit_ns
        self._read: Optional[int] = None
        self._writes: List[object] = []
        # One tuple per distinct entry: lines are read and written back
        # again and again, and the pass outlives the run on its trace.
        self._interned: Dict[Tuple, Tuple] = {}

    def read_line(self, address: int, request_ns: float) -> _Answer:
        self._read = address
        return _Answer(request_ns)

    def write_line(
        self,
        address: int,
        payload: Optional[bytes],
        request_ns: float,
        counter_atomic: bool = False,
    ) -> _Answer:
        self._writes += (address, counter_atomic)
        return _Answer(request_ns)

    def close_access(self, complete_ns: float) -> None:
        """Log one load or store, issued at 0.0, that returned ``complete_ns``."""
        read = self._read
        writes = self._writes
        if read is None and not writes and complete_ns == self._l1_hit_ns:
            self.entries.append(None)
        else:
            self._log((_FROM_L2 if read is None else read, *writes))

    def close_clwb(self, accept_ns: Optional[float]) -> None:
        """Log one clwb that returned ``accept_ns`` (None: nothing written)."""
        if accept_ns is None:
            self.entries.append(None)
        else:
            self._log(tuple(self._writes))

    def _log(self, entry: Tuple) -> None:
        self.entries.append(self._interned.setdefault(entry, entry))
        self._read = None
        self._writes.clear()


class _TrafficReplay:
    """Stands in for the hierarchy while a memory pass replays a CPU pass.

    It lives here rather than beside :class:`CacheHierarchy` because
    the end-to-end benchmark's spans reject an undeclared class that
    defines ``load``/``store``/``clwb`` in the hierarchy's module; its
    time belongs to the machine's loop, not to ``mem.hierarchy``.

    ``load``, ``store`` and ``clwb`` take the hierarchy's arguments and
    consume one :class:`_TrafficRecorder` entry each.  They issue its
    requests to the controller and redo the hierarchy's float additions
    in their original order, so every time is bit-identical to the live
    hierarchy's:

    * an L1 hit completes at ``now + l1``;
    * an access past L1 reaches L2 at ``now + l1 + l2``: a memory read
      is issued then and the writebacks at the read's ``complete_ns``,
      while an L2 hit issues its writebacks at ``now + l1 + l2``;
    * a clwb's writeback is issued at ``now + l1``.
    """

    def __init__(
        self, config: SystemConfig, controller: "MemorySystem", entries: Iterable
    ) -> None:
        self._next_entry = iter(entries).__next__
        self._read_line = controller.read_line
        self._write_line = controller.write_line
        self._l1_hit_ns = config.l1.hit_latency_ns
        self._l2_hit_ns = config.l2.hit_latency_ns

    def _entry(self) -> Optional[Tuple]:
        try:
            return self._next_entry()
        except StopIteration:
            raise SimulationError("recorded cache pass ran out of entries") from None

    def _access(self, now_ns: float) -> float:
        entry = self._entry()
        if entry is None:
            return now_ns + self._l1_hit_ns
        complete = now_ns + self._l1_hit_ns + self._l2_hit_ns
        head = entry[0]
        if head != _FROM_L2:
            complete = self._read_line(head, complete).complete_ns
        write_line = self._write_line
        for index in range(1, len(entry), 2):
            write_line(entry[index], None, complete, counter_atomic=entry[index + 1])
        return complete

    def load(self, core: int, address: int, length: int, now_ns: float) -> float:
        return self._access(now_ns)

    def store(
        self,
        core: int,
        address: int,
        data: Optional[bytes],
        length: int,
        now_ns: float,
        counter_atomic: bool = False,
    ) -> float:
        return self._access(now_ns)

    def clwb(self, core: int, address: int, now_ns: float) -> Optional[float]:
        entry = self._entry()
        if entry is None:
            return None
        line, counter_atomic = entry
        return self._write_line(
            line, None, now_ns + self._l1_hit_ns, counter_atomic=counter_atomic
        ).accept_ns

    def close(self) -> None:
        """Raise unless every recorded entry was replayed."""
        try:
            self._next_entry()
        except StopIteration:
            return
        raise SimulationError("recorded cache pass has entries left over")


def _recorded_pass(
    config: SystemConfig, trace: Trace
) -> Tuple[List[Optional[Tuple]], bytes]:
    """The CPU pass of a lone core's caches over ``trace``, recorded once.

    Runs the trace's loads, stores and clwbs through a fresh
    :class:`CacheHierarchy` over a :class:`_TrafficRecorder` on core 0.
    Returns the recorder's entries and the final L1 0 and L2 as one
    pickle, which each replay unpickles into a copy of its own.
    A timing-only run's caches see no data and no times from the
    controller, so the pass depends only on the trace and the cache
    geometry: it is kept on the trace as ``trace._cache_passes``, keyed
    by ``(config.l1, config.l2)``, and every design replays it.
    """
    passes = trace.__dict__.setdefault("_cache_passes", {})
    key = (config.l1, config.l2)
    recorded = passes.get(key)
    if recorded is None:
        recorder = _TrafficRecorder(config.l1.hit_latency_ns)
        # Duck-typed: the recorder offers only the controller's
        # read_line/write_line, all the hierarchy calls.
        caches = CacheHierarchy(config, recorder)  # type: ignore[arg-type]
        load = caches.load
        store = caches.store
        clwb = caches.clwb
        close_access = recorder.close_access
        close_clwb = recorder.close_clwb
        for code, address, length, payload, counter_atomic in zip(
            trace.codes,
            trace.addresses,
            trace.lengths,
            trace.payloads,
            trace.counter_atomic,
        ):
            if code == 0:  # LOAD
                close_access(load(0, address, length, 0.0))
            elif code == 1:  # STORE
                close_access(store(0, address, payload, length, 0.0, counter_atomic))
            elif code == 2:  # CLWB
                close_clwb(clwb(0, address, 0.0))
        recorded = passes[key] = (
            recorder.entries,
            pickle.dumps((caches.l1s[0], caches.l2), pickle.HIGHEST_PROTOCOL),
        )
    return recorded


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
        # No run_events call has run on these caches yet: a first
        # run_events(None) over one timing-only trace may replay the
        # trace's cache pass.
        self._caches_untouched = True

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
        to the end of its trace or budget in one pass.  Each op's fields
        come from the trace's columns at the op's index; no per-op
        object exists.

        Who answers the cache accesses: the live :attr:`hierarchy`,
        except when a call runs to the end (``budget`` None) of exactly
        one trace on a timing-only config, from op 0 on caches no event
        has touched.  Then the trace's recorded CPU pass
        (:func:`_recorded_pass`) stands in through a
        :class:`_TrafficReplay`, and :attr:`hierarchy` takes copies of
        the pass's final L1 and L2 at the end, equal to what the live
        caches would hold.  Budgeted calls, several cores, functional
        configs and machines that have run any call keep the live
        hierarchy.  ``_caches_untouched`` travels in a pickle, so a
        machine unpickled right after :meth:`begin` replays as its
        original would.

        Per-op counters accumulate in locals and are written back in a
        ``finally``, so after a mid-loop simulation error the failing
        op counts as executed (its index advanced) but not as a
        completed event.  On the replayed path a load or store that
        crosses its cache line raises :class:`AddressError` from the
        CPU pass, before any op executes or the controller sees a
        request.
        """
        if self._cores is None:
            raise SimulationError("run_events() called before begin()")
        config = self.config
        overhead = config.core.op_overhead_ns
        l1_hit = config.l1.hit_latency_ns
        pending = self._pending
        hierarchy = self.hierarchy
        load = hierarchy.load
        store = hierarchy.store
        clwb = hierarchy.clwb
        replay = None
        if (
            budget is None
            and self._caches_untouched
            and len(self._cores) == 1
            and pending
            and not config.functional
        ):
            entries, final_caches = _recorded_pass(config, pending[0].trace)
            replay = _TrafficReplay(config, self.controller, entries)
            load = replay.load
            store = replay.store
            clwb = replay.clwb
        self._caches_untouched = False
        ccwb = self.controller.counter_cache_writeback
        # Cross-shard commit barrier (None on the singleton controller).
        note_commit = getattr(self.controller, "note_txn_commit", None)
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
            codes = core.codes
            addresses = trace.addresses
            lengths = trace.lengths
            payloads = trace.payloads
            atomics = trace.counter_atomic
            durations = trace.durations
            start = index = core.index
            end = len(codes)
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
                    at = index
                    index += 1
                    code = codes[at]
                    now = clock + overhead
                    if code == 0:  # LOAD
                        loads += 1
                        complete = load(core_id, addresses[at], lengths[at], now)
                        load_stall += complete - now
                        clock = complete
                    elif code == 1:  # STORE
                        stores += 1
                        counter_atomic = atomics[at]
                        if counter_atomic:
                            ca_stores += 1
                        clock = store(
                            core_id,
                            addresses[at],
                            payloads[at],
                            lengths[at],
                            now,
                            counter_atomic,
                        )
                    elif code == 5:  # COMPUTE
                        clock = now + durations[at]
                    elif code == 2:  # CLWB
                        clwbs += 1
                        accept = clwb(core_id, addresses[at], now)
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
                        ticket = ccwb(addresses[at], now)
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
            if index >= len(codes):
                stats.finish_ns = clock
                pending = self._pending = [c for c in pending if not c.done]
        if replay is not None:
            replay.close()
            hierarchy.l1s[0], hierarchy.l2 = pickle.loads(final_caches)
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


def run_design(
    config: SystemConfig, design: str | DesignPolicy, traces: Sequence[Trace]
) -> SimulationResult:
    """One-shot helper: build a machine and run the traces."""
    return Machine(config, design).run(traces)
