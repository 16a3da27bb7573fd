"""The memory controller: a slim coordinator over composed policy layers.

All design points of the paper run through this one controller,
parameterized by a :class:`repro.core.designs.DesignPolicy` whose three
axes select three strategy objects:

* a **layout path** (:mod:`repro.mem.layout`) owning read/write byte
  movement — plain, co-located 72 B, or split counter region,
* an **atomicity policy** (:mod:`repro.mem.atomicity`) owning the data
  and counter write queues, ready-bit pairing and lag-forced pair
  escalation — unpaired, FCA, or SCA,
* an **integrity persistence** (:mod:`repro.mem.integrity_policy`)
  owning tree-node drains and counter-fetch authentication — none,
  eager, or lazy.

The controller itself keeps only what the layers share: the NVM device
and its bank/bus timing models, the counter store and encryption
engine, the read queue, the drain scheduler, the persist journal, and
the record log (:mod:`repro.mem.events`) that every observable action
appends to.  Statistics are folded from the log rather than incremented
inline; see ``docs/architecture.md`` for the layer diagram and the
record contract.

Timing contract: every public operation takes the requester's current
time and returns absolute completion/acceptance times.  Functionally,
writes are applied to the device immediately (modeling write-queue
forwarding); the journal records *when* each write became durable so
crash images can be reconstructed exactly.
"""

from __future__ import annotations

import dataclasses
from heapq import heappop, heappush
from typing import List, Optional, Tuple

from ..config import CACHE_LINE_SIZE, SystemConfig
from ..core.designs import DesignPolicy
from ..crypto.counter_cache import CounterCacheStats
from ..crypto.counters import CounterStore
from ..crypto.engine import EncryptionEngine
from ..integrity.cache import TreeNodeCache
from ..integrity.tree import IntegrityTreeEngine
from ..nvm.address import AddressMap
from ..nvm.device import NVMDevice
from ..nvm.timing import BankTimingModel, BusModel
from ..persist.journal import PersistJournal
from .atomicity import UnpairedAtomicity, WriteTicket, build_atomicity
from .events import CCWB, CCWB_FLUSH, DRAIN, READ, WRITE_REQUEST, ControllerStats, JsonlTrace, fold
from .integrity_policy import NoIntegrity, build_integrity
from .layout import COLOCATED_PAYLOAD, PlainLayout, ReadResult, build_layout
from .writequeue import EntryIdAllocator, WriteQueue

__all__ = [
    "COLOCATED_PAYLOAD",
    "ControllerStats",
    "MemoryController",
    "ReadResult",
    "WriteTicket",
]

_LINE_MASK = ~(CACHE_LINE_SIZE - 1)
_LINE_SHIFT = 6
_LINES_PER_ROW = BankTimingModel.LINES_PER_ROW

#: Records folded per batch when no trace is configured (amortizes the
#: fold's attribute loads and stores over the batch).
_FOLD_EVERY = 512


class MemoryController:
    """One shared memory controller in front of the NVM DIMM."""

    def __init__(self, config: SystemConfig, policy: DesignPolicy) -> None:
        self.config = config
        self.policy = policy
        nvm_timing = config.nvm
        if nvm_timing.bus_width_bits != policy.bus_width_bits:
            nvm_timing = dataclasses.replace(
                nvm_timing, bus_width_bits=policy.bus_width_bits
            )
        self.timing = nvm_timing
        self.address_map = AddressMap(
            memory_size_bytes=config.memory_size_bytes, num_banks=nvm_timing.num_banks
        )
        self.device = NVMDevice(self.address_map)
        self.banks = BankTimingModel(nvm_timing)
        self.bus = BusModel(nvm_timing)
        # Hoisted constants for the read/drain paths below (num_banks is
        # validated power-of-two; see AddressMap).
        self._num_banks = nvm_timing.num_banks
        self._bank_mask = nvm_timing.num_banks - 1
        self.counter_store = CounterStore(
            counter_region_base=self.address_map.counter_region_base,
            memory_size_bytes=config.memory_size_bytes,
        )
        self.engine: Optional[EncryptionEngine] = None
        if policy.encrypts:
            self.engine = EncryptionEngine(
                config=config.encryption,
                cache_config=config.counter_cache,
                counter_store=self.counter_store,
                functional=config.functional,
            )
        # One id space shared by every queue keeps journal entry ids
        # unique; owning the allocator (instead of a module global)
        # makes entry ids reproducible across checkpoint/restore.
        self.entry_ids = EntryIdAllocator()
        # The record log: every observable action appends one
        # ``(code, *fields)`` tuple; stats fold from it, and an optional
        # JSONL trace writes it out.  Each request folds the log once it
        # holds _FOLD_EVERY records, or every request when tracing.
        self.records: List[tuple] = []
        self._stats = ControllerStats()
        self._trace: Optional[JsonlTrace] = None
        self._fold_at = _FOLD_EVERY
        if config.controller.event_trace_path:
            self._trace = JsonlTrace(config.controller.event_trace_path)
            self._fold_at = 1
        self._fifo_drain = config.controller.drain_policy == "fifo"
        self._last_drain = {"data": 0.0, "counter": 0.0, "tree": 0.0}
        self._counter_hold_ns = config.controller.counter_drain_hold_ns
        #: Read-queue occupancy (Table 2: 32 entries).  A slot is held
        #: from request to data arrival; a full queue delays the start
        #: of new reads (blocking cores rarely fill it, but counter
        #: fills and multicore bursts can).
        self._read_slots: List[float] = []
        self._read_queue_capacity = config.controller.read_queue_entries
        self.read_queue_peak = 0
        self.total_read_queue_wait_ns = 0.0
        self.journal = PersistJournal()
        if not config.controller.crash_bookkeeping:
            self.journal.enabled = False
            self.device.crash_bookkeeping = False
        self._functional = config.functional
        # The three composed strategy layers (see the module docstring).
        self.atomicity: UnpairedAtomicity = build_atomicity(self, config, policy)
        self.integrity: NoIntegrity = build_integrity(self, config, policy)
        self.layout: PlainLayout = build_layout(self, config, policy)

    # ------------------------------------------------------------------
    # Layer delegation (the pre-decomposition attribute surface)
    # ------------------------------------------------------------------

    @property
    def stats(self) -> ControllerStats:
        self.fold_records()
        return self._stats

    def fold_records(self) -> None:
        """Write the pending records to the trace and fold them into stats."""
        records = self.records
        if records:
            if self._trace is not None:
                self._trace.write(records)
            fold(self._stats, records)
            records.clear()

    @property
    def data_queue(self) -> WriteQueue:
        return self.atomicity.data_queue

    @property
    def counter_queue(self) -> WriteQueue:
        return self.atomicity.counter_queue

    @property
    def tree(self) -> Optional[IntegrityTreeEngine]:
        return self.integrity.tree

    @property
    def tree_cache(self) -> Optional[TreeNodeCache]:
        return self.integrity.tree_cache

    @property
    def tree_queue(self) -> Optional[WriteQueue]:
        return self.integrity.tree_queue

    # ------------------------------------------------------------------
    # Read path (Figure 6)
    # ------------------------------------------------------------------

    def read_line(self, address: int, request_ns: float) -> ReadResult:
        """Fetch and (if encrypted) decrypt one data line.

        A full read queue delays the request until its earliest slot
        frees; the slot is then held until the data arrives.
        """
        slots = self._read_slots
        while slots and slots[0] <= request_ns:
            heappop(slots)
        if len(slots) >= self._read_queue_capacity:
            start = heappop(slots)
            self.total_read_queue_wait_ns += start - request_ns
            request_ns = start
        line = address & _LINE_MASK
        layout = self.layout
        payload_bytes = layout.read_payload_bytes
        line_index = line >> _LINE_SHIFT
        complete = self.banks.schedule_read(
            line_index & self._bank_mask,
            request_ns,
            (line_index // self._num_banks) // _LINES_PER_ROW,
        )
        data_arrival = self.bus.schedule_transfer(complete, payload_bytes)
        heappush(slots, data_arrival)
        if len(slots) > self.read_queue_peak:
            self.read_queue_peak = len(slots)
        stored = self.device.read_line(line)
        result = layout.complete_read(line, request_ns, data_arrival, stored.payload)
        records = self.records
        records.append(
            (READ, line, request_ns, result.complete_ns, payload_bytes, result.counter_cache_hit)
        )
        if len(records) >= self._fold_at:
            self.fold_records()
        return result

    # ------------------------------------------------------------------
    # Write path (Section 5.2.2)
    # ------------------------------------------------------------------

    def write_line(
        self,
        address: int,
        payload: Optional[bytes],
        request_ns: float,
        counter_atomic: bool = False,
    ) -> WriteTicket:
        """Accept one data-line writeback (clwb or cache eviction)."""
        line = address & _LINE_MASK
        records = self.records
        records.append((WRITE_REQUEST, line, request_ns, counter_atomic))
        ticket = self.layout.write_line(line, payload, request_ns, counter_atomic)
        if len(records) >= self._fold_at:
            self.fold_records()
        return ticket

    def drain_write(
        self, role: str, address: int, ready_ns: float, payload_bytes: int
    ) -> Tuple[float, float]:
        """Schedule the bus transfer + array write for one drain.

        ``role`` names the queue's drain timeline (``"data"``,
        ``"counter"``, ``"tree"``).  Returns ``(issue_ns,
        complete_ns)``: the entry's queue slot frees at issue (the
        write has left for its bank), while the cell write is durable
        at complete.  Counter-line entries may be held for a grace
        window first (``counter_drain_hold_ns``).
        """
        start = ready_ns
        if role == "counter":
            start += self._counter_hold_ns
        if self._fifo_drain:
            # Strict FIFO drain: head-of-line blocking (ablation).
            last = self._last_drain[role]
            if start < last:
                start = last
        bus_done = self.bus.schedule_transfer(start, payload_bytes)
        issued = self.banks.schedule_write((address >> _LINE_SHIFT) & self._bank_mask, bus_done)
        if self._fifo_drain:
            self._last_drain[role] = issued[1]
        if self._trace is not None:
            self.records.append((DRAIN, role, address) + issued)
        return issued

    # ------------------------------------------------------------------
    # counter_cache_writeback() (Section 4.3 / 5.2.2)
    # ------------------------------------------------------------------

    def counter_cache_writeback(self, address: int, request_ns: float) -> Optional[WriteTicket]:
        """Flush the dirty counter line covering ``address``.

        Returns the acceptance ticket, or None when the design has no
        ccwb support or the line is clean (a no-op, per the paper).
        The flushed entry's ready bit is always set — it is not paired.
        """
        records = self.records
        records.append((CCWB, address, request_ns))
        ticket = None
        if self.engine is not None and self.policy.ccwb_enabled:
            flushed = self.engine.counter_cache.writeback_line(address)
            if flushed is not None:
                records.append((CCWB_FLUSH, address, request_ns))
                ticket = self.atomicity.writeback_counter_line(flushed, request_ns)
                self.integrity.on_ccwb(request_ns)
        if len(records) >= self._fold_at:
            self.fold_records()
        return ticket

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def peek_line(self, line_address: int) -> bytes:
        """Functional peek at one line's current plaintext (no timing).

        Used by debug/checker paths (``CacheHierarchy.read_current``):
        reads the stored line image and decrypts it with its ground-truth
        counter when the design encrypts.
        """
        stored = self.device.read_line(line_address)
        if self.engine is not None and self._functional:
            return self.engine.cipher.decrypt(
                line_address, stored.encrypted_with, stored.payload
            )
        return stored.payload

    @property
    def counter_cache_stats(self) -> Optional["CounterCacheStats"]:
        if self.engine is None:
            return None
        return self.engine.counter_cache.stats

    def write_traffic_bytes(self) -> int:
        return self.stats.bytes_written

    def read_traffic_bytes(self) -> int:
        return self.stats.bytes_read

    # ------------------------------------------------------------------
    # Checkpoint state
    # ------------------------------------------------------------------

    def get_state(self) -> dict:
        """Full controller state for a simulation checkpoint.

        Covers every mutable structure the timing and functional paths
        touch, layer by layer; config-derived objects (address map,
        cipher, policy, the strategy objects themselves) are rebuilt
        from config on restore.  The record log is folded into the
        stats first; the trace is not state — a restored run re-appends
        to it.
        """
        return {
            "device": self.device.get_state(),
            "banks": self.banks.get_state(),
            "bus": self.bus.get_state(),
            "counter_store": self.counter_store.get_state(),
            "engine": self.engine.get_state() if self.engine is not None else None,
            "next_entry_id": self.entry_ids.next_id,
            "atomicity": self.atomicity.get_state(),
            "integrity": self.integrity.get_state(),
            "last_drain": dict(self._last_drain),
            "read_slots": list(self._read_slots),
            "read_queue_peak": self.read_queue_peak,
            "total_read_queue_wait_ns": self.total_read_queue_wait_ns,
            "journal": self.journal.get_state(),
            "stats": dataclasses.asdict(self.stats),
        }

    def set_state(self, state: dict) -> None:
        self.fold_records()
        self.device.set_state(state["device"])
        self.banks.set_state(state["banks"])
        self.bus.set_state(state["bus"])
        self.counter_store.set_state(state["counter_store"])
        if self.engine is not None and state["engine"] is not None:
            self.engine.set_state(state["engine"])
        self.entry_ids.next_id = state["next_entry_id"]
        self.atomicity.set_state(state["atomicity"])
        self.integrity.set_state(state["integrity"])
        self._last_drain = dict(state["last_drain"])
        self._read_slots = list(state["read_slots"])
        self.read_queue_peak = state["read_queue_peak"]
        self.total_read_queue_wait_ns = state["total_read_queue_wait_ns"]
        self.journal.set_state(state["journal"])
        self._stats = ControllerStats(**state["stats"])
