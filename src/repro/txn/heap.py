"""Persistent heap and per-core memory layout.

The evaluated workloads place their structures in the NVM data region.
To keep multicore runs contention-comparable with the paper (each
thread performs the same operations on its own structure), the data
region is carved into per-core arenas; within an arena, a bump
allocator hands out line-aligned blocks and the transaction mechanisms
reserve their fixed metadata up front (transaction record, log area).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..config import CACHE_LINE_SIZE, SystemConfig
from ..errors import HeapError
from ..nvm.address import AddressMap
from ..utils.bitops import align_up


class PersistentHeap:
    """A line-aligned bump allocator over one address range."""

    def __init__(self, base: int, limit: int, name: str = "heap") -> None:
        if base % CACHE_LINE_SIZE != 0:
            raise HeapError("heap base must be line-aligned")
        if limit <= base:
            raise HeapError("heap limit must exceed base")
        self.base = base
        self.limit = limit
        self.name = name
        self._cursor = base
        self.allocations: Dict[int, int] = {}

    def alloc(self, size: int, align: int = CACHE_LINE_SIZE) -> int:
        """Allocate ``size`` bytes aligned to ``align``."""
        if size <= 0:
            raise HeapError("allocation size must be positive")
        if align <= 0 or align % 8 != 0:
            raise HeapError("alignment must be a positive multiple of 8")
        address = align_up(self._cursor, align)
        end = address + size
        if end > self.limit:
            raise HeapError(
                "%s exhausted: need %d bytes at 0x%x, limit 0x%x"
                % (self.name, size, address, self.limit)
            )
        self._cursor = end
        self.allocations[address] = size
        return address

    def alloc_lines(self, num_lines: int) -> int:
        """Allocate whole cache lines."""
        return self.alloc(num_lines * CACHE_LINE_SIZE, align=CACHE_LINE_SIZE)

    @property
    def used_bytes(self) -> int:
        return self._cursor - self.base

    @property
    def free_bytes(self) -> int:
        return self.limit - self._cursor


@dataclass
class CoreArena:
    """The per-core slice of the data region."""

    core_id: int
    heap: PersistentHeap
    #: One line holding the transaction record (valid flag and seq).
    txn_record: int
    #: Base of the log area (undo/redo entries).
    log_base: int
    #: Number of log entries available.
    log_capacity: int


#: Bytes per undo/redo log entry: one header line + one payload line.
LOG_ENTRY_BYTES = 2 * CACHE_LINE_SIZE


@dataclass
class MemoryLayout:
    """Whole-machine data-region layout (per-core arenas)."""

    arenas: List[CoreArena]
    arena_bytes: int

    @classmethod
    def build(
        cls,
        config: SystemConfig,
        log_capacity: int = 64,
        arena_bytes: Optional[int] = None,
    ) -> "MemoryLayout":
        """Carve per-core arenas out of the data region.

        ``log_capacity`` bounds the number of lines one transaction can
        touch (each touched line consumes one log entry).
        """
        address_map = AddressMap(config.memory_size_bytes, config.nvm.num_banks)
        data_bytes = address_map.counter_region_base
        cores = config.num_cores
        if arena_bytes is None:
            arena_bytes = data_bytes // cores
        arena_bytes -= arena_bytes % CACHE_LINE_SIZE
        metadata_bytes = CACHE_LINE_SIZE + log_capacity * LOG_ENTRY_BYTES
        if arena_bytes <= metadata_bytes + CACHE_LINE_SIZE:
            raise HeapError("arena too small for transaction metadata")
        if arena_bytes * cores > data_bytes:
            raise HeapError("arenas exceed the data region")
        arenas: List[CoreArena] = []
        for core in range(cores):
            base = core * arena_bytes
            heap = PersistentHeap(base, base + arena_bytes, name="arena-core%d" % core)
            txn_record = heap.alloc_lines(1)
            log_base = heap.alloc(log_capacity * LOG_ENTRY_BYTES)
            arenas.append(
                CoreArena(
                    core_id=core,
                    heap=heap,
                    txn_record=txn_record,
                    log_base=log_base,
                    log_capacity=log_capacity,
                )
            )
        return cls(arenas=arenas, arena_bytes=arena_bytes)

    def arena(self, core_id: int) -> CoreArena:
        try:
            return self.arenas[core_id]
        except IndexError:
            raise HeapError("no arena for core %d" % core_id) from None
