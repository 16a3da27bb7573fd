"""A set-associative write-back, write-allocate cache level.

Used for the private L1s and the shared L2.  The cache is functional
(moves real bytes) when built with ``functional=True`` and tag-only
otherwise; the replacement, dirty and CounterAtomic bookkeeping is
identical in both modes, so timing-only sweeps exercise the same paths.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config import CACHE_LINE_SIZE, CacheConfig
from ..errors import AddressError
from .cacheline import CacheLine

#: Line addressing as plain mask/shift arithmetic: the hot paths run
#: once per cache access, so the generic ``align_down`` helper call is
#: replaced by constants derived from the (power-of-two) line size.
_LINE_MASK = ~(CACHE_LINE_SIZE - 1)
_LINE_SHIFT = CACHE_LINE_SIZE.bit_length() - 1


@dataclass
class CacheStats:
    """Hit/miss/writeback counters for one cache level."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    #: Counted by the hierarchy for an L1 store that misses and
    #: write-allocates: :meth:`Cache.write` leaves a miss to its caller,
    #: so a writeback that misses a level counts nothing there.
    write_misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    writebacks_cleaned: int = 0  # clwb on a dirty line

    @property
    def accesses(self) -> int:
        return self.read_hits + self.read_misses + self.write_hits + self.write_misses

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return (self.read_misses + self.write_misses) / self.accesses


@dataclass(slots=True)
class EvictedLine:
    """A victim pushed out of a cache level."""

    address: int
    payload: Optional[bytes]
    dirty: bool
    counter_atomic: bool


class Cache:
    """One cache level with true-LRU replacement."""

    def __init__(self, config: CacheConfig, functional: bool = True, name: str = "cache") -> None:
        self.config = config
        self.functional = functional
        self.name = name
        self.num_sets = config.num_sets
        self.ways = config.ways
        self._set_mask = self.num_sets - 1  # num_sets is a power of two
        self._sets: List[Dict[int, CacheLine]] = [dict() for _ in range(self.num_sets)]
        self._tick = 0
        self.stats = CacheStats()

    # -- addressing ------------------------------------------------------

    @staticmethod
    def line_address(address: int) -> int:
        return address & _LINE_MASK

    # -- queries -----------------------------------------------------------

    def contains(self, address: int) -> bool:
        line_address = address & _LINE_MASK
        return (
            self._sets[(line_address >> _LINE_SHIFT) & self._set_mask].get(line_address)
            is not None
        )

    def peek(self, address: int) -> Optional[CacheLine]:
        """Inspect a line without touching LRU or statistics."""
        line_address = address & _LINE_MASK
        return self._sets[(line_address >> _LINE_SHIFT) & self._set_mask].get(line_address)

    # -- read path -----------------------------------------------------------

    def read(self, address: int) -> Optional[CacheLine]:
        """A read access: count a hit or a miss; returns the line or None.

        A hit also touches the line's LRU position.  The caller reads
        the bytes it needs from the returned line (``payload`` is None
        in timing-only mode).
        """
        line_address = address & _LINE_MASK
        line = self._sets[(line_address >> _LINE_SHIFT) & self._set_mask].get(line_address)
        if line is None:
            self.stats.read_misses += 1
            return None
        self.stats.read_hits += 1
        self._tick += 1
        line.lru_tick = self._tick
        return line

    # -- write path ------------------------------------------------------------

    def write(
        self,
        address: int,
        data: Optional[bytes],
        length: int,
        counter_atomic: bool = False,
        dirty: bool = True,
    ) -> bool:
        """Store into a resident line; returns False on a miss.

        A miss changes nothing: the caller decides between allocating
        the line (a store) and leaving the level alone (a writeback
        passing by).  ``data`` is None in timing-only mode, in which
        case ``length`` still drives the bounds check.  ``dirty=False``
        is a write-through: the line takes the bytes but ends clean,
        because they are already on their way to memory.
        """
        line_address = address & _LINE_MASK
        line = self._sets[(line_address >> _LINE_SHIFT) & self._set_mask].get(line_address)
        if line is None:
            return False
        self.stats.write_hits += 1
        self._tick += 1
        line.lru_tick = self._tick
        if data is not None:
            line.write_bytes(address - line_address, data)
        elif address - line_address + length > CACHE_LINE_SIZE:
            raise AddressError("store spills out of the line")
        line.dirty = dirty
        if counter_atomic:
            line.counter_atomic = True
        return True

    # -- fills and evictions -------------------------------------------------------

    def fill(
        self,
        address: int,
        payload: Optional[bytes],
        dirty: bool = False,
        counter_atomic: bool = False,
    ) -> Optional[EvictedLine]:
        """Install a line, evicting the LRU way if the set is full.

        Returns the victim only when it was dirty, so the caller can
        propagate its data downward; clean victims are dropped silently
        (the eviction still shows up in the stats) and no-eviction fills
        return None.
        """
        line_address = address & _LINE_MASK
        cache_set = self._sets[(line_address >> _LINE_SHIFT) & self._set_mask]
        existing = cache_set.get(line_address)
        if existing is not None:
            # Refill of a resident line: merge payload, keep metadata.
            if payload is not None and existing.payload is not None:
                existing.payload[:] = payload
            existing.dirty = existing.dirty or dirty
            existing.counter_atomic = existing.counter_atomic or counter_atomic
            self._tick += 1
            existing.lru_tick = self._tick
            return None
        victim: Optional[EvictedLine] = None
        if len(cache_set) >= self.ways:
            # Manual first-minimal scan: same victim as
            # min(cache_set, key=...) but without 'ways' lambda calls.
            values = iter(cache_set.values())
            victim_line = next(values)
            victim_tick = victim_line.lru_tick
            for candidate in values:
                candidate_tick = candidate.lru_tick
                if candidate_tick < victim_tick:
                    victim_line = candidate
                    victim_tick = candidate_tick
            del cache_set[victim_line.tag]
            self.stats.evictions += 1
            if victim_line.dirty:
                self.stats.dirty_evictions += 1
                victim_payload = victim_line.payload
                victim = EvictedLine(
                    address=victim_line.tag,
                    payload=(
                        None if victim_payload is None else bytes(victim_payload)
                    ),
                    dirty=True,
                    counter_atomic=victim_line.counter_atomic,
                )
        self._tick += 1
        stored = (
            bytearray(payload)
            if (self.functional and payload is not None)
            else (bytearray(CACHE_LINE_SIZE) if self.functional else None)
        )
        new_line = CacheLine(line_address, stored, self._tick)
        new_line.dirty = dirty
        new_line.counter_atomic = counter_atomic
        cache_set[line_address] = new_line
        return victim

    def clean_line(self, address: int) -> Optional[Tuple[Optional[bytes], bool]]:
        """clwb semantics: emit a writeback for a dirty line, keep it valid.

        Returns ``(payload, counter_atomic)`` for the writeback, or None
        if the line is absent or clean.  The line's dirty and
        CounterAtomic flags are cleared — the update is now owned by
        the memory controller.
        """
        line_address = address & _LINE_MASK
        line = self._sets[(line_address >> _LINE_SHIFT) & self._set_mask].get(line_address)
        if line is None or not line.dirty:
            return None
        line.dirty = False
        was_ca = line.counter_atomic
        line.counter_atomic = False
        self.stats.writebacks_cleaned += 1
        return line.snapshot_payload(), was_ca

    def invalidate_all(self) -> None:
        """Drop all contents (volatile loss at power failure)."""
        for cache_set in self._sets:
            cache_set.clear()

    def dirty_lines(self) -> List[int]:
        """Addresses of all dirty lines, ascending (flush-all operations)."""
        return sorted(
            line.tag
            for cache_set in self._sets
            for line in cache_set.values()
            if line.dirty
        )

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    # -- checkpoint state -------------------------------------------------------

    def get_state(self) -> Dict[str, object]:
        """Plain-container snapshot of all mutable state.

        Lines are emitted in set-dict insertion order: LRU eviction
        breaks ties by iteration order, so restoring in the same order
        is part of the bit-identical resume contract.
        """
        return {
            "tick": self._tick,
            "stats": dataclasses.asdict(self.stats),
            "sets": [
                [
                    (
                        line.tag,
                        None if line.payload is None else bytes(line.payload),
                        line.dirty,
                        line.counter_atomic,
                        line.lru_tick,
                    )
                    for line in cache_set.values()
                ]
                for cache_set in self._sets
            ],
        }

    def set_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`get_state` (geometry must match)."""
        self._tick = state["tick"]
        self.stats = CacheStats(**state["stats"])
        sets: List[Dict[int, CacheLine]] = []
        for stored_set in state["sets"]:
            cache_set: Dict[int, CacheLine] = {}
            for tag, payload, dirty, counter_atomic, lru_tick in stored_set:
                line = CacheLine(
                    tag,
                    None if payload is None else bytearray(payload),
                    lru_tick,
                )
                line.dirty = dirty
                line.counter_atomic = counter_atomic
                cache_set[tag] = line
            sets.append(cache_set)
        self._sets = sets
