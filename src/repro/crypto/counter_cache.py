"""The on-chip counter cache.

Counters must be available for every read (to generate the OTP while the
data line is in flight) and every write (to pick the next counter).  The
paper buffers them in a set-associative, write-back counter cache (1 MB
per core, 16-way in Table 2).  Each cache entry covers one 64 B counter
line, i.e. eight consecutive data lines' counters.

This cache is *volatile*: its contents vanish on a power failure, which
is precisely why dirty counters that were never written back can strand
encrypted data in NVM (the paper's motivating failure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..config import CACHE_LINE_SIZE, COUNTERS_PER_LINE, CounterCacheConfig
from ..errors import AddressError
from ..utils.bitops import align_down

if TYPE_CHECKING:
    from .counters import CounterStore

#: A data-line group: the 8 data lines sharing one counter line.
GROUP_SPAN = CACHE_LINE_SIZE * COUNTERS_PER_LINE


@dataclass
class CounterCacheStats:
    """Hit/miss/writeback accounting for the counter cache."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    fills: int = 0
    writebacks: int = 0
    explicit_writebacks: int = 0
    evictions: int = 0
    dirty_evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.read_hits + self.read_misses + self.write_hits + self.write_misses

    @property
    def miss_rate(self) -> float:
        accesses = self.accesses
        if accesses == 0:
            return 0.0
        return (self.read_misses + self.write_misses) / accesses

    def as_dict(self) -> Dict[str, float]:
        return {
            "read_hits": self.read_hits,
            "read_misses": self.read_misses,
            "write_hits": self.write_hits,
            "write_misses": self.write_misses,
            "fills": self.fills,
            "writebacks": self.writebacks,
            "explicit_writebacks": self.explicit_writebacks,
            "evictions": self.evictions,
            "dirty_evictions": self.dirty_evictions,
            "miss_rate": self.miss_rate,
        }


class _Entry:
    """One counter-cache line: eight counters plus metadata."""

    __slots__ = ("group_base", "counters", "dirty", "lru_tick")

    def __init__(self, group_base: int, counters: List[int], lru_tick: int) -> None:
        self.group_base = group_base
        self.counters = counters
        self.dirty = False
        self.lru_tick = lru_tick


class CounterCache:
    """Set-associative write-back cache of counter lines (true LRU)."""

    def __init__(self, config: CounterCacheConfig) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.ways = config.ways
        self._sets: List[Dict[int, _Entry]] = [dict() for _ in range(self.num_sets)]
        self._tick = 0
        self.stats = CounterCacheStats()
        # num_sets is a power of two (enforced by CacheConfig), so the
        # hot lookup path can use masks instead of modulo/divide.
        self._set_mask = self.num_sets - 1
        self._group_mask = ~(GROUP_SPAN - 1)

    # -- address helpers -------------------------------------------------

    @staticmethod
    def group_base(data_address: int) -> int:
        """Base data address of the 8-line group covering ``data_address``."""
        return align_down(data_address, GROUP_SPAN)

    def _set_index(self, group_base: int) -> int:
        return (group_base // GROUP_SPAN) % self.num_sets

    # -- lookups ----------------------------------------------------------

    def _find(self, group_base: int) -> Optional[_Entry]:
        return self._sets[self._set_index(group_base)].get(group_base)

    def contains(self, data_address: int) -> bool:
        """True if the counter for ``data_address`` is cached."""
        return self._find(self.group_base(data_address)) is not None

    def is_dirty(self, data_address: int) -> bool:
        """True if the covering counter line is cached and dirty."""
        entry = self._find(self.group_base(data_address))
        return entry is not None and entry.dirty

    def _touch(self, entry: _Entry) -> None:
        self._tick += 1
        entry.lru_tick = self._tick

    # -- read / write paths ------------------------------------------------

    def lookup_for_read(self, data_address: int) -> Optional[int]:
        """Counter for a read access; None on miss (caller must fill)."""
        # Hot path: every simulated load funnels through here, so the
        # group/set/slot arithmetic is inlined as mask-and-shift ops.
        group = data_address & self._group_mask
        entry = self._sets[(group // GROUP_SPAN) & self._set_mask].get(group)
        if entry is None:
            self.stats.read_misses += 1
            return None
        self.stats.read_hits += 1
        self._tick += 1
        entry.lru_tick = self._tick
        return entry.counters[(data_address // CACHE_LINE_SIZE) % COUNTERS_PER_LINE]

    def fill(
        self, data_address: int, counters: Tuple[int, ...]
    ) -> Optional[Tuple[int, Tuple[int, ...]]]:
        """Install the counter line covering ``data_address``.

        Returns ``(victim_group_base, victim_counters)`` if a dirty line
        was evicted and must be written back to NVM, else None.
        """
        if len(counters) != COUNTERS_PER_LINE:
            raise AddressError("counter line fill needs %d counters" % COUNTERS_PER_LINE)
        group = self.group_base(data_address)
        cache_set = self._sets[self._set_index(group)]
        existing = cache_set.get(group)
        if existing is not None:
            # Merge: cached (possibly newer) values win over memory.
            self._touch(existing)
            return None
        return self._install(cache_set, group, counters)

    def _install(
        self, cache_set: Dict[int, _Entry], group: int, counters: Tuple[int, ...]
    ) -> Optional[Tuple[int, Tuple[int, ...]]]:
        """Allocate ``group`` in ``cache_set``, evicting its LRU line if full."""
        victim_payload: Optional[Tuple[int, Tuple[int, ...]]] = None
        if len(cache_set) >= self.ways:
            # Manual first-minimal scan: same victim as
            # min(cache_set, key=...) but without 'ways' lambda calls.
            values = iter(cache_set.values())
            victim = next(values)
            victim_tick = victim.lru_tick
            for candidate in values:
                candidate_tick = candidate.lru_tick
                if candidate_tick < victim_tick:
                    victim = candidate
                    victim_tick = candidate_tick
            del cache_set[victim.group_base]
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.dirty_evictions += 1
                self.stats.writebacks += 1
                victim_payload = (victim.group_base, tuple(victim.counters))
        self._tick += 1
        cache_set[group] = _Entry(group, list(counters), self._tick)
        self.stats.fills += 1
        return victim_payload

    def write(
        self, data_address: int, counter: int, store: "CounterStore"
    ) -> Tuple[bool, Optional[Tuple[int, Tuple[int, ...]]]]:
        """Store a freshly generated counter for a write access.

        Returns ``(hit, victim)``.  A write miss does *not* stall the
        pipeline (the new counter is generated regardless), but it
        allocates: the covering line is filled from ``store`` so the
        other seven counters merge correctly, and ``victim`` is the
        dirty line that fill evicted, which the caller writes back.  A
        hit touches the line once for the lookup and once for the
        update, a miss once for the fill and once for the update.
        """
        group = data_address & self._group_mask
        cache_set = self._sets[(group // GROUP_SPAN) & self._set_mask]
        entry = cache_set.get(group)
        victim: Optional[Tuple[int, Tuple[int, ...]]] = None
        hit = entry is not None
        if hit:
            self.stats.write_hits += 1
            self._tick += 1
        else:
            self.stats.write_misses += 1
            victim = self._install(cache_set, group, store.read_counter_line(data_address))
            entry = cache_set[group]
        entry.counters[(data_address // CACHE_LINE_SIZE) % COUNTERS_PER_LINE] = counter
        entry.dirty = True
        self._tick += 1
        entry.lru_tick = self._tick
        return hit, victim

    def writeback_line(self, data_address: int) -> Optional[Tuple[int, Tuple[int, ...]]]:
        """``counter_cache_writeback()``: flush one dirty counter line.

        Cleans the line without invalidating it (mirrors clwb).  Returns
        ``(group_base, counters)`` when a writeback is generated, or
        None when the line is absent or already clean.
        """
        entry = self._find(self.group_base(data_address))
        if entry is None or not entry.dirty:
            return None
        entry.dirty = False
        self.stats.writebacks += 1
        self.stats.explicit_writebacks += 1
        return (entry.group_base, tuple(entry.counters))

    def dirty_lines(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """All dirty counter lines (used by flush-all and debugging)."""
        payload: List[Tuple[int, Tuple[int, ...]]] = []
        for cache_set in self._sets:
            for entry in cache_set.values():
                if entry.dirty:
                    payload.append((entry.group_base, tuple(entry.counters)))
        payload.sort()
        return payload

    def invalidate_all(self) -> None:
        """Drop every entry: models the cache's volatility at power loss."""
        for cache_set in self._sets:
            cache_set.clear()

    def occupancy(self) -> int:
        """Number of valid entries across all sets."""
        return sum(len(s) for s in self._sets)
