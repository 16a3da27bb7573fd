"""Per-line write counters and their NVM address space.

The paper stores one 8 B counter per 64 B data line in a *separate*
address region of the NVM (Section 3.2.2, Figure 5(c)), so one 64 B
counter line covers eight consecutive data lines.  Counter-cache fills
and writebacks therefore move eight counters at a time.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from ..config import CACHE_LINE_SIZE, COUNTERS_PER_LINE
from ..errors import AddressError, CounterOverflowError
from ..utils.bitops import align_down

#: Counters are 62-bit in real proposals; we cap at 2**48 which is far
#: beyond anything a simulation reaches but still tests overflow logic.
COUNTER_LIMIT = 1 << 48

_LINE_MASK = ~(CACHE_LINE_SIZE - 1)
_GROUP_SIZE = CACHE_LINE_SIZE * COUNTERS_PER_LINE
_GROUP_MASK = ~(_GROUP_SIZE - 1)


def counter_line_address(data_address: int, counter_region_base: int) -> int:
    """NVM address of the counter line covering ``data_address``.

    Data line index L has its 8 B counter at ``base + L * 8``; the
    enclosing 64 B counter line starts at ``base + (L // 8) * 64``.
    """
    line_index = data_address // CACHE_LINE_SIZE
    return counter_region_base + align_down(line_index * 8, CACHE_LINE_SIZE)


def counter_slot(data_address: int) -> int:
    """Index (0-7) of this data line's counter within its counter line."""
    return (data_address // CACHE_LINE_SIZE) % COUNTERS_PER_LINE


class CounterStore:
    """The architectural (in-NVM) array of per-line write counters.

    This models the persistent copy of the counters.  The on-chip
    counter cache (:class:`repro.crypto.counter_cache.CounterCache`)
    holds the working copies; a crash discards the cache and recovery
    sees only what this store contains.

    Counters are stored sparsely: untouched lines implicitly hold 0.
    """

    def __init__(self, counter_region_base: int, memory_size_bytes: int) -> None:
        if counter_region_base % CACHE_LINE_SIZE != 0:
            raise AddressError("counter region base must be line-aligned")
        self.counter_region_base = counter_region_base
        self.memory_size_bytes = memory_size_bytes
        self._counters: Dict[int, int] = {}

    def _check(self, data_address: int) -> None:
        if data_address < 0 or data_address >= self.counter_region_base:
            raise AddressError(
                "data address 0x%x outside the data region (counter base 0x%x)"
                % (data_address, self.counter_region_base)
            )

    def read(self, data_address: int) -> int:
        """Architectural counter value for the line at ``data_address``."""
        if data_address < 0 or data_address >= self.counter_region_base:
            self._check(data_address)
        return self._counters.get(data_address & _LINE_MASK, 0)

    def write(self, data_address: int, value: int) -> None:
        """Persist a counter value (one 8 B slot)."""
        if data_address < 0 or data_address >= self.counter_region_base:
            self._check(data_address)
        if value < 0 or value >= COUNTER_LIMIT:
            raise CounterOverflowError(
                "counter value %d out of range for line 0x%x" % (value, data_address)
            )
        self._counters[data_address & _LINE_MASK] = value

    def write_counter_line(self, data_address: int, values: Tuple[int, ...]) -> None:
        """Persist all eight counters of the counter line covering ``data_address``."""
        if len(values) != COUNTERS_PER_LINE:
            raise AddressError("a counter line holds exactly %d counters" % COUNTERS_PER_LINE)
        base_line = data_address & _GROUP_MASK
        self._check(base_line)
        self._check(base_line + _GROUP_SIZE - CACHE_LINE_SIZE)
        counters = self._counters
        address = base_line
        for value in values:
            if value < 0 or value >= COUNTER_LIMIT:
                raise CounterOverflowError(
                    "counter value %d out of range for line 0x%x" % (value, address)
                )
            counters[address] = value
            address += CACHE_LINE_SIZE

    def read_counter_line(self, data_address: int) -> Tuple[int, ...]:
        """Read all eight counters of the covering counter line."""
        base_line = data_address & _GROUP_MASK
        self._check(base_line)
        self._check(base_line + _GROUP_SIZE - CACHE_LINE_SIZE)
        # Hot path (every pair/fill walks the group): unrolled gets
        # instead of a genexpr-driven tuple().
        get = self._counters.get
        b = base_line
        s = CACHE_LINE_SIZE
        return (
            get(b, 0),
            get(b + s, 0),
            get(b + 2 * s, 0),
            get(b + 3 * s, 0),
            get(b + 4 * s, 0),
            get(b + 5 * s, 0),
            get(b + 6 * s, 0),
            get(b + 7 * s, 0),
        )

    def touched_lines(self) -> Iterator[int]:
        """Data-line addresses whose counters have been written."""
        return iter(sorted(self._counters))

    def snapshot(self) -> Dict[int, int]:
        """Copy of the persistent counter state (for crash images)."""
        return dict(self._counters)

    def restore(self, snapshot: Dict[int, int]) -> None:
        """Replace the persistent state with a previously taken snapshot."""
        self._counters = dict(snapshot)
