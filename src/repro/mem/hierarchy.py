"""The volatile cache hierarchy: private L1s over a shared L2.

The hierarchy is functional (real bytes flow through it) and returns
timing in the same resource-timeline style as the controller: every
access takes the core's current time and yields its absolute
completion time.  Loaded bytes stay in the L1 line; functional
checkers read them back with :meth:`CacheHierarchy.read_current`.

Eviction policy: inclusive-enough write-back/write-allocate.  L1 dirty
victims merge into L2; L2 dirty victims become controller writes that
carry their CounterAtomic flag (Section 5.1: the annotation travels
with the line so the controller can pair the writeback).

Statistics: each L1 counts every core load and store as exactly one
hit or one miss.  L2 counts a read hit or miss for each L1 fill it
serves, and a write hit for each writeback that merges into it.

A lone core's caches see the same accesses whatever the controller
answers in a timing-only run, so such a run takes them out of the
machine's loop (``repro.sim.machine``): a CPU pass runs this class's
accesses once per trace over a recorder that stands in for the
controller, and each design's memory pass replays what it logged with
the timing of :meth:`CacheHierarchy._miss_in_l1` and
:meth:`CacheHierarchy.clwb`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..config import CACHE_LINE_SIZE, SystemConfig
from ..errors import AddressError
from .cache import Cache, EvictedLine

if TYPE_CHECKING:
    from ..sim.machine import MemorySystem

_LINE_MASK = ~(CACHE_LINE_SIZE - 1)


def _reject_span(address: int, length: int) -> None:
    """Raise the :class:`AddressError` for an access that leaves its line."""
    if length <= 0 or length > CACHE_LINE_SIZE:
        raise AddressError("access length %d out of range" % length)
    raise AddressError(
        "access at 0x%x of %d bytes crosses a cache line" % (address, length)
    )


class CacheHierarchy:
    """Per-core L1 caches over one shared L2, in front of one controller."""

    def __init__(self, config: SystemConfig, controller: "MemorySystem") -> None:
        self.config = config
        self.controller = controller
        functional = config.functional
        self.l1s: List[Cache] = [
            Cache(config.l1, functional=functional, name="l1-core%d" % core)
            for core in range(config.num_cores)
        ]
        self.l2 = Cache(config.l2, functional=functional, name="l2")
        # Hit latencies hoisted out of the per-access config walk.
        self._l1_hit_ns = config.l1.hit_latency_ns
        self._l2_hit_ns = config.l2.hit_latency_ns

    # ------------------------------------------------------------------
    # Internal fill machinery
    # ------------------------------------------------------------------

    def _handle_l2_victim(self, victim: Optional[EvictedLine], now_ns: float) -> None:
        """A dirty L2 victim becomes a controller write."""
        if victim is not None:
            self.controller.write_line(
                victim.address,
                victim.payload,
                now_ns,
                counter_atomic=victim.counter_atomic,
            )

    def _handle_l1_victim(self, victim: Optional[EvictedLine], now_ns: float) -> None:
        """Dirty L1 victims merge into L2; L2's own victim may go to memory."""
        if victim is None:
            return
        l2 = self.l2
        if not l2.write(
            victim.address,
            victim.payload,
            CACHE_LINE_SIZE,
            counter_atomic=victim.counter_atomic,
        ):
            self._handle_l2_victim(
                l2.fill(
                    victim.address,
                    victim.payload,
                    dirty=True,
                    counter_atomic=victim.counter_atomic,
                ),
                now_ns,
            )

    def _miss_in_l1(self, core: int, line_address: int, now_ns: float) -> float:
        """L1 lookup missed: fill it from the shared L2, else from memory.

        Returns the time the line is in L1.
        """
        # The L1 lookup that missed, then the L2 lookup (hit or miss).
        complete = now_ns + self._l1_hit_ns + self._l2_hit_ns
        l1 = self.l1s[core]
        line = self.l2.read(line_address)
        if line is not None:
            self._handle_l1_victim(l1.fill(line_address, line.payload), complete)
            return complete
        result = self.controller.read_line(line_address, complete)
        complete = result.complete_ns
        plaintext = result.plaintext
        self._handle_l2_victim(self.l2.fill(line_address, plaintext), complete)
        self._handle_l1_victim(l1.fill(line_address, plaintext), complete)
        return complete

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------

    def load(self, core: int, address: int, length: int, now_ns: float) -> float:
        """Load ``length`` bytes (within one line); returns the completion time."""
        line_address = address & _LINE_MASK
        if length <= 0 or address - line_address + length > CACHE_LINE_SIZE:
            _reject_span(address, length)
        if self.l1s[core].read(line_address) is not None:
            return now_ns + self._l1_hit_ns
        return self._miss_in_l1(core, line_address, now_ns)

    def store(
        self,
        core: int,
        address: int,
        data: Optional[bytes],
        length: int,
        now_ns: float,
        counter_atomic: bool = False,
    ) -> float:
        """Store bytes (write-allocate, within one line); returns the completion time."""
        if data is not None:
            length = len(data)
        line_address = address & _LINE_MASK
        if length <= 0 or address - line_address + length > CACHE_LINE_SIZE:
            _reject_span(address, length)
        l1 = self.l1s[core]
        if l1.write(address, data, length, counter_atomic):
            return now_ns + self._l1_hit_ns
        complete = self._miss_in_l1(core, line_address, now_ns)
        l1.write(address, data, length, counter_atomic)
        # The write into the filled line counted a hit; the store missed.
        stats = l1.stats
        stats.write_hits -= 1
        stats.write_misses += 1
        return complete

    # The end-to-end benchmark's spans (benchmarks/e2e/spans.py) wrap the
    # names the two access paths once had; the aliases keep them alive.
    load_complete = load
    store_complete = store

    def clwb(self, core: int, address: int, now_ns: float) -> Optional[float]:
        """Write back (without invalidating) the line holding ``address``.

        Searches L1 then L2 for a dirty copy and forwards it to the
        memory controller.  Returns the queue-acceptance time the
        core's next sfence must wait for, or None if the line was clean
        or absent (a no-op clwb).
        """
        line_address = address & _LINE_MASK
        flushed = self.l1s[core].clean_line(line_address)
        if flushed is not None:
            # L2's copy, if any, takes the flushed bytes and ends clean.
            self.l2.write(line_address, flushed[0], CACHE_LINE_SIZE, dirty=False)
        else:
            flushed = self.l2.clean_line(line_address)
            if flushed is None:
                return None
        payload, counter_atomic = flushed
        ticket = self.controller.write_line(
            line_address,
            payload,
            now_ns + self._l1_hit_ns,
            counter_atomic=counter_atomic,
        )
        return ticket.accept_ns

    def flush_all_dirty(self, now_ns: float) -> List[float]:
        """Write back every dirty line (used by flush-on-exit tooling)."""
        accepts: List[float] = []
        for core, l1 in enumerate(self.l1s):
            for address in l1.dirty_lines():
                accept = self.clwb(core, address, now_ns)
                if accept is not None:
                    accepts.append(accept)
        for address in self.l2.dirty_lines():
            flushed = self.l2.clean_line(address)
            if flushed is None:
                continue
            payload, counter_atomic = flushed
            ticket = self.controller.write_line(
                address, payload, now_ns, counter_atomic=counter_atomic
            )
            accepts.append(ticket.accept_ns)
        return accepts

    def read_current(self, core: int, address: int, length: int) -> Optional[bytes]:
        """Functional peek that bypasses timing (debug / checkers)."""
        line_address = Cache.line_address(address)
        offset = address - line_address
        l1_line = self.l1s[core].peek(address)
        if l1_line is not None:
            return l1_line.read_bytes(offset, length)
        l2_line = self.l2.peek(address)
        if l2_line is not None:
            return l2_line.read_bytes(offset, length)
        stored = self.controller.peek_line(line_address)
        return stored[offset : offset + length]

    def invalidate_all(self) -> None:
        """Drop all cached state (power failure)."""
        for l1 in self.l1s:
            l1.invalidate_all()
        self.l2.invalidate_all()
