"""The encryption engine in the memory controller.

Combines the counter cache and the architectural counter store, and
exposes the counter flow the NVM coordinator needs:

* ``encrypt_for_write``: pick the next counter and update the counter
  cache (the counter the line is encrypted under);
* ``decrypt_for_read``: find the counter a read decrypts with, from the
  counter cache when possible, else by filling its counter line;
* ``counter fill / writeback`` plumbing with precise miss accounting.

The engine makes no ciphertext.  Counter mode's line is ``En(address ||
counter) XOR plaintext``, a pure function of the address, the counter
and the plaintext, so the live device and the persist journal keep the
plaintext with the counter it is encrypted under, and ciphertext is
built only where it is observed: crash images and the final image
(:meth:`repro.persist.journal.PersistJournal.reconstruct`).  Every
encrypted design keeps the counter a read finds equal to the one the
line was written under, so a live read returns the bytes last written.

Latency (the 40 ns of Table 2) is *modeled*, not spent: the engine
returns the information the timing model needs (was the counter cached?)
and the memory controller schedules the overlap accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..config import EncryptionConfig, CounterCacheConfig
from ..errors import CryptoError
from .counter_cache import CounterCache
from .counters import CounterStore


@dataclass(slots=True)
class CounterAccess:
    """The counter a write is encrypted under, or a read decrypts with."""

    address: int
    counter: int
    #: True if the counter lookup hit the counter cache (no fill needed).
    counter_cache_hit: bool
    #: Dirty counter line evicted by a fill, to be written back: maps to
    #: (group base data address, eight counters), or None.
    evicted_counter_line: Optional[Tuple[int, Tuple[int, ...]]]


class EncryptionEngine:
    """Counter-mode encryption engine with a global counter source.

    The paper increments a *global* counter per write and stores it as
    the line's counter; monotonicity across all lines is what makes each
    (address, counter) pair unique.
    """

    def __init__(
        self,
        config: EncryptionConfig,
        cache_config: CounterCacheConfig,
        counter_store: CounterStore,
    ) -> None:
        self.config = config
        self.counter_cache = CounterCache(cache_config)
        self.counter_store = counter_store
        self._global_counter = 0
        self.latency_ns = config.latency_ns

    # -- counter management -------------------------------------------------

    def fill_counter_line(
        self, data_address: int
    ) -> Optional[Tuple[int, Tuple[int, ...]]]:
        """Fetch the covering counter line from NVM into the cache.

        Returns the evicted dirty line (if any) that must be written
        back to NVM.  The caller charges the fill's read traffic.
        """
        counters = self.counter_store.read_counter_line(data_address)
        return self.counter_cache.fill(data_address, counters)

    # -- write path -----------------------------------------------------------

    def encrypt_for_write(self, address: int) -> CounterAccess:
        """Pick the counter a line being written back is encrypted under.

        Follows Section 5.2.1: generate a new counter from the global
        counter and update the counter cache (allocating on miss).  The
        pad and the XOR are left to whoever observes the ciphertext.
        """
        new_counter = self._global_counter + 1
        self._global_counter = new_counter
        hit, evicted = self.counter_cache.write(address, new_counter, self.counter_store)
        return CounterAccess(address, new_counter, hit, evicted)

    # -- read path ------------------------------------------------------------

    def decrypt_for_read(self, address: int) -> CounterAccess:
        """Find the counter a line fetched from NVM decrypts with.

        On a counter-cache hit the OTP generation overlaps the memory
        read (the timing model checks ``counter_cache_hit``); on a miss
        the covering counter line is fetched from the architectural
        store first.  The counter found is the one the line was written
        under, so the fetched bytes are already the plaintext.
        """
        counter = self.counter_cache.lookup_for_read(address)
        hit = counter is not None
        evicted = None
        if counter is None:
            evicted = self.fill_counter_line(address)
            counter = self.counter_cache.lookup_for_read(address)
            if counter is None:
                raise CryptoError("counter missing after fill at 0x%x" % address)
            # The retry lookup double-counted one access; undo it so
            # miss-rate statistics reflect one logical access per read.
            self.counter_cache.stats.read_hits -= 1
        return CounterAccess(address, counter, hit, evicted)

    # -- persistence helpers ----------------------------------------------------

    def persist_counter_line(self, group_base: int, counters: Tuple[int, ...]) -> None:
        """Write a counter line into the architectural store (NVM)."""
        self.counter_store.write_counter_line(group_base, counters)

    @property
    def global_counter(self) -> int:
        return self._global_counter
