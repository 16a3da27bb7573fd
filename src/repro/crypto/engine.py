"""The encryption engine in the memory controller.

Combines the OTP cipher, the counter cache and the architectural counter
store, and exposes the operations the NVM coordinator needs:

* ``encrypt_for_write``: pick the next counter, update the counter
  cache, produce ciphertext;
* ``decrypt_for_read``: generate the pad (from the cached counter when
  possible) and XOR with the fetched line;
* ``counter fill / writeback`` plumbing with precise miss accounting.

Latency (the 40 ns of Table 2) is *modeled*, not spent: the engine
returns the information the timing model needs (was the counter cached?)
and the memory controller schedules the overlap accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..config import CACHE_LINE_SIZE, EncryptionConfig, CounterCacheConfig
from ..errors import CryptoError
from .counter_cache import CounterCache
from .counters import CounterStore
from .otp import OTPCipher, make_block_cipher


@dataclass(slots=True)
class WriteEncryption:
    """Result of encrypting one line for writeback."""

    address: int
    counter: int
    ciphertext: Optional[bytes]
    #: True if the counter lookup hit the counter cache (no fill needed).
    counter_cache_hit: bool
    #: Dirty counter line evicted by a fill, to be written back: maps to
    #: (group base data address, eight counters), or None.
    evicted_counter_line: Optional[Tuple[int, Tuple[int, ...]]]


@dataclass(slots=True)
class ReadDecryption:
    """Result of decrypting one line on a read fill."""

    address: int
    counter: int
    plaintext: Optional[bytes]
    counter_cache_hit: bool
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
        functional: bool = True,
    ) -> None:
        self.config = config
        self.cipher = OTPCipher(make_block_cipher(config))
        self.counter_cache = CounterCache(cache_config)
        self.counter_store = counter_store
        self.functional = functional
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

    def encrypt_for_write(
        self, address: int, plaintext: Optional[bytes]
    ) -> WriteEncryption:
        """Encrypt a line being written back to NVM.

        Follows Section 5.2.1: generate a new counter from the global
        counter, update the counter cache (allocating on miss), build
        the OTP and XOR.  In timing-only mode ``plaintext`` may be None
        and no ciphertext is produced.
        """
        if plaintext is not None and len(plaintext) != CACHE_LINE_SIZE:
            raise CryptoError("write payload must be one %d B line" % CACHE_LINE_SIZE)
        new_counter = self._global_counter + 1
        self._global_counter = new_counter
        hit, evicted = self.counter_cache.write(address, new_counter, self.counter_store)
        ciphertext = None
        if self.functional and plaintext is not None:
            ciphertext = self.cipher.encrypt(address, new_counter, plaintext)
        return WriteEncryption(address, new_counter, ciphertext, hit, evicted)

    # -- read path ------------------------------------------------------------

    def decrypt_for_read(
        self, address: int, ciphertext: Optional[bytes]
    ) -> ReadDecryption:
        """Decrypt a line fetched from NVM.

        On a counter-cache hit the OTP generation overlaps the memory
        read (the timing model checks ``counter_cache_hit``); on a miss
        the covering counter line is fetched from the architectural
        store first.
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
        plaintext = None
        if self.functional and ciphertext is not None:
            plaintext = self.cipher.decrypt(address, counter, ciphertext)
        return ReadDecryption(address, counter, plaintext, hit, evicted)

    # -- persistence helpers ----------------------------------------------------

    def persist_counter_line(self, group_base: int, counters: Tuple[int, ...]) -> None:
        """Write a counter line into the architectural store (NVM)."""
        self.counter_store.write_counter_line(group_base, counters)

    @property
    def global_counter(self) -> int:
        return self._global_counter

    # -- checkpoint state --------------------------------------------------------

    def get_state(self) -> dict:
        """Checkpoint state: the global counter and the counter cache.

        The counter store is owned (and snapshotted) by the memory
        controller; the cipher is pure and derived from config.
        """
        return {
            "global_counter": self._global_counter,
            "counter_cache": self.counter_cache.get_state(),
        }

    def set_state(self, state: dict) -> None:
        self._global_counter = state["global_counter"]
        self.counter_cache.set_state(state["counter_cache"])
