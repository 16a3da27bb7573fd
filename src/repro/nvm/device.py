"""The persistent byte store of the NVM DIMM.

Functionally, the device is a sparse map from line address to 64 B of
payload.  Alongside each line we keep the counter value it is encrypted
with — not as architectural state (the architectural counters live in
:class:`repro.crypto.counters.CounterStore`) but as ground truth so
experiments can verify whether a post-crash image is decryptable.

The live controller's device holds each line's *plaintext*: counter
mode's ciphertext is ``En(address || counter) XOR plaintext``, a pure
function of what is stored here, and no live read needs it (a read
decrypts with the counter the line was written under).  A crash image
is a device of its own whose payloads are the *ciphertext* NVM would
hold, enciphered as the image is built from the persist journal
(:class:`repro.crash.injector.CrashInjector`), whose line objects it
shares with other images; recovery decrypts it with the
*architectural* counters and compares against ground truth to detect
Eq.-4 failures.  Lines of unencrypted designs, and lines with
counter 0, are stored in the clear either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional

from ..config import CACHE_LINE_SIZE
from ..errors import AddressError
from .address import AddressMap
from .wear import WearTracker

_ZERO_LINE = bytes(CACHE_LINE_SIZE)
_LINE_MASK = ~(CACHE_LINE_SIZE - 1)


@dataclass(slots=True, init=False)
class PersistedLine:
    """One line as stored in NVM: payload plus encryption ground truth."""

    payload: bytes
    #: Counter the line is encrypted under (0 = stored in the clear).
    encrypted_with: int

    def __init__(self, payload: bytes, encrypted_with: int) -> None:
        # Hand-written so a persist costs one call, not __init__ plus
        # __post_init__: every simulated write and image line builds one.
        if len(payload) != CACHE_LINE_SIZE:
            raise AddressError("persisted lines are exactly %d bytes" % CACHE_LINE_SIZE)
        self.payload = payload
        self.encrypted_with = encrypted_with


#: Shared image of an unwritten line: payload is immutable and callers
#: never mutate PersistedLine in place (persists replace the object), so
#: one instance can serve every cold read.
_ZERO_PERSISTED = PersistedLine(payload=_ZERO_LINE, encrypted_with=0)


class NVMDevice:
    """Sparse line-granular persistent store with wear accounting."""

    def __init__(self, address_map: AddressMap, track_wear: bool = True) -> None:
        self.address_map = address_map
        self._size = address_map.memory_size_bytes
        self._lines: Dict[int, PersistedLine] = {}
        self.wear: Optional[WearTracker] = WearTracker() if track_wear else None
        self.line_writes = 0
        #: Cleared on a timing-only controller (``config.functional``
        #: False): persists still count traffic but skip the line image
        #: and wear map, so crash reconstruction and lifetime reports
        #: are unavailable.
        self.functional = True

    # -- persistence -----------------------------------------------------------

    def persist_line(
        self, address: int, payload: Optional[bytes], encrypted_with: int = 0
    ) -> None:
        """Durably store one line.

        ``payload`` None stores the zero line.  A timing-only device
        (:attr:`functional` cleared) counts the write and keeps nothing
        else: no line image, no counter ground truth, no wear.
        """
        line = address & _LINE_MASK
        if line < 0 or line >= self._size:
            raise AddressError("address 0x%x outside the device" % address)
        self.line_writes += 1
        if not self.functional:
            return
        data = payload if payload is not None else _ZERO_LINE
        self._lines[line] = PersistedLine(data, encrypted_with)
        if self.wear is not None:
            self.wear.record_write(line)

    def read_line(self, address: int) -> PersistedLine:
        """Fetch one line; unwritten lines read as zeroes in the clear."""
        line = address & _LINE_MASK
        if line < 0 or line >= self._size:
            raise AddressError("address 0x%x outside the device" % address)
        return self._lines.get(line, _ZERO_PERSISTED)

    def contains_line(self, address: int) -> bool:
        return (address & _LINE_MASK) in self._lines

    def touched_lines(self) -> Iterator[int]:
        return iter(sorted(self._lines))

    # -- crash support -------------------------------------------------------------

    def snapshot(self) -> Dict[int, PersistedLine]:
        """Every stored line, ``address -> PersistedLine``, in one copy.

        Deep enough for crash images and for bulk reads: lines are never
        mutated in place.
        """
        return dict(self._lines)

    def restore(self, snapshot: Mapping[int, PersistedLine]) -> None:
        """Make ``snapshot`` (as :meth:`snapshot` returns) the stored lines.

        Counts no writes and no wear.  Crash images are built this way
        from their journal versions' shared line objects.
        """
        self._lines = dict(snapshot)

    # -- statistics ---------------------------------------------------------------

    @property
    def footprint_bytes(self) -> int:
        """Bytes of the device actually materialized."""
        return len(self._lines) * CACHE_LINE_SIZE
