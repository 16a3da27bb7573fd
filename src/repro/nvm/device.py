"""The persistent byte store of the NVM DIMM.

Functionally, the device is a sparse map from line address to the 64 B
of *ciphertext* most recently persisted there (plaintext when the design
does not encrypt).  Alongside each line we keep the counter value it was
encrypted with — not as architectural state (the architectural counters
live in :class:`repro.crypto.counters.CounterStore`) but as ground truth
so experiments can verify whether a post-crash image is decryptable.

A crash image is a deep snapshot of this store plus the architectural
counter store; recovery decrypts the image with the *architectural*
counters and compares against ground truth to detect Eq.-4 failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Tuple

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
    #: Counter used to encrypt ``payload`` (0 = stored in the clear).
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
        self.line_reads = 0
        #: Cleared when the controller runs with crash bookkeeping off
        #: (timing-only figure sweeps): persists still count traffic but
        #: skip the line image and wear map, so crash reconstruction and
        #: lifetime reports are unavailable.
        self.crash_bookkeeping = True

    # -- persistence -----------------------------------------------------------

    def persist_line(
        self, address: int, payload: Optional[bytes], encrypted_with: int = 0
    ) -> None:
        """Durably store one line.

        ``payload`` may be None in timing-only mode; the write is still
        counted for traffic/wear statistics and the counter ground
        truth is still recorded so atomicity checks work.
        """
        line = address & _LINE_MASK
        if line < 0 or line >= self._size:
            raise AddressError("address 0x%x outside the device" % address)
        self.line_writes += 1
        if not self.crash_bookkeeping:
            return
        data = payload if payload is not None else _ZERO_LINE
        self._lines[line] = PersistedLine(data, encrypted_with)
        if self.wear is not None:
            self.wear.record_write(line)

    def install(self, lines: Mapping[int, Tuple[Optional[bytes], int]]) -> None:
        """:meth:`persist_line` for every ``address -> (payload, encrypted_with)``.

        Installs a whole reconstructed image in a few passes instead of
        one call per line, ending in the state and counts the per-line
        loop leaves.  On bad input it falls back to that loop, so the
        first offending entry raises what :meth:`persist_line` raises.
        """
        if not lines:
            return
        addresses = list(map(_LINE_MASK.__and__, lines))
        payloads = [
            _ZERO_LINE if payload is None else payload for payload, _ in lines.values()
        ]
        if (
            min(addresses) < 0
            or max(addresses) >= self._size
            or set(map(len, payloads)) != {CACHE_LINE_SIZE}
        ):
            for address, (payload, encrypted_with) in lines.items():
                self.persist_line(address, payload, encrypted_with)
            return
        self.line_writes += len(addresses)
        if not self.crash_bookkeeping:
            return
        encrypted = [encrypted_with for _, encrypted_with in lines.values()]
        self._lines.update(zip(addresses, map(PersistedLine, payloads, encrypted)))
        if self.wear is not None:
            for line in addresses:
                self.wear.record_write(line)

    def read_line(self, address: int) -> PersistedLine:
        """Fetch one line; unwritten lines read as zeroes in the clear."""
        line = address & _LINE_MASK
        if line < 0 or line >= self._size:
            raise AddressError("address 0x%x outside the device" % address)
        self.line_reads += 1
        return self._lines.get(line, _ZERO_PERSISTED)

    def contains_line(self, address: int) -> bool:
        return (address & _LINE_MASK) in self._lines

    def touched_lines(self) -> Iterator[int]:
        return iter(sorted(self._lines))

    # -- crash support -------------------------------------------------------------

    def snapshot(self) -> Dict[int, PersistedLine]:
        """Deep-enough copy for crash images (payloads are immutable)."""
        return dict(self._lines)

    def restore(self, snapshot: Dict[int, PersistedLine]) -> None:
        self._lines = dict(snapshot)

    # -- checkpoint state -----------------------------------------------------------

    def get_state(self) -> Dict[str, object]:
        """Plain-container checkpoint state (line order preserved)."""
        return {
            "lines": [
                (address, line.payload, line.encrypted_with)
                for address, line in self._lines.items()
            ],
            "line_writes": self.line_writes,
            "line_reads": self.line_reads,
            "wear": self.wear.get_state() if self.wear is not None else None,
        }

    def set_state(self, state: Dict[str, object]) -> None:
        self._lines = {
            address: PersistedLine(payload=payload, encrypted_with=encrypted_with)
            for address, payload, encrypted_with in state["lines"]
        }
        self.line_writes = state["line_writes"]
        self.line_reads = state["line_reads"]
        if self.wear is not None and state["wear"] is not None:
            self.wear.set_state(state["wear"])

    # -- statistics ---------------------------------------------------------------

    @property
    def footprint_bytes(self) -> int:
        """Bytes of the device actually materialized."""
        return len(self._lines) * CACHE_LINE_SIZE
