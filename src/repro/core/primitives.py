"""Programmer-visible primitives of selective counter-atomicity.

The paper (Section 4.3) extends Intel's persistency interface with:

* ``CounterAtomic`` — an annotation on variables whose updates must
  reach NVM counter-atomically (they immediately affect the
  recoverable state), and
* ``counter_cache_writeback()`` — an on-demand flush of the dirty
  counter-cache lines covering the given addresses.

In this reproduction, programs are written against
:class:`repro.sim.trace.TraceBuilder`, so the primitives surface as
(a) typed variable descriptors carrying the annotation and (b) trace
operations the simulated memory controller interprets.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import CACHE_LINE_SIZE
from ..errors import AddressError
from ..utils.bitops import bytes_to_u64, u64_to_bytes


@dataclass(frozen=True)
class PersistentVar:
    """An 8-byte variable at a fixed NVM address.

    A thin descriptor: it does not hold the value (the simulated memory
    does); it holds the address, a debug name, and the atomicity
    annotation.  Reads/writes go through a trace builder or memory
    interface that consumes these descriptors.
    """

    address: int
    name: str = ""
    counter_atomic: bool = False

    def __post_init__(self) -> None:
        if self.address < 0:
            raise AddressError("variable address cannot be negative")
        if self.address % 8 != 0:
            raise AddressError(
                "persistent variables must be 8-byte aligned (got 0x%x)" % self.address
            )

    @property
    def line_address(self) -> int:
        return self.address - (self.address % CACHE_LINE_SIZE)

    def encode(self, value: int) -> bytes:
        """Little-endian encoding used by all persistent u64 variables."""
        return u64_to_bytes(value)

    @staticmethod
    def decode(data: bytes) -> int:
        return bytes_to_u64(data)


def CounterAtomic(address: int, name: str = "") -> PersistentVar:
    """Declare a counter-atomic persistent variable.

    Mirrors the paper's ``CounterAtomic`` type qualifier (Figure 9):
    every store to the returned variable is tagged so the memory
    controller pairs its data and counter writes through the ready-bit
    protocol.
    """
    return PersistentVar(address=address, name=name, counter_atomic=True)


def Plain(address: int, name: str = "") -> PersistentVar:
    """Declare an ordinary (relaxable) persistent variable."""
    return PersistentVar(address=address, name=name, counter_atomic=False)
