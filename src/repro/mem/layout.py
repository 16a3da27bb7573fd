"""Encryption layout paths: how read/write bytes move per design.

The layout layer owns the byte movement of the three counter layouts
the paper evaluates:

* :class:`PlainLayout` — no encryption; 64 B lines, nothing else moves.
* :class:`ColocatedLayout` — counter co-located with the data in one
  72 B access over the 72-bit bus (Figure 5(a)/(b)); atomic by
  construction, so writes never pair.
* :class:`SplitCounterLayout` — counters in their own NVM region over
  the 64-bit bus (Figure 5(c)); reads may fetch (and authenticate) the
  covering counter line, writes route through the design's atomicity
  discipline.

The shared read prologue (read-queue slot, bank + bus scheduling) stays
in the controller; a layout turns the arrived bytes into a
:class:`ReadResult` (``complete_read``) and routes writes
(``write_line``).  The encrypted layouts run the encryption engine's
counter flow for its timing and statistics, but move plaintext: the
device keeps each line's plaintext with the counter it is encrypted
under, and ciphertext is built only in crash and final images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..config import CACHE_LINE_SIZE, SystemConfig
from ..core.designs import DesignPolicy
from .atomicity import WriteTicket
from .events import COUNTER_FETCH

if TYPE_CHECKING:
    from .controller import MemoryController

#: Payload size of a co-located access (64 B data + 8 B counter).
COLOCATED_PAYLOAD = CACHE_LINE_SIZE + 8


@dataclass(slots=True)
class ReadResult:
    """Completion of a read-line request."""

    address: int
    #: When decrypted plaintext is available to the cache hierarchy.
    complete_ns: float
    #: The line's bytes (None in timing-only mode).
    plaintext: Optional[bytes]
    counter_cache_hit: bool
    #: Raw memory latency before decryption overlap (diagnostics).
    raw_read_ns: float


class PlainLayout:
    """No encryption: bytes come and go as stored."""

    kind = "plain"
    read_payload_bytes = CACHE_LINE_SIZE

    def __init__(self, ctrl: "MemoryController", config: SystemConfig, policy: DesignPolicy) -> None:
        self.ctrl = ctrl
        self.policy = policy
        self._functional = config.functional

    def complete_read(
        self, line: int, request_ns: float, data_arrival: float, stored: bytes
    ) -> ReadResult:
        return ReadResult(
            line,
            data_arrival,
            stored if self._functional else None,
            False,
            data_arrival - request_ns,
        )

    def write_line(
        self, line: int, payload: Optional[bytes], request_ns: float, counter_atomic: bool
    ) -> WriteTicket:
        return self.ctrl.atomicity.write_unpaired(line, payload, request_ns, 0, CACHE_LINE_SIZE)


class ColocatedLayout(PlainLayout):
    """Counter rides inside one 72 B access (Figure 5(a)/(b))."""

    kind = "colocated"
    read_payload_bytes = COLOCATED_PAYLOAD

    def complete_read(
        self, line: int, request_ns: float, data_arrival: float, stored: bytes
    ) -> ReadResult:
        """The 72 B fetch carries the counter."""
        ctrl = self.ctrl
        engine = ctrl.engine
        assert engine is not None
        latency = engine.latency_ns
        hit = False
        if self.policy.has_counter_cache:
            cached = engine.counter_cache.lookup_for_read(line)
            if cached is not None:
                # Figure 5(b): decrypt with the cached counter, in
                # parallel with the fetch.
                hit = True
                complete = max(data_arrival, request_ns + latency)
            else:
                # Miss: the counter rides in with the data, so the
                # decryption serializes after the fetch; install the
                # fetched counters in the cache for next time.
                complete = data_arrival + latency
                engine.counter_cache.fill(
                    line, ctrl.counter_store.read_counter_line(line)
                )
        else:
            # Figure 5(a)/6(a): always serialized.
            complete = data_arrival + latency
        plaintext = stored if self._functional else None
        return ReadResult(line, complete, plaintext, hit, data_arrival - request_ns)

    def write_line(
        self, line: int, payload: Optional[bytes], request_ns: float, counter_atomic: bool
    ) -> WriteTicket:
        """One 72 B access carries data + counter.

        Data and counter are inherently atomic here; the journal records
        them with identical timestamps so crash images stay in sync.
        """
        ctrl = self.ctrl
        assert ctrl.engine is not None
        encryption = ctrl.engine.encrypt_for_write(line)
        if (
            encryption.evicted_counter_line is not None
            and self.policy.counter_evict_writes
        ):
            ctrl.atomicity.writeback_counter_line(
                encryption.evicted_counter_line, request_ns
            )
        counter = encryption.counter
        payload = payload if self._functional else None
        ticket = ctrl.atomicity.write_unpaired(
            line, payload, request_ns, counter, COLOCATED_PAYLOAD
        )
        ctrl.counter_store.write(line, counter)
        if ctrl.journal.enabled:
            ctrl.journal.record_counter(
                address=ctrl.address_map.counter_line_address_of(line),
                counters=(counter,),
                group_base=line,
                accept_ns=ticket.accept_ns,
                ready_ns=ticket.accept_ns,
                drain_ns=ticket.drain_ns,
                single_slot=True,
            )
        return ticket


class SplitCounterLayout(PlainLayout):
    """Counters in their own NVM region (Figure 5(c))."""

    kind = "split"
    read_payload_bytes = CACHE_LINE_SIZE

    def complete_read(
        self, line: int, request_ns: float, data_arrival: float, stored: bytes
    ) -> ReadResult:
        ctrl = self.ctrl
        engine = ctrl.engine
        assert engine is not None
        latency = engine.latency_ns
        decryption = engine.decrypt_for_read(line)
        if decryption.counter_cache_hit:
            # OTP generation overlaps the array read (Figure 6(c)).
            complete = max(data_arrival, request_ns + latency)
        else:
            # Fetch the counter line in parallel with the data; the OTP
            # can only be generated once the counter arrives.
            counter_arrival = self.fetch_counter_line(line, request_ns)
            complete = max(data_arrival, counter_arrival + latency)
        if (
            decryption.evicted_counter_line is not None
            and self.policy.counter_evict_writes
        ):
            ctrl.atomicity.writeback_counter_line(
                decryption.evicted_counter_line, request_ns
            )
        plaintext = stored if self._functional else None
        hit = decryption.counter_cache_hit
        return ReadResult(line, complete, plaintext, hit, data_arrival - request_ns)

    def fetch_counter_line(self, data_address: int, request_ns: float) -> float:
        """Read the covering counter line from NVM."""
        ctrl = self.ctrl
        address_map = ctrl.address_map
        counter_line = address_map.counter_line_address_of(data_address)
        complete = ctrl.banks.schedule_read(
            address_map.bank_of(counter_line), request_ns, address_map.row_of(counter_line)
        )
        arrival = ctrl.bus.schedule_transfer(complete, CACHE_LINE_SIZE)
        ctrl.records.append((COUNTER_FETCH, counter_line, request_ns, CACHE_LINE_SIZE))
        if ctrl.integrity.tree is not None:
            # The fetched counters cannot be trusted (used for OTPs)
            # until their tree path authenticates.
            arrival = max(
                arrival, ctrl.integrity.verify_counter_fetch(data_address, request_ns)
            )
        return arrival

    def write_line(
        self, line: int, payload: Optional[bytes], request_ns: float, counter_atomic: bool
    ) -> WriteTicket:
        ctrl = self.ctrl
        assert ctrl.engine is not None
        encryption = ctrl.engine.encrypt_for_write(line)
        if (
            encryption.evicted_counter_line is not None
            and self.policy.counter_evict_writes
        ):
            ctrl.atomicity.writeback_counter_line(
                encryption.evicted_counter_line, request_ns
            )
        if not encryption.counter_cache_hit:
            # Background fill of the covering counter line: the write
            # does not stall, but the fill's read traffic is real.
            self.fetch_counter_line(line, request_ns)
        payload = payload if self._functional else None
        return ctrl.atomicity.accept_write(
            line, payload, request_ns, encryption.counter, counter_atomic
        )


_LAYOUT_CLASSES = {
    "plain": PlainLayout,
    "colocated": ColocatedLayout,
    "split": SplitCounterLayout,
}


def build_layout(
    ctrl: "MemoryController", config: SystemConfig, policy: DesignPolicy
) -> PlainLayout:
    """Instantiate the layout strategy for a design's axis value."""
    return _LAYOUT_CLASSES[policy.layout.kind](ctrl, config, policy)
