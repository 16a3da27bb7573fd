"""The data and counter write queues with ready-bit pairing.

The paper's counter-atomicity hardware (Section 5.2.2) keeps two
ADR-protected queues in the memory controller: a 64-entry data write
queue and a 16-entry counter write queue.  Counter-atomic writes insert
one entry into each queue; an entry's *ready bit* is set only once its
partner has also been accepted.  On a power failure, only ready entries
drain — this yields the all-or-nothing behaviour that keeps data and
counter versions in sync.

Timing model: each queue is a bounded buffer whose slots are occupied
from acceptance until the entry issues to its bank.  Acceptance applies
backpressure: a request arriving while the queue is full is accepted
only when the earliest in-flight entry leaves.  Drain times are computed
against the shared bank/bus timelines by the memory controller; this
module owns occupancy, coalescing and the crash-time ready-bit
semantics.  Every write path in :mod:`repro.mem.atomicity` and
:mod:`repro.mem.integrity_policy` uses the same four steps:
:meth:`WriteQueue.probe` for a merge candidate, :meth:`WriteQueue.merge`,
:meth:`WriteQueue.accept`, and :meth:`WriteQueue.schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from ..errors import QueueFullError, SimulationError

_INF = float("inf")


class EntryIdAllocator:
    """Monotonic entry-id source shared by a controller's queues.

    Ids must be unique across the data and counter queues (the persist
    journal indexes by them) and — for deterministic checkpoint/resume —
    must depend only on the simulation itself, never on how many other
    machines ran earlier in the process.  Each controller therefore owns
    one allocator starting from zero; its cursor is part of the
    checkpoint state.  :meth:`WriteQueue.accept` takes the next id.
    """

    __slots__ = ("next_id",)

    def __init__(self, start: int = 0) -> None:
        self.next_id = start


#: Fallback for queues constructed standalone (tests, tools).
_default_entry_ids = EntryIdAllocator()


@dataclass(slots=True)
class WriteQueueEntry:
    """One queued writeback (data line or counter line)."""

    entry_id: int
    address: int
    payload: Optional[bytes]
    is_counter: bool
    #: Counter value this payload was encrypted with (ground truth for
    #: crash reconstruction); counters-in-payload use 0.
    encrypted_with: int
    #: For counter entries: the eight counter values being persisted,
    #: keyed by group base data address.
    counter_values: Optional[Tuple[int, Tuple[int, ...]]]
    accept_ns: float
    #: When the ready bit was set (== accept for unpaired entries).
    ready_ns: float
    #: When the array write completes in the NVM (durability point for
    #: crash reconstruction of non-ADR systems).
    drain_ns: float
    #: When the entry's slot frees: the write has issued to its bank
    #: and left the queue (always <= drain_ns).
    slot_release_ns: float = float("inf")
    counter_atomic: bool = False
    #: entry_id of the paired entry in the other queue, if any.
    partner_id: Optional[int] = None
    coalesced: int = 0


class WriteQueue:
    """Bounded write buffer with coalescing and occupancy backpressure."""

    def __init__(
        self,
        name: str,
        capacity: int,
        coalesce: bool = True,
        entry_ids: Optional[EntryIdAllocator] = None,
    ) -> None:
        if capacity <= 0:
            raise QueueFullError("queue capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.coalesce_enabled = coalesce
        self._entry_ids = entry_ids if entry_ids is not None else _default_entry_ids
        #: Drain times of entries currently holding slots.
        self._slots: List[float] = []
        #: Live entries by line address (for coalescing) — an address
        #: maps to its most recent undrained entry.
        self._live_by_address: Dict[int, WriteQueueEntry] = {}
        #: All entries ever accepted, in order (the crash journal reads
        #: this; memory stays bounded because experiments are finite).
        self.history: List[WriteQueueEntry] = []
        self.accepted = 0
        self.coalesced = 0
        self.total_accept_wait_ns = 0.0
        self.peak_occupancy = 0

    def occupancy(self, now_ns: float) -> int:
        """Entries still holding a slot at ``now_ns``."""
        slots = self._slots
        while slots and slots[0] <= now_ns:
            heappop(slots)
        return len(slots)

    # -- the write protocol ----------------------------------------------------

    def probe(
        self, address: int, now_ns: float, counter_atomic_ok: bool = False
    ) -> Optional[WriteQueueEntry]:
        """The queued entry a new write to ``address`` may merge into.

        An entry stops being mergeable once its write has issued to the
        bank (``slot_release_ns``), even though the cell write finishes
        later.  Counter-atomic entries merge only when
        ``counter_atomic_ok``: a pair's all-or-nothing guarantee must not
        absorb an unrelated plain write, while a new counter-atomic pair
        may merge into it because the merge and the ready-bit update form
        one ADR-protected operation.  The probe does not mutate, so a
        paired write can probe both queues before merging into either.
        """
        if not self.coalesce_enabled:
            return None
        entry = self._live_by_address.get(address)
        if (
            entry is None
            or entry.slot_release_ns <= now_ns
            or (entry.counter_atomic and not counter_atomic_ok)
        ):
            return None
        return entry

    def merge(
        self,
        entry: WriteQueueEntry,
        payload: Optional[bytes],
        encrypted_with: int,
        counter_values: Optional[Tuple[int, Tuple[int, ...]]] = None,
    ) -> None:
        """Merge a new write into ``entry``, found by :meth:`probe`."""
        entry.payload = payload
        entry.encrypted_with = encrypted_with
        if counter_values is not None:
            entry.counter_values = counter_values
        entry.coalesced += 1
        self.coalesced += 1

    def accept(
        self,
        address: int,
        request_ns: float,
        payload: Optional[bytes],
        is_counter: bool,
        encrypted_with: int = 0,
        counter_values: Optional[Tuple[int, Tuple[int, ...]]] = None,
        counter_atomic: bool = False,
    ) -> WriteQueueEntry:
        """Accept a new entry, waiting for a slot if the queue is full.

        The entry's ready and drain times start undefined (``inf``);
        :meth:`schedule` sets them once pairing resolves and the drain
        is scheduled.
        """
        slots = self._slots
        while slots and slots[0] <= request_ns:
            heappop(slots)
        if len(slots) < self.capacity:
            accept_ns = request_ns
        else:
            # Queue full: the request waits for the earliest issue.
            accept_ns = slots[0]
            self.total_accept_wait_ns += accept_ns - request_ns
        ids = self._entry_ids
        entry_id = ids.next_id
        ids.next_id = entry_id + 1
        entry = WriteQueueEntry(
            entry_id,
            address,
            payload,
            is_counter,
            encrypted_with,
            counter_values,
            accept_ns,
            _INF,
            _INF,
            _INF,
            counter_atomic,
        )
        self._live_by_address[address] = entry
        self.history.append(entry)
        self.accepted += 1
        return entry

    def schedule(
        self, entry: WriteQueueEntry, ready_ns: float, issue_ns: float, drain_ns: float
    ) -> None:
        """Set the entry's ready bit and drain schedule, and occupy a slot.

        The slot is held until ``issue_ns`` — the instant the write
        issues to its bank and leaves the queue — while ``drain_ns``
        records when the cell write completes (the long PCM write
        recovery no longer blocks the queue slot).
        """
        if ready_ns < entry.accept_ns:
            raise SimulationError("entry cannot be ready before acceptance")
        if drain_ns < ready_ns:
            raise SimulationError("entry cannot drain before it is ready")
        if issue_ns > drain_ns:
            raise SimulationError("slot cannot outlive the drain")
        entry.ready_ns = ready_ns
        entry.drain_ns = drain_ns
        entry.slot_release_ns = issue_ns
        slots = self._slots
        accept_ns = entry.accept_ns
        while slots and slots[0] <= accept_ns:
            heappop(slots)
        heappush(slots, issue_ns)
        if len(slots) > self.peak_occupancy:
            self.peak_occupancy = len(slots)

    # -- crash semantics --------------------------------------------------------

    def entries_at(self, crash_ns: float) -> List[WriteQueueEntry]:
        """Entries resident in the queue at ``crash_ns``."""
        return [
            e
            for e in self.history
            if e.accept_ns <= crash_ns and e.drain_ns > crash_ns
        ]

    def adr_drainable_at(self, crash_ns: float) -> List[WriteQueueEntry]:
        """Entries the ADR logic drains on a failure at ``crash_ns``.

        Exactly the *ready* resident entries (paper Section 5.2.2,
        "Steps During a System Failure").
        """
        return [e for e in self.entries_at(crash_ns) if e.ready_ns <= crash_ns]

    def dropped_at(self, crash_ns: float) -> List[WriteQueueEntry]:
        """Resident entries whose ready bit was still 0 at the failure."""
        return [e for e in self.entries_at(crash_ns) if e.ready_ns > crash_ns]

    # -- checkpoint state --------------------------------------------------------

    @staticmethod
    def _entry_state(entry: WriteQueueEntry) -> tuple:
        return (
            entry.entry_id,
            entry.address,
            entry.payload,
            entry.is_counter,
            entry.encrypted_with,
            entry.counter_values,
            entry.accept_ns,
            entry.ready_ns,
            entry.drain_ns,
            entry.slot_release_ns,
            entry.counter_atomic,
            entry.partner_id,
            entry.coalesced,
        )

    @staticmethod
    def _entry_from_state(state: tuple) -> WriteQueueEntry:
        return WriteQueueEntry(
            entry_id=state[0],
            address=state[1],
            payload=state[2],
            is_counter=state[3],
            encrypted_with=state[4],
            counter_values=state[5],
            accept_ns=state[6],
            ready_ns=state[7],
            drain_ns=state[8],
            slot_release_ns=state[9],
            counter_atomic=state[10],
            partner_id=state[11],
            coalesced=state[12],
        )

    def get_state(self) -> Dict[str, object]:
        """Checkpoint state: history, live map (by history index), slots.

        The live-entry map is stored as history indexes so identity is
        preserved on restore — coalescing mutates the shared object that
        both the map and the history reference.
        """
        index_of = {id(entry): i for i, entry in enumerate(self.history)}
        return {
            "slots": list(self._slots),
            "history": [self._entry_state(entry) for entry in self.history],
            "live": [
                (address, index_of[id(entry)])
                for address, entry in self._live_by_address.items()
            ],
            "accepted": self.accepted,
            "coalesced": self.coalesced,
            "total_accept_wait_ns": self.total_accept_wait_ns,
            "peak_occupancy": self.peak_occupancy,
        }

    def set_state(self, state: Dict[str, object]) -> None:
        self._slots = list(state["slots"])  # a valid heap, saved verbatim
        self.history = [self._entry_from_state(entry) for entry in state["history"]]
        self._live_by_address = {
            address: self.history[index] for address, index in state["live"]
        }
        self.accepted = state["accepted"]
        self.coalesced = state["coalesced"]
        self.total_accept_wait_ns = state["total_accept_wait_ns"]
        self.peak_occupancy = state["peak_occupancy"]
