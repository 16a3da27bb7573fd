"""The persist journal: a timestamped log of every NVM write.

The live simulation applies writes to the device eagerly (modeling
write-queue forwarding), so the device's end state is only correct for
crash-free runs.  To reason about crashes, every write — data line,
counter line, or co-located pair — is journaled with three timestamps:

* ``accept_ns``  — entered an ADR-protected write queue,
* ``ready_ns``   — ready bit set (== accept for unpaired entries;
  == max of the pair's accepts for counter-atomic pairs),
* ``drain_ns``   — reached the NVM array.

Coalescing *amends* an existing journal record rather than adding a new
one; each amendment carries its own effective time, so a crash between
the original insertion and the amendment correctly resurrects the
pre-amendment payload.

Crash semantics (paper, "Steps During a System Failure"): at failure
time T, a record persists iff ``drain_ns <= T`` (already in the array)
or ``ready_ns <= T`` (ADR drains ready queue entries).  Unready entries
are dropped — both halves of an incomplete pair vanish together.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import count
from typing import Dict, List, Optional, Tuple, Union

from ..config import CACHE_LINE_SIZE
from ..errors import SimulationError


class JournalKind(enum.Enum):
    DATA = "data"
    COUNTER = "counter"


@dataclass(slots=True)
class _Amendment:
    effective_ns: float
    payload: Optional[bytes]
    encrypted_with: int
    group_base: Optional[int] = None
    counters: Optional[Tuple[int, ...]] = None


@dataclass(slots=True)
class JournalRecord:
    """One durable write and its amendment history."""

    kind: JournalKind
    entry_id: int
    address: int
    accept_ns: float
    ready_ns: float
    drain_ns: float
    payload: Optional[bytes] = None
    encrypted_with: int = 0
    #: Counter records: base data address of the covered 8-line group.
    group_base: Optional[int] = None
    counters: Optional[Tuple[int, ...]] = None
    #: True when the record persists a single counter slot (co-located
    #: and ideal designs) rather than a whole counter line.
    single_slot: bool = False
    partner_id: Optional[int] = None
    amendments: List[_Amendment] = field(default_factory=list)


@dataclass(slots=True)
class CommitRecord:
    """One cross-shard transaction commit barrier (sharded runs only).

    Written by the two-phase persist barrier
    (:class:`repro.txn.manager.CrossShardBarrier`): phase one captures
    the queue-acceptance watermark of every shard the transaction
    touched, phase two appends this record once all of them are known.
    The record is durable at ``commit_ns`` — the barrier's drain point,
    i.e. the latest touched-shard watermark — and recovery replays the
    commit log as a prefix: the first commit whose touched shards did
    not all persist their watermark ends the acked prefix
    (:func:`repro.crash.sharded.durable_commit_prefix`).
    """

    sequence: int
    core: int
    commit_ns: float
    #: shard id -> acceptance watermark that must be durable on that
    #: shard for this commit to count.
    shard_watermarks: Dict[int, float]


class PersistJournal:
    """Ordered log of all writes with crash-time reconstruction."""

    def __init__(self) -> None:
        self.records: List[JournalRecord] = []
        self._by_entry_id: Dict[int, JournalRecord] = {}
        self._auto_id = -1  # negative ids for records without queue entries
        #: Cross-shard commit barriers, in commit order.  Always empty
        #: for singleton-controller runs (the list is populated only by
        #: the sharded coordinator), so unsharded snapshots and golden
        #: fixtures never see the field.
        self.commits: List[CommitRecord] = []
        #: Cleared when ``crash_bookkeeping`` is off (timing-only figure
        #: sweeps): record/amend become no-ops and reconstruction is
        #: unavailable.
        self.enabled = True

    def _next_auto_id(self) -> int:
        self._auto_id -= 1
        return self._auto_id

    # -- recording ----------------------------------------------------------

    def record_data(
        self,
        entry_id: int,
        address: int,
        payload: Optional[bytes],
        encrypted_with: int,
        accept_ns: float,
        ready_ns: float,
        drain_ns: float,
        partner_id: Optional[int] = None,
    ) -> Optional[JournalRecord]:
        if not self.enabled:
            return None
        record = JournalRecord(
            kind=JournalKind.DATA,
            entry_id=entry_id,
            address=address,
            accept_ns=accept_ns,
            ready_ns=ready_ns,
            drain_ns=drain_ns,
            payload=payload,
            encrypted_with=encrypted_with,
            partner_id=partner_id,
        )
        self.records.append(record)
        self._by_entry_id[entry_id] = record
        return record

    def record_counter(
        self,
        address: int,
        counters: Tuple[int, ...],
        group_base: int,
        accept_ns: float,
        ready_ns: float,
        drain_ns: float,
        entry_id: Optional[int] = None,
        single_slot: bool = False,
    ) -> Optional[JournalRecord]:
        if not self.enabled:
            return None
        record = JournalRecord(
            kind=JournalKind.COUNTER,
            entry_id=entry_id if entry_id is not None else self._next_auto_id(),
            address=address,
            accept_ns=accept_ns,
            ready_ns=ready_ns,
            drain_ns=drain_ns,
            group_base=group_base,
            counters=counters,
            single_slot=single_slot,
        )
        self.records.append(record)
        self._by_entry_id[record.entry_id] = record
        return record

    def record_commit(
        self, core: int, commit_ns: float, shard_watermarks: Dict[int, float]
    ) -> Optional[CommitRecord]:
        """Append one cross-shard commit barrier (sharded runs only)."""
        if not self.enabled:
            return None
        record = CommitRecord(
            sequence=len(self.commits),
            core=core,
            commit_ns=commit_ns,
            shard_watermarks=dict(shard_watermarks),
        )
        self.commits.append(record)
        return record

    # -- amendments (write-queue coalescing) -----------------------------------

    def amend_data(
        self,
        entry_id: int,
        payload: Optional[bytes],
        encrypted_with: int,
        effective_ns: float,
    ) -> None:
        if not self.enabled:
            return
        record = self._by_entry_id.get(entry_id)
        if record is None or record.kind is not JournalKind.DATA:
            raise SimulationError("amending unknown data journal record %d" % entry_id)
        record.amendments.append(
            _Amendment(
                effective_ns=effective_ns,
                payload=payload,
                encrypted_with=encrypted_with,
            )
        )

    def amend_counter(
        self,
        entry_id: int,
        group_base: int,
        counters: Tuple[int, ...],
        effective_ns: float,
    ) -> None:
        if not self.enabled:
            return
        record = self._by_entry_id.get(entry_id)
        if record is None or record.kind is not JournalKind.COUNTER:
            raise SimulationError("amending unknown counter journal record %d" % entry_id)
        record.amendments.append(
            _Amendment(
                effective_ns=effective_ns,
                payload=None,
                encrypted_with=0,
                group_base=group_base,
                counters=counters,
            )
        )

    # -- reconstruction -------------------------------------------------------

    def reconstruct(
        self, crash_ns: float, adr: bool = True, adr_budget: Optional[int] = None
    ) -> Tuple[Dict[int, Tuple[Optional[bytes], int]], Dict[int, int]]:
        """NVM image at ``crash_ns``.

        Returns ``(data_lines, counter_lines)`` where ``data_lines``
        maps line address -> (payload, encrypted_with) and
        ``counter_lines`` maps data line address -> architectural
        counter value.  Records are replayed in acceptance order.

        ``adr_budget`` models an ADR energy reserve that dies after
        draining that many ready-but-undrained entries (in acceptance
        order); entries past the budget are lost exactly as if ``adr``
        were off for them.  ``None`` means unlimited (the paper's
        assumption).  Note this can split a counter-atomic pair: the
        budget is an *energy* property, blind to ready-bit pairing.
        """
        data_lines: Dict[int, Tuple[Optional[bytes], int]] = {}
        counters: Dict[int, int] = {}
        adr_drained = 0
        data_kind = JournalKind.DATA
        values: Union[JournalRecord, _Amendment]
        # One pass with the persist rule inline: this runs for every
        # record of every crash image a campaign or recovery builds.
        for record in self.records:
            if record.drain_ns > crash_ns:
                # Not in the array: only the ADR drain can save it.
                if not adr or record.ready_ns > crash_ns:
                    continue
                if adr_budget is not None:
                    if adr_drained >= adr_budget:
                        continue
                    adr_drained += 1
            # The latest amendment in effect by the crash, else the
            # record's own values (same field names as an amendment).
            values = record
            for amendment in record.amendments:
                if amendment.effective_ns <= crash_ns:
                    values = amendment
            if record.kind is data_kind:
                data_lines[record.address] = (values.payload, values.encrypted_with)
                continue
            group_base = values.group_base
            line_counters = values.counters
            if group_base is None or line_counters is None:
                raise SimulationError("counter record without counter values")
            if record.single_slot:
                counters[group_base] = line_counters[0]
            else:
                counters.update(zip(count(group_base, CACHE_LINE_SIZE), line_counters))
        return data_lines, counters

    def adr_pending(self, crash_ns: float) -> int:
        """Entries that survive a crash at ``crash_ns`` only thanks to ADR.

        This is the drain work the ADR reserve must fund; a budget below
        this number loses writes (see ``reconstruct``).
        """
        pending = 0
        for record in self.records:
            if record.ready_ns <= crash_ns < record.drain_ns:
                pending += 1
        return pending

    # -- introspection -----------------------------------------------------------

    def final_image(self) -> Tuple[Dict[int, Tuple[Optional[bytes], int]], Dict[int, int]]:
        """The crash-free end state (replay at T = infinity)."""
        return self.reconstruct(float("inf"))

    def __len__(self) -> int:
        return len(self.records)

    # -- checkpoint state -----------------------------------------------------------

    @staticmethod
    def _record_state(record: JournalRecord) -> tuple:
        return (
            record.kind.value,
            record.entry_id,
            record.address,
            record.accept_ns,
            record.ready_ns,
            record.drain_ns,
            record.payload,
            record.encrypted_with,
            record.group_base,
            record.counters,
            record.single_slot,
            record.partner_id,
            [
                (a.effective_ns, a.payload, a.encrypted_with, a.group_base, a.counters)
                for a in record.amendments
            ],
        )

    @staticmethod
    def _record_from_state(state: tuple) -> JournalRecord:
        return JournalRecord(
            kind=JournalKind(state[0]),
            entry_id=state[1],
            address=state[2],
            accept_ns=state[3],
            ready_ns=state[4],
            drain_ns=state[5],
            payload=state[6],
            encrypted_with=state[7],
            group_base=state[8],
            counters=state[9],
            single_slot=state[10],
            partner_id=state[11],
            amendments=[
                _Amendment(
                    effective_ns=effective_ns,
                    payload=payload,
                    encrypted_with=encrypted_with,
                    group_base=group_base,
                    counters=counters,
                )
                for effective_ns, payload, encrypted_with, group_base, counters in state[12]
            ],
        )

    def get_state(self) -> Dict[str, object]:
        """Checkpoint state: every record with its amendment history.

        The commit log is emitted only when non-empty so unsharded
        snapshots (and the committed golden-equivalence fixtures) keep
        the exact pre-sharding state shape.
        """
        state: Dict[str, object] = {
            "auto_id": self._auto_id,
            "records": [self._record_state(record) for record in self.records],
        }
        if self.commits:
            state["commits"] = [
                (c.sequence, c.core, c.commit_ns, dict(c.shard_watermarks))
                for c in self.commits
            ]
        return state

    def set_state(self, state: Dict[str, object]) -> None:
        self._auto_id = state["auto_id"]
        self.records = [self._record_from_state(record) for record in state["records"]]
        self._by_entry_id = {record.entry_id: record for record in self.records}
        self.commits = [
            CommitRecord(
                sequence=sequence,
                core=core,
                commit_ns=commit_ns,
                shard_watermarks=dict(watermarks),
            )
            for sequence, core, commit_ns, watermarks in state.get("commits", ())
        ]
