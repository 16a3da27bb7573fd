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

Two readers apply that rule.  :meth:`PersistJournal.persisted_at`
replays every record for one instant; it is the reference, and the only
reader that models an ADR budget.  :class:`PersistCursor` sweeps a
finished journal forward: a later instant applies only the records that
entered or settled since the previous one, so a run's crash images at
ascending instants cost one pass over the journal, not one per image.

Data records hold each line's plaintext and the counter it is encrypted
under (``encrypted_with``).  Ciphertext is built only where it is
observed: a crash image's lines come from :func:`image_lines`, which
gives each record version one :class:`~repro.nvm.device.PersistedLine`,
enciphered in one batch with the versions no image has needed yet and
kept on the version.  A version is therefore enciphered at most once,
and every image that holds it shares its line object.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, count
from typing import Dict, List, Mapping, Optional, Tuple, TypeVar, Union, cast

from ..config import CACHE_LINE_SIZE
from ..crypto.otp import OTPCipher
from ..errors import SimulationError
from ..nvm.device import PersistedLine

_ZERO_LINE = bytes(CACHE_LINE_SIZE)


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
    #: The line crash images hold for this version, once one has needed
    #: it (see :func:`image_lines`), and that line's ECC-lane tag.
    line: Optional[PersistedLine] = None
    tag: Optional[bytes] = None


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
    #: The line crash images hold for this version, once one has needed
    #: it (see :func:`image_lines`), and that line's ECC-lane tag.
    line: Optional[PersistedLine] = None
    tag: Optional[bytes] = None


#: A data line's persisted version: its record, or the amendment in effect.
LineVersion = Union[JournalRecord, _Amendment]

V = TypeVar("V")


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
        #: Cleared on a timing-only run (``config.functional`` False, as
        #: every figure sweep job runs): record/amend become no-ops and
        #: reconstruction is unavailable.
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
        # A record covers the same slots whatever amendment is in
        # effect, which is what lets PersistCursor settle it in place.
        width = len(record.counters or ())
        if group_base != record.group_base or len(counters) != width:
            raise SimulationError(
                "amendment moves counter journal record %d to other slots" % entry_id
            )
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
        self,
        crash_ns: float,
        adr: bool = True,
        adr_budget: Optional[int] = None,
        cipher: Optional[OTPCipher] = None,
    ) -> Tuple[Dict[int, Tuple[Optional[bytes], int]], Dict[int, int]]:
        """NVM image at ``crash_ns``.

        Returns ``(data_lines, counter_lines)`` where ``data_lines``
        maps line address -> (payload, encrypted_with) and
        ``counter_lines`` maps data line address -> architectural
        counter value.  Payloads are the plaintext the device holds;
        with ``cipher`` they are the ciphertext NVM holds (see
        :func:`line_images`).  Which writes survive is
        :meth:`persisted_at`'s rule.
        """
        versions, counters = self.persisted_at(crash_ns, adr, adr_budget)
        return line_images(versions, cipher), counters

    def persisted_at(
        self, crash_ns: float, adr: bool = True, adr_budget: Optional[int] = None
    ) -> Tuple[Dict[int, LineVersion], Dict[int, int]]:
        """The data-line versions and counters durable at ``crash_ns``.

        Returns ``(versions, counter_lines)``: ``versions`` maps line
        address -> the record or amendment whose payload persisted.
        Records are replayed in acceptance order.

        ``adr_budget`` models an ADR energy reserve that dies after
        draining that many ready-but-undrained entries (in acceptance
        order); entries past the budget are lost exactly as if ``adr``
        were off for them.  ``None`` means unlimited (the paper's
        assumption).  Note this can split a counter-atomic pair: the
        budget is an *energy* property, blind to ready-bit pairing.
        """
        versions: Dict[int, LineVersion] = {}
        counters: Dict[int, int] = {}
        adr_drained = 0
        data_kind = JournalKind.DATA
        values: LineVersion
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
                versions[record.address] = values
                continue
            group_base = values.group_base
            line_counters = values.counters
            if group_base is None or line_counters is None:
                raise SimulationError("counter record without counter values")
            if record.single_slot:
                counters[group_base] = line_counters[0]
            else:
                counters.update(zip(count(group_base, CACHE_LINE_SIZE), line_counters))
        return versions, counters

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

    def final_image(
        self, cipher: Optional[OTPCipher] = None
    ) -> Tuple[Dict[int, Tuple[Optional[bytes], int]], Dict[int, int]]:
        """The crash-free end state (replay at T = infinity)."""
        return self.reconstruct(float("inf"), cipher=cipher)

    def __len__(self) -> int:
        return len(self.records)


class PersistCursor:
    """A finished journal's persisted state, swept forward in time.

    Answers what :meth:`PersistJournal.persisted_at` (unbudgeted) and
    :meth:`PersistJournal.adr_pending` answer, for one ADR mode, without
    replaying every record per instant.  It keeps the versions and
    counters persisted at the last instant asked and the records still
    *open* there: entered but not yet drained, or still waiting for an
    amendment.  A record enters once the instant reaches the earliest of
    its accept, ready and drain times, so any record order works.

    A later or equal instant enters the records due since and settles
    the open ones; an earlier instant restarts from the empty image.  A
    line or counter slot takes the persisted record of highest list
    index, with that record's fired amendment of highest list index in
    effect (not the latest ``effective_ns``: amendments can fire out of
    time order), exactly as the replay does.

    The first instant a cursor is asked is answered by the replay, so a
    single image costs what it always did; the sweep starts at the
    second.  The journal must not change once a cursor has been asked.
    """

    def __init__(self, journal: PersistJournal, adr: bool = True) -> None:
        self._journal = journal
        self._adr = adr
        self._asked = False
        #: Record indices in entry order, and their entry instants (sorted).
        self._order: List[int] = []
        self._keys: List[float] = []
        self._restart()

    def state_at(
        self, crash_ns: float
    ) -> Tuple[Dict[int, LineVersion], Dict[int, int], int]:
        """``(versions, counters, pending)`` durable at ``crash_ns``.

        ``versions`` and ``counters`` are :meth:`PersistJournal.persisted_at`'s,
        as fresh dicts in ascending address order (see :func:`ascending`)
        that the caller may keep and mutate; ``pending`` counts the
        entries that survive only thanks to the ADR drain (ready but
        undrained), and is 0 without ADR.
        """
        journal = self._journal
        if not self._asked:
            self._asked = True
            versions, counters = journal.persisted_at(crash_ns, self._adr)
            pending = journal.adr_pending(crash_ns) if self._adr else 0
            return ascending(versions), ascending(counters), pending
        if len(self._order) != len(journal.records):
            keys = [
                min(record.accept_ns, record.ready_ns, record.drain_ns)
                for record in journal.records
            ]
            self._order = sorted(range(len(keys)), key=keys.__getitem__)
            self._keys = sorted(keys)
            self._restart()
        elif self._at is not None and crash_ns < self._at:
            self._restart()
        pending = self._advance(crash_ns)
        return ascending(self._versions), ascending(self._counters), pending

    def _restart(self) -> None:
        """Back to the empty image, before any instant."""
        self._at: Optional[float] = None
        #: How many records of ``_order`` have entered.
        self._entered = 0
        self._open: List[int] = []
        self._versions: Dict[int, LineVersion] = {}
        self._counters: Dict[int, int] = {}
        #: Line or counter slot -> list index of the record holding it.
        self._line_holder: Dict[int, int] = {}
        self._slot_holder: Dict[int, int] = {}

    def _advance(self, crash_ns: float) -> int:
        """Enter the records due by ``crash_ns`` and settle the open ones.

        Returns how many open records are ready but undrained (counted
        under ADR only).
        """
        records = self._journal.records
        adr = self._adr
        versions = self._versions
        counters = self._counters
        line_holder = self._line_holder
        slot_holder = self._slot_holder
        line_of = line_holder.get
        slot_of = slot_holder.get
        data_kind = JournalKind.DATA
        entered = self._entered
        due = bisect_right(self._keys, crash_ns, entered)
        still_open: List[int] = []
        keep = still_open.append
        pending = 0
        values: LineVersion
        for index in chain(self._open, self._order[entered:due]):
            record = records[index]
            drain_ns = record.drain_ns
            if drain_ns > crash_ns:
                keep(index)
                # Not in the array: only the ADR drain can save it.
                if not adr or record.ready_ns > crash_ns:
                    continue
                pending += 1
            values = record
            amendments = record.amendments
            if amendments:
                for amendment in amendments:
                    if amendment.effective_ns <= crash_ns:
                        values = amendment
                if values is not amendments[-1] and drain_ns <= crash_ns:
                    keep(index)
            if record.kind is data_kind:
                address = record.address
                if line_of(address, -1) <= index:
                    versions[address] = values
                    line_holder[address] = index
                continue
            group_base = values.group_base
            line_counters = values.counters
            if group_base is None or line_counters is None:
                raise SimulationError("counter record without counter values")
            if record.single_slot:
                if slot_of(group_base, -1) <= index:
                    counters[group_base] = line_counters[0]
                    slot_holder[group_base] = index
                continue
            for slot, value in zip(count(group_base, CACHE_LINE_SIZE), line_counters):
                if slot_of(slot, -1) <= index:
                    counters[slot] = value
                    slot_holder[slot] = index
        self._open = still_open
        self._entered = due
        self._at = crash_ns
        return pending


def ascending(mapping: Mapping[int, V]) -> Dict[int, V]:
    """A copy of ``mapping`` in ascending address order.

    Crash images install their lines and counter slots in this order,
    so an image's state does not depend on the path that built it.
    """
    return {address: mapping[address] for address in sorted(mapping)}


def image_lines(
    versions: Mapping[int, LineVersion], cipher: Optional[OTPCipher] = None
) -> Dict[int, PersistedLine]:
    """``address -> PersistedLine`` for persisted versions, one object per version.

    A version's line is built the first time an image needs it and kept
    in its ``line``: the payload enciphered under ``encrypted_with``
    (the versions no image has needed yet go through one
    :meth:`~repro.crypto.otp.OTPCipher.encrypt_lines` batch), or the
    plaintext without ``cipher``.  A ``None`` payload is the zero line,
    and counter 0 stays in the clear.  Images share these objects, so
    nothing may mutate a ``PersistedLine`` in place.  A line belongs to
    the cipher it was first built with: pass every journal its own run's
    :meth:`~repro.sim.machine.SimulationResult.image_cipher`.
    """
    fresh = [
        (address, version) for address, version in versions.items() if version.line is None
    ]
    if fresh:
        texts = [version.payload for _address, version in fresh]
        if cipher is not None:
            sealed = iter(
                cipher.encrypt_lines(
                    [
                        (address, version.encrypted_with, version.payload)
                        for address, version in fresh
                        if version.payload is not None
                    ]
                )
            )
            texts = [None if text is None else next(sealed) for text in texts]
        for (_address, version), text in zip(fresh, texts):
            version.line = PersistedLine(
                _ZERO_LINE if text is None else text, version.encrypted_with
            )
    return cast(
        Dict[int, PersistedLine],
        {address: version.line for address, version in versions.items()},
    )


def line_images(
    versions: Mapping[int, LineVersion], cipher: Optional[OTPCipher] = None
) -> Dict[int, Tuple[Optional[bytes], int]]:
    """``address -> (payload, encrypted_with)`` for persisted versions.

    Without ``cipher`` the payload is the plaintext.  With it, each
    version's payload is the ciphertext of its :func:`image_lines` line,
    under that function's rule: pass every journal the cipher of its own
    run's encryption config.  A ``None`` payload stays ``None``.
    """
    if cipher is None:
        return {
            address: (version.payload, version.encrypted_with)
            for address, version in versions.items()
        }
    lines = image_lines(versions, cipher)
    return {
        address: (
            None if version.payload is None else lines[address].payload,
            version.encrypted_with,
        )
        for address, version in versions.items()
    }
