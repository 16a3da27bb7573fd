"""Counter-atomicity policies: queue selection and ready-bit pairing.

The atomicity layer owns the data and counter write queues and every
path by which a write (data or counter) reaches them:

* :class:`UnpairedAtomicity` — writes are accepted individually and are
  immediately ready (the no-encryption, ideal, unsafe and co-located
  designs; also SCA's non-annotated writes).
* :class:`FullCounterAtomicity` — every data write pairs with its
  covering counter-line write through the ready-bit protocol (paper
  Section 3.2.2 / 5.2.2).
* :class:`SelectiveCounterAtomicity` — only ``CounterAtomic``-annotated
  writes pair; other counters coalesce in the counter cache until
  ``counter_cache_writeback()`` (Section 4).

A note on counter-atomic pairs and sibling counters: a paired write
persists the whole covering counter line.  The seven sibling slots are
taken from the *architectural* counter values (last persisted), not the
counter cache — re-persisting them is idempotent, whereas persisting a
dirty cached sibling could outrun its data line and strand it
undecryptable.  Dirty cached counters persist via
``counter_cache_writeback()`` or eviction, exactly as the paper's
protocol requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from ..config import CACHE_LINE_SIZE, SystemConfig
from ..core.designs import DesignPolicy
from .events import COUNTER_PERSIST, DATA_PERSIST, PAIR
from .writequeue import WriteQueue

if TYPE_CHECKING:
    from .controller import MemoryController


@dataclass(slots=True)
class WriteTicket:
    """Acceptance of a write-line request.

    ``accept_ns`` is when the write is architecturally persistent under
    ADR (both queue entries accepted and ready, for paired writes);
    sfence/persist_barrier waits on this.  ``drain_ns`` is when the data
    actually reaches the NVM array (diagnostics, crash modeling).
    """

    address: int
    accept_ns: float
    drain_ns: float
    paired: bool
    coalesced: bool


class UnpairedAtomicity:
    """Base discipline: no pairing; every entry is ready on acceptance.

    Also the shared implementation substrate — the paired disciplines
    override :meth:`write_is_paired` (and FCA the counter-writeback
    granularity) but reuse the queue mechanics defined here.
    """

    kind = "unpaired"

    #: Bytes a *pair's* counter persist moves.  A pair changes at most
    #: its own 8 B slot relative to the persisted line, so this equals
    #: ``counter_payload_bytes`` (8 * max(1, changed)) for that case;
    #: FCA overrides both to full cache lines.
    pair_counter_bytes = 8

    def __init__(self, ctrl: "MemoryController", config: SystemConfig, policy: DesignPolicy) -> None:
        self.ctrl = ctrl
        self.policy = policy
        self.data_queue = WriteQueue(
            "data-wq",
            config.controller.data_write_queue_entries,
            coalesce=config.controller.coalesce_writes,
            entry_ids=ctrl.entry_ids,
        )
        self.counter_queue = WriteQueue(
            "counter-wq",
            config.controller.counter_write_queue_entries,
            coalesce=config.controller.coalesce_writes,
            entry_ids=ctrl.entry_ids,
        )
        self.pair_ready_latency_ns = config.controller.pair_ready_latency_ns
        self._magic = policy.magic_counter_persistence

    # -- pairing discipline --------------------------------------------------

    def write_is_paired(self, counter_atomic: bool) -> bool:
        return False

    def accept_write(
        self,
        line: int,
        payload: Optional[bytes],
        request_ns: float,
        counter: int,
        counter_atomic: bool,
    ) -> WriteTicket:
        """Route one encrypted split-region data write per the discipline.

        Unpaired writes may still be escalated to a counter-atomic pair
        by the integrity layer's Osiris counter-lag bound: an unpaired
        write whose global counter has outrun the persisted counter
        beyond the post-crash search window would be unrecoverable, so
        integrity-verified designs force the pair (all-or-nothing, no
        crash window), keeping every persisted line re-authenticable.
        """
        paired = self.write_is_paired(counter_atomic)
        lag_forced = False
        if not paired and self.ctrl.integrity.should_force_pair(line, counter):
            lag_forced = True
            paired = True
        if paired:
            return self.write_paired(line, payload, request_ns, counter, lag_forced)
        ticket = self.write_unpaired(line, payload, request_ns, counter, CACHE_LINE_SIZE)
        if self._magic:
            # Ideal fiction: the architectural counter becomes durable
            # instantly and for free, together with the data.
            ctrl = self.ctrl
            ctrl.counter_store.write(line, counter)
            if ctrl.journal.enabled:
                ctrl.journal.record_counter(
                    address=ctrl.address_map.counter_line_address_of(line),
                    counters=(counter,),
                    group_base=line,
                    accept_ns=ticket.accept_ns,
                    ready_ns=ticket.accept_ns,
                    drain_ns=ticket.accept_ns,
                    single_slot=True,
                )
        return ticket

    # -- unpaired data writes ------------------------------------------------

    def write_unpaired(
        self,
        line: int,
        payload: Optional[bytes],
        request_ns: float,
        encrypted_with: int,
        payload_bytes: int,
    ) -> WriteTicket:
        """Unpaired data write: coalesce or enqueue, drain when banks allow.

        ``payload_bytes`` is what the drain moves over the bus: 64 B, or
        72 B for a co-located data+counter line.
        """
        ctrl = self.ctrl
        queue = self.data_queue
        entry = queue.probe(line, request_ns)
        if entry is not None:
            queue.merge(entry, payload, encrypted_with)
            drain_ns = entry.drain_ns
            ctrl.device.persist_line(line, payload, encrypted_with)
            if ctrl.journal.enabled:
                ctrl.journal.amend_data(
                    entry.entry_id, payload, encrypted_with, effective_ns=request_ns
                )
            ctrl.records.append(
                (DATA_PERSIST, line, payload_bytes, True, request_ns, drain_ns, 0.0)
            )
            return WriteTicket(line, request_ns, drain_ns, False, True)
        entry = queue.accept(line, request_ns, payload, False, encrypted_with)
        accept_ns = entry.accept_ns
        issue, drain = ctrl.drain_write("data", line, accept_ns, payload_bytes)
        queue.schedule(entry, accept_ns, issue, drain)
        ctrl.device.persist_line(line, payload, encrypted_with)
        if ctrl.journal.enabled:
            ctrl.journal.record_data(
                entry_id=entry.entry_id,
                address=line,
                payload=payload,
                encrypted_with=encrypted_with,
                accept_ns=accept_ns,
                ready_ns=accept_ns,
                drain_ns=drain,
            )
        ctrl.records.append(
            (DATA_PERSIST, line, payload_bytes, False, accept_ns, drain, accept_ns - request_ns)
        )
        return WriteTicket(line, accept_ns, drain, False, False)

    # -- counter-atomic pairs ------------------------------------------------

    def write_paired(
        self,
        line: int,
        payload: Optional[bytes],
        request_ns: float,
        counter: int,
        lag_forced: bool = False,
    ) -> WriteTicket:
        """Counter-atomic write: data + counter entries with ready bits.

        Follows the paper's seven-step walkthrough: both entries are
        inserted, each checks for its partner, and both become ready
        only when both are present.  Neither drains before ready, and
        the ADR drain at a failure takes ready entries only, so the
        pair persists all-or-nothing.

        Counter updates to a counter line that is already queued (and
        still undrained) merge into the queued entry — the merge and
        ready-bit update are a single ADR-protected operation, so the
        amendment takes effect exactly when the new pair becomes ready.
        """
        ctrl = self.ctrl
        data_queue = self.data_queue
        counter_queue = self.counter_queue
        records = ctrl.records
        journal = ctrl.journal
        group_base = ctrl.address_map.data_group_base(line)
        counter_line = ctrl.address_map.counter_line_address_of(line)
        # The written slot carries the new counter; sibling slots carry
        # their last *persisted* values (see the module docstring).
        values = list(ctrl.counter_store.read_counter_line(line))
        values[(line - group_base) // CACHE_LINE_SIZE] = counter
        counters = tuple(values)
        counter_values = (group_base, counters)

        # A new pair to a line whose previous pair is still queued
        # merges into it: the merge plus the ready-bit update is one
        # ADR-protected operation, so both the data amendment and the
        # counter amendment take effect exactly when this pair becomes
        # ready, preserving all-or-nothing behaviour.
        data_entry = data_queue.probe(line, request_ns, True)
        counter_entry = (
            counter_queue.probe(counter_line, request_ns, True)
            if data_entry is not None and data_entry.counter_atomic
            else None
        )
        if data_entry is not None and counter_entry is not None:
            data_queue.merge(data_entry, payload, counter)
            counter_queue.merge(counter_entry, None, 0, counter_values)
            ready_ns = request_ns + self.pair_ready_latency_ns
            data_drain = data_entry.drain_ns
            counter_drain = counter_entry.drain_ns
            records.append((DATA_PERSIST, line, CACHE_LINE_SIZE, True, ready_ns, data_drain, 0.0))
            records.append((COUNTER_PERSIST, counter_line, 0, True, True, ready_ns, counter_drain))
            if journal.enabled:
                journal.amend_data(data_entry.entry_id, payload, counter, effective_ns=ready_ns)
                journal.amend_counter(
                    counter_entry.entry_id, group_base, counters, effective_ns=ready_ns
                )
            ctrl.device.persist_line(line, payload, counter)
            ctrl.counter_store.write_counter_line(group_base, counters)
            settled_ns = ctrl.integrity.note_counter_persist(group_base, counters, ready_ns)
            records.append((PAIR, line, settled_ns, 0.0, lag_forced, True))
            return WriteTicket(
                line,
                settled_ns,
                data_drain if data_drain >= counter_drain else counter_drain,
                True,
                True,
            )

        data_entry = data_queue.accept(line, request_ns, payload, False, counter, None, True)
        pair_time = data_entry.accept_ns
        # Counter side: merge into a live queued counter entry, else
        # accept a fresh one.
        counter_entry = counter_queue.probe(counter_line, pair_time, True)
        merged = counter_entry is not None
        if counter_entry is None:
            counter_entry = counter_queue.accept(
                counter_line, request_ns, None, True, 0, counter_values, True
            )
            counter_entry.partner_id = data_entry.entry_id
        counter_accept = counter_entry.accept_ns
        ready_ns = (
            pair_time if pair_time >= counter_accept else counter_accept
        ) + self.pair_ready_latency_ns
        if merged:
            counter_queue.merge(counter_entry, None, 0, counter_values)
            counter_drain = counter_entry.drain_ns
            records.append((COUNTER_PERSIST, counter_line, 0, True, True, ready_ns, counter_drain))
            if journal.enabled:
                journal.amend_counter(
                    counter_entry.entry_id, group_base, counters, effective_ns=ready_ns
                )
        else:
            counter_bytes = self.pair_counter_bytes
            counter_issue, counter_drain = ctrl.drain_write(
                "counter", counter_line, ready_ns, counter_bytes
            )
            counter_queue.schedule(counter_entry, ready_ns, counter_issue, counter_drain)
            records.append(
                (
                    COUNTER_PERSIST, counter_line, counter_bytes, False, True,
                    counter_accept, counter_drain,
                )
            )
            if journal.enabled:
                journal.record_counter(
                    address=counter_line,
                    counters=counters,
                    group_base=group_base,
                    accept_ns=counter_accept,
                    ready_ns=ready_ns,
                    drain_ns=counter_drain,
                    entry_id=counter_entry.entry_id,
                )

        data_entry.partner_id = counter_entry.entry_id
        data_issue, data_drain = ctrl.drain_write("data", line, ready_ns, CACHE_LINE_SIZE)
        data_queue.schedule(data_entry, ready_ns, data_issue, data_drain)
        records.append((DATA_PERSIST, line, CACHE_LINE_SIZE, False, pair_time, data_drain, 0.0))
        ctrl.device.persist_line(line, payload, counter)
        ctrl.counter_store.write_counter_line(group_base, counters)
        settled_ns = ctrl.integrity.note_counter_persist(group_base, counters, ready_ns)
        if journal.enabled:
            journal.record_data(
                entry_id=data_entry.entry_id,
                address=line,
                payload=payload,
                encrypted_with=counter,
                accept_ns=pair_time,
                ready_ns=ready_ns,
                drain_ns=data_drain,
                partner_id=counter_entry.entry_id,
            )
        records.append((PAIR, line, settled_ns, settled_ns - request_ns, lag_forced, merged))
        return WriteTicket(
            line,
            settled_ns,
            data_drain if data_drain >= counter_drain else counter_drain,
            True,
            merged,
        )

    # -- counter-line writebacks (evictions / ccwb flushes) ------------------

    def writeback_counter_line(
        self,
        flushed: Tuple[int, Tuple[int, ...]],
        request_ns: float,
    ) -> WriteTicket:
        """Write one counter line (eviction or ccwb flush) to NVM."""
        ctrl = self.ctrl
        queue = self.counter_queue
        group_base, counters = flushed
        counter_line = ctrl.address_map.counter_line_address_of(group_base)
        entry = queue.probe(counter_line, request_ns)
        if entry is not None:
            queue.merge(entry, None, 0, flushed)
            drain_ns = entry.drain_ns
            ctrl.records.append(
                (COUNTER_PERSIST, counter_line, 0, True, False, request_ns, drain_ns)
            )
            ctrl.counter_store.write_counter_line(group_base, counters)
            settled_ns = ctrl.integrity.note_counter_persist(group_base, counters, request_ns)
            if ctrl.journal.enabled:
                ctrl.journal.amend_counter(
                    entry.entry_id, group_base, counters, effective_ns=request_ns
                )
            return WriteTicket(counter_line, settled_ns, drain_ns, False, True)
        entry = queue.accept(counter_line, request_ns, None, True, 0, flushed)
        accept_ns = entry.accept_ns
        counter_bytes = self.counter_payload_bytes(group_base, counters)
        issue, drain = ctrl.drain_write("counter", counter_line, accept_ns, counter_bytes)
        queue.schedule(entry, accept_ns, issue, drain)
        ctrl.counter_store.write_counter_line(group_base, counters)
        settled_ns = ctrl.integrity.note_counter_persist(group_base, counters, accept_ns)
        if ctrl.journal.enabled:
            ctrl.journal.record_counter(
                address=counter_line,
                counters=counters,
                group_base=group_base,
                accept_ns=accept_ns,
                ready_ns=accept_ns,
                drain_ns=drain,
                entry_id=entry.entry_id,
            )
        ctrl.records.append(
            (COUNTER_PERSIST, counter_line, counter_bytes, False, False, accept_ns, drain)
        )
        return WriteTicket(counter_line, settled_ns, drain, False, False)

    # -- helpers -------------------------------------------------------------

    def counter_payload_bytes(self, group_base: int, counters: Tuple[int, ...]) -> int:
        """Bytes a counter writeback moves to NVM.

        Coalesced writebacks move only the modified 8 B slots over the
        64-bit bus; full counter-atomicity overrides this with
        cache-line granularity (the Section 4.1 overhead).
        """
        stored = self.ctrl.counter_store.read_counter_line(group_base)
        changed = sum(1 for old, new in zip(stored, counters) if old != new)
        return 8 * max(1, changed)

    # -- checkpoint state ----------------------------------------------------

    def get_state(self) -> dict:
        return {
            "data_queue": self.data_queue.get_state(),
            "counter_queue": self.counter_queue.get_state(),
        }

    def set_state(self, state: dict) -> None:
        self.data_queue.set_state(state["data_queue"])
        self.counter_queue.set_state(state["counter_queue"])


class FullCounterAtomicity(UnpairedAtomicity):
    """FCA: every write pairs; counter writebacks are full lines."""

    kind = "fca"

    pair_counter_bytes = CACHE_LINE_SIZE

    def write_is_paired(self, counter_atomic: bool) -> bool:
        return True

    def counter_payload_bytes(self, group_base: int, counters: Tuple[int, ...]) -> int:
        return CACHE_LINE_SIZE


class SelectiveCounterAtomicity(UnpairedAtomicity):
    """SCA: only ``CounterAtomic``-annotated writes pair."""

    kind = "sca"

    def write_is_paired(self, counter_atomic: bool) -> bool:
        return counter_atomic


_ATOMICITY_CLASSES = {
    "unpaired": UnpairedAtomicity,
    "fca": FullCounterAtomicity,
    "sca": SelectiveCounterAtomicity,
}


def build_atomicity(
    ctrl: "MemoryController", config: SystemConfig, policy: DesignPolicy
) -> UnpairedAtomicity:
    """Instantiate the atomicity strategy for a design's axis value."""
    return _ATOMICITY_CLASSES[policy.atomicity.kind](ctrl, config, policy)
