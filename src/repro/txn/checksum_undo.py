"""Checksummed undo logging: one counter-atomic write per transaction.

The standard undo protocol (:mod:`repro.txn.undolog`) needs *two*
counter-atomic record writes per transaction: an **arm** (`valid = 1`)
after the log is sealed and a **commit** (`valid = 0`) after the
mutation.  The arm exists only so recovery can tell a sealed log from
a half-written one.

This variant makes log entries *self-validating* instead: every entry
carries a checksum binding its header and payload.  The record then
needs only a monotonically increasing ``committed_seq``, written
counter-atomically once per transaction at commit:

```
prepare:  write entries with seq = committed_seq + 1 and checksums
          (relaxed); clwb; ccwb; barrier        ── log sealed
mutate:   write targets in place (relaxed); clwb; ccwb; barrier
commit:   committed_seq += 1 (CounterAtomic); clwb; barrier
```

Recovery reads ``committed_seq = k`` and scans the log for entries
with ``seq == k + 1``:

* none found ⇒ the crash predates the prepare: nothing to do;
* entries with valid checksums ⇒ an in-flight transaction: restore
  those pre-images.  If the crash hit mid-prepare, only a *subset* of
  entries validate — restoring them is still correct because the
  mutation (which starts only after the prepare barrier) cannot have
  begun, so each restore rewrites a target with the value it already
  holds.
* entries with torn checksums are skipped (same argument).

Compared to the standard protocol this saves one barrier and one
counter-atomic pair per transaction, at the cost of a log scan during
recovery and checksum computation on the prepare path — the trade the
ablation bench quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..config import CACHE_LINE_SIZE
from ..core.primitives import CounterAtomic, PersistentVar
from ..crash.recovery import RecoveredMemory
from ..crash.session import RecoveryContext
from ..errors import TransactionError
from ..sim.trace import TraceBuilder
from ..utils.bitops import u64_to_bytes
from .heap import LOG_ENTRY_BYTES, CoreArena
from .undolog import PREPARE_COMPUTE_NS, MUTATE_COMPUTE_NS, STAGE_COMPUTE_NS

LOG_MAGIC = 0x434B53554E444F21  # "CKSUNDO!"

_COMMITTED_SEQ_OFFSET = 0

#: Extra modeled work per entry for computing the checksum.
CHECKSUM_COMPUTE_NS = 6.0


def entry_checksum(target: int, seq: int, payload: bytes) -> int:
    """FNV-1a over the fields a torn write could shear apart."""
    state = 0xCBF29CE484222325
    prime = 0x100000001B3
    mask = (1 << 64) - 1
    for chunk in (u64_to_bytes(target), u64_to_bytes(seq), payload):
        for byte in chunk:
            state = ((state ^ byte) * prime) & mask
    return state


@dataclass
class _OpenTransaction:
    seq: int
    writes: List[Tuple[int, bytes, bytes]]


class ChecksummedUndoLog:
    """Undo transactions with self-validating entries (one CA write)."""

    def __init__(self, builder: TraceBuilder, arena: CoreArena) -> None:
        self.builder = builder
        self.arena = arena
        self.committed_seq_var: PersistentVar = CounterAtomic(
            arena.txn_record + _COMMITTED_SEQ_OFFSET, name="txn.committed_seq"
        )
        self._seq = 0
        self._open: Optional[_OpenTransaction] = None
        self._log_cursor = 0
        self._txn_first_entry = 0
        self.committed = 0

    # -- transaction construction -----------------------------------------

    def begin(self) -> None:
        if self._open is not None:
            raise TransactionError("transaction already open (no nesting)")
        self._seq += 1
        self._open = _OpenTransaction(seq=self._seq, writes=[])
        self._txn_first_entry = self._log_cursor
        self.builder.txn_begin("cksum-undo#%d" % self._seq)

    def write_line(
        self, line_address: int, old_payload: bytes, new_payload: bytes
    ) -> None:
        txn = self._require_open()
        if len(old_payload) != CACHE_LINE_SIZE or len(new_payload) != CACHE_LINE_SIZE:
            raise TransactionError("undo log works on whole 64 B lines")
        if line_address % CACHE_LINE_SIZE != 0:
            raise TransactionError("target must be line-aligned")
        if len(txn.writes) >= self.arena.log_capacity:
            raise TransactionError(
                "transaction exceeds log capacity (%d lines)" % self.arena.log_capacity
            )
        txn.writes.append((line_address, bytes(old_payload), bytes(new_payload)))

    def commit(self) -> None:
        txn = self._require_open()
        builder = self.builder
        if txn.writes:
            self._emit_prepare(txn)
            self._emit_mutate(txn)
            self._emit_commit(txn)
        self._open = None
        self.committed += 1
        builder.txn_end("cksum-undo#%d" % txn.seq)

    # -- stages --------------------------------------------------------------

    def _entry_address(self, index: int) -> int:
        return self.arena.log_base + (index % self.arena.log_capacity) * LOG_ENTRY_BYTES

    def _emit_prepare(self, txn: _OpenTransaction) -> None:
        builder = self.builder
        builder.label("prepare")
        for offset, (target, old, _new) in enumerate(txn.writes):
            header = self._entry_address(self._txn_first_entry + offset)
            payload = header + CACHE_LINE_SIZE
            checksum = entry_checksum(target, txn.seq, old)
            header_bytes = (
                u64_to_bytes(LOG_MAGIC)
                + u64_to_bytes(target)
                + u64_to_bytes(txn.seq)
                + u64_to_bytes(checksum)
                + bytes(CACHE_LINE_SIZE - 32)
            )
            builder.compute(PREPARE_COMPUTE_NS + CHECKSUM_COMPUTE_NS)
            builder.store(header, header_bytes)
            builder.store(payload, old)
            builder.clwb(header)
            builder.clwb(payload)
            builder.ccwb(header)
            builder.ccwb(payload)
        builder.compute(STAGE_COMPUTE_NS)
        builder.persist_barrier()
        # No arm write: entries validate themselves via checksum + seq.

    def _emit_mutate(self, txn: _OpenTransaction) -> None:
        builder = self.builder
        builder.label("mutate")
        for target, _old, new in txn.writes:
            builder.compute(MUTATE_COMPUTE_NS)
            builder.store(target, new)
            builder.clwb(target)
        for target, _old, _new in txn.writes:
            builder.ccwb(target)
        builder.compute(STAGE_COMPUTE_NS)
        builder.persist_barrier()

    def _emit_commit(self, txn: _OpenTransaction) -> None:
        builder = self.builder
        builder.label("commit")
        builder.store_var(self.committed_seq_var, txn.seq)
        builder.clwb(self.arena.txn_record)
        builder.persist_barrier()
        self._log_cursor = (self._log_cursor + len(txn.writes)) % self.arena.log_capacity

    def _require_open(self) -> _OpenTransaction:
        if self._open is None:
            raise TransactionError("no open transaction")
        return self._open

    def run(self, writes: Sequence[Tuple[int, bytes, bytes]]) -> None:
        self.begin()
        for line_address, old, new in writes:
            self.write_line(line_address, old, new)
        self.commit()


def recover_checksummed_undo(
    recovered: RecoveredMemory,
    arena: CoreArena,
    context: Optional[RecoveryContext] = None,
) -> List[int]:
    """Post-crash recovery: restore the in-flight transaction, if any.

    Scans the log for entries of sequence ``committed_seq + 1`` with
    valid checksums and restores their pre-images.  Torn or
    undecryptable entries are skipped — by the prepare-barrier
    argument their targets cannot have been mutated.

    Each restore is one :meth:`RecoveryContext.step`.  The procedure
    never writes the record (``committed_seq`` is untouched by a crash
    mid-scan), so an interrupted scan re-runs in full on the next boot
    and every restore rewrites the same pre-image — idempotent.
    """
    from ..errors import DecryptionFailure

    context = context or RecoveryContext()
    context.enter_phase("txn-replay")
    committed_seq = recovered.read_u64(arena.txn_record + _COMMITTED_SEQ_OFFSET)
    in_flight = committed_seq + 1
    restored: List[int] = []
    for slot in range(arena.log_capacity):
        header = arena.log_base + slot * LOG_ENTRY_BYTES
        try:
            if recovered.read_u64(header) != LOG_MAGIC:
                continue
            if recovered.read_u64(header + 16) != in_flight:
                continue
            target = recovered.read_u64(header + 8)
            checksum = recovered.read_u64(header + 24)
            pre_image = recovered.read(header + CACHE_LINE_SIZE, CACHE_LINE_SIZE)
        except DecryptionFailure:
            # A torn/unflushed entry: its transaction never finished
            # prepare, so its target is untouched.  Skip it.
            continue
        if entry_checksum(target, in_flight, pre_image) != checksum:
            continue
        context.write_line(recovered, target, pre_image)
        restored.append(target)
        context.step()
    context.step()
    return restored
