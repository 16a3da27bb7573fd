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
prepare:  write entries with the transaction's seq and checksums
          (relaxed); clwb; ccwb; barrier        ── log sealed
mutate:   write targets in place (relaxed); clwb; ccwb; barrier
commit:   committed_seq = seq (CounterAtomic); clwb; barrier
```

Every transaction takes the next seq, but only one with writes logs
entries and persists ``committed_seq``, so after an empty transaction
the in-flight seq can be ``committed_seq + 2`` or more.  Recovery
reads ``committed_seq = k`` and scans the log for entries with
``seq > k``: committed transactions' entries carry ``seq <= k``, so
these are exactly the in-flight transaction's entries.

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

from typing import List, Optional

from ..config import CACHE_LINE_SIZE
from ..core.primitives import CounterAtomic, PersistentVar
from ..crash.recovery import RecoveredMemory
from ..crash.session import RecoveryContext
from ..errors import DecryptionFailure
from ..sim.trace import TraceBuilder
from ..utils.bitops import u64_to_bytes
from .heap import LOG_ENTRY_BYTES, CoreArena
from .undolog import PREPARE_COMPUTE_NS, STAGE_COMPUTE_NS, LineWrite, LogTransactions

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


class ChecksummedUndoLog(LogTransactions):
    """Undo transactions with self-validating entries (one CA write)."""

    NOTE = "cksum-undo"
    MAGIC = LOG_MAGIC

    def __init__(self, builder: TraceBuilder, arena: CoreArena) -> None:
        super().__init__(builder, arena)
        self.committed_seq_var: PersistentVar = CounterAtomic(
            arena.txn_record + _COMMITTED_SEQ_OFFSET, name="txn.committed_seq"
        )

    def _stages(self, writes: List[LineWrite]) -> None:
        builder = self.builder
        builder.label("prepare")
        self._checksummed_entries(writes)
        builder.label("mutate")
        self._in_place(writes)
        builder.label("commit")
        builder.store_var(self.committed_seq_var, self._seq)
        builder.clwb(self.arena.txn_record)
        builder.persist_barrier()

    def _checksummed_entries(self, writes: List[LineWrite]) -> None:
        """Log each pre-image with its checksum and seal the log.

        There is no arm write: entries validate themselves via
        checksum + seq.
        """
        builder = self.builder
        seq = self._seq
        for header, (target, old, _new) in zip(self._entry_headers(len(writes)), writes):
            payload = header + CACHE_LINE_SIZE
            header_bytes = (
                u64_to_bytes(self.MAGIC)
                + u64_to_bytes(target)
                + u64_to_bytes(seq)
                + u64_to_bytes(entry_checksum(target, seq, old))
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


def recover_checksummed_undo(
    recovered: RecoveredMemory,
    arena: CoreArena,
    context: Optional[RecoveryContext] = None,
) -> List[int]:
    """Post-crash recovery: restore the in-flight transaction, if any.

    Scans the log for entries whose seq exceeds ``committed_seq`` and
    whose checksum, computed with that entry's own seq, is valid, and
    restores their pre-images.  Torn or undecryptable entries are
    skipped — by the prepare-barrier argument their targets cannot
    have been mutated.

    Each restore is one :meth:`RecoveryContext.step`.  The procedure
    never writes the record (``committed_seq`` is untouched by a crash
    mid-scan), so an interrupted scan re-runs in full on the next boot
    and every restore rewrites the same pre-image — idempotent.
    """
    context = context or RecoveryContext()
    context.enter_phase("txn-replay")
    committed_seq = recovered.read_u64(arena.txn_record + _COMMITTED_SEQ_OFFSET)
    restored: List[int] = []
    for slot in range(arena.log_capacity):
        header = arena.log_base + slot * LOG_ENTRY_BYTES
        try:
            if recovered.read_u64(header) != LOG_MAGIC:
                continue
            seq = recovered.read_u64(header + 16)
            if seq <= committed_seq:
                continue
            target = recovered.read_u64(header + 8)
            checksum = recovered.read_u64(header + 24)
            pre_image = recovered.read(header + CACHE_LINE_SIZE, CACHE_LINE_SIZE)
        except DecryptionFailure:
            # A torn/unflushed entry: its transaction never finished
            # prepare, so its target is untouched.  Skip it.
            continue
        if entry_checksum(target, seq, pre_image) != checksum:
            continue
        context.write_line(recovered, target, pre_image)
        restored.append(target)
        context.step()
    context.step()
    return restored
