"""Redo-logging transactions with selective counter-atomicity.

The dual of undo logging: new values are written to the log first, the
commit record flips the recoverable version from "data" to "log", and
the in-place data update happens *after* commit (the write-back phase).
Recovery replays the log when the record is armed.

Stage / atomicity structure (same reasoning as Table 1):

* **prepare** — write new values into log entries (relaxable), clwb,
  ccwb over the log, barrier;
* **commit** — ``CounterAtomic`` store of ``valid = 1``, clwb, barrier
  (the log is now the authoritative version);
* **write-back** — apply the new values in place (relaxable), clwb,
  ccwb over the data, barrier;
* **retire** — ``CounterAtomic`` store of ``valid = 0``, clwb, barrier
  (the data is authoritative again).

Log layout matches the undo log (header line + payload line per entry),
with the payload holding the *new* value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..config import CACHE_LINE_SIZE
from ..core.primitives import CounterAtomic, PersistentVar, Plain
from ..crash.recovery import RecoveredMemory
from ..crash.session import RecoveryContext
from ..errors import TransactionError
from ..sim.trace import TraceBuilder
from ..utils.bitops import u64_to_bytes
from .heap import LOG_ENTRY_BYTES, CoreArena

LOG_MAGIC = 0x5245444F4C4F4721  # "REDOLOG!"

_VALID_OFFSET = 0
_SEQ_OFFSET = 8
_NENTRIES_OFFSET = 16
_FIRST_ENTRY_OFFSET = 24

#: Modeled non-memory work per log entry / in-place update; see the
#: rationale in :mod:`repro.txn.undolog`.
PREPARE_COMPUTE_NS = 70.0
WRITEBACK_COMPUTE_NS = 45.0
STAGE_COMPUTE_NS = 25.0


@dataclass
class _OpenTransaction:
    seq: int
    writes: List[Tuple[int, bytes]]  # (line address, new payload)


class RedoLogTransactions:
    """Generates redo-logged transactions into a trace builder."""

    def __init__(self, builder: TraceBuilder, arena: CoreArena) -> None:
        self.builder = builder
        self.arena = arena
        self.valid_var: PersistentVar = CounterAtomic(
            arena.txn_record + _VALID_OFFSET, name="txn.valid"
        )
        self.seq_var: PersistentVar = Plain(arena.txn_record + _SEQ_OFFSET, name="txn.seq")
        self.nentries_var: PersistentVar = Plain(
            arena.txn_record + _NENTRIES_OFFSET, name="txn.nentries"
        )
        self._seq = 0
        self._open: Optional[_OpenTransaction] = None
        self.committed = 0
        #: Circular-log cursor (see repro.txn.undolog for rationale).
        self._log_cursor = 0
        self._txn_first_entry = 0

    def begin(self) -> None:
        if self._open is not None:
            raise TransactionError("transaction already open (no nesting)")
        self._seq += 1
        self._open = _OpenTransaction(seq=self._seq, writes=[])
        self._txn_first_entry = self._log_cursor
        self.builder.txn_begin("redo#%d" % self._seq)

    def write_line(self, line_address: int, new_payload: bytes) -> None:
        txn = self._require_open()
        if len(new_payload) != CACHE_LINE_SIZE:
            raise TransactionError("redo log works on whole 64 B lines")
        if line_address % CACHE_LINE_SIZE != 0:
            raise TransactionError("target must be line-aligned")
        if len(txn.writes) >= self.arena.log_capacity:
            raise TransactionError(
                "transaction exceeds log capacity (%d lines)" % self.arena.log_capacity
            )
        txn.writes.append((line_address, bytes(new_payload)))

    def commit(self) -> None:
        txn = self._require_open()
        builder = self.builder
        if txn.writes:
            self._emit_prepare(txn)
            self._emit_commit(txn)
            self._emit_writeback(txn)
            self._emit_retire(txn)
        self._open = None
        self.committed += 1
        builder.txn_end("redo#%d" % txn.seq)

    # -- stages -----------------------------------------------------------

    def _entry_address(self, index: int) -> int:
        return self.arena.log_base + (index % self.arena.log_capacity) * LOG_ENTRY_BYTES

    def _emit_prepare(self, txn: _OpenTransaction) -> None:
        builder = self.builder
        builder.label("prepare")
        for offset, (target, new) in enumerate(txn.writes):
            header = self._entry_address(self._txn_first_entry + offset)
            payload = header + CACHE_LINE_SIZE
            header_bytes = (
                u64_to_bytes(LOG_MAGIC)
                + u64_to_bytes(target)
                + u64_to_bytes(txn.seq)
                + bytes(CACHE_LINE_SIZE - 24)
            )
            builder.compute(PREPARE_COMPUTE_NS)
            builder.store(header, header_bytes)
            builder.store(payload, new)
            builder.clwb(header)
            builder.clwb(payload)
        for offset in range(len(txn.writes)):
            # Flush both lines: an entry can straddle a counter group.
            header = self._entry_address(self._txn_first_entry + offset)
            builder.ccwb(header)
            builder.ccwb(header + CACHE_LINE_SIZE)
        builder.compute(STAGE_COMPUTE_NS)
        builder.persist_barrier()

    def _emit_commit(self, txn: _OpenTransaction) -> None:
        builder = self.builder
        builder.label("commit")
        builder.store_var(self.seq_var, txn.seq)
        builder.store_var(self.nentries_var, len(txn.writes))
        builder.store_u64(
            self.arena.txn_record + _FIRST_ENTRY_OFFSET,
            self._txn_first_entry % self.arena.log_capacity,
        )
        builder.store_var(self.valid_var, 1)
        builder.clwb(self.arena.txn_record)
        builder.persist_barrier()

    def _emit_writeback(self, txn: _OpenTransaction) -> None:
        builder = self.builder
        builder.label("write-back")
        for target, new in txn.writes:
            builder.compute(WRITEBACK_COMPUTE_NS)
            builder.store(target, new)
            builder.clwb(target)
        for target, _new in txn.writes:
            builder.ccwb(target)
        builder.compute(STAGE_COMPUTE_NS)
        builder.persist_barrier()

    def _emit_retire(self, txn: _OpenTransaction) -> None:
        builder = self.builder
        builder.label("retire")
        builder.store_var(self.valid_var, 0)
        builder.clwb(self.arena.txn_record)
        builder.persist_barrier()
        self._log_cursor = (self._log_cursor + len(txn.writes)) % self.arena.log_capacity

    def _require_open(self) -> _OpenTransaction:
        if self._open is None:
            raise TransactionError("no open transaction")
        return self._open

    def run(self, writes: Sequence[Tuple[int, bytes]]) -> None:
        self.begin()
        for line_address, new in writes:
            self.write_line(line_address, new)
        self.commit()


def recover_redo_log(
    recovered: RecoveredMemory,
    arena: CoreArena,
    context: Optional[RecoveryContext] = None,
) -> List[int]:
    """Post-crash redo recovery: replay the log if the record is armed.

    Restartable at entry granularity (see :func:`recover_undo_log` for
    the step discipline): an interrupted replay leaves the record
    armed, and re-applying a logged new-value is idempotent.
    """
    context = context or RecoveryContext()
    context.enter_phase("txn-replay")
    record = arena.txn_record
    valid = recovered.read_u64(record + _VALID_OFFSET)
    if valid == 0:
        context.step()
        return []
    if valid != 1:
        raise TransactionError("corrupt transaction record: valid=%d" % valid)
    seq = recovered.read_u64(record + _SEQ_OFFSET)
    nentries = recovered.read_u64(record + _NENTRIES_OFFSET)
    first = recovered.read_u64(record + _FIRST_ENTRY_OFFSET)
    if nentries > arena.log_capacity or first >= arena.log_capacity:
        raise TransactionError("corrupt transaction record")
    applied: List[int] = []
    for index in range(nentries):
        slot = (first + index) % arena.log_capacity
        header = arena.log_base + slot * LOG_ENTRY_BYTES
        if recovered.read_u64(header) != LOG_MAGIC:
            raise TransactionError("corrupt log entry %d (bad magic)" % index)
        if recovered.read_u64(header + 16) != seq:
            raise TransactionError("log entry %d from a different transaction" % index)
        target = recovered.read_u64(header + 8)
        new_image = recovered.read(header + CACHE_LINE_SIZE, CACHE_LINE_SIZE)
        context.write_line(recovered, target, new_image)
        applied.append(target)
        context.step()
    context.write_line(recovered, record, bytes(CACHE_LINE_SIZE))
    context.step()
    return applied
