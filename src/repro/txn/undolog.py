"""The log protocol of undo, redo and checksummed-undo transactions.

This is the paper's running example (Figure 9 / Table 1), implemented
with the exact stage structure and primitive placement.  Every log
mechanism is built from the same stages:

* **entries** — write one log entry per target line (relaxable
  writes), ``clwb`` the log lines, ``counter_cache_writeback()`` over
  the log, ``persist_barrier()``: the log is sealed;
* **arm** — record the transaction's ``seq``, ``nentries`` and first
  entry, then a ``CounterAtomic`` store of ``valid = 1``, clwb, barrier;
* **in place** — update the target lines in place (relaxable),
  ``clwb``, ``counter_cache_writeback()`` over them, barrier;
* **disarm** — ``CounterAtomic`` store of ``valid = 0``, clwb, barrier.

Undo logging logs each pre-image and labels its stages ``prepare``
(entries and arm), ``mutate`` (in place) and ``commit`` (disarm); redo
logging (:mod:`repro.txn.redolog`) logs each new value and labels them
``prepare``, ``commit``, ``write-back`` and ``retire``.  Each mechanism
states its stage order in its ``_stages`` method, and both recover
through the one :func:`replay_log`.

The valid flag is the only write whose counter must persist atomically
with its data: it decides which version recovery restores.  Everything
else is covered by a ccwb + barrier *before* the next flip of the
valid flag, which is what makes the relaxation safe (Section 4.2).

Log layout (per arena)::

    txn_record line : [ valid u64 | seq u64 | nentries u64 | first u64 | pad ]
    entry i         : header line [ magic u64 | target u64 | seq u64 | pad ]
                      payload line [ 64 B logged image of the target line ]
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..config import CACHE_LINE_SIZE
from ..core.primitives import CounterAtomic, PersistentVar, Plain
from ..crash.recovery import RecoveredMemory
from ..crash.session import RecoveryContext
from ..errors import TransactionError
from ..sim.trace import TraceBuilder
from ..utils.bitops import u64_to_bytes
from .heap import LOG_ENTRY_BYTES, CoreArena

#: Marks an initialized log entry header.
LOG_MAGIC = 0x554E444F4C4F4721  # "UNDOLOG!"

_VALID_OFFSET = 0
_SEQ_OFFSET = 8
_NENTRIES_OFFSET = 16
_FIRST_ENTRY_OFFSET = 24

#: Modeled non-memory work (address computation, loop and logging
#: bookkeeping, 64 B copies done as eight scalar stores) per log entry
#: and per in-place line update.  The gem5 runs these replace execute
#: real instruction streams; these constants keep the core from
#: emitting writes unrealistically faster than a 4 GHz OoO core could.
PREPARE_COMPUTE_NS = 70.0
MUTATE_COMPUTE_NS = 45.0
STAGE_COMPUTE_NS = 25.0

#: One declared line update: (line address, pre-image, new value).
LineWrite = Tuple[int, bytes, bytes]


class LogTransactions:
    """Log transactions over one arena: the frame every log mechanism shares.

    A subclass names its ``txn_begin``/``txn_end`` note and entry magic
    and orders the stages in :meth:`_stages`.
    """

    #: Prefix of the ``txn_begin``/``txn_end`` notes (``undo#3``).
    NOTE = ""
    #: Marks an initialized log entry header.
    MAGIC = 0

    def __init__(self, builder: TraceBuilder, arena: CoreArena) -> None:
        self.builder = builder
        self.arena = arena
        self._seq = 0
        self._writes: Optional[List[LineWrite]] = None
        self.committed = 0
        #: Circular-log cursor: each transaction appends fresh entries
        #: and wraps, as real undo logs do; reusing entry 0 every
        #: transaction would fabricate hot lines the write queue then
        #: coalesces unrealistically well.
        self._log_cursor = 0

    # -- transaction construction ------------------------------------------

    def begin(self) -> None:
        if self._writes is not None:
            raise TransactionError("transaction already open (no nesting)")
        self._seq += 1
        self._writes = []
        self.builder.txn_begin("%s#%d" % (self.NOTE, self._seq))

    def write_line(
        self, line_address: int, old_payload: bytes, new_payload: bytes
    ) -> None:
        """Declare a full-line update inside the open transaction.

        ``old_payload`` is the pre-image (the workload's model knows
        it): an undo log logs it, a redo log logs ``new_payload``.
        """
        writes = self._require_open()
        if len(old_payload) != CACHE_LINE_SIZE or len(new_payload) != CACHE_LINE_SIZE:
            raise TransactionError("%s log works on whole 64 B lines" % self.NOTE)
        if line_address % CACHE_LINE_SIZE != 0:
            raise TransactionError("target must be line-aligned")
        if len(writes) >= self.arena.log_capacity:
            raise TransactionError(
                "transaction exceeds log capacity (%d lines)" % self.arena.log_capacity
            )
        writes.append((line_address, bytes(old_payload), bytes(new_payload)))

    def commit(self) -> None:
        """Emit the mechanism's stages for the open transaction."""
        writes = self._require_open()
        if writes:
            self._stages(writes)
            self._log_cursor = (self._log_cursor + len(writes)) % self.arena.log_capacity
        self._writes = None
        self.committed += 1
        self.builder.txn_end("%s#%d" % (self.NOTE, self._seq))

    def run(self, writes: Sequence[LineWrite]) -> None:
        """begin + write_line* + commit in one call."""
        self.begin()
        for line_address, old, new in writes:
            self.write_line(line_address, old, new)
        self.commit()

    def _require_open(self) -> List[LineWrite]:
        if self._writes is None:
            raise TransactionError("no open transaction")
        return self._writes

    # -- stages ---------------------------------------------------------------

    def _stages(self, writes: List[LineWrite]) -> None:
        raise NotImplementedError

    def _entry_headers(self, count: int) -> List[int]:
        """Header addresses of the open transaction's ``count`` entries."""
        arena = self.arena
        cursor = self._log_cursor
        return [
            arena.log_base + (cursor + offset) % arena.log_capacity * LOG_ENTRY_BYTES
            for offset in range(count)
        ]

    def _in_place(self, writes: List[LineWrite]) -> None:
        """Write each new value over its target and make it durable."""
        builder = self.builder
        for target, _old, new in writes:
            builder.compute(MUTATE_COMPUTE_NS)
            builder.store(target, new)
            builder.clwb(target)
        for target, _old, _new in writes:
            builder.ccwb(target)
        builder.compute(STAGE_COMPUTE_NS)
        builder.persist_barrier()


class ArmedLog(LogTransactions):
    """A log the record arms with ``valid = 1`` and disarms with ``valid = 0``."""

    def __init__(self, builder: TraceBuilder, arena: CoreArena) -> None:
        super().__init__(builder, arena)
        self.valid_var: PersistentVar = CounterAtomic(
            arena.txn_record + _VALID_OFFSET, name="txn.valid"
        )
        self.seq_var: PersistentVar = Plain(arena.txn_record + _SEQ_OFFSET, name="txn.seq")
        self.nentries_var: PersistentVar = Plain(
            arena.txn_record + _NENTRIES_OFFSET, name="txn.nentries"
        )

    def _entries(self, writes: List[LineWrite], new_values: bool) -> None:
        """Log each pre-image (or each new value) and seal the log."""
        builder = self.builder
        headers = self._entry_headers(len(writes))
        for header, (target, old, new) in zip(headers, writes):
            header_bytes = (
                u64_to_bytes(self.MAGIC)
                + u64_to_bytes(target)
                + u64_to_bytes(self._seq)
                + bytes(CACHE_LINE_SIZE - 24)
            )
            builder.compute(PREPARE_COMPUTE_NS)
            builder.store(header, header_bytes)
            builder.store(header + CACHE_LINE_SIZE, new if new_values else old)
            builder.clwb(header)
            builder.clwb(header + CACHE_LINE_SIZE)
        for header in headers:
            # Flush both lines of the entry: a 128 B entry can straddle
            # a counter-group boundary, in which case the two lines'
            # counters live in different counter lines.
            builder.ccwb(header)
            builder.ccwb(header + CACHE_LINE_SIZE)
        builder.compute(STAGE_COMPUTE_NS)
        builder.persist_barrier()

    def _arm(self, nentries: int) -> None:
        """Flip the recoverable version from the data to the log."""
        builder = self.builder
        builder.store_var(self.seq_var, self._seq)
        builder.store_var(self.nentries_var, nentries)
        builder.store_u64(self.arena.txn_record + _FIRST_ENTRY_OFFSET, self._log_cursor)
        # The flip decides which version recovery restores, so it must
        # be counter-atomic.
        builder.store_var(self.valid_var, 1)
        builder.clwb(self.arena.txn_record)
        builder.persist_barrier()

    def _disarm(self) -> None:
        """Flip the recoverable version back to the data."""
        builder = self.builder
        builder.store_var(self.valid_var, 0)
        builder.clwb(self.arena.txn_record)
        builder.persist_barrier()


class UndoLogTransactions(ArmedLog):
    """Generates undo-logged transactions into a trace builder."""

    NOTE = "undo"
    MAGIC = LOG_MAGIC

    def _stages(self, writes: List[LineWrite]) -> None:
        builder = self.builder
        builder.label("prepare")
        self._entries(writes, new_values=False)
        self._arm(len(writes))
        builder.label("mutate")
        self._in_place(writes)
        builder.label("commit")
        self._disarm()


def replay_log(
    recovered: RecoveredMemory,
    arena: CoreArena,
    magic: int,
    context: Optional[RecoveryContext] = None,
) -> List[int]:
    """Post-crash recovery of one arena's armed log.

    Reads the transaction record; if a transaction was armed, writes
    every logged image (an undo log's pre-images, a redo log's new
    values) over its target.  Returns the list of restored line
    addresses.  All reads are *strict*: the protocol guarantees the
    record and (when armed) the log are decryptable, so a decryption
    failure here is a genuine counter-atomicity violation and raises.

    The procedure is restartable at entry granularity: each restore is
    one :meth:`RecoveryContext.step`, and the record clear — the write
    that retires the log — comes last.  A crash anywhere mid-replay
    leaves ``valid = 1``, so the next boot replays from entry 0; every
    restore rewrites its target with the same image, making the whole
    replay idempotent.
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
    restored: List[int] = []
    for index in range(nentries):
        slot = (first + index) % arena.log_capacity
        header = arena.log_base + slot * LOG_ENTRY_BYTES
        if recovered.read_u64(header) != magic:
            raise TransactionError("corrupt log entry %d (bad magic)" % index)
        entry_seq = recovered.read_u64(header + 16)
        if entry_seq != seq:
            raise TransactionError(
                "log entry %d has seq %d, record has %d" % (index, entry_seq, seq)
            )
        target = recovered.read_u64(header + 8)
        image = recovered.read(header + CACHE_LINE_SIZE, CACHE_LINE_SIZE)
        context.write_line(recovered, target, image)
        restored.append(target)
        context.step()
    # The restore re-encrypts with fresh counters; the record is cleared
    # last, so an interrupted replay stays armed and re-runs in full.
    context.write_line(recovered, record, bytes(CACHE_LINE_SIZE))
    context.step()
    return restored


def recover_undo_log(
    recovered: RecoveredMemory,
    arena: CoreArena,
    context: Optional[RecoveryContext] = None,
) -> List[int]:
    """Post-crash undo recovery: restore an armed log's pre-images."""
    return replay_log(recovered, arena, LOG_MAGIC, context)
