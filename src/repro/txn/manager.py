"""The table of transaction mechanisms, and the cross-shard barrier.

Workloads ask for "a transaction mechanism" by name so every workload
can run under undo logging (the paper's default), redo logging or
checksummed undo logging; :data:`MECHANISMS` maps each name to its
trace generator and its arena recovery procedure, and every module
that names a mechanism reads it.

This module also owns the *cross-shard persist barrier*
(:class:`CrossShardBarrier`): on a sharded memory system
(:class:`repro.mem.sharded.ShardedMemorySystem`), a transaction's
commit must drain every shard it touched, and the barrier turns that
multi-controller drain into one durable commit record.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Type

from ..crash.recovery import RecoveredMemory
from ..crash.session import RecoveryContext
from ..errors import TransactionError
from ..persist.journal import PersistJournal
from ..sim.trace import TraceBuilder
from .checksum_undo import ChecksummedUndoLog, recover_checksummed_undo
from .heap import CoreArena
from .redolog import RedoLogTransactions, recover_redo_log
from .undolog import LogTransactions, UndoLogTransactions, recover_undo_log

#: Recovers one arena's transaction log; returns the restored lines.
Recovery = Callable[[RecoveredMemory, CoreArena, Optional[RecoveryContext]], List[int]]

#: Mechanism name -> (trace generator, arena recovery procedure).
MECHANISMS: Dict[str, Tuple[Type[LogTransactions], Recovery]] = {
    "undo": (UndoLogTransactions, recover_undo_log),
    "redo": (RedoLogTransactions, recover_redo_log),
    "checksum-undo": (ChecksummedUndoLog, recover_checksummed_undo),
}


def make_transactions(
    mechanism: str, builder: TraceBuilder, arena: CoreArena
) -> LogTransactions:
    """Instantiate the requested mechanism over one arena."""
    if mechanism not in MECHANISMS:
        raise TransactionError("unknown transaction mechanism %r" % mechanism)
    generator, _recover = MECHANISMS[mechanism]
    return generator(builder, arena)


class CrossShardBarrier:
    """Two-phase drain turning per-shard acceptances into one commit.

    Sequence at a transaction's commit point (the core has already
    resolved its sfence, so every write of the transaction has been
    *accepted* by some shard's ADR-protected queue):

    1. **Prepare** — snapshot each shard's acceptance watermark (the
       latest queue-acceptance time that shard has handed out).  Shards
       whose watermark moved since the previous commit are the shards
       this transaction (or writes racing with it) touched; their
       watermarks must all become durable for the commit to hold.
    2. **Commit** — append a :class:`~repro.persist.journal.CommitRecord`
       carrying the touched-shard watermarks; its ``commit_ns`` is the
       latest of them, i.e. the instant the cross-shard drain barrier
       is satisfied under ADR.

    Recovery replays the commit log as a prefix
    (:func:`repro.crash.sharded.durable_commit_prefix`), preserving the
    linearizable acked-prefix contract across any subset of shard
    failures: a commit whose touched shards all persisted their
    watermarks is durable; the first one that lost a shard ends the
    prefix.
    """

    def __init__(self, journal: PersistJournal, shards: int) -> None:
        self.journal = journal
        self.shards = shards
        self._last_marks: Dict[int, float] = {s: 0.0 for s in range(shards)}

    def commit(
        self, core: int, now_ns: float, watermarks: Dict[int, float]
    ) -> None:
        """Run both phases for one transaction commit at ``now_ns``."""
        touched = {
            shard: mark
            for shard, mark in watermarks.items()
            if mark > self._last_marks.get(shard, 0.0)
        }
        # A read-only (or fully coalesced) transaction touches no shard;
        # the barrier still records the commit so the acked prefix stays
        # dense, with the core's own clock as its durability point.
        commit_ns = max(touched.values(), default=now_ns)
        self.journal.record_commit(
            core=core, commit_ns=max(commit_ns, 0.0), shard_watermarks=touched
        )
        self._last_marks.update(watermarks)

