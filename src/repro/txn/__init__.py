"""Transactional crash-consistency mechanisms on encrypted NVMM.

Implements the versioning mechanisms the paper builds on — undo logging
(its running example, Figure 9), redo logging, and shadow copying — as
*trace generators*: each emits the stores, ``clwb``/``sfence`` ordering
and the two SCA primitives (``CounterAtomic`` commit records,
``counter_cache_writeback()`` window flushes) into a
:class:`repro.sim.trace.TraceBuilder`, plus the matching post-crash
recovery procedures that run on a decrypted crash image.
"""

from .checksum_undo import ChecksummedUndoLog, recover_checksummed_undo
from .heap import CoreArena, MemoryLayout, PersistentHeap
from .undolog import UndoLogTransactions, recover_undo_log
from .redolog import RedoLogTransactions, recover_redo_log
from .shadow import ShadowTransactions, recover_shadow
from .manager import MECHANISMS, make_transactions

__all__ = [
    "ChecksummedUndoLog",
    "recover_checksummed_undo",
    "CoreArena",
    "MemoryLayout",
    "PersistentHeap",
    "UndoLogTransactions",
    "recover_undo_log",
    "RedoLogTransactions",
    "recover_redo_log",
    "ShadowTransactions",
    "recover_shadow",
    "MECHANISMS",
    "make_transactions",
]
