"""Redo-logging transactions with selective counter-atomicity.

The dual of undo logging, run by the same log protocol
(:mod:`repro.txn.undolog`): new values are written to the log first,
the record's arm flips the recoverable version from "data" to "log",
and the in-place data update happens *after* that commit (the
write-back phase).  Recovery replays the log when the record is armed.

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

from typing import List, Optional

from ..crash.recovery import RecoveredMemory
from ..crash.session import RecoveryContext
from .heap import CoreArena
from .undolog import ArmedLog, LineWrite, replay_log

LOG_MAGIC = 0x5245444F4C4F4721  # "REDOLOG!"


class RedoLogTransactions(ArmedLog):
    """Generates redo-logged transactions into a trace builder."""

    NOTE = "redo"
    MAGIC = LOG_MAGIC

    def _stages(self, writes: List[LineWrite]) -> None:
        builder = self.builder
        builder.label("prepare")
        self._entries(writes, new_values=True)
        builder.label("commit")
        self._arm(len(writes))
        builder.label("write-back")
        self._in_place(writes)
        builder.label("retire")
        self._disarm()


def recover_redo_log(
    recovered: RecoveredMemory,
    arena: CoreArena,
    context: Optional[RecoveryContext] = None,
) -> List[int]:
    """Post-crash redo recovery: apply an armed log's new values.

    Restartable at entry granularity like every armed-log replay (see
    :func:`repro.txn.undolog.replay_log`): an interrupted replay leaves
    the record armed, and re-applying a logged new value is idempotent.
    """
    return replay_log(recovered, arena, LOG_MAGIC, context)
