"""Core-side persistency bookkeeping (clwb / ccwb / sfence).

Intel's persistency model (as implemented in the paper's methodology,
Section 6.1) makes ``sfence`` wait until every outstanding ``clwb`` has
been *accepted* by the memory controller's ADR-protected write queue —
acceptance, not array drain, is the durability point.  The same applies
to ``counter_cache_writeback()`` acceptances.

Each simulated core owns one :class:`PersistencyTracker` that
accumulates acceptance times and resolves fences.
"""

from __future__ import annotations

from typing import List

from ..errors import PersistencyError


class PersistencyTracker:
    """Outstanding-writeback tracking for one core."""

    def __init__(self) -> None:
        self._pending_accepts: List[float] = []
        self.fences = 0
        self.writebacks = 0
        self.total_fence_stall_ns = 0.0

    def note_writeback(self, accept_ns: float) -> None:
        """Record a clwb/ccwb whose queue acceptance completes at ``accept_ns``."""
        if accept_ns < 0:
            raise PersistencyError("acceptance time cannot be negative")
        self._pending_accepts.append(accept_ns)
        self.writebacks += 1

    @property
    def outstanding(self) -> int:
        return len(self._pending_accepts)

    def fence(self, now_ns: float) -> float:
        """Resolve an sfence: stall until all pending acceptances land.

        Returns the core's time after the fence; clears the pending set.
        """
        self.fences += 1
        if not self._pending_accepts:
            return now_ns
        release = max(now_ns, max(self._pending_accepts))
        self.total_fence_stall_ns += release - now_ns
        self._pending_accepts.clear()
        return release

    def reset(self) -> None:
        self._pending_accepts.clear()
