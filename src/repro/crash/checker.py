"""Crash-consistency sweeps: run, crash everywhere, verify recovery.

``sweep_crash_points`` is the workhorse behind the Table 1 / Figure 3 /
Figure 4 benches and the crash test suite: given a finished simulation
and a workload-level validator, it reconstructs the crash image at every
interesting instant, decrypts it, runs transaction recovery and asks the
validator whether the recovered state is consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..sim.machine import SimulationResult
from .injector import CrashInjector
from .recovery import RecoveredMemory, RecoveryManager

#: A validator inspects a recovered memory and returns a list of
#: problem descriptions (empty = consistent).
Validator = Callable[[RecoveredMemory], List[str]]


@dataclass
class CrashOutcome:
    """Result of one injected crash."""

    crash_ns: float
    consistent: bool
    problems: List[str] = field(default_factory=list)
    undecryptable_lines: int = 0
    #: Non-strict reads that returned :class:`GarbageRead` data during
    #: recovery + validation — garbage a real system would consume.
    garbage_reads: int = 0


@dataclass
class CrashConsistencyReport:
    """Aggregate of a whole sweep."""

    design: str
    outcomes: List[CrashOutcome]

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def consistent(self) -> int:
        return sum(1 for o in self.outcomes if o.consistent)

    @property
    def inconsistent(self) -> int:
        return self.total - self.consistent

    @property
    def all_consistent(self) -> bool:
        return self.inconsistent == 0

    @property
    def undecryptable_crashes(self) -> int:
        return sum(1 for o in self.outcomes if o.undecryptable_lines > 0)

    @property
    def garbage_reads(self) -> int:
        """Total garbage-tainted non-strict reads across the sweep."""
        return sum(o.garbage_reads for o in self.outcomes)

    def first_failure(self) -> Optional[CrashOutcome]:
        for outcome in self.outcomes:
            if not outcome.consistent:
                return outcome
        return None


def sweep_crash_points(
    result: SimulationResult,
    validator: Validator,
    max_points: Optional[int] = 200,
    include_midpoints: bool = True,
    adr: bool = True,
) -> CrashConsistencyReport:
    """Crash at every interesting instant and validate recovery.

    ``validator`` receives the decrypted post-crash memory and must
    return problem strings (empty list = consistent state).  The sweep
    covers both event instants (just-after semantics) and midpoints
    between events (in-flight pair states).  ``adr=False`` sweeps a
    machine whose failure drops the ADR drain entirely: only
    array-drained writes survive each crash.
    """
    injector = CrashInjector(result)
    per_kind = None if max_points is None else max(2, max_points // 2)
    times = injector.interesting_times(limit=per_kind)
    if include_midpoints:
        times = sorted(set(times) | set(injector.midpoint_times(limit=per_kind)))
    manager = RecoveryManager(result.config.encryption)
    encrypted = result.policy.encrypts
    outcomes: List[CrashOutcome] = []
    for crash_ns in times:
        image = injector.crash_at(crash_ns, adr=adr)
        recovered = manager.recover(image, encrypted=encrypted)
        problems = validator(recovered)
        outcomes.append(
            CrashOutcome(
                crash_ns=crash_ns,
                consistent=not problems,
                problems=problems,
                undecryptable_lines=len(recovered.garbage_lines),
                garbage_reads=recovered.garbage_reads,
            )
        )
    return CrashConsistencyReport(design=result.policy.name, outcomes=outcomes)
