"""Multi-controller failures: crash a subset of shards mid-drain.

A power failure takes the whole machine down at one instant, but on a
sharded memory system (:class:`repro.mem.sharded.ShardedMemorySystem`)
the *ADR drain* that follows is per controller: each shard's reserve
flushes that shard's ready queue entries independently.  This module
models the failure mode the singleton stack cannot express — some
shards complete their drain while others die mid-drain — and the
recovery-side reconciliation it forces:

* :meth:`repro.crash.injector.CrashInjector.crash_shards` builds the
  global crash image for a failure at ``crash_ns`` where
  ``failed_shards`` lost their ADR reserve (keeping only array-drained
  writes, optionally a partial ``adr_budget``) while the healthy shards
  drained normally.
* :func:`durable_commit_prefix` replays the cross-shard commit log
  (:class:`repro.persist.journal.CommitRecord`) against what each shard
  actually persisted, returning the longest prefix of commits whose
  touched-shard watermarks all survived — the linearizable acked
  prefix the machine may still claim after the failure.
* :func:`sweep_shard_failures` runs the whole loop: image, recovery,
  structural validation, and the reconciliation check that the
  recovered state never falls below the durable commit prefix (losing
  a commit the barrier proved durable would be silent corruption).

Uniform all-shard crashes need none of this: the coordinator's merged
journal makes the stock :meth:`~repro.crash.injector.CrashInjector.crash_at`
sweep shards transparently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..persist.journal import CommitRecord, PersistJournal
from ..sim.machine import SimulationResult
from .injector import CrashInjector, uniform_sample


def durable_commit_prefix(
    commits: Sequence[CommitRecord],
    journals: Sequence[PersistJournal],
    crash_ns: float,
    failed_shards: Iterable[int] = (),
) -> List[CommitRecord]:
    """The longest acked prefix of the commit log that survived.

    A commit is durable when every shard it touched persisted up to the
    watermark the barrier recorded for it; the first commit that is not
    ends the prefix (later commits may have persisted by luck, but the
    linearizable contract only lets recovery claim the dense prefix).

    A healthy shard's ADR reserve drains everything it accepted by the
    crash, so a watermark at or before ``crash_ns`` holds there.  A
    failed shard keeps only array-drained writes, whatever ADR budget
    its image has: its watermark holds only below the earliest
    acceptance of a write still undrained at the crash.  That is
    conservative — it counts writes of unrelated in-flight transactions
    too — so a durable verdict is always a genuine guarantee.
    """
    thresholds: Dict[int, float] = {
        shard: min(
            (r.accept_ns for r in journals[shard].records if r.drain_ns > crash_ns),
            default=float("inf"),
        )
        for shard in set(failed_shards)
    }
    prefix: List[CommitRecord] = []
    for commit in commits:
        if commit.commit_ns > crash_ns:
            break
        if any(
            watermark > crash_ns
            or (shard in thresholds and watermark >= thresholds[shard])
            for shard, watermark in commit.shard_watermarks.items()
        ):
            break
        prefix.append(commit)
    return prefix


def required_prefix_for_core(prefix: Sequence[CommitRecord], core: int) -> int:
    """How many of ``core``'s transactions the durable prefix contains."""
    return sum(1 for commit in prefix if commit.core == core)


@dataclass
class ShardFailureOutcome:
    """One injected shard-subset failure, recovered and reconciled."""

    crash_ns: float
    failed_shards: Tuple[int, ...]
    #: Structural verdict of the workload validator.
    consistent: bool
    #: Inconsistent but caught by a detection channel (undecryptable
    #: line, failed recovery) — acceptable for a mid-drain ADR loss.
    detected: bool
    #: Commits the barrier may still claim after the failure.
    durable_commits: int
    total_commits: int
    #: Transaction prefix the recovered state actually matched.
    matched_prefix: Optional[int]
    problems: List[str] = field(default_factory=list)

    @property
    def reconciled(self) -> bool:
        """Recovery never fell below the durable commit prefix."""
        return not self.acked_commit_lost

    @property
    def acked_commit_lost(self) -> bool:
        """A commit the barrier proved durable is missing — corruption."""
        return (
            self.consistent
            and self.matched_prefix is not None
            and self.matched_prefix < self.durable_commits
        )

    @property
    def silent(self) -> bool:
        return not self.consistent and not self.detected


@dataclass
class ShardFailureReport:
    """Aggregate of one :func:`sweep_shard_failures` run."""

    design: str
    shards: int
    outcomes: List[ShardFailureOutcome]

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def consistent(self) -> int:
        return sum(1 for o in self.outcomes if o.consistent)

    @property
    def detected(self) -> int:
        return sum(1 for o in self.outcomes if o.detected)

    @property
    def silent_failures(self) -> List[ShardFailureOutcome]:
        return [o for o in self.outcomes if o.silent]

    @property
    def acked_losses(self) -> List[ShardFailureOutcome]:
        return [o for o in self.outcomes if o.acked_commit_lost]

    @property
    def clean(self) -> bool:
        """No silent corruption and no durable commit lost."""
        return not self.silent_failures and not self.acked_losses


def sweep_shard_failures(
    result: SimulationResult,
    run,
    core: int = 0,
    subsets: Optional[Sequence[Iterable[int]]] = None,
    max_points: int = 24,
) -> ShardFailureReport:
    """Crash every shard subset at sampled instants and reconcile.

    ``run`` is the workload's :class:`~repro.workloads.base.WorkloadRun`
    (``outcome.runs[core]``).  For each sampled crash instant and each
    failed subset the sweep builds the image from one injector, runs
    transaction recovery, classifies the state structurally, and checks
    the cross-shard reconciliation: the matched transaction prefix must
    cover every commit :func:`durable_commit_prefix` still guarantees.
    Mid-drain ADR loss may cost *unacked* commits (they were never
    durable) and may surface as detected damage — what it must never
    produce is silent corruption or a lost durable commit.
    """
    # Deferred import: workloads.base imports the txn recovery stack.
    from ..workloads.base import PrefixValidator
    from .recovery import RecoveryManager

    injector = CrashInjector(result)
    journals = injector.shard_journals()
    shards = len(journals)
    if subsets is None:
        subsets = [(s,) for s in range(shards)] + [tuple(range(shards))]
    commits = result.controller.journal.commits
    times = uniform_sample(injector.interesting_times(limit=max_points), max_points)
    manager = RecoveryManager(result.config.encryption)
    validator = PrefixValidator(run)
    encrypted = result.policy.encrypts
    outcomes: List[ShardFailureOutcome] = []
    for crash_ns in times:
        for subset in subsets:
            failed = tuple(sorted(set(subset)))
            image = injector.crash_shards(crash_ns, failed)
            recovered = manager.recover(image, encrypted=encrypted)
            verdict = validator.classify(recovered)
            prefix = durable_commit_prefix(commits, journals, crash_ns, failed)
            outcomes.append(
                ShardFailureOutcome(
                    crash_ns=crash_ns,
                    failed_shards=failed,
                    consistent=verdict.consistent,
                    detected=bool(verdict.detected),
                    durable_commits=required_prefix_for_core(prefix, core),
                    total_commits=len(commits),
                    matched_prefix=verdict.matched_prefix,
                    problems=list(verdict.detected) + list(verdict.silent),
                )
            )
    return ShardFailureReport(
        design=result.policy.name, shards=shards, outcomes=outcomes
    )
