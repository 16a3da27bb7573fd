"""Multi-controller failures: crash a subset of shards mid-drain.

A power failure takes the whole machine down at one instant, but on a
sharded memory system (:class:`repro.mem.sharded.ShardedMemorySystem`)
the *ADR drain* that follows is per controller: each shard's reserve
flushes that shard's ready queue entries independently.  This module
models the failure mode the singleton stack cannot express — some
shards complete their drain while others die mid-drain — and the
recovery-side reconciliation it forces:

* :func:`shard_crash_image` builds the global crash image for a failure
  at ``crash_ns`` where ``failed_shards`` lost their ADR reserve
  (keeping only array-drained writes, optionally a partial
  ``adr_budget``) while the healthy shards drained normally.
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
journal makes the stock :class:`repro.crash.injector.CrashInjector`
sweep shards transparently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..crypto.counters import CounterStore
from ..crypto.integrity import IntegrityEngine
from ..errors import SimulationError
from ..nvm.device import NVMDevice
from ..persist.journal import (
    CommitRecord,
    LineVersion,
    PersistJournal,
    ascending,
    image_lines,
)
from ..sim.machine import SimulationResult
from .injector import (
    CrashImage,
    CrashInjector,
    require_crash_state,
    uniform_sample,
    version_tags,
)


def _shard_journals(result: SimulationResult) -> List[PersistJournal]:
    controller = result.controller
    shard_journal = getattr(controller, "shard_journal", None)
    if shard_journal is None:
        raise SimulationError(
            "shard-subset crashes need a sharded memory system; "
            "run with config.shards >= 2"
        )
    return [shard_journal(s) for s in range(controller.shards)]


def shard_crash_image(
    result: SimulationResult,
    crash_ns: float,
    failed_shards: Iterable[int],
    adr_budget: Optional[int] = None,
) -> CrashImage:
    """Global crash image when ``failed_shards`` die mid-drain.

    Healthy shards reconstruct with the full ADR guarantee; failed
    shards keep only array-drained writes (plus at most ``adr_budget``
    ready entries if their reserve died partway).  Per-shard journals
    are already translated to the global address space, so the merged
    image feeds the stock recovery/validation stack unchanged.

    The integrity root (``+bmt`` designs) is computed over the
    *unbudgeted* ADR reconstruction of every shard, mirroring
    :meth:`CrashInjector._capture_integrity`: each shard's secure
    register acknowledged ready counters before power died, so counters
    its failed drain then dropped surface as a root mismatch.

    Data lines of encrypted designs hold their ciphertext, enciphered
    at global addresses in one batch over every shard's versions that
    no image has needed yet.  Shard journals share their records with
    the merged journal, so a version's line and tag serve every image,
    merged or per shard.
    """
    require_crash_state(result)
    controller = result.controller
    journals = _shard_journals(result)
    failed = frozenset(failed_shards)
    for shard in failed:
        if not 0 <= shard < len(journals):
            raise SimulationError("failed shard %d out of range" % shard)
    address_map = controller.address_map
    adr_pending = 0
    versions: Dict[int, LineVersion] = {}
    persisted_counters: Dict[int, int] = {}
    covered: Dict[int, int] = {}
    for shard, journal in enumerate(journals):
        if shard in failed:
            persisted, counters = journal.persisted_at(
                crash_ns, adr=adr_budget is not None, adr_budget=adr_budget
            )
        else:
            persisted, counters = journal.persisted_at(crash_ns)
            adr_pending += journal.adr_pending(crash_ns)
        versions.update(persisted)
        persisted_counters.update(counters)
        if result.policy.integrity_tree:
            # A healthy shard's counters are already its ADR image.
            covered.update(
                journal.persisted_at(crash_ns)[1] if shard in failed else counters
            )
    # Installed in ascending address order, as every crash image is.
    versions = ascending(versions)
    cipher = result.image_cipher()
    device = NVMDevice(address_map, track_wear=False)
    device.restore(image_lines(versions, cipher))
    store = CounterStore(
        counter_region_base=address_map.counter_region_base,
        memory_size_bytes=address_map.memory_size_bytes,
    )
    store.restore(ascending(persisted_counters))
    image = CrashImage(
        crash_ns=crash_ns,
        device=device,
        counter_store=store,
        design=result.policy.name,
        adr_pending=adr_pending,
        versions=versions,
        enciphered_with=result.config.encryption if cipher else None,
    )
    if result.policy.integrity_tree:
        # Deferred import: repro.integrity.verifier imports this package.
        from ..integrity.tree import IntegrityTreeEngine

        tree = IntegrityTreeEngine(
            result.config.encryption,
            address_map,
            arity=result.config.integrity.arity,
        )
        image.secure_root = tree.root_over(covered)
        image.line_tags = version_tags(
            versions, address_map, IntegrityEngine(result.config.encryption)
        )
    return image


def _watermark_durable(
    journal: PersistJournal,
    watermark: float,
    crash_ns: float,
    adr: bool,
    adr_budget: Optional[int],
) -> bool:
    """Did everything this shard accepted up to ``watermark`` persist?

    Conservative: counts every record accepted by the watermark, even
    writes of unrelated in-flight transactions, so a ``True`` verdict
    is always a genuine durability guarantee.
    """
    if watermark > crash_ns:
        return False
    if adr and adr_budget is None:
        # Ticket acceptance == architecturally persistent under ADR.
        return True
    budget = adr_budget if adr else 0
    spent = 0
    for record in journal.records:
        if record.accept_ns > watermark:
            continue
        if record.drain_ns <= crash_ns:
            continue
        if budget is not None:
            if record.ready_ns > crash_ns:
                return False
            spent += 1
            if spent > budget:
                return False
        else:
            return False
    return True


def durable_commit_prefix(
    commits: Sequence[CommitRecord],
    journals: Sequence[PersistJournal],
    crash_ns: float,
    failed_shards: Iterable[int] = (),
    adr_budget: Optional[int] = None,
) -> List[CommitRecord]:
    """The longest acked prefix of the commit log that survived.

    A commit is durable when every shard it touched persisted up to the
    watermark the barrier recorded for it; the first commit that is not
    ends the prefix (later commits may have persisted by luck, but the
    linearizable contract only lets recovery claim the dense prefix).
    """
    failed = frozenset(failed_shards)
    prefix: List[CommitRecord] = []
    for commit in commits:
        if commit.commit_ns > crash_ns:
            break
        durable = True
        for shard, watermark in commit.shard_watermarks.items():
            adr = shard not in failed
            if not _watermark_durable(
                journals[shard], watermark, crash_ns, adr,
                adr_budget if not adr else None,
            ):
                durable = False
                break
        if not durable:
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
    adr_budget: Optional[int] = None,
) -> ShardFailureReport:
    """Crash every shard subset at sampled instants and reconcile.

    ``run`` is the workload's :class:`~repro.workloads.base.WorkloadRun`
    (``outcome.runs[core]``).  For each sampled crash instant and each
    failed subset the sweep rebuilds the image, runs transaction
    recovery, classifies the state structurally, and checks the
    cross-shard reconciliation: the matched transaction prefix must
    cover every commit :func:`durable_commit_prefix` still guarantees.
    Mid-drain ADR loss may cost *unacked* commits (they were never
    durable) and may surface as detected damage — what it must never
    produce is silent corruption or a lost durable commit.
    """
    # Deferred import: workloads.base imports the txn recovery stack.
    from ..workloads.base import PrefixValidator
    from .recovery import RecoveryManager

    controller = result.controller
    journals = _shard_journals(result)
    shards = controller.shards
    if subsets is None:
        subsets = [(s,) for s in range(shards)] + [tuple(range(shards))]
    commits = controller.journal.commits
    injector = CrashInjector(result)
    times = uniform_sample(injector.interesting_times(limit=max_points), max_points)
    manager = RecoveryManager(result.config.encryption)
    validator = PrefixValidator(run)
    encrypted = result.policy.encrypts
    outcomes: List[ShardFailureOutcome] = []
    for crash_ns in times:
        for subset in subsets:
            failed = tuple(sorted(set(subset)))
            image = shard_crash_image(
                result, crash_ns, failed, adr_budget=adr_budget
            )
            recovered = manager.recover(image, encrypted=encrypted)
            verdict = validator.classify(recovered)
            prefix = durable_commit_prefix(
                commits, journals, crash_ns, failed, adr_budget=adr_budget
            )
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
