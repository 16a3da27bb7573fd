"""Resumable crash campaigns: workloads x designs x crash points x faults.

A *campaign* is the systematic version of the one-off crash sweep: for
every combination of workload, design, transaction mechanism and fault
model it reconstructs crash images across the run, corrupts them with
the fault model, runs real recovery, and classifies every outcome into
the triage taxonomy:

* ``recovered``          — recovery produced a consistent state;
* ``recovered-by-search``— plain recovery detected a bad state, but the
  Osiris-style counter search (``--with-counter-recovery``) repaired
  it to a provably consistent one;
* ``detected``           — the state was bad and recovery *said so*
  (decryption failure, corrupt-record check, checksum mismatch);
* ``detected-by-tree``   — recovery accepted a state the oracle proves
  wrong, but the integrity tree's post-crash walk (root register +
  ECC-lane tag sweep; ``+bmt`` designs) flagged it — would-be silent
  corruption converted into a detection;
* ``silent-corruption``  — recovery accepted a state the oracle proves
  wrong: the bucket that breaks real systems;
* ``recovery-crashed``   — the recovery procedure itself raised an
  unexpected exception on the corrupted image.

The ``--nested-crash`` axis adds two more buckets: an injected second
power failure *during* recovery after which the resumed recovery still
converged (``recovered-after-nested-crash``) or at least stayed loud
(``detected-after-nested-crash``).

Campaigns are deterministic (same seed, same spec -> same outcome
table) and resumable: every finished job's result is stored as
``<dir>/<key>.json`` the moment it lands (:mod:`repro.utils.store`), and
a rerun skips jobs whose key (job document + code version) is stored.
"""

from __future__ import annotations

import dataclasses
import enum
import os
import shutil
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from ..config import KB
from ..errors import CampaignError
from ..faults import make_fault_model
from ..faults.registry import DEFAULT_SUITE
from ..utils.store import JsonStore, content_key
from .injector import CrashInjector, uniform_sample

if TYPE_CHECKING:  # pragma: no cover - import cycle (bench -> txn -> crash)
    from ..bench.parallel import SweepExecutor

#: Cap on non-clean outcome examples kept per job for the triage report.
EXAMPLES_PER_JOB = 3


class Outcome(enum.Enum):
    """The campaign triage taxonomy."""

    RECOVERED = "recovered"
    RECOVERED_SEARCH = "recovered-by-search"
    #: An injected mid-recovery power failure, after which the resumed
    #: recovery still reached a provably consistent state.
    RECOVERED_NESTED = "recovered-after-nested-crash"
    DETECTED = "detected"
    DETECTED_TREE = "detected-by-tree"
    #: A nested crash after which the state stayed bad but every
    #: detection channel still fired — never silent.
    DETECTED_NESTED = "detected-after-nested-crash"
    SILENT = "silent-corruption"
    CRASHED = "recovery-crashed"


@dataclass(frozen=True)
class CampaignJob:
    """One independent campaign cell; picklable and hashable."""

    workload: str
    design: str
    mechanism: str
    fault: str
    fault_params: Tuple[Tuple[str, object], ...] = ()
    crash_points: int = 20
    seed: int = 42
    operations: int = 8
    footprint_bytes: int = 8 * KB
    #: Memory-controller shards the simulated machine runs
    #: (:mod:`repro.mem.sharded`).  Above 1 the job also sweeps
    #: shard-subset ADR failures and reconciles the cross-shard commit
    #: log (``shard_failures`` in the result document).
    shards: int = 1
    #: Retry detected failures with the Osiris-style counter search;
    #: part of the job's identity (it changes the outcome table).
    with_counter_recovery: bool = False
    #: Sweep the nested-crash axis: every crash point is additionally
    #: recovered under each schedule of the crash-point x recovery-step
    #: grid (:func:`repro.faults.recovery.nested_point_grid`).
    nested_crash: bool = False
    #: Recovery steps per phase the nested grid covers.
    nested_steps: int = 2
    #: Execution-only plumbing, deliberately NOT part of ``document()``
    #: (and therefore not of the job key): where this job checkpoints
    #: its simulation, how often, and where it beats its heartbeat.
    checkpoint_dir: Optional[str] = None
    checkpoint_every: Optional[int] = None
    heartbeat_path: Optional[str] = None

    def document(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "design": self.design,
            "mechanism": self.mechanism,
            "fault": self.fault,
            "fault_params": dict(self.fault_params),
            "crash_points": self.crash_points,
            "seed": self.seed,
            "operations": self.operations,
            "footprint_bytes": self.footprint_bytes,
            "shards": self.shards,
            "with_counter_recovery": self.with_counter_recovery,
            "nested_crash": self.nested_crash,
            "nested_steps": self.nested_steps,
        }


def _classify_session(result, nested_swept: bool) -> Tuple[Outcome, str]:
    """Map one :class:`SessionResult` into the triage taxonomy.

    When nested crashes actually fired, the nested buckets take over:
    they are the sweep's observable — did the *resumed* recovery still
    converge (``recovered-after-nested-crash``) or at least stay loud
    (``detected-after-nested-crash``)?  Silent and crashed keep their
    identity regardless: a nested crash never excuses either.
    """
    nested = nested_swept and result.nested_injected > 0
    if result.status == "consistent":
        if nested:
            return Outcome.RECOVERED_NESTED, result.detail
        if result.via_search:
            return Outcome.RECOVERED_SEARCH, result.detail
        return Outcome.RECOVERED, result.detail
    if result.status in ("detected", "detected-tree"):
        if nested:
            return Outcome.DETECTED_NESTED, result.detail
        if result.status == "detected-tree":
            return Outcome.DETECTED_TREE, result.detail
        return Outcome.DETECTED, result.detail
    if result.status == "silent":
        return Outcome.SILENT, result.detail
    return Outcome.CRASHED, result.detail


#: Outcomes that are successes — excluded from the triage examples.
_CLEAN_OUTCOMES = (Outcome.RECOVERED, Outcome.RECOVERED_SEARCH, Outcome.RECOVERED_NESTED)


def run_campaign_job(job: CampaignJob) -> Dict[str, object]:
    """Execute one campaign cell; the (picklable) worker entry point.

    Returns a JSON-ready result document: outcome tallies over every
    swept crash point, fault-event count, example failures, and the
    job's checkpoint/restore accounting.

    Every crash point is recovered through a
    :class:`~repro.crash.session.RecoverySession` (the bounded
    escalation ladder).  With ``job.nested_crash`` set, each crash
    point is additionally recovered under every schedule of the
    crash-point x recovery-step grid, injecting a second power failure
    mid-recovery and requiring the resumed recovery to converge.

    The simulation phase checkpoints to ``job.checkpoint_dir`` (when
    set) and resumes from the newest valid snapshot there, so a worker
    killed mid-simulation loses at most one checkpoint interval.  The
    heartbeat (when set) is beaten per chunk of simulated events (see
    :func:`repro.sim.snapshot.run_with_checkpoints`) and per triaged
    crash point, feeding the executor's stall watchdog.
    """
    from ..bench.resilience import Heartbeat, run_workload_resilient
    from ..config import fast_config
    from ..faults.recovery import RecoveryFaultPlan, nested_point_grid
    from ..workloads.base import WorkloadParams
    from .session import RecoverySession, error_digest

    params = WorkloadParams(
        operations=job.operations,
        seed=job.seed,
        footprint_bytes=job.footprint_bytes,
    )
    heartbeat = Heartbeat(job.heartbeat_path) if job.heartbeat_path else None
    outcome, resilience = run_workload_resilient(
        job.design,
        job.workload,
        config=fast_config(shards=job.shards),
        mechanism=job.mechanism,
        params=params,
        checkpoint_dir=job.checkpoint_dir,
        every_events=job.checkpoint_every,
        heartbeat=heartbeat,
    )
    config = outcome.result.config
    injector = CrashInjector(outcome.result)
    per_kind = max(2, job.crash_points // 2)
    times = sorted(
        set(injector.interesting_times(limit=per_kind))
        | set(injector.midpoint_times(limit=per_kind))
    )
    times = uniform_sample(times, job.crash_points)
    validator = outcome.validator(0)
    encrypted = outcome.result.policy.encrypts
    model = make_fault_model(job.fault, **dict(job.fault_params))
    recoverer = None
    if job.with_counter_recovery and encrypted:
        from .counter_recovery import CounterRecoverer

        recoverer = CounterRecoverer(config.encryption)
    tree_checked = outcome.result.policy.integrity_tree
    # The nested sweep: a no-injection baseline cell plus one cell per
    # fault-point schedule.  Phases a design cannot enter (no search,
    # no tree) are not swept — those points could never fire.
    schedules: List[Optional[Tuple]] = [None]
    if job.nested_crash:
        schedules.extend(
            nested_point_grid(
                job.nested_steps,
                counter_search=recoverer is not None,
                tree_repair=tree_checked and recoverer is not None,
            )
        )

    def classify(recovered, context):
        return validator.classify(recovered, context=context)

    tallies: Dict[str, int] = {o.value: 0 for o in Outcome}
    examples: List[Dict[str, object]] = []
    fault_events = 0
    nested_injected = 0
    cells = 0
    for crash_ns in times:
        if heartbeat is not None:
            heartbeat.beat()
        for schedule in schedules:
            image, events = injector.crash_with_faults(
                crash_ns, [model], seed=job.seed
            )
            fault_events += len(events)
            plan = (
                RecoveryFaultPlan(schedule, seed=job.seed)
                if schedule is not None
                else None
            )
            session = RecoverySession(
                config,
                encrypted=encrypted,
                plan=plan,
                recoverer=recoverer,
                tree_checked=tree_checked,
            )
            session_error = None
            try:
                result = session.run(image, classify)
            except Exception as exc:  # ladder non-convergence: a finding
                session_error = error_digest(exc)
                classified = Outcome.CRASHED
                detail = "%s: %s" % (session_error["type"], session_error["message"])
                ladder = None
            else:
                classified, detail = _classify_session(result, schedule is not None)
                session_error = result.error
                nested_injected += result.nested_injected
                ladder = result.ledger.as_dict()
            tallies[classified.value] += 1
            cells += 1
            if classified not in _CLEAN_OUTCOMES and len(examples) < EXAMPLES_PER_JOB:
                example: Dict[str, object] = {
                    "crash_ns": crash_ns,
                    "outcome": classified.value,
                    "detail": detail,
                    "fault_events": [event.as_dict() for event in events],
                }
                if schedule is not None:
                    example["nested_plan"] = [point.as_dict() for point in schedule]
                if ladder is not None:
                    example["ladder"] = ladder
                if session_error is not None:
                    # Triage for recovery-crashed cells: exception type,
                    # message and a short stack digest for grouping.
                    example["error"] = session_error
                examples.append(example)
    if heartbeat is not None:
        heartbeat.clear()
    document: Dict[str, object] = {
        "key": content_key(job.document()),
        "job": job.document(),
        "points": cells,
        "crash_times": len(times),
        "nested_schedules": len(schedules) - 1,
        "nested_injected": nested_injected,
        "fault_events": fault_events,
        "outcomes": tallies,
        "examples": examples,
        "resilience": resilience,
    }
    if job.shards > 1:
        # Shard-subset ADR failures + cross-shard reconciliation
        # (docs/sharding.md).  Tearing an *uncommitted* transaction is
        # expected physics of a mid-drain reserve loss; losing a commit
        # the barrier proved durable is the contract violation
        # ``--strict`` fails on.
        from .sharded import sweep_shard_failures

        shard_report = sweep_shard_failures(
            outcome.result,
            outcome.runs[0],
            max_points=max(2, job.crash_points // 4),
        )
        document["shard_failures"] = {
            "points": shard_report.total,
            "consistent": shard_report.consistent,
            "detected": shard_report.detected,
            "torn_uncommitted": len(shard_report.silent_failures),
            "acked_commit_lost": len(shard_report.acked_losses),
        }
    return document


@dataclass(frozen=True)
class CampaignSpec:
    """What a campaign sweeps; a bad value is refused on construction.

    ``faults`` entries are fault specs: a registry name or a mapping
    like ``{"model": "dropped-adr", "budget": 2}``.
    """

    workloads: Sequence[str] = ("array",)
    designs: Sequence[str] = ("sca", "unsafe")
    mechanisms: Sequence[str] = ("undo",)
    faults: Sequence[object] = DEFAULT_SUITE
    crash_points: int = 20
    seed: int = 42
    operations: int = 8
    footprint_bytes: int = 8 * KB
    with_counter_recovery: bool = False
    #: Sweep the nested-crash axis: every crash point is additionally
    #: recovered under each schedule of the crash-point x recovery-step
    #: grid (a second power failure mid-recovery).
    nested_crash: bool = False
    #: How many recovery steps the nested grid covers per phase.
    nested_steps: int = 2
    #: Memory-controller shards every job's machine runs with; above 1
    #: each job also sweeps shard-subset ADR failures and reconciles
    #: the cross-shard commit log.
    shards: int = 1

    def _fault_fields(self) -> List[Tuple[str, Tuple[Tuple[str, object], ...]]]:
        normalized = []
        for entry in self.faults:
            if isinstance(entry, str):
                name, params = entry, {}
            elif isinstance(entry, Mapping):
                document = dict(entry)
                name = document.pop("model", None)
                params = document
                if not isinstance(name, str):
                    raise CampaignError("fault spec needs a 'model' name: %r" % entry)
            else:
                raise CampaignError("bad fault spec %r" % (entry,))
            normalized.append((name, tuple(sorted(params.items()))))
        return normalized

    def __post_init__(self) -> None:
        """Fail fast on misconfiguration, before any worker runs."""
        from ..core.designs import get_design
        from ..errors import ConfigurationError, FaultInjectionError
        from ..txn.manager import MECHANISMS
        from ..workloads.registry import list_workloads

        if self.crash_points < 1:
            raise CampaignError("a campaign needs at least one crash point")
        if self.nested_crash and self.nested_steps < 1:
            raise CampaignError("a nested-crash campaign needs nested_steps >= 1")
        if self.shards < 1:
            raise CampaignError("a campaign needs at least one shard")
        if not (self.workloads and self.designs and self.mechanisms and self.faults):
            raise CampaignError("empty campaign axis (workloads/designs/mechanisms/faults)")
        known_workloads = set(list_workloads(include_extra=True))
        for workload in self.workloads:
            if workload not in known_workloads:
                raise CampaignError(
                    "unknown workload %r; available: %s"
                    % (workload, ", ".join(sorted(known_workloads)))
                )
        for design in self.designs:
            try:
                get_design(design)
            except ConfigurationError as exc:
                raise CampaignError(str(exc)) from None
        for mechanism in self.mechanisms:
            if mechanism not in MECHANISMS:
                raise CampaignError("unknown transaction mechanism %r" % mechanism)
        for name, params in self._fault_fields():
            try:
                make_fault_model(name, **dict(params))
            except FaultInjectionError as exc:
                raise CampaignError(str(exc)) from None

    def jobs(self) -> List[CampaignJob]:
        """The full cross product, in deterministic order."""
        jobs = []
        for workload in self.workloads:
            for design in self.designs:
                for mechanism in self.mechanisms:
                    for fault, fault_params in self._fault_fields():
                        jobs.append(
                            CampaignJob(
                                workload=workload,
                                design=design,
                                mechanism=mechanism,
                                fault=fault,
                                fault_params=fault_params,
                                crash_points=self.crash_points,
                                seed=self.seed,
                                operations=self.operations,
                                footprint_bytes=self.footprint_bytes,
                                with_counter_recovery=self.with_counter_recovery,
                                nested_crash=self.nested_crash,
                                nested_steps=self.nested_steps,
                                shards=self.shards,
                            )
                        )
        return jobs

    def as_dict(self) -> Dict[str, object]:
        return {
            "workloads": list(self.workloads),
            "designs": list(self.designs),
            "mechanisms": list(self.mechanisms),
            "faults": [
                {"model": name, **dict(params)} for name, params in self._fault_fields()
            ],
            "crash_points": self.crash_points,
            "seed": self.seed,
            "operations": self.operations,
            "footprint_bytes": self.footprint_bytes,
            "with_counter_recovery": self.with_counter_recovery,
            "nested_crash": self.nested_crash,
            "nested_steps": self.nested_steps,
            "shards": self.shards,
        }


@dataclass
class CampaignReport:
    """Aggregate of one campaign run, ready to render or serialize."""

    spec: Dict[str, object]
    results: List[Dict[str, object]]
    resumed_jobs: int = 0
    executor_stats: Dict[str, object] = field(default_factory=dict)
    resilience: Dict[str, int] = field(default_factory=dict)
    #: Damaged result files quarantined during resume (their jobs re-ran).
    quarantined: int = 0

    def total(self, outcome: Outcome) -> int:
        # .get: a result without an outcome class counts zero for it.
        return sum(r["outcomes"].get(outcome.value, 0) for r in self.results)

    @property
    def points(self) -> int:
        return sum(r["points"] for r in self.results)

    @property
    def crashed(self) -> int:
        return self.total(Outcome.CRASHED)

    @property
    def silent(self) -> int:
        return self.total(Outcome.SILENT)

    def as_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec,
            "results": self.results,
            "resumed_jobs": self.resumed_jobs,
            "totals": {o.value: self.total(o) for o in Outcome},
            "points": self.points,
            "executor": dict(self.executor_stats),
            "resilience": dict(self.resilience),
            "quarantined": self.quarantined,
        }

    def render(self) -> str:
        """The triage report: per-cell table, totals, failure examples."""
        lines: List[str] = []
        lines.append("crash campaign — %d job(s), %d crash point(s)" % (
            len(self.results), self.points))
        header = "%-10s %-13s %-13s %-18s %6s %6s %6s %6s %6s %6s %6s %6s %6s" % (
            "workload", "design", "mechanism", "fault",
            "points", "recov", "search", "nrecov", "detect", "tree", "ndet",
            "SILENT", "CRASH",
        )
        lines.append(header)
        lines.append("-" * len(header))
        for result in self.results:
            job = result["job"]
            outcomes = result["outcomes"]
            lines.append(
                "%-10s %-13s %-13s %-18s %6d %6d %6d %6d %6d %6d %6d %6d %6d"
                % (
                    job["workload"],
                    job["design"],
                    job["mechanism"],
                    job["fault"],
                    result["points"],
                    outcomes.get(Outcome.RECOVERED.value, 0),
                    outcomes.get(Outcome.RECOVERED_SEARCH.value, 0),
                    outcomes.get(Outcome.RECOVERED_NESTED.value, 0),
                    outcomes.get(Outcome.DETECTED.value, 0),
                    outcomes.get(Outcome.DETECTED_TREE.value, 0),
                    outcomes.get(Outcome.DETECTED_NESTED.value, 0),
                    outcomes.get(Outcome.SILENT.value, 0),
                    outcomes.get(Outcome.CRASHED.value, 0),
                )
            )
        lines.append("-" * len(header))
        lines.append(
            "totals: %d recovered, %d recovered-by-search, "
            "%d recovered-after-nested-crash, %d detected, %d detected-by-tree, "
            "%d detected-after-nested-crash, %d silent-corruption, "
            "%d recovery-crashed"
            % (
                self.total(Outcome.RECOVERED),
                self.total(Outcome.RECOVERED_SEARCH),
                self.total(Outcome.RECOVERED_NESTED),
                self.total(Outcome.DETECTED),
                self.total(Outcome.DETECTED_TREE),
                self.total(Outcome.DETECTED_NESTED),
                self.silent,
                self.crashed,
            )
        )
        if self.resumed_jobs:
            lines.append(
                "resumed: %d job(s) restored from the store" % self.resumed_jobs
            )
        if self.quarantined:
            lines.append(
                "store: %d damaged result file(s) quarantined; those jobs re-ran"
                % self.quarantined
            )
        if any(self.resilience.values()):
            lines.append(
                "checkpointing: %d snapshot(s) saved, %d run(s) restored, "
                "%d quarantined, %d invalidated"
                % (
                    self.resilience.get("saved", 0),
                    self.resilience.get("restored", 0),
                    self.resilience.get("quarantined", 0),
                    self.resilience.get("invalidated", 0),
                )
            )
        triage = [
            (result["job"], example)
            for result in self.results
            for example in result["examples"]
            if example["outcome"] in (Outcome.SILENT.value, Outcome.CRASHED.value)
        ]
        if triage:
            lines.append("")
            lines.append("triage (%d silent/crashed example(s)):" % len(triage))
            for job, example in triage[:20]:
                lines.append(
                    "  [%s] %s/%s/%s fault=%s crash@%.1fns: %s"
                    % (
                        example["outcome"],
                        job["workload"],
                        job["design"],
                        job["mechanism"],
                        job["fault"],
                        example["crash_ns"],
                        example["detail"],
                    )
                )
        return "\n".join(lines)


class CampaignRunner:
    """Plans, executes, stores and resumes a campaign.

    With ``store_dir`` set, each finished job's result is stored there
    as it lands and a rerun resumes from it.  With ``checkpoint_dir``
    set, every pending job checkpoints its simulation under
    ``<checkpoint_dir>/<key>`` and resumes from there after a kill; a
    job's checkpoint state is deleted as soon as its result is stored
    (the result is the durable record, the snapshots only scaffolding).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        executor: Optional[SweepExecutor] = None,
        store_dir: Optional[str] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
        retry_crashed: bool = False,
    ) -> None:
        from ..bench.parallel import SweepExecutor

        self.spec = spec
        self.executor = executor if executor is not None else SweepExecutor()
        self.store = JsonStore(store_dir) if store_dir is not None else None
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        #: Re-run stored jobs whose result shows recovery-crashed cells
        #: instead of resuming them; the fresh result replaces the old.
        self.retry_crashed = retry_crashed

    # -- execution --------------------------------------------------------

    def _prepare_job(self, job: CampaignJob, key: str) -> CampaignJob:
        """Attach per-job checkpoint/heartbeat plumbing (key-neutral)."""
        if self.checkpoint_dir is None:
            return job
        job_dir = os.path.join(self.checkpoint_dir, key)
        return dataclasses.replace(
            job,
            checkpoint_dir=job_dir,
            checkpoint_every=self.checkpoint_every,
            heartbeat_path=os.path.join(job_dir, "heartbeat.json"),
        )

    def _cleanup_job_state(self, key: str) -> None:
        """Drop a finished job's checkpoint scaffolding."""
        if self.checkpoint_dir is None:
            return
        shutil.rmtree(os.path.join(self.checkpoint_dir, key), ignore_errors=True)

    def _resumable(self, result: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """A stored result, or None when ``retry_crashed`` re-runs it."""
        crashed = result["outcomes"][Outcome.CRASHED.value]
        return None if crashed and self.retry_crashed else result

    def run(self) -> CampaignReport:
        """Run (or resume) the campaign and return the triage report."""
        jobs = self.spec.jobs()
        keys = [content_key(job.document()) for job in jobs]
        prepared = [self._prepare_job(job, key) for job, key in zip(jobs, keys)]
        values, resumed = self.executor.map_resumable(
            run_campaign_job,
            prepared,
            keys,
            self.store,
            load=self._resumable,
            on_result=lambda index, _value: self._cleanup_job_state(keys[index]),
            heartbeats=[job.heartbeat_path for job in prepared],
        )
        # A run killed between storing a result and cleaning up leaves
        # scaffolding behind for jobs this run resumed.
        for key in keys:
            self._cleanup_job_state(key)
        results = cast(List[Dict[str, Any]], values)
        resilience: Dict[str, int] = {
            "saved": 0, "restored": 0, "quarantined": 0, "invalidated": 0,
        }
        for result in results:
            job_resilience = result.get("resilience") or {}
            for counter in resilience:
                resilience[counter] += int(job_resilience.get(counter, 0))
        return CampaignReport(
            spec=self.spec.as_dict(),
            results=results,
            resumed_jobs=resumed,
            executor_stats=self.executor.stats(),
            resilience=resilience,
            quarantined=self.store.quarantined if self.store is not None else 0,
        )
