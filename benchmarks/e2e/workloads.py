"""The four seeded workloads of the end-to-end benchmark.

Each workload builds its inputs from a seed in ``__init__`` (the set-up
that ``setup_s`` times) and runs one repetition in :meth:`rep`, which
returns the simulated outputs and one :data:`Task` per task the
repetition is made of, calling ``between`` after each task, outside its
time.  :meth:`canonical` reduces the outputs to the JSON form whose
SHA-256 is checked against ``expected.json``, and :meth:`check` lists
broken durability invariants, which hold for every seed.

Callables the spans wrap are looked up on their module at call time
(``scenario.run_service_job``, not a name bound at import), so the
traced run sees the wrapped versions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

from repro.bench import experiments, harness, parallel
from repro.bench.parallel import SweepExecutor, SweepJob
from repro.config import MB
from repro.crash.counter_recovery import CounterRecoverer
from repro.crash.injector import CrashInjector, uniform_sample
from repro.crash.session import RecoverySession
from repro.faults import make_fault_model
from repro.service import scenario
from repro.service.traffic import TrafficSpec
from repro.workloads.base import WorkloadParams

Outputs = List[object]
#: One task: ``perf_counter`` at its start, its host seconds, and the host
#: seconds of the unit of output it produced (the whole task, except on
#: ``recovery``).
Task = Tuple[float, float, float]
Repetition = Tuple[Outputs, List[Task]]


def digest(document: object) -> str:
    """SHA-256 of the canonical JSON form of ``document``."""
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def timed_map(
    fn: Callable, items: Sequence[object], between: Callable[[], None]
) -> Repetition:
    """Run ``fn`` over ``items`` on the inline executor; time each item."""
    tasks: List[Task] = []
    started = [time.perf_counter()]

    def done(_index, _value) -> None:
        seconds = time.perf_counter() - started[0]
        tasks.append((started[0], seconds, seconds))
        between()
        started[0] = time.perf_counter()

    return SweepExecutor(backend="inline").map(fn, items, on_result=done), tasks


class _Captured(Exception):
    def __init__(self, jobs: Sequence[SweepJob]) -> None:
        super().__init__("jobs captured")
        self.jobs = list(jobs)


class _CapturingExecutor(SweepExecutor):
    """Stops an experiment at its sweep and keeps the jobs it built."""

    def map_stats(self, jobs):
        raise _Captured(jobs)


def experiment_jobs(experiment: experiments.Experiment, seed: int) -> List[SweepJob]:
    """The quick-scale jobs ``experiment`` sweeps, with their workload seed set."""
    try:
        experiment.run("quick", executor=_CapturingExecutor())
    except _Captured as captured:
        return [
            dataclasses.replace(job, params=dataclasses.replace(job.params, seed=seed))
            for job in captured.jobs
        ]
    raise RuntimeError("%s ran no sweep" % type(experiment).__name__)


class Workload:
    """One seeded input set; subclasses build it and run one repetition."""

    name = ""
    #: The unit of output whose latency :meth:`rep` reports.
    task = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def rep(self, between: Callable[[], None]) -> Repetition:
        raise NotImplementedError

    def canonical(self, outputs: Outputs) -> object:
        raise NotImplementedError

    def check(self, outputs: Outputs) -> List[str]:
        raise NotImplementedError


class _Sweep(Workload):
    """Figure-sweep jobs through the stats path, as ``repro-bench`` runs them."""

    task = "sweep job"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.jobs = experiment_jobs(self.experiment(), seed)

    @staticmethod
    def experiment() -> experiments.Experiment:
        raise NotImplementedError

    def rep(self, between: Callable[[], None]) -> Repetition:
        # The trace memo is process-global: without this every repetition
        # after the first would skip trace generation, which a user's
        # sweep invocation pays once.
        harness._TRACE_MEMO.clear()
        return timed_map(parallel.execute_job, self.jobs, between)

    def canonical(self, outputs: Outputs) -> object:
        return [dataclasses.asdict(stats) for stats in outputs]

    def check(self, outputs: Outputs) -> List[str]:
        # Every design replays the same traces, so one machine shape
        # commits the same transactions whatever the design.
        committed: Dict[Tuple[str, int], set] = defaultdict(set)
        for job, stats in zip(self.jobs, outputs):
            committed[(job.workload, job.config.num_cores)].add(stats.transactions)
        return [
            "%s@%dc: designs committed %s transactions" % (workload, cores, sorted(counts))
            for (workload, cores), counts in sorted(committed.items())
            if len(counts) != 1 or 0 in counts
        ]


class Fig12Quick(_Sweep):
    """The 25 timing-only jobs of Figure 12 at quick scale."""

    name = "fig12-quick"

    @staticmethod
    def experiment() -> experiments.Experiment:
        return experiments.Fig12SingleCore()


class MulticoreSharded(_Sweep):
    """Figure 13's 4-core hash jobs, on 1 and 2 controller shards.

    ``hash`` is the lightest workload of the figure at 4 cores (about a
    tenth of ``btree``'s time), so a run holds dozens of repetitions.
    """

    name = "multicore-sharded"

    @staticmethod
    def experiment() -> experiments.Experiment:
        return experiments.Fig13MultiCore(
            core_counts=(4,), workloads=("hash",), shard_counts=(1, 2)
        )


class ServeKV(Workload):
    """The multi-tenant KV service under open-loop traffic, crashed mid-run."""

    name = "serve-kv"
    task = "service job"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        traffic = TrafficSpec(tenants=4, operations=1500, seed=seed)
        self.jobs = [
            scenario.ServiceJob(design=design, traffic=traffic)
            for design in ("sca", "fca+bmt")
        ]

    def rep(self, between: Callable[[], None]) -> Repetition:
        return timed_map(scenario.run_service_job, self.jobs, between)

    def canonical(self, outputs: Outputs) -> object:
        return [{k: v for k, v in document.items() if k != "key"} for document in outputs]

    def check(self, outputs: Outputs) -> List[str]:
        problems = []
        for document in outputs:
            if not document["consistent"]:
                problems.append("%s: recovered state is inconsistent" % document["design"])
            if document["totals"]["acked_lost"]:
                problems.append("%s: acknowledged operations lost" % document["design"])
        return problems


class Recovery(Workload):
    """Post-crash recovery of 40 crash images per design, no machine run.

    Set-up simulates ``hash`` once per design and picks the crash
    instants.  Each repetition rebuilds every image, because the counter
    search repairs ``image.counter_store`` in place.  A task is one
    image's rebuild and recovery; its latency is ``RecoverySession.run``
    alone.
    """

    name = "recovery"
    task = "RecoverySession.run"
    DESIGNS = ("sca", "fca", "co-located-cc", "sca+bmt")
    CRASH_POINTS = 40

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        params = WorkloadParams(operations=400, footprint_bytes=1 * MB, seed=seed)
        self.fault = make_fault_model("bitflip-counter")
        self.cells = []
        for design in self.DESIGNS:
            outcome = harness.run_workload(design, "hash", params=params)
            injector = CrashInjector(outcome.result)
            per_kind = self.CRASH_POINTS // 2
            times = sorted(
                set(injector.interesting_times(limit=per_kind))
                | set(injector.midpoint_times(limit=per_kind))
            )
            self.cells.append(
                (
                    design,
                    outcome.result,
                    injector,
                    outcome.validator(0),
                    uniform_sample(times, self.CRASH_POINTS),
                )
            )

    def rep(self, between: Callable[[], None]) -> Repetition:
        outputs: Outputs = []
        tasks: List[Task] = []
        clock = time.perf_counter
        for design, result, injector, validator, times in self.cells:
            config = result.config

            def classify(recovered, context, validator=validator):
                return validator.classify(recovered, context=context)

            for crash_ns in times:
                built = clock()
                image, _events = injector.crash_with_faults(
                    crash_ns, [self.fault], seed=self.seed
                )
                session = RecoverySession(
                    config,
                    encrypted=result.policy.encrypts,
                    recoverer=CounterRecoverer(config.encryption),
                    tree_checked=result.policy.integrity_tree,
                )
                start = clock()
                session_result = session.run(image, classify)
                end = clock()
                tasks.append((built, end - built, end - start))
                recovered = session_result.recovered
                outputs.append(
                    (
                        design,
                        crash_ns,
                        session_result.status,
                        recovered.fingerprint() if recovered is not None else None,
                    )
                )
                between()
        return outputs, tasks

    def canonical(self, outputs: Outputs) -> object:
        return [list(output) for output in outputs]

    def check(self, outputs: Outputs) -> List[str]:
        return [
            "%s @ %.3f ns: recovery ended %s" % (design, crash_ns, status)
            for design, crash_ns, status, _ in outputs
            if status == "crashed" or (status == "silent" and design.endswith("+bmt"))
        ]


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (Fig12Quick, MulticoreSharded, ServeKV, Recovery)
}
