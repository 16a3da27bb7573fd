"""Nested crashes: fault injection during recovery, idempotent resume.

The properties this suite pins down:

* **Determinism** — the same (seed, crash image, fault schedule) drives
  recovery through the *identical* escalation-ladder path and ends in
  bit-identical recovered memory, across every transaction mechanism.
* **Resume equivalence** — a recovery interrupted by a nested crash and
  resumed from the durable state it left behind converges to the same
  bytes an uninterrupted recovery produces.
* **Never silent** — across all designs, a second power failure during
  recovery never converts a clean crash into silent corruption (or a
  stuck recovery): the session ends consistent, or loudly detected.
* **Campaign integration** — the ``--nested-crash`` axis tallies the
  two nested outcome buckets and a retried job replaces its stored result.
"""

import dataclasses
import json
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.harness import run_workload
from repro.bench.parallel import SweepExecutor
from repro.config import KB, fast_config
from repro.crash.campaign import (
    CampaignRunner,
    CampaignSpec,
    Outcome,
    run_campaign_job,
)
from repro.crash.counter_recovery import CounterRecoverer
from repro.crash.injector import CrashInjector
from repro.crash.recovery import GarbageRead, RecoveredMemory, RecoveryManager
from repro.crash.session import RecoveryContext, RecoverySession, error_digest
from repro.errors import CampaignError, NestedCrash
from repro.faults.recovery import (
    RECOVERY_PHASES,
    RecoveryFaultPlan,
    RecoveryFaultPoint,
    nested_point_grid,
)
from repro.faults.registry import make_fault_model
from repro.workloads.base import WorkloadParams

#: One design per distinct recovery shape: unencrypted, split-counter,
#: full-counter + integrity tree (search + repair rungs reachable).
DESIGNS = ("no-encryption", "sca", "fca+bmt")
MECHANISMS = ("undo", "redo", "checksum-undo")
#: The full design roster for the never-silent sweep.
ALL_DESIGNS = (
    "no-encryption", "ideal", "co-located", "co-located-cc",
    "fca", "sca", "fca+bmt", "sca+bmt", "unsafe",
)


@lru_cache(maxsize=None)
def outcome_for(design, mechanism="undo"):
    return run_workload(
        design,
        "array",
        config=fast_config(),
        mechanism=mechanism,
        params=WorkloadParams(operations=5, seed=11, footprint_bytes=8 * KB),
    )


@lru_cache(maxsize=None)
def crash_times_for(design, mechanism="undo"):
    injector = CrashInjector(outcome_for(design, mechanism).result)
    return tuple(injector.interesting_times(limit=3))


def make_session(outcome, plan, with_search=False):
    config = outcome.result.config
    encrypted = outcome.result.policy.encrypts
    tree_checked = outcome.result.policy.integrity_tree
    recoverer = (
        CounterRecoverer(config.encryption) if (with_search and encrypted) else None
    )
    return RecoverySession(
        config,
        encrypted=encrypted,
        plan=plan,
        recoverer=recoverer,
        tree_checked=tree_checked,
    )


def classifier(outcome):
    validator = outcome.validator(0)
    return lambda recovered, context: validator.classify(recovered, context=context)


def schedules_for(outcome, steps=2, with_search=False):
    encrypted = outcome.result.policy.encrypts
    tree = outcome.result.policy.integrity_tree
    return nested_point_grid(
        steps,
        counter_search=with_search and encrypted,
        tree_repair=with_search and encrypted and tree,
    )


def run_session(design, mechanism, crash_ns, schedule, seed, with_search=False):
    outcome = outcome_for(design, mechanism)
    image = CrashInjector(outcome.result).crash_at(crash_ns)
    plan = RecoveryFaultPlan(schedule, seed=seed) if schedule is not None else None
    session = make_session(outcome, plan, with_search=with_search)
    return session.run(image, classifier(outcome))


class TestFaultPlan:
    def test_points_fire_exactly_once(self):
        point = RecoveryFaultPoint("txn-replay", 0, "crash")
        plan = RecoveryFaultPlan((point,), seed=1)
        assert plan.crash_after("txn-replay", 0) is point
        assert plan.crash_after("txn-replay", 0) is None  # one-shot
        assert plan.injected == 1

    def test_torn_write_length_is_seeded_and_stable(self):
        point = RecoveryFaultPoint("txn-replay", 0, "torn-write")
        first = RecoveryFaultPlan((point,), seed=9)
        second = RecoveryFaultPlan((point,), seed=9)
        assert first.tear_length(point) == second.tear_length(point)
        assert 0 < first.tear_length(point) < 64

    def test_grid_covers_phases_steps_and_kinds(self):
        grid = nested_point_grid(2, counter_search=True, tree_repair=True)
        phases = {p.phase for schedule in grid for p in schedule}
        kinds = {p.kind for schedule in grid for p in schedule}
        assert phases == set(RECOVERY_PHASES)
        assert kinds == {"crash", "torn-write"}
        assert any(len(schedule) > 1 for schedule in grid)  # double crash

    def test_torn_write_only_in_txn_replay(self):
        with pytest.raises(Exception):
            RecoveryFaultPoint("counter-search", 0, "torn-write")


class TestContextHooks:
    def test_crash_point_raises_nested_crash_at_step(self):
        plan = RecoveryFaultPlan(
            (RecoveryFaultPoint("txn-replay", 1, "crash"),), seed=1
        )
        context = RecoveryContext(plan)
        context.enter_phase("txn-replay")
        context.step()
        with pytest.raises(NestedCrash) as info:
            context.step()
        assert info.value.phase == "txn-replay"
        assert info.value.step == 1

    def test_torn_write_persists_merged_line(self):
        plan = RecoveryFaultPlan(
            (RecoveryFaultPoint("txn-replay", 0, "torn-write"),), seed=4
        )
        context = RecoveryContext(plan)
        context.enter_phase("txn-replay")
        recovered = RecoveredMemory(
            image=None, plaintext_lines={0: bytes([7]) * 64}, garbage_lines=set()
        )
        with pytest.raises(NestedCrash) as info:
            context.write_line(recovered, 0, bytes([9]) * 64)
        assert info.value.kind == "torn-write"
        tear = plan.tear_length(plan.points[0])
        torn = recovered.plaintext_lines[0]
        assert torn == bytes([9]) * tear + bytes([7]) * (64 - tear)
        assert context.persisted[0] == torn  # the tear is durable


class TestGarbageRead:
    def _memory(self):
        return RecoveredMemory(
            image=None,
            plaintext_lines={0: bytes([5]) * 64},
            garbage_lines={0},
        )

    def test_non_strict_read_returns_typed_sentinel(self):
        memory = self._memory()
        value = memory.read(0, 64, strict=False)
        assert isinstance(value, GarbageRead)
        assert isinstance(value, bytes) and value == bytes([5]) * 64
        assert memory.garbage_reads == 1

    def test_clean_read_is_plain_bytes(self):
        memory = self._memory()
        value = memory.read(64, 64, strict=False)
        assert not isinstance(value, GarbageRead)
        assert memory.garbage_reads == 0

    def test_checker_counts_garbage_reads(self):
        from repro.crash.checker import CrashConsistencyReport, CrashOutcome

        report = CrashConsistencyReport(
            design="sca",
            outcomes=[
                CrashOutcome(crash_ns=1.0, consistent=True, garbage_reads=2),
                CrashOutcome(crash_ns=2.0, consistent=True, garbage_reads=1),
            ],
        )
        assert report.garbage_reads == 3

    def test_fingerprint_covers_garbage_set(self):
        tainted = self._memory()
        clean = RecoveredMemory(
            image=None, plaintext_lines={0: bytes([5]) * 64}, garbage_lines=set()
        )
        assert tainted.fingerprint() != clean.fingerprint()


class TestErrorDigest:
    def _boom(self, message):
        raise ValueError(message)

    def test_digest_groups_by_site_not_message(self):
        digests = []
        for message in ("counter 17 bad", "counter 99 bad"):
            try:
                self._boom(message)
            except ValueError as exc:
                digests.append(error_digest(exc))
        assert digests[0]["digest"] == digests[1]["digest"]
        assert digests[0]["message"] != digests[1]["message"]
        assert digests[0]["type"] == "ValueError"
        assert digests[0]["trace"]


class TestDeterminism:
    @given(data=st.data())
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_same_seed_image_and_plan_replay_identically(self, data):
        design = data.draw(st.sampled_from(DESIGNS), label="design")
        mechanism = data.draw(st.sampled_from(MECHANISMS), label="mechanism")
        crash_ns = data.draw(
            st.sampled_from(crash_times_for(design, mechanism)), label="crash_ns"
        )
        outcome = outcome_for(design, mechanism)
        grid = schedules_for(outcome, with_search=True)
        schedule = data.draw(st.sampled_from(grid), label="schedule")
        seed = data.draw(st.integers(min_value=0, max_value=999), label="seed")
        first = run_session(
            design, mechanism, crash_ns, schedule, seed, with_search=True
        )
        second = run_session(
            design, mechanism, crash_ns, schedule, seed, with_search=True
        )
        assert first.ledger.path == second.ledger.path
        assert first.status == second.status
        assert (first.recovered is None) == (second.recovered is None)
        if first.recovered is not None:
            assert first.recovered.fingerprint() == second.recovered.fingerprint()

    def test_shadow_recovery_deterministic_under_nested_crash(self):
        from repro.sim.machine import Machine
        from repro.sim.trace import TraceBuilder
        from repro.txn.heap import MemoryLayout
        from repro.txn.shadow import ShadowTransactions, recover_shadow

        config = fast_config()
        layout = MemoryLayout.build(config, log_capacity=8)
        builder = TraceBuilder("shadow-nested")
        txns = ShadowTransactions(builder, layout.arena(0), region_bytes=4 * 64)
        txns.commit_new_version([(0, bytes([1]) * 64)])
        txns.commit_new_version([(0, bytes([2]) * 64)])
        result = Machine(config, "sca").run([builder.build()])
        injector = CrashInjector(result)
        manager = RecoveryManager(config.encryption)
        crash_ns = injector.interesting_times(limit=4)[-1]
        plan_points = (RecoveryFaultPoint("txn-replay", 0, "crash"),)

        def attempt():
            recovered = manager.recover(injector.crash_at(crash_ns))
            context = RecoveryContext(RecoveryFaultPlan(plan_points, seed=2))
            with pytest.raises(NestedCrash):
                recover_shadow(recovered, txns.region, context=context)
            # The selector read is the (only) restartable step; a retry
            # on the same durable state returns the same version.
            retry = RecoveryContext()
            return recover_shadow(recovered, txns.region, context=retry)

        assert attempt() == attempt()


class TestResumeEquivalence:
    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_resumed_recovery_bit_identical_to_uninterrupted(
        self, design, mechanism
    ):
        outcome = outcome_for(design, mechanism)
        for crash_ns in crash_times_for(design, mechanism):
            baseline = run_session(design, mechanism, crash_ns, None, 0)
            assert baseline.status == "consistent"
            resumed_cells = 0
            for schedule in schedules_for(outcome, with_search=True):
                result = run_session(
                    design, mechanism, crash_ns, schedule, 3, with_search=True
                )
                assert result.status == "consistent"
                assert (
                    result.recovered.fingerprint()
                    == baseline.recovered.fingerprint()
                )
                resumed_cells += 1 if result.nested_injected else 0
            assert resumed_cells > 0, "no schedule fired at %.1fns" % crash_ns


class TestNeverSilent:
    @given(data=st.data())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_nested_crash_never_silent_or_stuck_on_clean_images(self, data):
        design = data.draw(st.sampled_from(ALL_DESIGNS), label="design")
        mechanism = data.draw(st.sampled_from(MECHANISMS), label="mechanism")
        crash_ns = data.draw(
            st.sampled_from(crash_times_for(design, mechanism)), label="crash_ns"
        )
        outcome = outcome_for(design, mechanism)
        grid = schedules_for(outcome, with_search=True)
        schedule = data.draw(st.sampled_from(grid), label="schedule")
        seed = data.draw(st.integers(min_value=0, max_value=99), label="seed")
        result = run_session(
            design, mechanism, crash_ns, schedule, seed, with_search=True
        )
        # A clean power cut plus a nested crash must end consistent or
        # loudly detected — never silent, never a stuck recovery.
        assert result.status in ("consistent", "detected", "detected-tree"), (
            "design=%s mechanism=%s crash=%.1fns: %s (%s)"
            % (design, mechanism, crash_ns, result.status, result.detail)
        )

    @given(data=st.data())
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_corruption_plus_nested_crash_never_silent_under_bmt(self, data):
        design = data.draw(st.sampled_from(("fca+bmt", "sca+bmt")), label="design")
        fault = data.draw(
            st.sampled_from(("torn-counter", "bitflip-counter", "torn-data")),
            label="fault",
        )
        crash_ns = data.draw(st.sampled_from(crash_times_for(design)), label="crash")
        seed = data.draw(st.integers(min_value=0, max_value=99), label="seed")
        outcome = outcome_for(design)
        injector = CrashInjector(outcome.result)
        image, events = injector.crash_with_faults(
            crash_ns, [make_fault_model(fault)], seed=seed
        )
        grid = schedules_for(outcome, with_search=True)
        schedule = data.draw(st.sampled_from(grid), label="schedule")
        session = make_session(
            outcome, RecoveryFaultPlan(schedule, seed=seed), with_search=True
        )
        result = session.run(image, classifier(outcome))
        assert result.status != "silent", (
            "silent corruption survived the ladder: design=%s fault=%s "
            "crash=%.1fns events=%d" % (design, fault, crash_ns, len(events))
        )


NESTED_SPEC = dict(
    workloads=("array",),
    designs=("fca", "sca+bmt"),
    mechanisms=("undo",),
    faults=("none", "torn-counter"),
    crash_points=4,
    seed=7,
    operations=5,
    with_counter_recovery=True,
    nested_crash=True,
    nested_steps=2,
)


def nested_spec(**overrides):
    merged = dict(NESTED_SPEC)
    merged.update(overrides)
    return CampaignSpec(**merged)


class TestNestedCampaign:
    def test_nested_axis_changes_job_identity(self):
        plain = nested_spec(nested_crash=False).jobs()[0]
        nested = nested_spec().jobs()[0]
        from repro.utils.store import content_key

        assert content_key(plain.document()) != content_key(nested.document())
        assert nested.document()["nested_crash"] is True

    def test_nested_steps_validated(self):
        with pytest.raises(CampaignError):
            nested_spec(nested_steps=0).jobs()

    def test_nested_campaign_recovers_and_stays_loud(self):
        report = CampaignRunner(
            nested_spec(), executor=SweepExecutor(workers=1, cache=None)
        ).run()
        assert report.silent == 0
        assert report.crashed == 0
        assert report.total(Outcome.RECOVERED_NESTED) > 0
        rendered = report.render()
        assert "nrecov" in rendered and "ndet" in rendered
        assert "recovered-after-nested-crash" in rendered
        document = report.as_dict()
        assert set(document["totals"]) == {o.value for o in Outcome}
        json.dumps(document)

    def test_nested_job_is_deterministic(self):
        job = nested_spec(designs=("sca+bmt",), faults=("torn-counter",)).jobs()[0]
        assert run_campaign_job(job) == run_campaign_job(job)

    def test_examples_carry_plan_ladder_and_error_triage(self):
        job = nested_spec(
            designs=("sca",),
            faults=("counter-corruption",),
            with_counter_recovery=False,
        ).jobs()[0]
        result = run_campaign_job(job)
        assert result["nested_schedules"] > 0
        assert result["points"] == result["crash_times"] * (
            result["nested_schedules"] + 1
        )
        for example in result["examples"]:
            assert "ladder" in example
            assert example["ladder"]["path"]
            if example["outcome"] == Outcome.CRASHED.value:
                assert set(example["error"]) >= {"type", "message", "digest"}


class TestJournalDedupe:
    def _run(self, directory, **runner_kwargs):
        executor = SweepExecutor(workers=1, cache=None)
        runner = CampaignRunner(
            nested_spec(nested_crash=False, designs=("sca",), faults=("none",)),
            executor=executor,
            store_dir=str(directory),
            **runner_kwargs
        )
        return runner.run(), executor

    def test_retry_crashed_reruns_only_crashed_jobs(self, tmp_path):
        directory = tmp_path / "campaign"
        first, _ = self._run(directory)
        (path,) = directory.glob("*.json")
        record = json.loads(path.read_text())
        # Forge a stored result claiming recovery crashed somewhere.
        record["outcomes"][Outcome.CRASHED.value] = 1
        path.write_text(json.dumps(record, sort_keys=True))
        resumed, executor = self._run(directory)
        assert executor.jobs_executed == 0  # without the flag: resumed
        assert resumed.crashed == 1
        retried, executor = self._run(directory, retry_crashed=True)
        assert executor.jobs_executed == 1  # with the flag: re-run
        assert retried.as_dict()["results"] == first.as_dict()["results"]
        # The re-run replaced the forged result: a later resume counts
        # the job once, with its fresh tallies.
        assert list(directory.glob("*.json")) == [path]
        again, executor = self._run(directory)
        assert executor.jobs_executed == 0
        assert again.points == first.points > 0
        assert again.as_dict()["results"] == first.as_dict()["results"]


class TestCli:
    def test_nested_crash_cli_smoke(self, tmp_path, capsys):
        from repro.bench.cli import main

        argv = [
            "campaign",
            "--workloads", "array",
            "--designs", "sca",
            "--mechanisms", "undo",
            "--faults", "none",
            "--crash-points", "3",
            "--operations", "5",
            "--nested-crash",
            "--nested-steps", "2",
            "--retry-crashed",
            "--strict",
            "--campaign-dir", str(tmp_path / "campaign"),
            "--json", str(tmp_path / "out.json"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "recovered-after-nested-crash" in out
        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload["spec"]["nested_crash"] is True
        assert payload["totals"][Outcome.RECOVERED_NESTED.value] > 0
        assert payload["totals"][Outcome.SILENT.value] == 0
