"""Unit tests for the sharded memory system and its failure model.

Property coverage (bijection, crash-at-any-instant) lives in
``tests/test_property_sharding.py``; golden equivalence at ``shards=1``
in ``tests/test_refactor_equivalence.py``.  This file pins the concrete
contracts of the coordinator and the cross-shard barrier:

* the facade folds per-shard stats/journals into the singleton
  controller surface (merged journal ordered and injective, stats sums
  matching the per-shard controllers, snapshot round-trip);
* the ``CrossShardBarrier`` writes one well-formed ``CommitRecord`` per
  transaction, in commit order;
* ``durable_commit_prefix`` keeps the whole log when nothing failed and
  never counts commits past the crash instant;
* the shard-subset failure sweep never silently loses a durable-acked
  commit, and the session-level reconciliation
  (:func:`repro.crash.session.run_sharded_session`) reports it.
"""

import pickle

import pytest

from repro.bench.harness import run_workload
from repro.config import KB, fast_config
from repro.crash.session import RecoverySession, run_sharded_session
from repro.crash.sharded import (
    durable_commit_prefix,
    required_prefix_for_core,
    shard_crash_image,
    sweep_shard_failures,
)
from repro.errors import SimulationError
from repro.workloads.base import WorkloadParams
from tests.state_walker import assert_same_state

PARAMS = WorkloadParams(operations=10, footprint_bytes=8 * KB)


@pytest.fixture(scope="module")
def sharded_run():
    return run_workload(
        "sca", "array", config=fast_config(shards=4), params=PARAMS
    )


@pytest.fixture(scope="module")
def result(sharded_run):
    return sharded_run.result


class TestFacade:
    def test_machine_constructs_the_facade_only_when_sharded(self, result):
        from repro.mem.sharded import ShardedMemorySystem

        assert isinstance(result.controller, ShardedMemorySystem)
        assert result.controller.shards == 4
        singleton = run_workload(
            "sca", "array", config=fast_config(shards=1), params=PARAMS
        )
        assert not isinstance(singleton.result.controller, ShardedMemorySystem)

    def test_merged_journal_is_ordered_and_injective(self, result):
        controller = result.controller
        merged = controller.journal
        per_shard = sum(
            len(controller.shard_journal(s).records)
            for s in range(controller.shards)
        )
        assert len(merged.records) == per_shard > 0
        accepts = [r.accept_ns for r in merged.records]
        assert accepts == sorted(accepts)
        ids = [r.entry_id for r in merged.records]
        assert len(set(ids)) == len(ids)

    def test_journal_read_mid_run_sees_later_amendments(self):
        """The global-space journal stays current while the run goes on:
        a write coalescing into a queued entry amends a record without
        adding one, and the next read shows the amendment."""
        from repro.bench.harness import build_traces
        from repro.sim.machine import Machine

        config = fast_config(num_cores=2, shards=2)
        traces, _runs, _layout = build_traces(
            "hash", config, "undo", WorkloadParams(operations=20)
        )
        machine = Machine(config, "sca")
        machine.begin(traces)
        controller = machine.controller
        amended = 0
        for _ in range(400):
            machine.run_events(1)
            merged = controller.journal.records
            for shard, shard_controller in enumerate(controller.controllers):
                source = [len(r.amendments) for r in shard_controller.journal.records]
                translated = controller.shard_journal(shard).records
                assert [len(r.amendments) for r in translated] == source, (
                    "shard %d after %d events" % (shard, machine.events_executed)
                )
                amended += sum(source)
            assert sum(len(r.amendments) for r in merged) == sum(
                len(r.amendments) for c in controller.controllers for r in c.journal.records
            ), "after %d events" % machine.events_executed
        assert amended > 0

    def test_stats_fold_over_the_shards(self, result):
        controller = result.controller
        folded = controller.stats
        shard_stats = [c.stats for c in controller.controllers]
        for field in ("data_writes", "counter_writes", "reads"):
            assert getattr(folded, field) == sum(
                getattr(s, field) for s in shard_stats
            )

    def test_snapshot_round_trip(self, result):
        controller = result.controller
        clone = pickle.loads(pickle.dumps(controller, protocol=4))
        before = [
            (r.entry_id, r.accept_ns, r.address) for r in controller.journal.records
        ]
        after = [(r.entry_id, r.accept_ns, r.address) for r in clone.journal.records]
        assert after == before
        assert len(clone.journal.commits) == len(controller.journal.commits)
        assert_same_state(clone, controller)


class TestCrossShardBarrier:
    def test_one_commit_record_per_transaction(self, sharded_run):
        result = sharded_run.result
        commits = result.controller.journal.commits
        assert len(commits) == len(sharded_run.runs[0].history)
        assert [c.sequence for c in commits] == list(range(len(commits)))
        times = [c.commit_ns for c in commits]
        assert times == sorted(times)

    def test_watermarks_name_real_shards(self, result):
        shards = result.controller.shards
        for commit in result.controller.journal.commits:
            assert commit.shard_watermarks, "commit touched no shard"
            for shard, watermark in commit.shard_watermarks.items():
                assert 0 <= shard < shards
                assert 0.0 <= watermark <= commit.commit_ns

    def test_singleton_records_no_commits(self):
        singleton = run_workload(
            "sca", "array", config=fast_config(shards=1), params=PARAMS
        )
        assert singleton.result.controller.journal.commits == []


class TestDurablePrefix:
    def test_no_failure_keeps_the_whole_acked_log(self, result):
        controller = result.controller
        journals = [
            controller.shard_journal(s) for s in range(controller.shards)
        ]
        commits = controller.journal.commits
        end = result.stats.runtime_ns + 1.0
        prefix = durable_commit_prefix(commits, journals, end)
        assert prefix == commits
        assert required_prefix_for_core(prefix, core=0) == len(commits)

    def test_prefix_never_counts_commits_past_the_crash(self, result):
        controller = result.controller
        journals = [
            controller.shard_journal(s) for s in range(controller.shards)
        ]
        commits = controller.journal.commits
        mid = commits[len(commits) // 2].commit_ns
        prefix = durable_commit_prefix(commits, journals, mid)
        assert all(c.commit_ns <= mid for c in prefix)
        assert len(prefix) < len(commits)

    def test_failed_shard_with_zero_budget_shortens_the_prefix(self, result):
        controller = result.controller
        journals = [
            controller.shard_journal(s) for s in range(controller.shards)
        ]
        commits = controller.journal.commits
        end = result.stats.runtime_ns + 1.0
        all_failed = tuple(range(controller.shards))
        prefix = durable_commit_prefix(
            commits, journals, end, all_failed, adr_budget=0
        )
        assert len(prefix) <= len(commits)

    def test_singleton_run_rejects_shard_failures(self):
        singleton = run_workload(
            "sca", "array", config=fast_config(shards=1), params=PARAMS
        )
        with pytest.raises(SimulationError):
            shard_crash_image(singleton.result, 100.0, (0,))


class TestSubsetFailures:
    def test_sweep_never_loses_a_durable_commit(self, sharded_run):
        report = sweep_shard_failures(
            sharded_run.result, sharded_run.runs[0], max_points=8
        )
        assert report.shards == 4
        assert report.total > 0
        assert report.acked_losses == []
        # Every outcome is accounted: consistent, detected, or a torn
        # uncommitted transaction (documented physics, never a durable
        # loss — see docs/sharding.md).
        for outcome in report.outcomes:
            assert outcome.reconciled

    def test_session_reconciliation(self, sharded_run):
        result = sharded_run.result
        validator = sharded_run.validator(0)

        def classify(recovered, context):
            return validator.classify(recovered, context=context)

        session = RecoverySession(
            result.config, encrypted=result.policy.encrypts
        )
        # Before anything was accepted the failed shard has nothing to
        # lose: the ladder recovers the empty prefix and reconciliation
        # demands nothing.
        outcome = run_sharded_session(
            session, result, 0.0, failed_shards=(1,), classify=classify
        )
        assert outcome.status == "consistent"
        assert "reconcile:durable=0" in outcome.ledger.path
        # At end of run a failed shard may tear transactions whose undo
        # entries it never drained (documented physics) — but the
        # reconciliation step must run, recovery must not crash, and a
        # consistent verdict must cover the durable commit prefix.
        end = result.stats.runtime_ns + 1.0
        outcome = run_sharded_session(
            session, result, end, failed_shards=(1,), classify=classify
        )
        assert outcome.status != "crashed"
        marks = [
            step for step in outcome.ledger.path
            if step.startswith("reconcile:durable=")
        ]
        assert marks
        if outcome.status == "consistent":
            required = int(marks[-1].split("=")[1])
            assert outcome.verdict.matched_prefix >= required


class TestShardImages:
    """Shard crash images hold what NVM holds, so they recover.

    With no shard failed, a shard-subset image is an ordinary crash
    image: every sampled instant recovers to a consistent state.  The
    subset sweep above accepts a detected outcome, which an image of
    wrong bytes (plaintext read as ciphertext, pads seeded with the
    wrong address) also produces; this test does not.
    """

    @pytest.mark.parametrize("design", ["sca", "fca", "co-located-cc", "fca+bmt"])
    def test_images_with_no_failed_shard_recover_consistently(self, design):
        outcome = run_workload(design, "array", config=fast_config(shards=4), params=PARAMS)
        report = sweep_shard_failures(
            outcome.result, outcome.runs[0], subsets=[()], max_points=16
        )
        assert report.total == 16
        broken = [
            "%.3f ns: %s" % (o.crash_ns, "; ".join(o.problems))
            for o in report.outcomes
            if not o.consistent
        ]
        assert not broken, "%s, 4 shards: %d/16 images inconsistent: %s" % (
            design,
            len(broken),
            broken,
        )
