"""Self-healing execution: heartbeats, the executor's stall watchdog,
resilient workload runs, and campaign checkpoint plumbing."""

import dataclasses
import json
import os
import time

import pytest

from repro.bench.cli import main
from repro.bench.harness import build_traces
from repro.bench.parallel import SweepExecutor
from repro.bench.resilience import Heartbeat, run_workload_resilient
from repro.config import fast_config
from repro.crash.campaign import (
    CampaignReport,
    CampaignRunner,
    CampaignSpec,
    Outcome,
    run_campaign_job,
)
from repro.sim.machine import Machine
from repro.sim.snapshot import SnapshotStore, result_fingerprint
from repro.utils.store import content_key
from repro.utils.versioning import code_version
from repro.workloads.base import WorkloadParams


def small_spec(**overrides):
    base = dict(
        workloads=("array",),
        designs=("sca",),
        mechanisms=("undo",),
        faults=("torn-counter",),
        crash_points=4,
        operations=6,
        seed=7,
    )
    base.update(overrides)
    return CampaignSpec(**base)


# Module-level so the fork pool can pickle it.  First attempt beats its
# heartbeat once, drops a sentinel, and hangs; the retry after the
# watchdog fires sees the sentinel and completes.
def _beat_then_hang(item):
    heartbeat_path, sentinel_path = item
    with open(heartbeat_path, "w", encoding="utf-8") as handle:
        handle.write("{}")
    if os.path.exists(sentinel_path):
        return "healed"
    with open(sentinel_path, "w", encoding="utf-8") as handle:
        handle.write("x")
    time.sleep(60)
    return "never"  # pragma: no cover - the watchdog kills us first


class TestHeartbeat:
    def test_beat_publishes_json_beacon(self, tmp_path):
        path = str(tmp_path / "hb.json")
        heartbeat = Heartbeat(path)
        assert heartbeat.beat(progress=3) is True
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["pid"] == os.getpid()
        assert payload["progress"] == 3
        assert heartbeat.beats_written == 1

    def test_beats_are_rate_limited(self, tmp_path):
        heartbeat = Heartbeat(str(tmp_path / "hb.json"), min_interval_s=60.0)
        assert heartbeat.beat() is True
        assert heartbeat.beat() is False  # within the interval
        assert heartbeat.beat(force=True) is True
        assert heartbeat.beats_written == 2

    def test_zero_interval_beats_every_time(self, tmp_path):
        heartbeat = Heartbeat(str(tmp_path / "hb.json"), min_interval_s=0.0)
        assert all(heartbeat.beat() for _ in range(5))
        assert heartbeat.beats_written == 5

    def test_clear_is_idempotent(self, tmp_path):
        heartbeat = Heartbeat(str(tmp_path / "hb.json"))
        heartbeat.beat()
        heartbeat.clear()
        assert not os.path.exists(heartbeat.path)
        heartbeat.clear()  # no file, no error


class TestResilientWorkloadRun:
    def test_uncheckpointed_run_reports_zero_stats(self):
        outcome, stats = run_workload_resilient(
            "sca", "array", params=WorkloadParams(operations=4, seed=3)
        )
        assert outcome.result.stats.transactions > 0
        assert stats == {"restored": 0, "restored_events": 0}

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        params = WorkloadParams(operations=6, seed=5)
        baseline, _stats = run_workload_resilient(
            "sca", "hash", mechanism="undo", params=params
        )
        expected = result_fingerprint(baseline.result)
        # Forge the state a killed worker leaves behind: a mid-run
        # snapshot written with the current code hash.
        config = fast_config()
        traces, _runs, _layout = build_traces("hash", config, "undo", params)
        machine = Machine(config, "sca")
        machine.begin(traces)
        for _ in range(20):
            machine.step()
        checkpoint_dir = str(tmp_path / "ckpt")
        SnapshotStore(checkpoint_dir, code=code_version()).save(machine)
        outcome, stats = run_workload_resilient(
            "sca",
            "hash",
            mechanism="undo",
            params=params,
            checkpoint_dir=checkpoint_dir,
            every_events=50,
        )
        assert stats["restored"] == 1
        assert stats["restored_events"] == 20
        assert result_fingerprint(outcome.result) == expected

    def test_heartbeat_beats_while_running(self, tmp_path):
        heartbeat = Heartbeat(str(tmp_path / "hb.json"), min_interval_s=0.0)
        run_workload_resilient(
            "sca",
            "array",
            params=WorkloadParams(operations=4, seed=3),
            heartbeat=heartbeat,
        )
        assert heartbeat.beats_written > 0
        assert os.path.exists(heartbeat.path)


class TestStallWatchdog:
    def test_stalled_workers_are_recycled_and_retried(self, tmp_path):
        items, heartbeats = [], []
        for n in range(2):
            heartbeats.append(str(tmp_path / ("hb%d.json" % n)))
            items.append((heartbeats[-1], str(tmp_path / ("sentinel%d" % n))))
        executor = SweepExecutor(
            workers=2,
            cache=None,
            job_timeout_s=30.0,
            max_retries=2,
            heartbeat_timeout_s=0.3,
        )
        started = time.monotonic()
        values = executor.map(_beat_then_hang, items, heartbeats=heartbeats)
        assert values == ["healed", "healed"]
        assert executor.stalls == 2
        assert executor.stats()["stalls"] == 2
        # The watchdog fired long before the 30 s job timeout.
        assert time.monotonic() - started < 20.0

    def test_heartbeats_must_align_with_items(self):
        executor = SweepExecutor(workers=1, cache=None)
        with pytest.raises(ValueError):
            executor.map(len, ["ab", "cd"], heartbeats=["only-one.json"])


class TestCampaignCheckpointing:
    def test_runner_checkpoints_then_cleans_up(self, tmp_path):
        checkpoint_dir = tmp_path / "checkpoints"
        report = CampaignRunner(
            small_spec(),
            store_dir=str(tmp_path / "results"),
            checkpoint_dir=str(checkpoint_dir),
            checkpoint_every=40,
        ).run()
        assert report.resilience["saved"] > 0
        assert report.resilience["restored"] == 0
        assert "checkpointing:" in report.render()
        assert "resilience" in report.as_dict()
        # Stored jobs drop their snapshot scaffolding; the stored result
        # is the durable record.
        assert not checkpoint_dir.exists() or os.listdir(str(checkpoint_dir)) == []

    def test_job_resumes_from_partial_snapshot(self, tmp_path):
        job = small_spec().jobs()[0]
        baseline = run_campaign_job(job)
        params = WorkloadParams(
            operations=job.operations,
            seed=job.seed,
            footprint_bytes=job.footprint_bytes,
        )
        config = fast_config()
        traces, _runs, _layout = build_traces(
            job.workload, config, job.mechanism, params
        )
        machine = Machine(config, job.design)
        machine.begin(traces)
        for _ in range(15):
            machine.step()
        job_dir = str(tmp_path / "job")
        SnapshotStore(job_dir, code=code_version()).save(machine)
        resumed = run_campaign_job(
            dataclasses.replace(job, checkpoint_dir=job_dir, checkpoint_every=500)
        )
        assert resumed["resilience"]["restored"] == 1
        assert resumed["outcomes"] == baseline["outcomes"]
        # Checkpoint plumbing is execution-only: same job identity.
        assert resumed["key"] == baseline["key"]

    def test_counter_recovery_flag_changes_key_and_only_upgrades(self):
        job = small_spec().jobs()[0]
        flagged = dataclasses.replace(job, with_counter_recovery=True)
        assert content_key(flagged.document()) != content_key(job.document())
        assert flagged.document()["with_counter_recovery"] is True
        base = run_campaign_job(job)
        searched = run_campaign_job(flagged)
        outcomes = searched["outcomes"]
        assert Outcome.RECOVERED_SEARCH.value in outcomes
        # The search stage can only convert detected points into
        # recovered-by-search; every other bucket is untouched.
        assert (
            outcomes[Outcome.RECOVERED_SEARCH.value]
            + outcomes[Outcome.DETECTED.value]
            == base["outcomes"][Outcome.DETECTED.value]
        )
        for same in (Outcome.RECOVERED, Outcome.SILENT, Outcome.CRASHED):
            assert outcomes[same.value] == base["outcomes"][same.value]


def _silent_report():
    return CampaignReport(
        spec={},
        results=[
            {
                "key": "k",
                "job": {
                    "workload": "array",
                    "design": "sca",
                    "mechanism": "undo",
                    "fault": "torn-data",
                },
                "points": 2,
                "fault_events": 2,
                "outcomes": {
                    Outcome.RECOVERED.value: 1,
                    Outcome.SILENT.value: 1,
                },
                "examples": [],
            }
        ],
    )


class TestCliResilience:
    CAMPAIGN_ARGS = [
        "campaign",
        "--workloads", "array",
        "--designs", "sca",
        "--mechanisms", "undo",
        "--faults", "none",
        "--crash-points", "2",
        "--operations", "4",
    ]

    def test_resume_from_missing_dir_exits_2(self, tmp_path, capsys):
        argv = self.CAMPAIGN_ARGS + ["--resume-from", str(tmp_path / "nope")]
        assert main(argv) == 2
        assert "no such directory" in capsys.readouterr().err

    def test_resume_from_conflicting_campaign_dir_exits_2(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        argv = self.CAMPAIGN_ARGS + [
            "--resume-from", str(tmp_path / "a"),
            "--campaign-dir", str(tmp_path / "b"),
        ]
        assert main(argv) == 2
        assert "disagree" in capsys.readouterr().err

    def test_heartbeat_timeout_without_checkpointing_exits_2(self, capsys):
        # Jobs beat only under checkpointing, so the watchdog would arm
        # nothing; --checkpoint-every alone has no directory either.
        for extra in ([], ["--checkpoint-every", "40"]):
            argv = self.CAMPAIGN_ARGS + ["--heartbeat-timeout", "5"] + extra
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "--heartbeat-timeout needs --checkpoint-every" in err
            assert "--checkpoint-dir" in err

    def test_checkpoint_cadence_below_one_exits_2(self, tmp_path, capsys):
        # Refused before any job runs or any directory is made.
        campaign_dir = tmp_path / "campaign"
        for every in ("0", "-3"):
            argv = self.CAMPAIGN_ARGS + [
                "--campaign-dir", str(campaign_dir),
                "--checkpoint-every", every,
            ]
            assert main(argv) == 2
            assert "--checkpoint-every must be at least 1" in capsys.readouterr().err
            assert not (campaign_dir / "checkpoints").exists()
            assert not campaign_dir.exists()

    def test_resume_from_picks_up_existing_journal(self, tmp_path, capsys):
        campaign_dir = str(tmp_path / "campaign")
        assert main(self.CAMPAIGN_ARGS + ["--campaign-dir", campaign_dir]) == 0
        capsys.readouterr()
        assert main(self.CAMPAIGN_ARGS + ["--resume-from", campaign_dir]) == 0
        assert "resumed: 1 job(s)" in capsys.readouterr().out

    def test_checkpointing_reported_and_scaffolding_consumed(self, tmp_path, capsys):
        campaign_dir = tmp_path / "campaign"
        argv = self.CAMPAIGN_ARGS + [
            "--campaign-dir", str(campaign_dir),
            "--checkpoint-every", "40",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "checkpointing:" in out
        assert "snapshot(s) saved" in out
        checkpoints = campaign_dir / "checkpoints"
        assert not checkpoints.exists() or os.listdir(str(checkpoints)) == []

    def test_strict_turns_silent_corruption_into_failure(self, monkeypatch, capsys):
        import repro.crash.campaign as campaign_mod

        monkeypatch.setattr(
            campaign_mod.CampaignRunner, "run", lambda self: _silent_report()
        )
        assert main(self.CAMPAIGN_ARGS) == 0
        capsys.readouterr()
        assert main(self.CAMPAIGN_ARGS + ["--strict"]) == 1
        captured = capsys.readouterr()
        assert "silent corruption" in captured.err
        assert "--strict" in captured.err
