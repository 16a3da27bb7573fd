"""The crash-campaign engine: determinism, resume, triage classification."""

import json
import logging
import shutil

import pytest

from repro.bench.parallel import SweepExecutor
from repro.crash.campaign import (
    CampaignJob,
    CampaignRunner,
    CampaignSpec,
    Outcome,
    run_campaign_job,
)
from repro.errors import CampaignError
from repro.faults.registry import DEFAULT_SUITE
from repro.utils.store import content_key

SPEC = dict(
    workloads=("array",),
    designs=("sca",),
    mechanisms=("undo",),
    faults=("none", "torn-data", "dropped-adr"),
    crash_points=6,
    seed=7,
    operations=6,
)


def small_spec(**overrides):
    merged = dict(SPEC)
    merged.update(overrides)
    return CampaignSpec(**merged)


class TestJobs:
    def test_cross_product_order_is_deterministic(self):
        jobs = small_spec().jobs()
        assert len(jobs) == 3
        assert [job.fault for job in jobs] == ["none", "torn-data", "dropped-adr"]
        assert small_spec().jobs() == jobs

    def test_job_key_stable_and_seed_sensitive(self):
        job = small_spec().jobs()[0]
        assert content_key(job.document()) == content_key(job.document())
        reseeded = CampaignJob(**{**job.document(), "seed": 8, "fault_params": ()})
        assert content_key(reseeded.document()) != content_key(job.document())

    def test_fault_spec_mappings_accepted(self):
        spec = small_spec(faults=({"model": "dropped-adr", "budget": 2},))
        (job,) = spec.jobs()
        assert job.fault == "dropped-adr"
        assert dict(job.fault_params) == {"budget": 2}


class TestSpecValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"workloads": ("no-such-workload",)},
            {"designs": ("no-such-design",)},
            {"mechanisms": ("no-such-mechanism",)},
            {"faults": ("no-such-fault",)},
            {"faults": ({"budget": 1},)},  # missing model name
            {"crash_points": 0},
            {"workloads": ()},
        ],
    )
    def test_bad_axis_rejected_before_execution(self, overrides):
        with pytest.raises(CampaignError):
            small_spec(**overrides).jobs()

    def test_bad_spec_refused_on_construction(self):
        with pytest.raises(CampaignError, match="crash point"):
            small_spec(crash_points=0)


class TestDeterminism:
    def test_same_seed_same_outcome_table(self):
        first = CampaignRunner(small_spec()).run()
        second = CampaignRunner(small_spec()).run()
        assert first.as_dict() == second.as_dict()

    def test_every_crash_point_classified(self):
        report = CampaignRunner(small_spec()).run()
        for result in report.results:
            assert sum(result["outcomes"].values()) == result["points"] > 0


def result_files(directory):
    return sorted(directory.glob("*.json"))


class TestResume:
    def test_resume_runs_only_missing_jobs(self, tmp_path):
        full_dir = tmp_path / "full"
        full = CampaignRunner(small_spec(), store_dir=str(full_dir)).run()
        stored = result_files(full_dir)
        assert len(stored) == 3
        # A campaign killed after two jobs left two result files.
        partial_dir = tmp_path / "partial"
        partial_dir.mkdir()
        for path in stored[:2]:
            shutil.copy(str(path), str(partial_dir / path.name))
        executor = SweepExecutor()
        resumed = CampaignRunner(
            small_spec(), executor=executor, store_dir=str(partial_dir)
        ).run()
        assert executor.jobs_executed == 1
        assert resumed.resumed_jobs == 2
        assert resumed.as_dict()["results"] == full.as_dict()["results"]

    def test_truncated_result_file_reruns_that_job(self, tmp_path):
        directory = tmp_path / "campaign"
        CampaignRunner(small_spec(), store_dir=str(directory)).run()
        path = result_files(directory)[-1]
        text = path.read_text()
        # Simulate a result torn by a writer that skipped the atomic publish.
        path.write_text(text[: len(text) // 2])
        executor = SweepExecutor()
        report = CampaignRunner(
            small_spec(), executor=executor, store_dir=str(directory)
        ).run()
        assert executor.jobs_executed == 1
        assert report.resumed_jobs == 2
        assert path.read_text() == text

    def test_damaged_result_file_is_quarantined(self, tmp_path, caplog):
        directory = tmp_path / "campaign"
        first = CampaignRunner(small_spec(), store_dir=str(directory)).run()
        paths = result_files(directory)
        damage = {paths[0]: "{\"key\": ", paths[1]: '{"key": "k", "outcomes": 7}'}
        for path, damaged in damage.items():
            path.write_text(damaged)
        executor = SweepExecutor()
        with caplog.at_level(logging.WARNING, logger="repro.utils.store"):
            report = CampaignRunner(
                small_spec(), executor=executor, store_dir=str(directory)
            ).run()
        assert executor.jobs_executed == 2
        assert report.quarantined == 2
        assert report.as_dict()["quarantined"] == 2
        assert "2 damaged result file(s) quarantined" in report.render()
        assert sum("corrupt file" in record.message for record in caplog.records) == 2
        # The damage moved aside to *.corrupt; the re-run results took
        # its place and equal the first run's.
        for path, damaged in damage.items():
            assert (directory / (path.name + ".corrupt")).read_text() == damaged
            json.loads(path.read_text())
        assert report.as_dict()["results"] == first.as_dict()["results"]

    def test_seed_change_invalidates_journal(self, tmp_path):
        directory = str(tmp_path / "campaign")
        CampaignRunner(small_spec(), store_dir=directory).run()
        executor = SweepExecutor()
        report = CampaignRunner(
            small_spec(seed=8), executor=executor, store_dir=directory
        ).run()
        assert report.resumed_jobs == 0
        assert executor.jobs_executed == 3


class TestClassification:
    def test_full_suite_never_crashes_undo_recovery_on_sca(self):
        report = CampaignRunner(
            small_spec(faults=tuple(DEFAULT_SUITE), crash_points=6)
        ).run()
        assert report.crashed == 0
        assert report.total(Outcome.RECOVERED) > 0

    def test_clean_power_cut_always_recovers_on_sca(self):
        result = run_campaign_job(small_spec(faults=("none",)).jobs()[0])
        assert result["outcomes"][Outcome.DETECTED.value] == 0
        assert result["outcomes"][Outcome.SILENT.value] == 0
        assert result["outcomes"][Outcome.CRASHED.value] == 0

    def test_report_renders_table_and_totals(self):
        report = CampaignRunner(small_spec()).run()
        rendered = report.render()
        assert "crash campaign" in rendered
        assert "totals:" in rendered
        assert "torn-data" in rendered
        document = report.as_dict()
        assert set(document["totals"]) == {o.value for o in Outcome}
        json.dumps(document)  # JSON-ready throughout


class TestCli:
    def test_campaign_cli_runs_and_resumes(self, tmp_path, capsys):
        from repro.bench.cli import main

        argv = [
            "campaign",
            "--workloads", "array",
            "--designs", "sca",
            "--mechanisms", "undo",
            "--faults", "none,torn-counter",
            "--crash-points", "4",
            "--operations", "6",
            "--campaign-dir", str(tmp_path / "campaign"),
            "--json", str(tmp_path / "out.json"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "crash campaign" in first
        assert "executor[" in first
        assert (tmp_path / "out.json").exists()
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "resumed: 2 job(s)" in second

    def test_campaign_cli_rejects_bad_spec(self, tmp_path, capsys):
        from repro.bench.cli import main

        assert main(["campaign", "--designs", "warp-drive"]) == 2
        assert "warp-drive" in capsys.readouterr().err
