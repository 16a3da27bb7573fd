"""Service scenarios: crash/recover/SLO reports, resume, CLI, determinism.

Covers the PR's two determinism satellites end to end: a fixed seed
produces a bit-identical operation stream, latency percentiles and SLO
report across repeated runs *and* across a snapshot/resume of the
underlying simulation.
"""

import json
import logging

import pytest

from repro.bench.cli import main as cli_main
from repro.bench.parallel import SweepExecutor
from repro.config import fast_config
from repro.errors import ServiceError
from repro.service import (
    ServiceJob,
    ServiceRunner,
    ServiceValidator,
    ServiceWorkload,
    TrafficSpec,
    attribute_latencies,
    generate_operations,
    run_service_job,
    summarize_tenants,
)
from repro.sim.machine import Machine
from repro.sim.snapshot import (
    SnapshotStore,
    result_fingerprint,
    run_with_checkpoints,
)

SPEC = TrafficSpec(tenants=2, operations=60, seed=21, keyspace=32)


class TestRunServiceJob:
    def test_crash_free_report_shape(self):
        document = run_service_job(
            ServiceJob(design="sca", traffic=SPEC, crash=False)
        )
        assert document["status"] == "crash-free"
        assert document["crash"] is None
        assert document["transactions"] > 0
        assert len(document["tenants"]) == SPEC.tenants
        totals = document["totals"]
        assert totals["ops"] == SPEC.operations
        assert totals["acked"] == SPEC.operations
        assert totals["latency"]["count"] == SPEC.operations
        assert totals["latency"]["p50_ns"] <= totals["latency"]["p99_ns"]

    def test_crash_recovers_consistent_without_acked_loss(self):
        document = run_service_job(ServiceJob(design="sca", traffic=SPEC))
        assert document["status"] == "consistent"
        assert document["consistent"] is True
        crash = document["crash"]
        assert 0 < crash["crash_ns"] < document["runtime_ns"]
        assert crash["silent"] == []
        totals = document["totals"]
        assert totals["acked_lost"] == 0
        assert 0 < totals["acked"] < totals["ops"]
        for tenant in document["tenants"]:
            durability = tenant["durability"]
            assert durability["consistent"] is True
            assert durability["recovered_prefix"] is not None

    def test_unsafe_design_loses_acknowledged_writes(self):
        document = run_service_job(ServiceJob(design="unsafe", traffic=SPEC))
        assert document["status"] in ("detected", "silent")
        assert document["consistent"] is False
        assert document["totals"]["acked_lost"] > 0

    def test_crash_composes_with_fault_model(self):
        document = run_service_job(
            ServiceJob(design="sca", traffic=SPEC, fault="bitflip-data")
        )
        # A scribbled data line is at worst *detected* by SCA's
        # decryption/checksum channels — never silently consistent
        # with lost acks on a crash-consistent design.
        assert document["status"] in ("consistent", "detected")
        assert document["crash"]["fault_events"]

    def test_crash_composes_with_nested_crash_plan(self):
        document = run_service_job(
            ServiceJob(design="sca", traffic=SPEC, nested_crash=True)
        )
        assert document["status"] == "consistent"
        assert document["totals"]["acked_lost"] == 0

    def test_bad_crash_fraction_is_loud(self):
        with pytest.raises(ServiceError):
            run_service_job(
                ServiceJob(design="sca", traffic=SPEC, crash_fraction=1.5)
            )

    @pytest.mark.parametrize(
        "field",
        [
            {"design": "nonsense"},
            {"mechanism": "nonsense"},
            {"crash_fraction": 0.0},
            {"fault": "nonsense"},
            {"fault": "dropped-adr", "fault_params": (("nonsense", 1),)},
        ],
    )
    def test_bad_job_is_refused_on_construction(self, field):
        with pytest.raises(ServiceError):
            ServiceJob(**{"design": "sca", "traffic": SPEC, **field})


class TestServiceRunner:
    def test_journal_resume_skips_finished_designs(self, tmp_path):
        jobs = [
            ServiceJob(design=design, traffic=SPEC) for design in ("sca", "fca")
        ]
        first = ServiceRunner(jobs, store_dir=str(tmp_path)).run()
        assert first.resumed_jobs == 0
        assert len(first.results) == 2
        second = ServiceRunner(jobs, store_dir=str(tmp_path)).run()
        assert second.resumed_jobs == 2
        assert [r["key"] for r in second.results] == [
            r["key"] for r in first.results
        ]

    def test_damaged_result_file_is_quarantined(self, tmp_path, caplog):
        jobs = [
            ServiceJob(design=design, traffic=SPEC) for design in ("sca", "fca")
        ]
        first = ServiceRunner(jobs, store_dir=str(tmp_path)).run()
        truncated, garbled = sorted(tmp_path.glob("*.json"))
        truncated.write_text(truncated.read_text()[:40])
        garbled.write_text('{"key": "k", "totals": null}')
        executor = SweepExecutor()
        with caplog.at_level(logging.WARNING, logger="repro.utils.store"):
            report = ServiceRunner(
                jobs, executor=executor, store_dir=str(tmp_path)
            ).run()
        assert executor.jobs_executed == 2
        assert report.resumed_jobs == 0
        assert report.quarantined == report.as_dict()["quarantined"] == 2
        assert "2 damaged result file(s) quarantined" in report.render()
        assert sum("corrupt file" in record.message for record in caplog.records) == 2
        assert len(list(tmp_path.glob("*.json.corrupt"))) == 2
        assert report.results == first.results

    def test_report_renders_every_design_and_tenant(self):
        report = ServiceRunner(
            [ServiceJob(design="sca", traffic=SPEC)]
        ).run()
        rendered = report.render()
        assert "sca" in rendered
        assert "p99_us" in rendered
        assert rendered.count("\nsca ") >= SPEC.tenants
        assert report.durability_violations == 0

    def test_empty_runner_is_rejected(self):
        with pytest.raises(ServiceError):
            ServiceRunner([])


class TestServeCLI:
    def test_acceptance_command_exits_zero_with_report(self, tmp_path, capsys):
        json_path = tmp_path / "slo.json"
        code = cli_main(
            [
                "serve",
                "--designs", "sca,fca",
                "--tenants", "2",
                "--ops", "40",
                "--crash-mid-traffic",
                "--json", str(json_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sca" in out and "fca" in out
        document = json.loads(json_path.read_text())
        assert len(document["results"]) == 2
        for result in document["results"]:
            assert result["totals"]["acked_lost"] == 0
            assert result["crash"]["silent"] == []

    def test_unknown_design_exits_two(self, capsys):
        code = cli_main(["serve", "--designs", "nonsense"])
        assert code == 2
        assert "nonsense" in capsys.readouterr().err

    def test_bad_job_is_refused_before_any_runs(self, tmp_path, capsys):
        serve_dir = tmp_path / "serve"
        argv = ["serve", "--tenants", "2", "--ops", "20", "--serve-dir", str(serve_dir)]
        assert cli_main(argv + ["--designs", "sca,nonsense"]) == 2
        assert "nonsense" in capsys.readouterr().err
        assert not serve_dir.exists()

    def test_more_than_one_mechanism_exits_two(self, tmp_path, capsys):
        serve_dir = tmp_path / "serve"
        with pytest.raises(SystemExit) as exit:
            cli_main(
                ["serve", "--designs", "sca", "--mechanisms", "redo,undo",
                 "--serve-dir", str(serve_dir)]
            )
        assert exit.value.code == 2
        assert "--mechanisms" in capsys.readouterr().err
        assert not serve_dir.exists()


class TestDeterminism:
    def test_same_seed_bit_identical_report(self):
        job = ServiceJob(design="sca", traffic=SPEC)
        first = run_service_job(job)
        second = run_service_job(job)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_slo_report_survives_snapshot_resume(self, tmp_path):
        """Cut the simulation mid-run, snapshot to disk, resume in a
        fresh machine: the finished result — and the whole SLO report
        derived from it — is bit-identical to the uninterrupted run."""
        config = fast_config()
        spec = TrafficSpec(tenants=2, operations=40, seed=13, keyspace=16)
        operations = generate_operations(spec)

        def build_run():
            workload = ServiceWorkload(config, spec.tenants)
            workload.execute(generate_operations(spec))
            return workload.build_run(operations)

        def slo_document(run, result):
            timings = attribute_latencies(run, result.txn_end_times[0], spec)
            slos = summarize_tenants(spec, timings)
            return [slo.as_dict(result.stats.runtime_ns) for slo in slos]

        baseline_run = build_run()
        baseline = Machine(config, "sca")
        baseline_result = baseline.run([baseline_run.trace])
        expected_fingerprint = result_fingerprint(baseline_result)
        expected_slos = slo_document(baseline_run, baseline_result)
        cut = baseline.events_executed // 2
        assert cut >= 1

        resumed_run = build_run()
        partial = Machine(config, "sca")
        partial.begin([resumed_run.trace])
        for _ in range(cut):
            partial.step()
        store = SnapshotStore(str(tmp_path), code="svc")
        store.save(partial)
        resumed = Machine(config, "sca")
        result, stats = run_with_checkpoints(
            resumed, [resumed_run.trace], store=store
        )
        assert stats["restored"] == 1
        assert result_fingerprint(result) == expected_fingerprint
        assert slo_document(resumed_run, result) == expected_slos

    def test_validator_verdict_is_seed_stable(self):
        """The crash triage (not just timing) is deterministic."""
        job = ServiceJob(design="fca", traffic=SPEC, crash_fraction=0.3)
        first = run_service_job(job)
        second = run_service_job(job)
        assert first["crash"] == second["crash"]
        assert first["stream_fingerprint"] == second["stream_fingerprint"]


class TestValidatorMisuse:
    def test_txn_end_times_length_checked(self):
        workload = ServiceWorkload(fast_config(), tenants=2)
        spec = TrafficSpec(tenants=2, operations=10, seed=1, keyspace=16)
        workload.execute(generate_operations(spec))
        run = workload.build_run(generate_operations(spec))
        with pytest.raises(ServiceError):
            ServiceValidator(run, txn_end_times=[1.0, 2.0])
