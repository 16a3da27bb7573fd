"""Tests for the benchmark harness and reporting."""

import dataclasses

import pytest

from repro.bench import harness
from repro.bench.harness import build_traces, run_workload, run_workload_stats
from repro.bench.report import ExperimentResult, Series
from repro.config import KB, MB, bench_config, fast_config
from repro.workloads.base import WorkloadParams

PARAMS = WorkloadParams(operations=8, footprint_bytes=8 * KB)


class TestHarness:
    def test_run_workload_returns_stats_and_runs(self):
        outcome = run_workload("sca", "array", params=PARAMS)
        assert outcome.design == "sca"
        assert outcome.workload == "array"
        assert outcome.stats.runtime_ns > 0
        assert len(outcome.runs) == 1

    def test_validator_accepts_crash_free_final_state(self):
        from repro.crash.injector import CrashInjector
        from repro.crash.recovery import RecoveryManager

        outcome = run_workload("sca", "array", params=PARAMS)
        injector = CrashInjector(outcome.result)
        recovered = RecoveryManager(outcome.result.config.encryption).recover(
            injector.crash_at(outcome.stats.runtime_ns + 1e9)
        )
        assert outcome.validator(0)(recovered) == []

    def test_multicore_builds_one_trace_per_core(self):
        config = fast_config(num_cores=2)
        traces, runs, _layout = build_traces("array", config, params=PARAMS)
        assert len(traces) == 2
        assert len(runs) == 2


class TestStatsPath:
    """``run_workload_stats``: timing-only runs over memoized traces."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        harness._TRACE_MEMO.clear()
        yield
        harness._TRACE_MEMO.clear()

    @staticmethod
    def traces(config):
        return harness._memoized_traces("array", config, "undo", PARAMS)

    @pytest.mark.parametrize(
        "variant",
        [
            bench_config().with_nvm(read_latency_scale=0.25),
            bench_config().with_nvm(write_latency_scale=10.0),
            bench_config().with_counter_cache(2 * KB),
        ],
        ids=["read-latency", "write-latency", "counter-cache"],
    )
    def test_fields_build_traces_ignores_share_one_set(self, variant):
        # Figure 17's latency points and Figure 15's cache sizes.
        assert self.traces(variant) is self.traces(bench_config())

    @pytest.mark.parametrize(
        "variant",
        [
            bench_config().scaled(memory_size_bytes=64 * MB),
            bench_config().with_nvm(num_banks=4),
            bench_config().scaled(num_cores=2),
            bench_config(functional=False),
        ],
        ids=["memory-size", "banks", "cores", "functional"],
    )
    def test_fields_build_traces_reads_build_a_fresh_set(self, variant):
        shared = set(map(id, self.traces(bench_config())))
        assert not shared & set(map(id, self.traces(variant)))

    @pytest.mark.parametrize("design", ["sca", "fca+bmt"])
    @pytest.mark.parametrize("cores, shards", [(1, 1), (2, 2)], ids=["1core", "2shards"])
    def test_functional_config_gives_the_functional_stats(self, design, cores, shards):
        config = fast_config(num_cores=cores, shards=shards)
        expected = run_workload(design, "array", config=config, params=PARAMS).stats
        actual = run_workload_stats(design, "array", config=config, params=PARAMS)
        assert dataclasses.asdict(actual) == dataclasses.asdict(expected)
        # ... from a timing-only run: its traces carry no payloads.
        ((traces, _runs, _layout),) = harness._TRACE_MEMO.values()
        assert all(payload is None for trace in traces for payload in trace.payloads)


class TestReport:
    def _result(self):
        series = Series("sca", {"array": 1.1, "queue": 1.2})
        return ExperimentResult(
            experiment="figX",
            title="Test figure",
            series=[series],
            claims={"holds": True, "fails": False},
            notes=["a note"],
        )

    def test_labels_union(self):
        result = self._result()
        assert result.labels() == ["array", "queue"]

    def test_series_lookup(self):
        result = self._result()
        assert result.series_by_name("sca").points["array"] == 1.1
        with pytest.raises(KeyError):
            result.series_by_name("nope")

    def test_render_contains_everything(self):
        text = self._result().render()
        assert "Test figure" in text
        assert "1.100" in text
        assert "claim [ok]: holds" in text
        assert "claim [MISS]: fails" in text
        assert "note: a note" in text

    def test_missing_cells_rendered_as_dash(self):
        result = ExperimentResult(
            experiment="e",
            title="t",
            series=[Series("a", {"x": 1.0}), Series("b", {"y": 2.0})],
        )
        assert "-" in result.render()


class TestCli:
    def test_list_mode(self, capsys):
        from repro.bench.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out and "table2" in out

    def test_table2_runs_clean(self, capsys):
        from repro.bench.cli import main

        assert main(["table2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_unknown_experiment_errors(self, capsys):
        from repro.bench.cli import main

        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_experiment_leaves_the_cache_alone(self, tmp_path, capsys):
        from repro.bench.cli import main

        entry = tmp_path / ("0" * 64 + ".json")
        entry.write_text("{}", encoding="utf-8")
        assert main(["fig99", "--clear-cache", "--cache-dir", str(tmp_path)]) == 2
        assert "cleared" not in capsys.readouterr().out
        assert entry.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["designs", "--crash-points", "5"],
            ["table2", "--tenants", "3"],
            ["serve", "--designs", "sca", "--tenants", "2", "--ops", "20", "--crash-points", "3"],
            ["campaign", "--designs", "sca", "--faults", "none", "--crash-points", "2",
             "--operations", "4", "--tenants", "2"],
        ],
    )
    def test_flag_of_another_command_exits_2(self, argv, capsys):
        from repro.bench.cli import main

        with pytest.raises(SystemExit) as exit:
            main(argv)
        assert exit.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_no_command_runs_all(self, monkeypatch):
        from repro.bench import cli

        ran = []
        monkeypatch.setattr(
            cli, "_run_figures", lambda args: ran.append((args.command, args.scale)) or 0
        )
        assert cli.main([]) == 0
        assert cli.main(["--scale", "full"]) == 0
        assert ran == [("all", "quick"), ("all", "full")]


class TestJsonExport:
    def test_result_as_dict(self):
        result = ExperimentResult(
            experiment="e",
            title="t",
            series=[Series("a", {"x": 1.0})],
            claims={"c": True},
            notes=["n"],
        )
        data = result.as_dict()
        assert data["series"]["a"]["x"] == 1.0
        assert data["claims"] == {"c": True}

    def test_cli_json_file(self, tmp_path, capsys):
        import json

        from repro.bench.cli import main

        path = tmp_path / "out.json"
        assert main(["table2", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["results"][0]["experiment"] == "table2"
        assert data["results"][0]["scale"] == "quick"

    def test_cli_json_stdout(self, capsys):
        from repro.bench.cli import main

        assert main(["table2", "--json", "-"]) == 0
        out = capsys.readouterr().out
        assert '"experiment": "table2"' in out
