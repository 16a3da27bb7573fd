"""Tests of the end-to-end benchmark: spans, workloads, digests and CLI.

Run with ``PYTHONPATH=src python3 -m pytest benchmarks/e2e``; the tier-1
suite collects only ``tests/``.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from repro import service  # noqa: E402
from repro.bench import experiments, harness, resilience  # noqa: E402
from repro.bench.parallel import SweepExecutor  # noqa: E402
from repro.crash import injector  # noqa: E402
from repro.faults import base as faults_base  # noqa: E402
from repro.mem import layout  # noqa: E402
from repro.service import scenario, traffic  # noqa: E402

EXPECTED = json.loads((HERE / "expected.json").read_text())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


@pytest.mark.parametrize("span_ns", [0, 7])
def test_self_time_arithmetic_on_nested_tree_with_exception(span_ns):
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    tracer.span_ns = span_ns

    def call(fn):
        # The wrapper's cost outside its own window lands in the caller.
        fn()
        clock.advance(span_ns)

    leaf = tracer.span("leaf", lambda: clock.advance(10))

    def mid_body():
        clock.advance(3)
        call(leaf)
        clock.advance(2)
        call(leaf)

    mid = tracer.span("mid", mid_body)

    def top_body():
        clock.advance(1)
        call(mid)
        clock.advance(4)
        raise ValueError("boom")

    top = tracer.span("top", top_body)
    with pytest.raises(ValueError):
        top()
    s = span_ns
    assert dict(tracer.self_ns) == {"leaf": 20 + 2 * s, "mid": 5 + s, "top": 5 + s}
    assert dict(tracer.calls) == {"leaf": 2, "mid": 1, "top": 1}
    assert dict(tracer.inclusive_ns) == {"leaf": 20 + 2 * s, "mid": 25 + 3 * s, "top": 30 + 4 * s}
    assert sum(tracer.self_ns.values()) == tracer.inclusive_ns["top"]
    assert tracer._stack == []


def test_calibration_measures_a_positive_span_cost():
    assert spans.Tracer().calibrate(calls=2000, rounds=3) > 0


def _declared_originals():
    originals = {}
    for layer, owners in spans.LAYERS.items():
        module = importlib.import_module("repro." + layer)
        for owner, names in owners.items():
            namespace = module if owner is None else vars(module)[owner]
            for name in names:
                originals[(namespace, name)] = vars(namespace)[name]
    return originals


def test_install_wraps_every_binding_and_uninstall_restores_originals():
    originals = _declared_originals()
    build_traces = harness.build_traces
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (namespace, name), original in originals.items():
            assert vars(namespace)[name] is not original, (namespace, name)
        # Functions imported by name are wrapped where they were bound.
        assert resilience.build_traces is harness.build_traces
        assert scenario.generate_operations is traffic.generate_operations
        assert injector.apply_fault_models is faults_base.apply_fault_models
        assert service.run_service_job is scenario.run_service_job
    finally:
        tracer.uninstall()
    for (namespace, name), original in originals.items():
        assert vars(namespace)[name] is original, (namespace, name)
    assert resilience.build_traces is build_traces


def test_install_fails_loudly_on_a_missing_callable():
    originals = _declared_originals()
    layers = dict(spans.LAYERS)
    layers["mem.layout"] = dict(layers["mem.layout"], PlainLayout=("complete_read", "gone"))
    with pytest.raises(spans.SpanError, match=r"repro\.mem\.layout\.PlainLayout\.gone"):
        spans.Tracer().install(layers)
    for (namespace, name), original in originals.items():
        assert vars(namespace)[name] is original


def test_install_fails_loudly_on_an_unwrapped_override():
    class ShadowLayout(layout.PlainLayout):
        def write_line(self, *args, **kwargs):  # pragma: no cover - never called
            return super().write_line(*args, **kwargs)

    try:
        with pytest.raises(spans.SpanError, match="ShadowLayout overrides wrapped method write_line"):
            spans.Tracer().install()
    finally:
        del ShadowLayout
        gc.collect()


CASES = [(name, seed) for name in workloads.WORKLOADS for seed in sorted(EXPECTED[name], key=int)]


@pytest.mark.parametrize("name,seed", CASES)
def test_one_repetition_reproduces_the_recorded_digest(name, seed):
    workload = workloads.WORKLOADS[name](int(seed))
    calls = []
    outputs, tasks = workload.rep(lambda: calls.append(None))
    assert workload.check(outputs) == []
    assert len(tasks) == len(calls) == len(outputs)
    assert all(seconds >= latency > 0 for _, seconds, latency in tasks)
    starts = [start for start, _, _ in tasks]
    assert starts == sorted(starts)
    assert workloads.digest(workload.canonical(outputs)) == EXPECTED[name][seed]


def test_seed_changes_every_digest():
    for name in workloads.WORKLOADS:
        assert len(set(EXPECTED[name].values())) == len(EXPECTED[name]) >= 2, name


def test_fig12_quick_reproduces_fig12_single_core_stats():
    class Recording(SweepExecutor):
        def map_stats(self, jobs):
            self.stats = super().map_stats(jobs)
            return self.stats

    executor = Recording()
    experiments.Fig12SingleCore().run("quick", executor=executor)
    workload = workloads.Fig12Quick(42)
    assert workloads.digest(workload.canonical(executor.stats)) == EXPECTED["fig12-quick"]["42"]


def _copy_benchmark(tmp_path: Path, with_sources: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def _run(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=str(checkout), env=env, stdout=subprocess.PIPE, timeout=300,
    )


def test_workload_names_match_benchmark_json():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tasks_are_scaled_by_the_reference_calls_either_side():
    import run

    nominal = run.NOMINAL_REFERENCE_S
    host = run.HostSpeed()
    # Calls at t=0, 10 and 20: the host runs at nominal speed, then half
    # speed, then nominal again.
    host.starts, host.seconds = [0.0, 10.0, 20.0], [nominal, 2 * nominal, nominal]
    assert host.factor(5.0) == pytest.approx(1 / 1.5)
    assert host.factor(25.0) == pytest.approx(1.0)
    timed = [
        [(1.0, 3.0, 1.0), (2.0, 6.0, 6.0)],
        [(11.0, 3.0, 1.0), (12.0, 6.0, 6.0)],
        [(21.0, 3.0, 1.0), (22.0, 6.0, 6.0)],
    ]
    seconds, latencies = run.scaled(timed, host)
    assert seconds == pytest.approx([3.0 / 1.5, 6.0 / 1.5])
    assert latencies == pytest.approx([1.0 / 1.5, 6.0 / 1.5])


def test_host_sampling_keeps_every_call_and_restores_the_collector():
    import run

    host = run.HostSpeed()
    host.sample()
    host.between()  # too soon after the last call: no new call
    assert len(host.seconds) == len(host.starts) == 1
    assert 0 < host.seconds[0] < 1
    assert gc.isenabled()


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_every_declared_metric(trace, section, capsys):
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Zero seconds: one timed repetition, or one untraced and one traced.
    status = run.main(["--workload", "serve-kv", "--seconds", "0", "--trace", str(trace)])
    assert status == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 2 + trace
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_compare_gates_recovery_latency(tmp_path, capsys):
    import compare

    def record(rep_s, p90):
        metrics = {"rep_s": {"value": rep_s, "unit": "s"}}
        return {"workload": "recovery", "trace": 0, "metrics": metrics,
                "task_ms": {"p50": 8.0, "p90": p90}}

    paths = []
    for name, p90 in (("A.json", 20.0), ("B.json", 26.0)):
        path = tmp_path / name
        records = [record(2.7 + 0.01 * i, p90 + 0.1 * i) for i in range(5)]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        paths.append(str(path))
    assert compare.main(paths) == 1
    rows = {tuple(line.split()[:2]): line for line in capsys.readouterr().out.splitlines()}
    assert "within" in rows[("recovery", "rep_s")]
    assert "within" in rows[("recovery", "task_ms_p50")]
    assert "worse" in rows[("recovery", "task_ms_p90")]


def test_run_fails_without_sources_and_prints_no_result(tmp_path):
    completed = _run(_copy_benchmark(tmp_path, with_sources=False), "--workload", "serve-kv")
    assert completed.returncode != 0
    assert b'"correct"' not in completed.stdout


def test_run_fails_on_a_wrong_recorded_digest(tmp_path):
    checkout = _copy_benchmark(tmp_path, with_sources=True)
    path = checkout / "benchmarks" / "e2e" / "expected.json"
    expected = json.loads(path.read_text())
    expected["serve-kv"]["42"] = "0" * 64
    path.write_text(json.dumps(expected))
    completed = _run(checkout, "--workload", "serve-kv")
    assert completed.returncode == 1
    result = json.loads(completed.stdout.decode().splitlines()[-1])
    assert result["correct"] is False
    # The warm-up fails, so no repetition is timed.
    assert result["failed"] == result["attempted"] == 1
