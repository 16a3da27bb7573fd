"""End-to-end benchmark: four seeded user paths, timed whole and by layer.

Usage, from the root of the repository::

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace 0|1] [--json OUT]

With ``--workload`` the workload runs in this interpreter: set-up, one
warm-up repetition, then timed repetitions for ``--seconds`` seconds.
Without it every workload runs in turn, each in its own interpreter.
Every metric is printed by name with its unit, and the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with the public entry points of the ``repro``
modules wrapped (see ``spans.py``), and reports each layer's self time
and calls per repetition instead, plus simulated work counters and the
tracing overhead.

The speed of a shared host swings by half, for milliseconds to minutes
at a time, with its neighbours' load, which no median over one run can
average out.  So every task's host time is scaled by the speed a fixed
reference kernel showed right before and right after the task
(:class:`HostSpeed`), and the end-to-end times take each task's median
over the repetitions; the README gives the numbers.

Every repetition's outputs are hashed and must equal the warm-up's; for
the seeds recorded in ``expected.json`` they must also equal the
recorded digest.  The exit status is non-zero when any repetition failed
or any output differed.  ``--json OUT`` appends one detailed record per
workload run to ``OUT`` (one JSON object per line), the input of
``compare.py``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("fig12-quick", "multicore-sharded", "serve-kv", "recovery")
#: Fresh interpreters whose set-up time ``setup_s`` takes the median of.
SETUP_SAMPLES = 3
#: Seconds of timed repetitions; BENCHMARK.json's ``run_seconds``.
DEFAULT_SECONDS = 20.0
#: Seconds one :func:`reference_kernel` call takes on the nominal host,
#: about its median call on the baseline host of the README.  Host times
#: are reported in seconds on the nominal host.
NOMINAL_REFERENCE_S = 0.002
#: Least seconds between two reference calls made between tasks.
SAMPLE_INTERVAL_S = 0.1
#: Reference calls right after set-up; their mean scales ``setup_s``.
SETUP_REFERENCE_CALLS = 10


class _Link:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, next_link: "_Link") -> None:
        self.key = key
        self.value = value
        self.next = next_link


def reference_kernel(n: int = 3000) -> int:
    """Fixed pure-Python work: arithmetic, dict updates, allocation.

    It lives in the benchmark, so no change to ``repro`` moves its time;
    only the host's speed does.
    """
    table = {}
    x = 12345
    head = None
    total = 0
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x % 512
        table[key] = table.get(key, 0) + i
        head = _Link(key, i, head)
        total += len(str(key))
    while head is not None:
        total += head.value & 3
        head = head.next
    return total + len(table)


class HostSpeed:
    """Timed :func:`reference_kernel` calls spread over one run.

    The runner calls :meth:`sample` before every repetition and after
    the run, and workloads call :meth:`between` after every task, so a
    task always has a sample just before and just after it.
    """

    def __init__(self) -> None:
        #: ``perf_counter`` at the start of each call, in order.
        self.starts: List[float] = []
        self.seconds: List[float] = []

    def sample(self) -> None:
        """Time one kernel call."""
        # With the collector off the workload's heap cannot slow the kernel.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_kernel()
            self.seconds.append(time.perf_counter() - start)
            self.starts.append(start)
        finally:
            if enabled:
                gc.enable()

    def between(self) -> None:
        """Sample when :data:`SAMPLE_INTERVAL_S` passed since the last call."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= SAMPLE_INTERVAL_S:
            self.sample()

    def factor(self, at: float) -> float:
        """Nominal over this host's seconds, from the calls either side of ``at``."""
        index = bisect.bisect_left(self.starts, at)
        return NOMINAL_REFERENCE_S / statistics.fmean(self.seconds[max(index - 1, 0):index + 1])


def scaled(timed, host: HostSpeed) -> Tuple[List[float], List[float]]:
    """Each task's seconds and latency: median over repetitions, scaled.

    ``timed`` holds one list of ``(start, seconds, latency)`` tasks per
    repetition, the same tasks in the same order.
    """
    seconds, latencies = [], []
    for runs in zip(*timed):
        factors = [host.factor(start) for start, _, _ in runs]
        seconds.append(statistics.median(
            task * factor for (_, task, _), factor in zip(runs, factors)))
        latencies.append(statistics.median(
            latency * factor for (_, _, latency), factor in zip(runs, factors)))
    return seconds, latencies


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _quantile(samples, fraction: float) -> float:
    """Inclusive-interpolated quantile; continuous in the samples."""
    if len(samples) == 1:
        return samples[0]
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def _describe(samples) -> str:
    ordered = sorted(samples)
    if len(ordered) < 2:
        return "n=%d" % len(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    return "n=%d min %.4g q1 %.4g q3 %.4g max %.4g" % (
        len(ordered), ordered[0], q1, q3, ordered[-1]
    )


def _setup_in_fresh_interpreter(name: str, seed: int) -> float:
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=str(ROOT), stdout=subprocess.PIPE, check=True, timeout=120,
    )
    return float(completed.stdout.decode().split()[-1])


class Runner:
    """Runs one workload's repetitions and checks each one's outputs."""

    def __init__(self, workload, expected_digest, host: HostSpeed) -> None:
        self.workload = workload
        self.expected_digest = expected_digest
        self.host = host
        self.reference = None
        self.attempted = 0
        self.failed = 0

    def rep(self):
        """One repetition: ``(wall_s, tasks)``, or None if it failed."""
        from workloads import digest

        self.attempted += 1
        # Every repetition starts from a collected heap, so neither its
        # time nor the peak RSS depends on garbage the previous one left.
        gc.collect()
        self.host.sample()
        start = time.perf_counter()
        try:
            outputs, tasks = self.workload.rep(self.host.between)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        wall = time.perf_counter() - start
        found = digest(self.workload.canonical(outputs))
        problems = self.workload.check(outputs)
        if self.reference is None:
            self.reference = found
        if found != self.reference:
            problems.append("output digest %s differs from the warm-up's %s" % (found, self.reference))
        if self.expected_digest is not None and found != self.expected_digest:
            problems.append("output digest %s differs from expected.json's %s" % (found, self.expected_digest))
        if problems:
            for problem in problems:
                print("FAILED repetition %d: %s" % (self.attempted, problem), file=sys.stderr)
            self.failed += 1
            return None
        return wall, tasks

    def reps(self, seconds: float):
        """Repetitions until the next would end past ``seconds``; at least one.

        Stops at the first failed repetition.
        """
        timed = []
        deadline = time.perf_counter() + seconds
        while True:
            outcome = self.rep()
            if outcome is None:
                break
            timed.append(outcome)
            if time.perf_counter() + outcome[0] > deadline:
                break
        self.host.sample()
        return timed


def end_to_end(runner: Runner, seconds: float, setup_s: float, record: dict) -> dict:
    timed = runner.reps(seconds)
    walls = [wall for wall, _ in timed]
    print("wall_s samples (raw): %s" % _describe(walls))
    if not timed:
        return {}
    tasks_s, latencies_s = scaled([tasks for _, tasks in timed], runner.host)
    latencies_ms = [latency * 1e3 for latency in latencies_s]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference_ms = [s * 1e3 for s in runner.host.seconds]
    # Latency of the workload's unit of output, each unit's scaled median
    # in the run.  Not in BENCHMARK.json, which declares only metrics
    # every workload reports; compare.py gates it on ``recovery``.
    record.update(walls=walls, reference_ms_median=statistics.median(reference_ms))
    record["task_ms"] = {
        "task": runner.workload.task,
        "n": len(latencies_ms),
        "p50": _quantile(latencies_ms, 0.50),
        "p90": _quantile(latencies_ms, 0.90),
    }
    print("reference kernel samples (raw ms, nominal %g): %s"
          % (NOMINAL_REFERENCE_S * 1e3, _describe(reference_ms)))
    print("task latency, one %(task)s (median of each, scaled): "
          "n=%(n)d p50 %(p50).4g ms p90 %(p90).4g ms" % record["task_ms"])
    rep_s = sum(tasks_s)
    return {
        "rep_s": _metric(rep_s, "s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def per_layer(runner: Runner, seconds: float) -> dict:
    import spans

    tracer = spans.Tracer()
    span_ns = tracer.calibrate()
    untraced = runner.reps(seconds / 2)
    if not untraced:
        return {}
    tracer.install()
    try:
        tracer.reset()
        traced = runner.reps(seconds / 2)
    finally:
        tracer.uninstall()
    if not traced:
        return {}
    reps = len(traced)
    # Spans run only inside tasks; the reference calls between them are
    # the benchmark's own.
    traced_task_ns = sum(seconds for _, tasks in traced for _, seconds, _ in tasks) * 1e9
    metrics = {}
    for layer in spans.LAYERS:
        metrics[layer + ".self_s"] = _metric(tracer.self_ns.get(layer, 0) / 1e9 / reps, "s/rep")
        metrics[layer + ".calls"] = _metric(tracer.calls.get(layer, 0) / reps, "calls/rep")
    counters = tracer.counters
    for name, unit in (
        ("sim.ops", "ops/rep"),
        ("mem.atomicity.paired_writes", "writes/rep"),
        ("mem.atomicity.coalesced_writes", "writes/rep"),
        ("mem.controller.bytes_written", "B/rep"),
    ):
        metrics[name] = _metric(counters[name] / reps, unit)
    ops = counters["sim.ops"]
    machine_ns = tracer.inclusive_ns.get("sim.machine", 0)
    searched = counters["crash.session.searched"]
    recovered = counters["crash.session.search_recovered"]
    sessions_ms = [ns / 1e6 for ns in tracer.durations_ns["crash.session"]] or [0.0]
    miss_rate = statistics.fmean(tracer.miss_rates) if tracer.miss_rates else 0.0
    untraced_s = sum(scaled([tasks for _, tasks in untraced], runner.host)[0])
    traced_s = sum(scaled([tasks for _, tasks in traced], runner.host)[0])
    metrics.update({
        "crash.session.run_ms_p50": _metric(_quantile(sessions_ms, 0.50), "ms/session"),
        "crash.session.run_ms_p90": _metric(_quantile(sessions_ms, 0.90), "ms/session"),
        "sim.host_ns_per_op": _metric(machine_ns / ops if ops else 0.0, "ns/op"),
        "crypto.engine.counter_cache_miss_rate": _metric(miss_rate, "ratio"),
        "crash.session.search_rungs": _metric(searched / reps, "images/rep"),
        "crash.counter_recovery.success_ratio": _metric(
            recovered / searched if searched else 0.0, "ratio"
        ),
        "trace.coverage": _metric(sum(tracer.self_ns.values()) / traced_task_ns, "ratio"),
        "trace.overhead": _metric(traced_s / untraced_s - 1.0, "ratio"),
        "trace.span_ns": _metric(float(span_ns), "ns"),
    })
    return metrics


def run_workload(args) -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(HERE))
    import workloads  # imports repro: set-up is timed from before this line

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_raw = time.perf_counter() - start
    host = HostSpeed()
    for _ in range(SETUP_REFERENCE_CALLS):
        host.sample()
    setup_s = setup_raw * NOMINAL_REFERENCE_S / statistics.fmean(host.seconds)
    if args.setup_only:
        print(setup_s)
        return 0
    expected = json.loads((HERE / "expected.json").read_text())
    expected_digest = expected.get(args.workload, {}).get(str(args.seed))
    print("workload %s seed %d trace %d seconds %g"
          % (args.workload, args.seed, args.trace, args.seconds))
    runner = Runner(workload, expected_digest, host)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    metrics = {}
    if runner.rep() is None:  # warm-up
        print("warm-up failed: no repetition is timed", file=sys.stderr)
    elif args.trace:
        import spans

        try:
            metrics = per_layer(runner, args.seconds)
        except spans.SpanError as exc:
            print("trace aborted: %s" % exc, file=sys.stderr)
            return 2
    else:
        samples = [setup_s] + [
            _setup_in_fresh_interpreter(args.workload, args.seed)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        print("setup_s samples (scaled): %s" % _describe(samples))
        metrics = end_to_end(runner, args.seconds, statistics.median(samples), record)
    correct = runner.failed == 0 and bool(metrics)
    print("repetitions: %d attempted (1 warm-up), %d failed, failed_frac %.4f"
          % (runner.attempted, runner.failed, runner.failed / runner.attempted))
    print("output digest %s (%s)" % (
        runner.reference,
        "expected.json has no digest for this seed" if expected_digest is None
        else "matches expected.json" if runner.reference == expected_digest
        else "differs from expected.json",
    ))
    for name, metric in metrics.items():
        print("%-44s %14.6g %s" % (name, metric["value"], metric["unit"]))
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    if args.json:
        record.update(result, digest=runner.reference)
        with open(args.json, "a", encoding="utf-8") as stream:
            stream.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in a fresh interpreter."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.json:
            command += ["--json", os.path.abspath(args.json)]
        completed = subprocess.run(command, cwd=str(ROOT), stdout=subprocess.PIPE)
        lines = completed.stdout.decode().splitlines()
        print("\n".join(lines[:-1]))
        status = status or completed.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            summary["correct"] = False
            status = status or 1
            continue
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"]["%s.%s" % (name, metric)] = value
    print(json.dumps(summary, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="seconds of timed repetitions per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="OUT")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("error: %s holds no repro sources; run from a repository checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
