"""Multicore-specific behaviour: sharing, contention, fairness."""

import pytest

from repro.config import KB, bench_config, fast_config
from repro.bench.harness import run_workload
from repro.persist.journal import JournalKind
from repro.sim.machine import Machine
from repro.sim.trace import TraceBuilder
from repro.workloads.base import WorkloadParams
from tests.state_walker import first_difference, walk

PARAMS = WorkloadParams(operations=10, footprint_bytes=8 * KB)


def write_trace(base, lines=8, name="t"):
    builder = TraceBuilder(name)
    builder.txn_begin()
    for i in range(lines):
        builder.store_u64(base + i * 64, i + 1)
        builder.clwb(base + i * 64)
    builder.ccwb(base)
    builder.persist_barrier()
    builder.txn_end()
    return builder.build()


class TestSharedData:
    def test_producer_consumer_through_l2(self):
        """Core 1 reads what core 0 wrote once it is written back.

        The hierarchy models no cross-L1 coherence protocol (the
        paper's workloads are share-nothing per core); cross-core
        visibility flows through explicit writebacks, so the producer
        clwb's the line into the shared L2 first.
        """
        config = fast_config(num_cores=2)
        producer = TraceBuilder("producer")
        producer.store_u64(0x1000, 0xBEEF)
        producer.clwb(0x1000)
        producer.persist_barrier()
        consumer = TraceBuilder("consumer")
        consumer.compute(10000.0)  # start after the producer's writeback
        consumer.load(0x1000, 8)
        machine = Machine(config, "sca")
        machine.run([producer.build(), consumer.build()])
        assert machine.hierarchy.read_current(1, 0x1000, 8) == (0xBEEF).to_bytes(8, "little")

    def test_shared_counter_cache_across_cores(self):
        """Core 1's read of a line core 0 wrote hits the shared counter
        cache (one controller-level cache, as in Table 2)."""
        config = fast_config(num_cores=2)
        t0 = TraceBuilder("w")
        t0.store_u64(0x1000, 1)
        t0.clwb(0x1000)
        t0.persist_barrier()
        machine = Machine(config, "sca")
        machine.run([t0.build()])
        assert machine.controller.engine.counter_cache.contains(0x1000)


class TestContention:
    def test_disjoint_cores_scale_well(self):
        single = run_workload("sca", "array", config=bench_config(1), params=PARAMS)
        dual = run_workload("sca", "array", config=bench_config(2), params=PARAMS)
        assert dual.stats.transactions == 2 * single.stats.transactions
        # Throughput should grow substantially (disjoint arenas).
        assert (
            dual.stats.throughput_txn_per_s
            > 1.5 * single.stats.throughput_txn_per_s
        )

    def test_contention_shows_in_runtime(self):
        """Eight cores on one controller cannot be 8x as fast as one
        core on the write-heavy queue workload."""
        single = run_workload("queue", "queue") if False else run_workload(
            "sca", "queue", config=bench_config(1), params=PARAMS
        )
        octo = run_workload("sca", "queue", config=bench_config(8), params=PARAMS)
        speedup = octo.stats.throughput_txn_per_s / single.stats.throughput_txn_per_s
        assert speedup < 8.0

    def test_core_finish_times_are_balanced(self):
        """Identical per-core work finishes within a reasonable spread
        (the min-time scheduling discipline is fair)."""
        outcome = run_workload("sca", "array", config=bench_config(4), params=PARAMS)
        finishes = [core.finish_ns for core in outcome.stats.per_core]
        assert max(finishes) < 2.0 * min(finishes)


class TestSharedQueues:
    def test_paired_writes_from_all_cores_counted(self):
        outcome = run_workload("sca", "array", config=bench_config(2), params=PARAMS)
        # Each core's transactions contribute 2 CA pairs each (arm+commit),
        # minus any pair-to-pair merges in the queue.
        txns = outcome.stats.transactions
        paired = outcome.result.controller.stats.paired_writes
        assert paired == 2 * txns

    def test_multicore_crash_images_cover_both_arenas(self):
        from repro.crash.injector import CrashInjector

        outcome = run_workload("sca", "array", config=bench_config(2), params=PARAMS)
        injector = CrashInjector(outcome.result)
        image = injector.crash_at(outcome.stats.runtime_ns + 1e9)
        touched = set(image.device.touched_lines())
        for run in outcome.runs:
            arena_lines = {
                line
                for txn in run.history
                for line, _old, _new in txn.writes
            }
            assert arena_lines <= touched


def tied_traces(cores=3, rounds=2):
    """Equal per-core work, so clocks tie at op boundaries.

    Every core computes for the same time, then stores to and clwb's
    its own line: the stores all miss at the same instant, and the
    order the scheduler breaks that tie in is the order the controller
    serves the reads and later receives the writebacks.
    """
    traces = []
    for core in range(cores):
        builder = TraceBuilder("core%d" % core)
        for round_ in range(rounds):
            line = 0x10000 + core * 0x1000 + round_ * 64
            builder.txn_begin()
            builder.compute(100.0)
            builder.store_u64(line, core + 1)
            builder.clwb(line)
            builder.sfence()
            builder.txn_end()
        traces.append(builder.build())
    return traces


class TestSchedulerOrder:
    """The order events run in, not just the totals they add up to."""

    @pytest.mark.parametrize("cores", [3, 4])
    def test_tied_clocks_run_lowest_core_first(self, cores):
        machine = Machine(fast_config(num_cores=cores), "sca")
        machine.begin(tied_traces(cores))
        # The first op of every core is a tie at 0 ns.
        assert machine.step()
        indexes = [core.index for core in machine._cores]
        assert indexes == [1] + [0] * (cores - 1)
        machine.fast_forward()
        data = [
            record.address
            for record in machine.finish().controller.journal.records
            if record.kind is JournalKind.DATA
        ]
        first_round = [0x10000 + core * 0x1000 for core in range(cores)]
        assert data[:cores] == first_round

    @pytest.mark.parametrize("design", ["sca", "fca+bmt"])
    def test_run_events_matches_as_many_steps(self, design):
        traces = tied_traces(3)
        config = fast_config(num_cores=3)
        reference = Machine(config, design)
        reference.begin(traces)
        # A zero budget runs no event but, like any call, marks the
        # caches touched: the state every run_events(0) call leaves.
        reference.run_events(0)
        states = [walk(reference)]
        while reference.step():
            states.append(walk(reference))
        states.append(walk(reference))
        total = reference.events_executed
        assert total == sum(len(trace) for trace in traces)
        for budget in range(total + 1):
            machine = Machine(config, design)
            machine.begin(traces)
            more = machine.run_events(budget)
            assert more == (budget < total)
            assert machine.events_executed == budget
            state = walk(machine)
            assert state == states[budget], (budget, first_difference(state, states[budget]))
