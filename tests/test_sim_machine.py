"""Tests for the machine: trace replay, timing, multicore interleaving."""

import pytest

from repro.config import fast_config
from repro.errors import SimulationError, TraceError
from repro.sim.machine import Machine, run_design
from repro.sim.trace import TraceBuilder


def simple_trace(base=0x1000, lines=4, name="t"):
    builder = TraceBuilder(name)
    builder.txn_begin()
    for i in range(lines):
        builder.store_u64(base + i * 64, i + 1)
        builder.clwb(base + i * 64)
    builder.ccwb(base)
    builder.persist_barrier()
    builder.txn_end()
    return builder.build()


class TestSingleCore:
    def test_runtime_positive_and_ops_counted(self):
        result = Machine(fast_config(), "sca").run([simple_trace()])
        assert result.stats.runtime_ns > 0
        assert result.stats.per_core[0].stores == 4
        assert result.stats.per_core[0].clwbs == 4
        assert result.stats.per_core[0].fences == 1
        assert result.stats.transactions == 1

    def test_functional_memory_contents(self):
        machine = Machine(fast_config(), "sca")
        result = machine.run([simple_trace()])
        assert result.hierarchy.read_current(0, 0x1000, 8) == (1).to_bytes(8, "little")

    def test_txn_end_times_recorded(self):
        result = Machine(fast_config(), "sca").run([simple_trace()])
        assert len(result.txn_end_times[0]) == 1
        assert result.txn_end_times[0][0] <= result.stats.runtime_ns

    def test_deterministic(self):
        first = Machine(fast_config(), "sca").run([simple_trace()])
        second = Machine(fast_config(), "sca").run([simple_trace()])
        assert first.stats.runtime_ns == second.stats.runtime_ns

    def test_run_design_helper(self):
        result = run_design(fast_config(), "fca", [simple_trace()])
        assert result.policy.name == "fca"

    def test_compute_advances_clock(self):
        builder = TraceBuilder("t")
        builder.compute(500.0)
        result = Machine(fast_config(), "no-encryption").run([builder.build()])
        assert result.stats.runtime_ns >= 500.0

    def test_load_returns_after_memory_latency(self):
        builder = TraceBuilder("t")
        builder.load(0x1000, 8)
        result = Machine(fast_config(), "no-encryption").run([builder.build()])
        assert result.stats.per_core[0].load_stall_ns > 0


class TestEventLoopEntryPoints:
    @pytest.mark.parametrize(
        "call",
        [
            lambda machine: machine.step(),
            lambda machine: machine.run_events(5),
            lambda machine: machine.run_events(None),
            lambda machine: machine.fast_forward(),
            lambda machine: machine.finish(),
        ],
        ids=["step", "run_events", "run_events-all", "fast_forward", "finish"],
    )
    def test_every_entry_point_raises_before_begin(self, call):
        with pytest.raises(SimulationError, match="called before begin"):
            call(Machine(fast_config(), "sca"))

    def test_zero_budget_runs_nothing(self):
        machine = Machine(fast_config(), "sca")
        machine.begin([simple_trace()])
        assert machine.run_events(0) is True
        assert machine.events_executed == 0

    def test_empty_machine_has_no_events(self):
        machine = Machine(fast_config(), "sca")
        machine.begin([])
        assert machine.step() is False
        assert machine.run_events(None) is False
        assert machine.finish().stats.runtime_ns == 0.0


class TestMultiCore:
    def test_two_cores_run_concurrently(self):
        config = fast_config(num_cores=2)
        traces = [simple_trace(0x1000, name="a"), simple_trace(0x8000, name="b")]
        result = Machine(config, "sca").run(traces)
        single = Machine(fast_config(), "sca").run([simple_trace(0x1000)])
        # Two disjoint cores cost far less than 2x a single core.
        assert result.stats.runtime_ns < 1.8 * single.stats.runtime_ns
        assert result.stats.transactions == 2

    def test_more_traces_than_cores_rejected(self):
        with pytest.raises(TraceError):
            Machine(fast_config(num_cores=1), "sca").run(
                [simple_trace(), simple_trace(0x8000)]
            )

    def test_shared_controller_sees_both_cores(self):
        config = fast_config(num_cores=2)
        traces = [simple_trace(0x1000), simple_trace(0x8000)]
        result = Machine(config, "sca").run(traces)
        assert result.controller.stats.data_writes >= 8

    def test_fewer_traces_than_cores_allowed(self):
        config = fast_config(num_cores=4)
        result = Machine(config, "sca").run([simple_trace()])
        assert result.stats.transactions == 1


class TestDesignDifferentiation:
    def test_encrypted_designs_slower_than_plaintext(self):
        trace = simple_trace(lines=16)
        plain = Machine(fast_config(), "no-encryption").run([trace]).stats.runtime_ns
        colocated = Machine(fast_config(), "co-located").run([trace]).stats.runtime_ns
        assert colocated >= plain

    def test_write_traffic_ordering(self):
        """FCA >= SCA >= no-encryption in bytes written."""
        trace = simple_trace(lines=16)
        bytes_by_design = {
            design: Machine(fast_config(), design).run([trace]).stats.bytes_written
            for design in ("no-encryption", "sca", "fca")
        }
        assert bytes_by_design["fca"] >= bytes_by_design["sca"]
        assert bytes_by_design["sca"] >= bytes_by_design["no-encryption"]

    def test_stats_expose_counter_cache_miss_rate(self):
        trace = simple_trace()
        encrypted = Machine(fast_config(), "sca").run([trace])
        plain = Machine(fast_config(), "no-encryption").run([trace])
        assert encrypted.stats.counter_cache_miss_rate is not None
        assert plain.stats.counter_cache_miss_rate is None


class TestStatsDerivations:
    def test_throughput(self):
        result = Machine(fast_config(), "sca").run([simple_trace()])
        stats = result.stats
        expected = stats.transactions / (stats.runtime_ns * 1e-9)
        assert stats.throughput_txn_per_s == pytest.approx(expected)

    def test_normalizations(self):
        trace = simple_trace(lines=8)
        base = Machine(fast_config(), "no-encryption").run([trace]).stats
        sca = Machine(fast_config(), "sca").run([trace]).stats
        assert sca.normalized_runtime(base) == pytest.approx(
            sca.runtime_ns / base.runtime_ns
        )
        assert sca.normalized_write_traffic(base) >= 1.0
        assert sca.normalized_throughput(base) <= 1.001
