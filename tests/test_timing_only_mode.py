"""Timing-only mode: address/timing behaviour without byte movement.

Every figure sweep job runs with ``functional=False`` for speed
(:func:`repro.bench.harness.run_workload_stats`); these tests pin down
that timing-only runs (a) work end to end, (b) agree with functional
runs on every timing-relevant statistic, (c) skip payload
materialization, and (d) refuse crash images, having kept no crash
state.
"""

import pytest

from repro.bench.harness import build_traces, run_workload
from repro.config import KB, fast_config
from repro.crash.injector import CrashInjector
from repro.errors import ConfigurationError
from repro.sim.machine import Machine
from repro.workloads.base import WorkloadParams

PARAMS = WorkloadParams(operations=12, footprint_bytes=8 * KB)


class TestEndToEnd:
    @pytest.mark.parametrize("design", ["sca", "fca", "co-located-cc", "no-encryption"])
    def test_workloads_run_without_payloads(self, design):
        config = fast_config(functional=False)
        outcome = run_workload(design, "array", config=config, params=PARAMS)
        assert outcome.stats.runtime_ns > 0
        assert outcome.stats.transactions > 0

    def test_timing_matches_functional_exactly(self):
        """Byte movement must not influence timing: the same trace in
        functional and timing-only mode yields identical statistics."""
        functional_config = fast_config(functional=True)
        timing_config = fast_config(functional=False)
        functional = run_workload("sca", "hash", config=functional_config, params=PARAMS)
        timing = run_workload("sca", "hash", config=timing_config, params=PARAMS)
        assert timing.stats.runtime_ns == functional.stats.runtime_ns
        assert timing.stats.bytes_written == functional.stats.bytes_written
        assert timing.stats.bytes_read == functional.stats.bytes_read
        assert (
            timing.stats.counter_cache_miss_rate
            == functional.stats.counter_cache_miss_rate
        )

    def test_no_payloads_materialized(self):
        config = fast_config(functional=False)
        traces, _runs, _layout = build_traces("array", config, params=PARAMS)
        machine = Machine(config, "sca")
        result = machine.run(traces)
        # Caches hold lines, but no byte payloads.
        l1 = result.hierarchy.l1s[0]
        lines = [line for s in l1._sets for line in s.values()]
        assert lines
        assert all(line.payload is None for line in lines)

    def test_crash_images_refuse_a_timing_only_run(self):
        """A timing-only run keeps no journal, so no image can be built
        from it: the injector says so instead of returning empty images."""
        for cores, shards in ((1, 1), (2, 2)):
            config = fast_config(num_cores=cores, functional=False, shards=shards)
            result = run_workload("fca", "array", config=config, params=PARAMS).result
            assert len(result.controller.journal) == 0
            with pytest.raises(ConfigurationError, match="fca: a timing-only run"):
                CrashInjector(result)
