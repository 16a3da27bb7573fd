"""Guard: timing-only runs report the functional run's statistics.

Figure sweeps that read only :class:`~repro.sim.stats.MachineStats` may
run with no payloads and no crash bookkeeping
(``config.scaled(functional=False).with_controller(crash_bookkeeping=False)``),
and the functional machine may stop moving ciphertext, only because no
timing decision reads a byte of plaintext or ciphertext.  This file pins
that for every registered design, every workload and three machine
shapes; a failing cell names its design, workload and shape.
"""

import dataclasses

import pytest

from repro.bench.harness import run_workload
from repro.config import fast_config
from repro.core.designs import list_designs
from repro.workloads.base import WorkloadParams
from repro.workloads.registry import list_workloads

PARAMS = WorkloadParams(operations=5, footprint_bytes=4096)
DESIGNS = list_designs(include_unsafe=True, include_integrity=True)
#: (label, cores, shards)
SHAPES = [("1core", 1, 1), ("2cores", 2, 1), ("2cores-2shards", 2, 2)]


@pytest.mark.parametrize("shape, cores, shards", SHAPES, ids=[s[0] for s in SHAPES])
@pytest.mark.parametrize("workload", list_workloads())
@pytest.mark.parametrize("design", DESIGNS)
def test_timing_only_stats_equal_functional_stats(design, workload, shape, cores, shards):
    functional = fast_config(num_cores=cores, shards=shards)
    timing = functional.scaled(functional=False).with_controller(crash_bookkeeping=False)
    expected = run_workload(design, workload, config=functional, params=PARAMS).stats
    actual = run_workload(design, workload, config=timing, params=PARAMS).stats
    differs = [
        field.name
        for field in dataclasses.fields(expected)
        if getattr(actual, field.name) != getattr(expected, field.name)
    ]
    assert not differs, "%s/%s/%s: timing-only stats differ in %s" % (
        design,
        workload,
        shape,
        ", ".join(differs),
    )
