"""A single-core timing-only run's two passes against the live hierarchy.

``Machine.run`` on one timing-only trace runs the caches once per trace
and cache geometry (the CPU pass, kept on the trace) and replays their
controller traffic under each design (the memory pass).  A ``begin()``
plus ``step()`` run takes the live hierarchy.  The two must agree on
every observable, including the final cache state, and the pass must
be recorded only where the run can take it.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.bench.harness import build_traces
from repro.config import bench_config, fast_config
from repro.core.designs import list_designs
from repro.errors import AddressError, SimulationError
from repro.sim.machine import Machine
from repro.sim.snapshot import result_fingerprint
from repro.sim.trace import TraceBuilder
from repro.workloads.base import WorkloadParams
from tests.equivalence_harness import SCENARIOS, single_core_config, single_core_traces

DESIGNS = list_designs(include_unsafe=True, include_integrity=True)


def _stepped(config, design, traces):
    machine = Machine(config, design)
    machine.begin(traces)
    while machine.step():
        pass
    return machine, machine.finish()


def _observables(machine, result):
    return (
        result_fingerprint(result),
        dataclasses.asdict(result.controller.stats),
        dataclasses.asdict(result.stats),
        result.txn_end_times,
        machine.get_state(),
    )


def _passes(trace):
    return getattr(trace, "_cache_passes", {})


def _assert_split_matches_stepped(config, design, traces):
    machine = Machine(config, design)
    split = _observables(machine, machine.run(traces))
    assert split == _observables(*_stepped(config, design, traces)), design


def _eviction_trace(seed=5, ops=1500):
    """Stores, loads and clwbs over more lines than L2 holds.

    The workloads clwb every store before its line is evicted, so their
    accesses never write back; this trace evicts dirty lines from L1
    into L2 and from L2 to memory, some of them CounterAtomic.
    """
    rng = random.Random(seed)
    builder = TraceBuilder(functional=False)
    for step in range(ops):
        address = 0x10000 + rng.randrange(640) * 64 + rng.randrange(8) * 8
        choice = rng.random()
        if choice < 0.5:
            builder.store(address, length=8, counter_atomic=rng.random() < 0.3)
        elif choice < 0.85:
            builder.load(address, 8)
        else:
            builder.clwb(address)
        if step % 50 == 49:
            builder.ccwb(address).sfence().txn_end()
    return builder.build()


@pytest.mark.parametrize("scenario", SCENARIOS, ids=["/".join(map(str, s)) for s in SCENARIOS])
def test_every_design_matches_the_stepped_run(scenario):
    config = single_core_config()
    traces = single_core_traces(*scenario)
    for design in DESIGNS:
        _assert_split_matches_stepped(config, design, traces)
    # Every design after the first replayed the one stored pass.
    assert list(_passes(traces[0])) == [(config.l1, config.l2)]


def test_dirty_evictions_match_the_stepped_run():
    config = fast_config(functional=False)
    traces = [_eviction_trace()]
    for design in DESIGNS:
        _assert_split_matches_stepped(config, design, traces)
    (entries, _l1, _l2), = _passes(traces[0]).values()
    writebacks = [entry for entry in entries if entry is not None and len(entry) > 2]
    assert any(entry[0] == -1 for entry in writebacks)
    assert any(entry[0] != -1 for entry in writebacks)


def test_each_cache_geometry_records_its_own_pass():
    configs = [
        fast_config(functional=False),
        bench_config(functional=False).with_controller(crash_bookkeeping=False),
    ]
    assert configs[0].l1 != configs[1].l1
    traces = single_core_traces(*SCENARIOS[0])
    for _ in range(2):
        for config in configs:
            _assert_split_matches_stepped(config, "sca", traces)
    assert set(_passes(traces[0])) == {(config.l1, config.l2) for config in configs}


def test_one_pass_serves_any_core_or_shard_count():
    traces = [_eviction_trace()]
    for cores, shards in ((1, 1), (2, 1), (1, 2)):
        config = fast_config(num_cores=cores, functional=False, shards=shards)
        _assert_split_matches_stepped(config, "fca", traces)
    assert len(_passes(traces[0])) == 1


def _hash_traces(config):
    """One trace per core of ``config``."""
    return build_traces("hash", config, "undo", WorkloadParams(operations=5, seed=11))[0]


def test_functional_run_records_no_pass():
    config = fast_config(functional=True)
    traces = _hash_traces(config)
    Machine(config, "sca").run(traces)
    assert not _passes(traces[0])


def test_multicore_run_records_no_pass():
    config = fast_config(num_cores=2, functional=False)
    traces = _hash_traces(config)
    assert len(traces) == 2
    Machine(config, "sca").run(traces)
    assert not any(_passes(trace) for trace in traces)


def test_budgeted_run_records_no_pass():
    config = fast_config(functional=False)
    traces = _hash_traces(config)
    machine = Machine(config, "sca")
    machine.begin(traces)
    while machine.run_events(100):
        pass
    machine.finish()
    assert not _passes(traces[0])
    # Only a machine whose caches no event has touched replays a pass.
    machine.begin(traces)
    machine.run_events(None)
    assert not _passes(traces[0])


def test_restored_machine_keeps_the_live_hierarchy():
    config = fast_config(functional=False)
    traces = _hash_traces(config)
    machine = Machine(config, "sca")
    machine.begin(traces)
    restored = Machine.from_state(machine.get_state())
    restored.run_events(None)
    assert not _passes(traces[0])
    assert result_fingerprint(restored.finish()) == result_fingerprint(
        _stepped(config, "sca", traces)[1]
    )


def test_line_crossing_store_raises_before_any_request():
    config = fast_config(functional=False)
    builder = TraceBuilder(functional=False)
    builder.store(0x1000, length=8).clwb(0x1000).sfence()
    builder.store(0x103C, length=16)
    machine = Machine(config, "sca")
    with pytest.raises(AddressError):
        machine.run([builder.build()])
    assert machine.controller.stats.data_writes == 0
    assert machine.controller.stats.reads == 0
    assert machine.events_executed == 0


@pytest.mark.parametrize("change", ["drop", "extra"])
def test_pass_that_disagrees_with_the_trace_raises(change):
    config = single_core_config()
    traces = single_core_traces(*SCENARIOS[0])
    Machine(config, "sca").run(traces)
    passes = _passes(traces[0])
    key = (config.l1, config.l2)
    entries, final_l1, final_l2 = passes[key]
    entries = entries[:-1] if change == "drop" else entries + [None]
    passes[key] = (entries, final_l1, final_l2)
    with pytest.raises(SimulationError):
        Machine(config, "fca").run(traces)
