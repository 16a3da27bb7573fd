"""Tests for crash-image reconstruction (ADR + ready-bit semantics)."""

import pytest

from repro.bench.harness import run_workload
from repro.config import KB, MB, fast_config
from repro.crash.injector import (
    CrashInjector,
    nested_crash_image,
    tag_data_lines,
    uniform_sample,
)
from repro.crypto.counters import CounterStore
from repro.crypto.integrity import IntegrityEngine
from repro.crypto.otp import OTPCipher, make_block_cipher
from repro.faults import make_fault_model
from repro.integrity.tree import IntegrityTreeEngine
from repro.nvm.device import NVMDevice
from repro.sim.machine import Machine
from repro.sim.trace import TraceBuilder
from repro.workloads.base import WorkloadParams
from tests.state_walker import assert_same_state
from tests.test_persist_journal import replay_injector


def run_simple(design="sca", lines=4):
    builder = TraceBuilder("t")
    builder.txn_begin()
    for i in range(lines):
        builder.store_u64(0x1000 + i * 64, i + 1)
        builder.clwb(0x1000 + i * 64)
    builder.ccwb(0x1000)
    builder.persist_barrier()
    builder.txn_end()
    return Machine(fast_config(), design).run([builder.build()])


class TestCrashImages:
    def test_crash_before_anything_is_empty(self):
        injector = CrashInjector(run_simple())
        image = injector.crash_at(0.0)
        assert list(image.device.touched_lines()) == []

    def test_crash_after_everything_has_all_lines(self):
        result = run_simple(lines=4)
        injector = CrashInjector(result)
        image = injector.crash_at(result.stats.runtime_ns + 1e6)
        data_lines = [
            a for a in image.device.touched_lines()
            if image.address_map.is_data_address(a)
        ]
        assert len(data_lines) == 4

    def test_images_monotone_in_time(self):
        result = run_simple(lines=6)
        injector = CrashInjector(result)
        times = injector.interesting_times()
        previous = set()
        for crash_ns in times:
            image = injector.crash_at(crash_ns)
            current = set(image.device.touched_lines())
            assert previous <= current
            previous = current

    def test_adr_off_keeps_fewer_lines(self):
        result = run_simple(lines=6)
        injector = CrashInjector(result)
        # Pick a moment in the middle of the run.
        mid = result.stats.runtime_ns / 2
        with_adr = set(injector.crash_at(mid, adr=True).device.touched_lines())
        without = set(injector.crash_at(mid, adr=False).device.touched_lines())
        assert without <= with_adr

    def test_image_isolated_from_live_device(self):
        result = run_simple()
        injector = CrashInjector(result)
        image = injector.crash_at(result.stats.runtime_ns + 1e6)
        image.device.persist_line(0x9000, bytes(64))
        assert not result.controller.device.contains_line(0x9000)


def per_line_image(result, crash_ns, adr=True, adr_budget=None):
    """The image ``crash_at`` builds, installed one line and slot at a time.

    Each persisted plaintext line is enciphered on its own with
    ``OTPCipher.encrypt`` under its counter (encrypted designs only).
    Lines and slots are installed in ascending address order, as in
    every crash image.  Returns ``(device, store, secure_root,
    line_tags)``; the last two are None unless the design keeps an
    integrity tree.
    """
    journal = result.controller.journal
    address_map = result.controller.address_map
    cipher = OTPCipher(make_block_cipher(result.config.encryption))
    data_lines, counters = journal.reconstruct(crash_ns, adr=adr, adr_budget=adr_budget)
    device = NVMDevice(address_map, track_wear=False)
    for address, (payload, encrypted_with) in sorted(data_lines.items()):
        if result.policy.encrypts and payload is not None:
            payload = cipher.encrypt(address, encrypted_with, payload)
        device.persist_line(address, payload, encrypted_with)
    device.line_writes = 0
    store = CounterStore(
        counter_region_base=address_map.counter_region_base,
        memory_size_bytes=address_map.memory_size_bytes,
    )
    for address, value in sorted(counters.items()):
        store.write(address, value)
    if not result.policy.integrity_tree:
        return device, store, None, None
    _, covered = journal.reconstruct(crash_ns)
    tree = IntegrityTreeEngine(
        result.config.encryption, address_map, arity=result.config.integrity.arity
    )
    tags = tag_data_lines(device, IntegrityEngine(result.config.encryption))
    return device, store, tree.root_over(covered), tags


class TestBulkImageBuild:
    """Every crash image equals the per-line build, state for state."""

    @pytest.mark.parametrize("design", ["sca", "fca", "co-located-cc", "sca+bmt"])
    def test_images_match_per_line_build(self, design):
        outcome = run_workload(
            design, "hash", params=WorkloadParams(operations=12, footprint_bytes=16 * KB)
        )
        result = outcome.result
        injector = CrashInjector(result)
        times = injector.interesting_times(limit=12) + injector.midpoint_times(limit=6)
        for crash_ns in times:
            for adr, budget in ((True, None), (False, None), (True, 1)):
                image = injector.crash_at(crash_ns, adr=adr, adr_budget=budget)
                device, store, root, tags = per_line_image(result, crash_ns, adr, budget)
                assert_same_state(image.device, device)
                assert_same_state(image.counter_store, store)
                assert (image.secure_root, image.line_tags) == (root, tags)

    def test_nested_image_copies_the_base_image(self):
        outcome = run_workload(
            "sca+bmt", "hash", params=WorkloadParams(operations=12, footprint_bytes=16 * KB)
        )
        result = outcome.result
        injector = CrashInjector(result)
        image = injector.crash_at(result.stats.runtime_ns / 2)
        nested = nested_crash_image(image, {}, result.config)
        device = NVMDevice(image.address_map, track_wear=False)
        for address in image.device.touched_lines():
            stored = image.device.read_line(address)
            device.persist_line(address, stored.payload, stored.encrypted_with)
        device.line_writes = 0
        assert_same_state(nested.device, device)
        assert_same_state(nested.counter_store, image.counter_store)
        assert nested.secure_root == image.secure_root


@pytest.mark.parametrize("design", ["sca", "fca", "co-located-cc", "sca+bmt"])
def test_recovery_images_equal_the_replay(design, monkeypatch):
    """The e2e ``recovery`` workload's images at seed 42: 40 ascending
    instants per design, a flipped counter bit, two passes.  Each equals
    the image built from the replay: device, counter store, secure root,
    tags, ADR-pending count and fault events."""
    params = WorkloadParams(operations=400, footprint_bytes=1 * MB, seed=42)
    result = run_workload(design, "hash", params=params).result
    injector = CrashInjector(result)
    reference = replay_injector(result, monkeypatch)
    candidates = set(injector.interesting_times(limit=20))
    candidates |= set(injector.midpoint_times(limit=20))
    times = uniform_sample(sorted(candidates), 40)
    faults = [make_fault_model("bitflip-counter")]
    for _ in range(2):
        for crash_ns in times:
            image, events = injector.crash_with_faults(crash_ns, faults, seed=42)
            ref_image, ref_events = reference.crash_with_faults(crash_ns, faults, seed=42)
            assert_same_state(image, ref_image)
            assert_same_state(events, ref_events)


class TestCrashPointEnumeration:
    def test_interesting_times_sorted(self):
        injector = CrashInjector(run_simple())
        times = injector.interesting_times()
        assert times == sorted(times)
        assert len(times) > 0

    def test_limit_respected_with_endpoints(self):
        injector = CrashInjector(run_simple(lines=8))
        all_times = injector.interesting_times()
        limited = injector.interesting_times(limit=5)
        assert len(limited) == 5
        assert limited[0] == all_times[0]
        assert limited[-1] == all_times[-1]

    def test_midpoints_between_boundaries(self):
        injector = CrashInjector(run_simple())
        midpoints = injector.midpoint_times()
        boundaries = set()
        for record in injector._journal.records:
            boundaries.update(
                t for t in (record.accept_ns, record.ready_ns, record.drain_ns)
                if t != float("inf")
            )
        for m in midpoints:
            assert m not in boundaries

    def test_limit_one_returns_single_point(self):
        # Regression: the sampling step formula divided by zero at
        # limit=1.
        injector = CrashInjector(run_simple(lines=8))
        assert len(injector.interesting_times(limit=1)) == 1
        assert len(injector.midpoint_times(limit=1)) == 1
        assert injector.interesting_times(limit=1)[0] == injector.interesting_times()[0]

    def test_limit_zero_returns_nothing(self):
        injector = CrashInjector(run_simple())
        assert injector.interesting_times(limit=0) == []
        assert injector.midpoint_times(limit=0) == []

    def test_uniform_sample_edge_cases(self):
        ordered = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert uniform_sample(ordered, None) == ordered
        assert uniform_sample(ordered, 10) == ordered
        assert uniform_sample(ordered, 1) == [1.0]
        assert uniform_sample(ordered, 0) == []
        assert uniform_sample(ordered, 2) == [1.0, 5.0]
        assert uniform_sample([], 1) == []
