"""Fault models: registry, determinism, and per-model image effects."""

import pytest

from repro.bench.harness import run_workload
from repro.config import CACHE_LINE_SIZE, KB, fast_config
from repro.crash.injector import CrashInjector
from repro.crash.recovery import RecoveryManager
from repro.crypto.counters import COUNTER_LIMIT
from repro.errors import FaultInjectionError
from repro.faults import (
    DEFAULT_SUITE,
    BitFlip,
    CounterCorruption,
    DroppedADRDrain,
    FaultEvent,
    NoFault,
    TornCounterLineWrite,
    TornDataLineWrite,
    apply_fault_models,
    default_fault_suite,
    derive_rng,
    list_fault_models,
    make_fault_model,
    model_from_spec,
)
from repro.sim.machine import Machine
from repro.sim.trace import TraceBuilder
from repro.workloads.base import WorkloadParams
from tests.state_walker import assert_same_state
from tests.test_crash_injector import per_line_image


def run_simple(design="sca", lines=6):
    builder = TraceBuilder("t")
    builder.txn_begin()
    for i in range(lines):
        builder.store_u64(0x1000 + i * 64, i + 1)
        builder.clwb(0x1000 + i * 64)
    builder.ccwb(0x1000)
    builder.persist_barrier()
    builder.txn_end()
    return Machine(fast_config(), design).run([builder.build()])


def end_image(result, injector=None, **kwargs):
    injector = injector or CrashInjector(result)
    return injector.crash_at(result.stats.runtime_ns + 1e6, **kwargs)


def first_events(model, result, seeds=range(24)):
    """Apply ``model`` to fresh end-of-run images until it reports events.

    Some models skip candidates that would be no-ops (e.g. a tear past
    every written slot); scanning a few seeds finds a mutating one
    deterministically.
    """
    injector = CrashInjector(result)
    for seed in seeds:
        image = end_image(result, injector)
        events = apply_fault_models(image, [model], seed)
        if events:
            return image, events, seed
    raise AssertionError("model %s never mutated the image" % model.name)


class TestRegistry:
    def test_suite_covers_every_model(self):
        assert set(list_fault_models()) == set(DEFAULT_SUITE)
        suite = default_fault_suite()
        assert [m.name for m in suite] == list(DEFAULT_SUITE)

    def test_unknown_name_rejected(self):
        with pytest.raises(FaultInjectionError):
            make_fault_model("meteor-strike")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(FaultInjectionError):
            make_fault_model("torn-data", wavelength=7)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: TornDataLineWrite(lines=0),
            lambda: TornCounterLineWrite(groups=0),
            lambda: BitFlip(region="parity"),
            lambda: BitFlip(flips=0),
            lambda: CounterCorruption(lines=-1),
            lambda: DroppedADRDrain(budget=-1),
        ],
    )
    def test_bad_parameters_rejected(self, factory):
        with pytest.raises(FaultInjectionError):
            factory()

    def test_spec_round_trip(self):
        for name in DEFAULT_SUITE:
            model = make_fault_model(name)
            rebuilt = model_from_spec(model.spec())
            assert rebuilt.name == model.name
            assert rebuilt.params() == model.params()


class TestDeterminism:
    def test_same_seed_same_events_and_image(self):
        result = run_simple()
        models = [TornDataLineWrite(), BitFlip(region="counter")]
        images, all_events = [], []
        for _ in range(2):
            image = end_image(result)
            all_events.append(apply_fault_models(image, models, seed=11))
            images.append(image)
        assert all_events[0] == all_events[1]
        lines = sorted(images[0].device.touched_lines())
        assert lines == sorted(images[1].device.touched_lines())
        for line in lines:
            assert (
                images[0].device.read_line(line).payload
                == images[1].device.read_line(line).payload
            )

    def test_rng_streams_independent_per_model(self):
        left = derive_rng(3, (), 0, "torn-data")
        right = derive_rng(3, (), 1, "bitflip-data")
        assert left.random() != right.random()

    def test_events_serialize(self):
        event = FaultEvent(model="torn-data", kind="torn-line", address=0x40)
        assert event.as_dict()["address"] == 0x40


class TestModelEffects:
    def test_no_fault_is_inert(self):
        result = run_simple()
        clean = end_image(result)
        image = end_image(result)
        assert apply_fault_models(image, [NoFault()], seed=1) == []
        for line in clean.device.touched_lines():
            assert (
                image.device.read_line(line).payload
                == clean.device.read_line(line).payload
            )

    def test_torn_data_zeroes_tail_and_still_decrypts(self):
        result = run_simple()
        image, events, _seed = first_events(TornDataLineWrite(), result)
        clean = end_image(result)
        (event,) = events
        assert event.kind == "torn-line"
        torn = image.device.read_line(event.address).payload
        original = clean.device.read_line(event.address).payload
        assert torn != original
        tear = next(
            offset
            for offset in range(CACHE_LINE_SIZE)
            if torn[offset:] == bytes(CACHE_LINE_SIZE - offset)
        )
        assert torn[:tear] == original[:tear]
        # The counter ground truth is untouched: the torn line passes
        # the Eq.-4 check, making this the silent-corruption vector.
        assert image.counter_store.read(event.address) == clean.counter_store.read(
            event.address
        )
        recovered = RecoveryManager(result.config.encryption).recover(
            image, encrypted=True
        )
        assert event.address not in recovered.garbage_lines

    def test_torn_counter_reverts_slots_and_is_detectable(self):
        result = run_simple()
        image, events, _seed = first_events(TornCounterLineWrite(), result)
        clean = end_image(result)
        (event,) = events
        torn_slots = image.counter_store.read_counter_line(event.address)
        clean_slots = clean.counter_store.read_counter_line(event.address)
        assert torn_slots != clean_slots
        assert all(t in (c, c - 1) for t, c in zip(torn_slots, clean_slots))
        recovered = RecoveryManager(result.config.encryption).recover(
            image, encrypted=True
        )
        assert recovered.garbage_lines

    def test_bitflip_data_flips_exactly_one_bit_per_event(self):
        result = run_simple()
        image, events, _seed = first_events(BitFlip(region="data"), result)
        clean = end_image(result)
        (event,) = events
        flipped = image.device.read_line(event.address).payload
        original = clean.device.read_line(event.address).payload
        delta = [a ^ b for a, b in zip(flipped, original)]
        assert sum(bin(d).count("1") for d in delta) == 1

    def test_bitflip_counter_changes_architectural_counter(self):
        result = run_simple()
        image, events, _seed = first_events(BitFlip(region="counter"), result)
        clean = end_image(result)
        (event,) = events
        assert image.counter_store.read(event.address) != clean.counter_store.read(
            event.address
        )

    def test_counter_corruption_displaces_beyond_search_lag(self):
        result = run_simple()
        image, events, _seed = first_events(CounterCorruption(), result)
        clean = end_image(result)
        (event,) = events
        corrupt = image.counter_store.read(event.address)
        original = clean.counter_store.read(event.address)
        displacement = (corrupt - original) % COUNTER_LIMIT
        assert displacement >= CounterCorruption.MIN_DISPLACEMENT

    def test_dropped_adr_loses_ready_entries(self):
        result = run_simple(lines=6)
        injector = CrashInjector(result)
        crash_ns = next(
            (
                t
                for t in sorted(
                    set(injector.interesting_times())
                    | set(injector.midpoint_times())
                )
                if injector.crash_at(t).adr_pending > 0
            ),
            None,
        )
        assert crash_ns is not None, "no crash point with a pending ADR drain"
        clean = injector.crash_at(crash_ns)
        image, events = injector.crash_with_faults(
            crash_ns, [DroppedADRDrain(budget=0)], seed=5
        )
        (event,) = events
        assert event.kind == "dropped-drain"
        assert set(image.device.touched_lines()) <= set(clean.device.touched_lines())
        # A generous budget funds the full drain: nothing to report.
        funded, no_events = injector.crash_with_faults(
            crash_ns, [DroppedADRDrain(budget=clean.adr_pending)], seed=5
        )
        assert no_events == []
        assert set(funded.device.touched_lines()) == set(clean.device.touched_lines())

    def test_models_tolerate_empty_images(self):
        result = run_simple()
        injector = CrashInjector(result)
        for name in DEFAULT_SUITE:
            image = injector.crash_at(0.0)
            assert apply_fault_models(image, [make_fault_model(name)], seed=2) == []


def test_models_replace_the_lines_they_change():
    """Images of a sweep share each journal version's line object, so a
    model must replace a line it changes, never edit it in place.  Each
    registered model hits one image of a sweep; every line it changed is
    a new object, no line object changed under the image, and the next
    image still equals the per-line build from the journal's replay."""
    result = run_workload(
        "sca+bmt", "hash", params=WorkloadParams(operations=12, footprint_bytes=16 * KB)
    ).result
    injector = CrashInjector(result)
    times = injector.midpoint_times(limit=len(DEFAULT_SUITE) + 1)
    changed = {}
    for index, name in enumerate(DEFAULT_SUITE):
        crash_ns, next_ns = times[index], times[index + 1]
        image = injector.crash_at(crash_ns)
        before = {
            address: (line, line.payload, line.encrypted_with)
            for address, line in image.device.snapshot().items()
        }
        apply_fault_models(image, [make_fault_model(name)], seed=index, scope=(crash_ns,))
        after = image.device.snapshot()
        changed[name] = 0
        for address, (line, payload, encrypted_with) in before.items():
            assert (line.payload, line.encrypted_with) == (payload, encrypted_with), name
            if (after[address].payload, after[address].encrypted_with) != (payload, encrypted_with):
                assert after[address] is not line, (name, address)
                changed[name] += 1
        following = injector.crash_at(next_ns)
        device, store, root, tags = per_line_image(result, next_ns)
        assert_same_state(following.device, device)
        assert_same_state(following.counter_store, store)
        assert (following.secure_root, following.line_tags) == (root, tags), name
    assert changed["torn-data"] and changed["bitflip-data"], changed
