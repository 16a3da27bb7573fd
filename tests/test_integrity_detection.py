"""Property test: with a Bonsai tree, NVM corruption never goes silent.

Hypothesis sweeps every NVM-corrupting fault model against crash points
of ``+bmt`` runs.  Whenever the oracle proves the recovered state wrong
and ordinary recovery did not notice (the ``silent-corruption`` bucket),
the post-crash tree verification — root-register walk plus ECC-lane tag
sweep, both over post-crash-visible state only — must flag the image.
Conversely, a capture with no fault events must verify clean.
"""

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.harness import run_workload
from repro.config import KB, fast_config
from repro.crash.injector import CrashInjector
from repro.crash.recovery import RecoveryManager
from repro.crypto.integrity import IntegrityEngine
from repro.faults.registry import make_fault_model
from repro.integrity import repair_image, verify_image
from repro.workloads.base import WorkloadParams

DESIGNS = ("fca+bmt", "sca+bmt")
#: Every registered fault model that mutates NVM contents.
CORRUPTING_FAULTS = (
    "torn-data",
    "torn-counter",
    "bitflip-data",
    "bitflip-counter",
    "counter-corruption",
)


@lru_cache(maxsize=None)
def outcome_for(design):
    return run_workload(
        design,
        "array",
        config=fast_config(),
        params=WorkloadParams(operations=6, seed=7, footprint_bytes=8 * KB),
    )


@lru_cache(maxsize=None)
def crash_times_for(design):
    injector = CrashInjector(outcome_for(design).result)
    return tuple(injector.interesting_times(limit=8))


@given(data=st.data())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_nvm_corruption_never_goes_silent_under_bmt(data):
    design = data.draw(st.sampled_from(DESIGNS), label="design")
    fault = data.draw(st.sampled_from(CORRUPTING_FAULTS), label="fault")
    seed = data.draw(st.integers(min_value=0, max_value=99), label="seed")
    times = crash_times_for(design)
    crash_ns = data.draw(st.sampled_from(times), label="crash_ns")
    outcome = outcome_for(design)
    injector = CrashInjector(outcome.result)
    image, events = injector.crash_with_faults(
        crash_ns, [make_fault_model(fault)], seed=seed
    )
    report = verify_image(image, outcome.result.config)
    if not events:
        assert report.clean, "no fault events but tree flagged: %s" % report.describe()
        return
    manager = RecoveryManager(outcome.result.config.encryption)
    try:
        recovered = manager.recover(image, encrypted=outcome.result.policy.encrypts)
        verdict = outcome.validator(0).classify(recovered)
    except Exception:
        return  # recovery crashed loudly: a detection, not silence
    if verdict.consistent or verdict.detected:
        return  # nothing silent to catch
    # The silent-corruption bucket: the tree must have flagged it.
    assert not report.clean, (
        "silent corruption escaped the tree: design=%s fault=%s crash=%.1fns"
        % (design, fault, crash_ns)
    )


@pytest.mark.parametrize("design", DESIGNS)
def test_clean_crash_images_verify_clean(design):
    outcome = outcome_for(design)
    injector = CrashInjector(outcome.result)
    for crash_ns in crash_times_for(design):
        report = verify_image(injector.crash_at(crash_ns), outcome.result.config)
        assert report.clean, "clean image flagged at %.1fns: %s" % (
            crash_ns,
            report.describe(),
        )


def reference_verify(image, config, max_lag):
    """Reference tag sweep: ``verify`` one candidate counter at a time."""
    mac = IntegrityEngine(config.encryption)
    checked, stale, failures = 0, 0, []
    for address in sorted(image.line_tags):
        if not image.address_map.is_data_address(address):
            continue
        stored = image.device.read_line(address)
        architectural = image.counter_store.read(address)
        tag = image.line_tags[address]
        checked += 1
        if mac.verify(address, architectural, stored.payload, tag):
            continue
        if any(
            mac.verify(address, architectural + lag, stored.payload, tag)
            for lag in range(1, max_lag + 1)
        ):
            stale += 1
        else:
            failures.append(address)
    return checked, stale, failures


@pytest.mark.parametrize("design", DESIGNS)
def test_tag_sweep_matches_per_candidate_reference(design):
    outcome = outcome_for(design)
    config = outcome.result.config
    injector = CrashInjector(outcome.result)
    mac = IntegrityEngine(config.encryption)
    times = crash_times_for(design) + tuple(injector.midpoint_times(limit=8))
    flagged = 0
    for index, crash_ns in enumerate(times):
        fault = make_fault_model(CORRUPTING_FAULTS[index % len(CORRUPTING_FAULTS)])
        image, _events = injector.crash_with_faults(crash_ns, [fault], seed=index)
        # The captured ECC-lane tags are the per-line tags of the image
        # as persisted (faults mutate it only after capture).
        clean = injector.crash_at(crash_ns)
        captured = {}
        for address in clean.device.touched_lines():
            if clean.address_map.is_data_address(address):
                stored = clean.device.read_line(address)
                captured[address] = mac.tag(address, stored.encrypted_with, stored.payload)
        assert image.line_tags == captured
        for max_lag in (1, config.integrity.max_counter_lag):
            report = verify_image(image, config, max_lag=max_lag)
            assert (
                report.lines_checked,
                report.stale_lines,
                report.tag_failures,
            ) == reference_verify(image, config, max_lag)
            flagged += report.stale_lines + len(report.tag_failures)
    assert flagged, "no image exercised the forward-window search"


def test_torn_counter_detected_and_repaired():
    """The Phoenix + Osiris path: a torn counter line moves the root;
    the bounded counter search restores it and the reseal verifies."""
    outcome = outcome_for("fca+bmt")
    injector = CrashInjector(outcome.result)
    model = make_fault_model("torn-counter")
    flagged = 0
    for crash_ns in crash_times_for("fca+bmt"):
        image, events = injector.crash_with_faults(crash_ns, [model], seed=3)
        if not events:
            continue
        report = verify_image(image, outcome.result.config)
        if report.clean:
            continue  # the tear landed on an identical payload
        flagged += 1
        recovery, after = repair_image(image, outcome.result.config)
        assert after.clean, "repair left a dirty image: %s" % after.describe()
        assert recovery.recovered >= 1
    assert flagged >= 1, "no crash point exercised the torn-counter path"
