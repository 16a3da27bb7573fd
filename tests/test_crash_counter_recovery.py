"""Tests for Osiris-style counter recovery over crash images."""

import pytest

from repro.config import KB, EncryptionConfig, fast_config
from repro.bench.harness import run_workload
from repro.crash.counter_recovery import (
    CounterRecoverer,
    CounterRecoveryReport,
    collect_tags,
)
from repro.crash.injector import CrashInjector
from repro.crash.recovery import RecoveryManager
from repro.crypto.integrity import IntegrityEngine, TaggedLine
from repro.crypto.otp import OTPCipher, make_block_cipher
from repro.errors import CryptoError
from repro.faults.registry import make_fault_model
from repro.sim.machine import Machine
from repro.sim.trace import TraceBuilder
from repro.workloads.base import WorkloadParams

LINE = bytes(i % 256 for i in range(64))


class TestRecoverLine:
    def _tagged(self, recoverer, address, counter):
        cipher = OTPCipher(make_block_cipher(EncryptionConfig()))
        ciphertext = cipher.encrypt(address, counter, LINE)
        tag = recoverer.integrity.tag(address, counter, ciphertext)
        return TaggedLine(address=address, ciphertext=ciphertext, tag=tag)

    def test_exact_counter_found_first(self):
        recoverer = CounterRecoverer(EncryptionConfig(), max_lag=8)
        line = self._tagged(recoverer, 0x40, 100)
        assert recoverer.recover_line(line, 100) == 100

    def test_lagging_counter_recovered_within_bound(self):
        recoverer = CounterRecoverer(EncryptionConfig(), max_lag=8)
        line = self._tagged(recoverer, 0x40, 100)
        assert recoverer.recover_line(line, 95) == 100

    def test_lag_beyond_bound_unrecoverable(self):
        recoverer = CounterRecoverer(EncryptionConfig(), max_lag=4)
        line = self._tagged(recoverer, 0x40, 100)
        assert recoverer.recover_line(line, 90) is None

    def test_counter_ahead_of_truth_unrecoverable(self):
        """Search only looks forward: counters never regress."""
        recoverer = CounterRecoverer(EncryptionConfig(), max_lag=8)
        line = self._tagged(recoverer, 0x40, 100)
        assert recoverer.recover_line(line, 103) is None

    def test_bad_lag_rejected(self):
        with pytest.raises(ValueError):
            CounterRecoverer(EncryptionConfig(), max_lag=0)

    def test_short_tag_rejected(self):
        recoverer = CounterRecoverer(EncryptionConfig(), max_lag=8)
        line = self._tagged(recoverer, 0x40, 100)
        short = TaggedLine(address=line.address, ciphertext=line.ciphertext, tag=line.tag[:7])
        with pytest.raises(CryptoError):
            recoverer.recover_line(short, 100)


def reference_tags(image, engine):
    """Per-line ``tag`` over every persisted data line."""
    tags = {}
    for address in image.device.touched_lines():
        if image.address_map.is_data_address(address):
            stored = image.device.read_line(address)
            tags[address] = engine.tag(address, stored.encrypted_with, stored.payload)
    return tags


def reference_recover_image(image, encryption, max_lag):
    """Reference search: ``verify`` one candidate counter at a time."""
    engine = IntegrityEngine(encryption)
    report = CounterRecoveryReport()
    for address, tag in sorted(reference_tags(image, engine).items()):
        stored = image.device.read_line(address)
        architectural = image.counter_store.read(address)
        report.lines_checked += 1
        if architectural == stored.encrypted_with:
            report.already_consistent += 1
            continue
        found = None
        for lag in range(max_lag + 1):
            if engine.verify(address, architectural + lag, stored.payload, tag):
                found = architectural + lag
                break
        report.candidates_tried += (
            found - architectural + 1 if found is not None else max_lag + 1
        )
        if found is not None and found == stored.encrypted_with:
            report.recovered += 1
            report.recovered_counters[address] = found
            image.counter_store.write(address, found)
        else:
            report.unrecoverable += 1
    return report


class TestBatchedSearch:
    """``recover_image`` reports what a per-candidate search reports."""

    @pytest.mark.parametrize(
        "design,fault,max_lag",
        [("unsafe", None, 64), ("sca", "bitflip-counter", 64), ("fca", "counter-corruption", 8)],
    )
    def test_report_matches_per_candidate_reference(self, design, fault, max_lag):
        params = WorkloadParams(operations=24, seed=5, footprint_bytes=16 * KB)
        result = run_workload(design, "hash", config=fast_config(), params=params).result
        injector = CrashInjector(result)
        models = [make_fault_model(fault)] if fault else []
        searched = 0
        for seed, crash_ns in enumerate(injector.interesting_times(limit=8)):
            batched, _ = injector.crash_with_faults(crash_ns, models, seed=seed)
            reference, _ = injector.crash_with_faults(crash_ns, models, seed=seed)
            recoverer = CounterRecoverer(result.config.encryption, max_lag=max_lag)
            assert collect_tags(batched, recoverer) == reference_tags(
                batched, recoverer.integrity
            )
            report = recoverer.recover_image(batched)
            expected = reference_recover_image(reference, result.config.encryption, max_lag)
            assert report == expected
            assert batched.counter_store.snapshot() == reference.counter_store.snapshot()
            searched += report.recovered + report.unrecoverable
        assert searched, "no image needed the counter search"


class TestImageRecovery:
    def _crash_image(self, design, fraction=0.6):
        builder = TraceBuilder("t")
        for i in range(6):
            builder.store_u64(0x1000 + i * 64, i + 1)
            builder.clwb(0x1000 + i * 64)
        builder.ccwb(0x1000)
        builder.persist_barrier()
        result = Machine(fast_config(), design).run([builder.build()])
        injector = CrashInjector(result)
        crash_ns = result.stats.runtime_ns * fraction
        return result, injector.crash_at(crash_ns)

    def test_consistent_image_needs_no_recovery(self):
        result, image = self._crash_image("sca", fraction=2.0)
        recoverer = CounterRecoverer(result.config.encryption)
        report = recoverer.recover_image(image)
        assert report.unrecoverable == 0
        assert report.recovered == 0
        assert report.already_consistent == report.lines_checked

    def test_unsafe_image_recovered_by_search(self):
        """The headline extension result: crash states the unsafe
        design cannot decrypt become fully decryptable with tags +
        bounded counter search."""
        result, image = self._crash_image("unsafe", fraction=2.0)
        manager = RecoveryManager(result.config.encryption)
        before = manager.recover(image)
        assert before.garbage_lines, "expected undecryptable lines"

        recoverer = CounterRecoverer(result.config.encryption, max_lag=64)
        report = recoverer.recover_image(image)
        assert report.recovered == len(before.garbage_lines)
        assert report.unrecoverable == 0

        after = manager.recover(image)
        assert not after.garbage_lines
        assert after.read_u64(0x1000) == 1

    def test_report_accounting(self):
        result, image = self._crash_image("unsafe", fraction=2.0)
        recoverer = CounterRecoverer(result.config.encryption, max_lag=64)
        report = recoverer.recover_image(image)
        assert report.lines_checked == (
            report.already_consistent + report.recovered + report.unrecoverable
        )
        assert 0.0 <= report.recovery_rate <= 1.0
        assert report.candidates_tried >= report.recovered

    def test_workload_scale_recovery(self):
        params = WorkloadParams(operations=8, footprint_bytes=8 * KB)
        outcome = run_workload("unsafe", "array", params=params)
        injector = CrashInjector(outcome.result)
        image = injector.crash_at(outcome.stats.runtime_ns + 1e9)
        recoverer = CounterRecoverer(outcome.result.config.encryption, max_lag=512)
        report = recoverer.recover_image(image)
        assert report.recovery_rate == 1.0
