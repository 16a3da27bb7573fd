"""Tests for post-crash decryption and the recovered-memory view."""

import hashlib
from functools import lru_cache

import pytest

from repro.bench.harness import run_workload
from repro.config import KB, fast_config
from repro.crash.injector import CrashInjector
from repro.crash.recovery import RecoveredMemory, RecoveryManager
from repro.crypto.otp import OTPCipher, make_block_cipher
from repro.errors import DecryptionFailure
from repro.faults.registry import make_fault_model
from repro.sim.machine import Machine
from repro.sim.trace import TraceBuilder
from repro.utils.bitops import u64_to_bytes
from repro.workloads.base import WorkloadParams


def run_trace(design, build):
    builder = TraceBuilder("t")
    build(builder)
    return Machine(fast_config(), design).run([builder.build()])


def flushed_writes(builder):
    builder.store_u64(0x1000, 0xAB)
    builder.clwb(0x1000)
    builder.ccwb(0x1000)
    builder.persist_barrier()


class TestDecryption:
    def test_flushed_data_recovers(self):
        result = run_trace("sca", flushed_writes)
        injector = CrashInjector(result)
        recovered = RecoveryManager(result.config.encryption).recover(
            injector.crash_at(result.stats.runtime_ns + 1e6)
        )
        assert recovered.read_u64(0x1000) == 0xAB
        assert not recovered.garbage_lines

    def test_unsafe_design_leaves_garbage(self):
        """Without ccwb support or pairing, the counter never persists:
        the data line in NVM cannot be decrypted (Figure 3(a))."""
        result = run_trace("unsafe", flushed_writes)
        injector = CrashInjector(result)
        recovered = RecoveryManager(result.config.encryption).recover(
            injector.crash_at(result.stats.runtime_ns + 1e6)
        )
        assert recovered.is_garbage(0x1000)
        with pytest.raises(DecryptionFailure):
            recovered.read_u64(0x1000)

    def test_non_strict_read_returns_garbage_bytes(self):
        result = run_trace("unsafe", flushed_writes)
        injector = CrashInjector(result)
        recovered = RecoveryManager(result.config.encryption).recover(
            injector.crash_at(result.stats.runtime_ns + 1e6)
        )
        garbage = recovered.read(0x1000, 8, strict=False)
        assert garbage != (0xAB).to_bytes(8, "little")

    def test_unencrypted_recovery(self):
        result = run_trace("no-encryption", flushed_writes)
        injector = CrashInjector(result)
        recovered = RecoveryManager(result.config.encryption).recover(
            injector.crash_at(result.stats.runtime_ns + 1e6), encrypted=False
        )
        assert recovered.read_u64(0x1000) == 0xAB

    def test_untouched_lines_read_zero(self):
        result = run_trace("sca", flushed_writes)
        injector = CrashInjector(result)
        recovered = RecoveryManager(result.config.encryption).recover(
            injector.crash_at(result.stats.runtime_ns + 1e6)
        )
        assert recovered.read_u64(0x7000) == 0

    def test_multi_line_read_spans(self):
        def build(builder):
            builder.store(0x1000, bytes(range(64)))
            builder.store(0x1040, bytes(range(64, 128)))
            builder.clwb(0x1000)
            builder.clwb(0x1040)
            builder.ccwb(0x1000)
            builder.persist_barrier()

        result = run_trace("sca", build)
        injector = CrashInjector(result)
        recovered = RecoveryManager(result.config.encryption).recover(
            injector.crash_at(result.stats.runtime_ns + 1e6)
        )
        assert recovered.read(0x1030, 32) == bytes(range(48, 80))

    def test_violations_listing(self):
        result = run_trace("unsafe", flushed_writes)
        injector = CrashInjector(result)
        manager = RecoveryManager(result.config.encryption)
        image = injector.crash_at(result.stats.runtime_ns + 1e6)
        violations = manager.violations(image)
        assert any(v.address == 0x1000 for v in violations)


@lru_cache(maxsize=None)
def hash_run(design):
    """A hash run whose images hold ~70 data lines: past the numpy threshold."""
    return run_workload(
        design,
        "hash",
        config=fast_config(),
        params=WorkloadParams(operations=24, seed=5, footprint_bytes=16 * KB),
    ).result


def reference_recover(image, encryption, encrypted=True):
    """Reference decryption: ``decrypt`` one line at a time."""
    cipher = OTPCipher(make_block_cipher(encryption))
    plaintext, garbage = {}, set()
    for line in image.device.touched_lines():
        if not image.address_map.is_data_address(line):
            continue
        stored = image.device.read_line(line)
        if not encrypted:
            plaintext[line] = stored.payload
            continue
        architectural = image.counter_store.read(line)
        plaintext[line] = cipher.decrypt(line, architectural, stored.payload)
        if architectural != stored.encrypted_with:
            garbage.add(line)
    return plaintext, garbage


class TestBatchedRecovery:
    """``recover`` decrypts a whole image in one batch, bit-identically."""

    @pytest.mark.parametrize("design", ["sca", "fca", "co-located-cc", "sca+bmt"])
    def test_matches_per_line_decrypt_under_counter_bitflips(self, design):
        result = hash_run(design)
        injector = CrashInjector(result)
        times = injector.interesting_times(limit=6) + injector.midpoint_times(limit=6)
        fault = make_fault_model("bitflip-counter")
        garbage_seen = 0
        for seed, crash_ns in enumerate(times):
            image, _events = injector.crash_with_faults(crash_ns, [fault], seed=seed)
            manager = RecoveryManager(result.config.encryption)
            recovered = manager.recover(image)
            plaintext, garbage = reference_recover(image, result.config.encryption)
            assert recovered.plaintext_lines == plaintext
            assert list(recovered.plaintext_lines) == list(plaintext)
            assert recovered.garbage_lines == garbage
            garbage_seen += len(garbage)
        assert garbage_seen, "no flipped counter produced a garbage line"

    def test_matches_reference_unencrypted(self):
        result = hash_run("no-encryption")
        injector = CrashInjector(result)
        for crash_ns in injector.interesting_times(limit=4):
            image = injector.crash_at(crash_ns)
            recovered = RecoveryManager(result.config.encryption).recover(
                image, encrypted=False
            )
            plaintext, garbage = reference_recover(
                image, result.config.encryption, encrypted=False
            )
            assert recovered.plaintext_lines == plaintext
            assert recovered.garbage_lines == garbage == set()


class TestCrashTiming:
    def test_data_absent_before_clwb_acceptance(self):
        """Stores alone are volatile: a crash before the clwb's queue
        acceptance loses the line entirely (cache contents vanish)."""
        result = run_trace("sca", flushed_writes)
        injector = CrashInjector(result)
        image = injector.crash_at(1.0)  # before any writeback
        recovered = RecoveryManager(result.config.encryption).recover(image)
        assert recovered.read_u64(0x1000) == 0


def per_update_fingerprint(recovered):
    """The fingerprint as one ``update`` per address, line and garbage entry."""
    digest = hashlib.sha256()
    for address in sorted(recovered.plaintext_lines):
        digest.update(u64_to_bytes(address))
        digest.update(recovered.plaintext_lines[address])
    digest.update(b"|garbage|")
    for address in sorted(recovered.garbage_lines):
        digest.update(u64_to_bytes(address))
    return digest.hexdigest()


class TestFingerprint:
    def test_pinned_and_equal_to_the_per_update_hash(self):
        lines = {
            0x1000: bytes(range(64)),
            0x40: b"\xff" * 64,
            0x7FC0: bytes(64),
            0xFFFF_FFFF_FFC0: b"\x5a" * 64,
        }
        recovered = RecoveredMemory(
            image=None, plaintext_lines=lines, garbage_lines={0x7FC0, 0x2000}
        )
        assert recovered.fingerprint() == per_update_fingerprint(recovered)
        assert recovered.fingerprint() == (
            "0357f1fffab2079af33441eda13d23592d390fc935bf7e2dafec5d98d9add42a"
        )
        empty = RecoveredMemory(image=None, plaintext_lines={}, garbage_lines=set())
        assert empty.fingerprint() == per_update_fingerprint(empty)

    def test_recovered_image_matches_the_per_update_hash(self):
        result = run_trace("sca", flushed_writes)
        recovered = RecoveryManager(result.config.encryption).recover(
            CrashInjector(result).crash_at(result.stats.runtime_ns + 1e6)
        )
        recovered.garbage_lines.add(0x2000)
        assert recovered.fingerprint() == per_update_fingerprint(recovered)
