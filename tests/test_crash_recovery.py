"""Tests for post-crash decryption and the recovered-memory view."""

import hashlib
from functools import lru_cache

import pytest

from repro.bench.harness import run_workload
from repro.config import CACHE_LINE_SIZE, KB, fast_config
from repro.core.designs import list_designs
from repro.crash.injector import CrashInjector, nested_crash_image
from repro.crash.recovery import RecoveredMemory, RecoveryManager
from repro.crypto.otp import OTPCipher, make_block_cipher
from repro.errors import DecryptionFailure
from repro.faults.base import apply_fault_models
from repro.faults.registry import list_fault_models, make_fault_model
from repro.persist.journal import JournalKind
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


ALL_DESIGNS = list_designs(include_unsafe=True, include_integrity=True)
FAULTS = list_fault_models()


@lru_cache(maxsize=None)
def oracle_run(design, cores=1, shards=1):
    """A small hash run with a ``None`` payload on every fifth data version.

    A functional run journals every data write with its bytes, but the
    journal also takes ``None``, the zero line: recovery must decrypt
    such a line, not take it from its version.  The payloads are set
    before any image is built.
    """
    result = run_workload(
        design,
        "hash",
        config=fast_config(num_cores=cores, shards=shards),
        params=WorkloadParams(operations=12, seed=5, footprint_bytes=16 * KB),
    ).result
    versions = [
        version
        for record in result.controller.journal.records
        if record.kind is JournalKind.DATA
        for version in (record, *record.amendments)
    ]
    for version in versions[::5]:
        version.payload = None
    return result


def assert_recovers_like_the_oracle(result, image):
    """``recover`` equals :func:`reference_recover`, which decrypts every line.

    Checked with the design's own ``encrypted`` flag and with decryption
    forced on.  Returns how many lines could take their plaintext from
    their journal version, so callers can check that both paths ran.
    """
    manager = RecoveryManager(result.config.encryption)
    for encrypted in sorted({result.policy.encrypts, True}):
        recovered = manager.recover(image, encrypted=encrypted)
        plaintext, garbage = reference_recover(image, result.config.encryption, encrypted)
        assert list(recovered.plaintext_lines.items()) == list(plaintext.items())
        assert recovered.garbage_lines == garbage
        reference = RecoveredMemory(image=image, plaintext_lines=plaintext, garbage_lines=garbage)
        assert recovered.fingerprint() == reference.fingerprint()
    if image.versions is None or not result.policy.encrypts:
        return 0
    lines = image.device.snapshot()
    return sum(
        1
        for address, version in image.versions.items()
        if version.line is lines[address]
        and version.payload is not None
        and image.counter_store.read(address) == version.encrypted_with
    )


class TestRecoveryOracle:
    """The shortcut ``recover`` takes equals decrypting every line.

    Every design and every registered fault model, on one core, on four
    cores with a failed shard, and on nested crash images.
    """

    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_one_core_images_under_every_fault_model(self, design):
        result = oracle_run(design)
        injector = CrashInjector(result)
        times = injector.interesting_times(limit=4) + injector.midpoint_times(limit=4)
        taken = lines = 0
        for name in FAULTS:
            for seed, crash_ns in enumerate(times):
                image, _events = injector.crash_with_faults(
                    crash_ns, [make_fault_model(name)], seed=seed
                )
                taken += assert_recovers_like_the_oracle(result, image)
                lines += len(image.device.snapshot())
        # Both paths ran (unsafe persists no counter: all its lines are garbage).
        if result.policy.encrypts and design != "unsafe":
            assert 0 < taken < lines, (taken, lines)

    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_four_cores_with_a_failed_shard(self, design):
        result = oracle_run(design, cores=4, shards=2)
        injector = CrashInjector(result)
        times = injector.midpoint_times(limit=4)
        taken = 0
        for index, name in enumerate(FAULTS):
            model = make_fault_model(name)
            for crash_ns in times:
                image = injector.crash_shards(
                    crash_ns, (index % 2,), adr_budget=model.adr_budget
                )
                apply_fault_models(image, [model], seed=index, scope=(crash_ns,))
                taken += assert_recovers_like_the_oracle(result, image)
        if result.policy.encrypts and design != "unsafe":
            assert taken

    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_nested_crash_images(self, design):
        result = oracle_run(design)
        injector = CrashInjector(result)
        fault = make_fault_model("bitflip-counter")
        for seed, crash_ns in enumerate(injector.midpoint_times(limit=3)):
            image, _events = injector.crash_with_faults(crash_ns, [fault], seed=seed)
            # Recovery rewrote two stored lines and one line never persisted.
            addresses = sorted(image.device.snapshot())[:2] + [0x3FC0]
            persisted = {
                address: bytes([index + 1]) * CACHE_LINE_SIZE
                for index, address in enumerate(addresses)
            }
            nested = nested_crash_image(
                image, persisted, result.config, encrypted=result.policy.encrypts
            )
            assert nested.versions is None
            assert_recovers_like_the_oracle(result, nested)


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
