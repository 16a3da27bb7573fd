"""Tests for the encryption engine (write/read paths, counter flow).

The engine picks and finds counters; the ciphertext a counter implies
is built only where it is observed, so the tests that speak of
ciphertext encrypt with :class:`~repro.crypto.otp.OTPCipher` under the
counter the engine picked.
"""

import pytest

from repro.bench.harness import run_workload
from repro.config import CACHE_LINE_SIZE, CounterCacheConfig, EncryptionConfig, fast_config
from repro.crash.injector import CrashInjector
from repro.crypto.counters import CounterStore
from repro.crypto.engine import EncryptionEngine
from repro.crypto.otp import OTPCipher, make_block_cipher
from repro.workloads.base import WorkloadParams

BASE = 1 << 20


@pytest.fixture
def engine():
    store = CounterStore(counter_region_base=BASE, memory_size_bytes=2 << 20)
    return EncryptionEngine(
        config=EncryptionConfig(),
        cache_config=CounterCacheConfig(size_bytes=4 * 1024, ways=4),
        counter_store=store,
    )


LINE = bytes(i % 256 for i in range(CACHE_LINE_SIZE))
CIPHER = OTPCipher(make_block_cipher(EncryptionConfig()))


class TestWritePath:
    def test_global_counter_monotonic(self, engine):
        first = engine.encrypt_for_write(0x40)
        second = engine.encrypt_for_write(0x80)
        assert second.counter > first.counter

    def test_ciphertext_differs_from_plaintext(self, engine):
        """The first write's counter is not 0, the stored-in-the-clear value."""
        result = engine.encrypt_for_write(0x40)
        assert result.counter != 0
        assert CIPHER.encrypt(0x40, result.counter, LINE) != LINE

    def test_rewrites_use_fresh_counters(self, engine):
        """Counter-mode never reuses a pad: rewriting the same line with
        the same data yields different ciphertext."""
        first = engine.encrypt_for_write(0x40)
        second = engine.encrypt_for_write(0x40)
        assert first.counter != second.counter
        assert CIPHER.encrypt(0x40, first.counter, LINE) != CIPHER.encrypt(
            0x40, second.counter, LINE
        )

    def test_write_miss_then_hit(self, engine):
        miss = engine.encrypt_for_write(0x40)
        hit = engine.encrypt_for_write(0x40)
        assert miss.counter_cache_hit is False
        assert hit.counter_cache_hit is True

    def test_counter_cached_after_write(self, engine):
        result = engine.encrypt_for_write(0x40)
        assert engine.counter_cache.lookup_for_read(0x40) == result.counter

    def test_timing_only_mode_produces_no_ciphertext(self):
        """A timing-only run moves no bytes: its crash images hold the
        zero line, not an enciphered one, under each line's counter."""
        config = fast_config(functional=False)
        params = WorkloadParams(operations=6, footprint_bytes=4096)
        result = run_workload("sca", "array", config=config, params=params).result
        image = CrashInjector(result).crash_at(result.stats.runtime_ns + 1.0)
        lines = [
            image.device.read_line(address)
            for address in image.device.touched_lines()
            if image.address_map.is_data_address(address)
        ]
        assert lines
        assert all(line.payload == bytes(CACHE_LINE_SIZE) for line in lines)
        assert all(line.encrypted_with > 0 for line in lines)


class TestReadPath:
    def test_round_trip_through_engine(self, engine):
        written = engine.encrypt_for_write(0x40)
        engine.persist_counter_line(0, engine.counter_store.read_counter_line(0))
        engine.counter_store.write(0x40, written.counter)
        read = engine.decrypt_for_read(0x40)
        assert read.counter == written.counter
        ciphertext = CIPHER.encrypt(0x40, written.counter, LINE)
        assert CIPHER.decrypt(0x40, read.counter, ciphertext) == LINE

    def test_read_uses_cached_counter_over_store(self, engine):
        """The cache's (newer) counter wins over the architectural one —
        the working copy is what decrypts forwarded data."""
        written = engine.encrypt_for_write(0x40)
        # Architectural store deliberately left stale (counter = 0).
        read = engine.decrypt_for_read(0x40)
        assert read.counter == written.counter
        assert engine.counter_store.read(0x40) == 0

    def test_read_miss_fills_from_store(self, engine):
        engine.counter_store.write(0x40, 55)
        read = engine.decrypt_for_read(0x40)
        assert read.counter == 55
        assert read.counter_cache_hit is False
        # Second read hits.
        again = engine.decrypt_for_read(0x40)
        assert again.counter_cache_hit is True

    def test_miss_statistics_count_one_access_per_read(self, engine):
        engine.decrypt_for_read(0x40)
        stats = engine.counter_cache.stats
        assert stats.read_misses == 1
        assert stats.read_hits == 0


class TestEvictionChain:
    def test_dirty_eviction_surfaces_payload(self):
        """Filling past the cache's capacity evicts dirty counter lines
        whose values must reach the caller for writeback."""
        from repro.config import CounterCacheConfig
        from repro.crypto.counter_cache import GROUP_SPAN

        store = CounterStore(counter_region_base=BASE, memory_size_bytes=2 << 20)
        engine = EncryptionEngine(
            config=EncryptionConfig(),
            cache_config=CounterCacheConfig(size_bytes=1024, ways=2),
            counter_store=store,
        )
        evicted = []
        # Touch many distinct groups so dirty lines get pushed out.
        for group in range(64):
            result = engine.encrypt_for_write(group * GROUP_SPAN)
            if result.evicted_counter_line is not None:
                evicted.append(result.evicted_counter_line)
        assert evicted, "expected dirty evictions from a tiny cache"
        for group_base, counters in evicted:
            assert len(counters) == 8
            assert any(value > 0 for value in counters)

    def test_persisting_evicted_line_syncs_store(self):
        from repro.config import CounterCacheConfig
        from repro.crypto.counter_cache import GROUP_SPAN

        store = CounterStore(counter_region_base=BASE, memory_size_bytes=2 << 20)
        engine = EncryptionEngine(
            config=EncryptionConfig(),
            cache_config=CounterCacheConfig(size_bytes=1024, ways=2),
            counter_store=store,
        )
        first = engine.encrypt_for_write(0)
        for group in range(1, 64):
            result = engine.encrypt_for_write(group * GROUP_SPAN)
            if result.evicted_counter_line is not None:
                group_base, counters = result.evicted_counter_line
                engine.persist_counter_line(group_base, counters)
        # Group 0's counter was evicted and persisted at some point.
        assert store.read(0) == first.counter
