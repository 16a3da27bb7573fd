"""Tests for the memory controller across all design policies."""

import pytest

from repro.config import CACHE_LINE_SIZE, fast_config
from repro.core.designs import get_design
from repro.crypto.otp import OTPCipher, make_block_cipher
from repro.mem.controller import COLOCATED_PAYLOAD, MemoryController

LINE = bytes(i % 256 for i in range(64))
LINE2 = bytes((i * 3) % 256 for i in range(64))


def controller(design: str, **config_overrides) -> MemoryController:
    config = fast_config()
    if config_overrides:
        config = config.scaled(**config_overrides)
    return MemoryController(config, get_design(design))


class TestNoEncryption:
    def test_write_then_read_round_trip(self):
        ctl = controller("no-encryption")
        ctl.write_line(0x40, LINE, 0.0)
        result = ctl.read_line(0x40, 1000.0)
        assert result.plaintext == LINE

    def test_read_latency_without_decrypt(self):
        ctl = controller("no-encryption")
        result = ctl.read_line(0x40, 0.0)
        expected = ctl.timing.read_access_ns + ctl.timing.burst_ns(64)
        assert result.complete_ns == pytest.approx(expected)

    def test_traffic_is_64B_per_line(self):
        ctl = controller("no-encryption")
        ctl.write_line(0x40, LINE, 0.0)
        assert ctl.stats.bytes_written == 64


class TestSeparateCounterDesigns:
    @pytest.mark.parametrize("design", ["sca", "fca", "ideal", "unsafe"])
    def test_round_trip(self, design):
        ctl = controller(design)
        ctl.write_line(0x40, LINE, 0.0)
        result = ctl.read_line(0x40, 1000.0)
        assert result.plaintext == LINE

    def test_device_stores_ciphertext(self):
        """NVM holds the line enciphered under its counter, as the final
        image shows it; the live device keeps the written bytes under
        that counter, and nothing is enciphered until an image is built."""
        ctl = controller("sca")
        ctl.write_line(0x40, LINE, 0.0)
        stored = ctl.device.read_line(0x40)
        assert stored.payload == LINE
        assert stored.encrypted_with > 0
        cipher = OTPCipher(make_block_cipher(ctl.config.encryption))
        data_lines, _counters = ctl.journal.final_image(cipher)
        ciphertext, counter = data_lines[0x40]
        assert counter == stored.encrypted_with
        assert ciphertext != LINE
        assert cipher.decrypt(0x40, counter, ciphertext) == LINE

    def test_counter_hit_read_overlaps_decrypt(self):
        ctl = controller("sca")
        ctl.write_line(0x40, LINE, 0.0)  # counter now cached
        result = ctl.read_line(0x40, 10000.0)
        raw = result.raw_read_ns
        # Overlap: completion is max(read, 40ns), not read + 40ns.
        assert result.complete_ns - 10000.0 == pytest.approx(
            max(raw, ctl.engine.latency_ns)
        )

    def test_counter_miss_read_fetches_counter_line(self):
        ctl = controller("sca")
        ctl.write_line(0x40, LINE, 0.0)
        ctl.engine.counter_cache.invalidate_all()
        before = ctl.stats.counter_fill_reads
        ctl.read_line(0x40, 10000.0)
        assert ctl.stats.counter_fill_reads == before + 1

    def test_sca_plain_write_sends_no_counter_write(self):
        ctl = controller("sca")
        ctl.write_line(0x40, LINE, 0.0, counter_atomic=False)
        assert ctl.stats.counter_writes == 0

    def test_sca_ca_write_pairs(self):
        ctl = controller("sca")
        ticket = ctl.write_line(0x40, LINE, 0.0, counter_atomic=True)
        assert ticket.paired
        assert ctl.stats.paired_writes == 1
        assert ctl.stats.counter_writes == 1

    def test_fca_pairs_every_write(self):
        ctl = controller("fca")
        ctl.write_line(0x40, LINE, 0.0, counter_atomic=False)
        ctl.write_line(0x80, LINE, 0.0, counter_atomic=True)
        assert ctl.stats.paired_writes == 2

    def test_pair_persists_architectural_counter(self):
        ctl = controller("sca")
        ticket = ctl.write_line(0x40, LINE, 0.0, counter_atomic=True)
        assert ticket.paired
        assert ctl.counter_store.read(0x40) != 0

    def test_plain_write_leaves_architectural_counter_stale(self):
        """The SCA window: data persisted, counter only in the cache."""
        ctl = controller("sca")
        ctl.write_line(0x40, LINE, 0.0, counter_atomic=False)
        assert ctl.counter_store.read(0x40) == 0

    def test_ideal_counters_magically_persist(self):
        ctl = controller("ideal")
        ctl.write_line(0x40, LINE, 0.0, counter_atomic=False)
        assert ctl.counter_store.read(0x40) != 0
        assert ctl.stats.counter_writes == 0  # and for free


class TestCounterCacheWriteback:
    def test_ccwb_flushes_dirty_counters(self):
        ctl = controller("sca")
        ctl.write_line(0x40, LINE, 0.0, counter_atomic=False)
        ticket = ctl.counter_cache_writeback(0x40, 10.0)
        assert ticket is not None
        assert ctl.counter_store.read(0x40) != 0

    def test_ccwb_on_clean_line_is_noop(self):
        ctl = controller("sca")
        ctl.write_line(0x40, LINE, 0.0, counter_atomic=False)
        ctl.counter_cache_writeback(0x40, 10.0)
        assert ctl.counter_cache_writeback(0x40, 20.0) is None

    def test_ccwb_disabled_for_fca(self):
        ctl = controller("fca")
        ctl.write_line(0x40, LINE, 0.0)
        assert ctl.counter_cache_writeback(0x40, 10.0) is None

    def test_ccwb_disabled_without_encryption(self):
        ctl = controller("no-encryption")
        assert ctl.counter_cache_writeback(0x40, 10.0) is None


class TestColocatedDesigns:
    @pytest.mark.parametrize("design", ["co-located", "co-located-cc"])
    def test_round_trip(self, design):
        ctl = controller(design)
        ctl.write_line(0x40, LINE, 0.0)
        result = ctl.read_line(0x40, 5000.0)
        assert result.plaintext == LINE

    def test_single_72B_write(self):
        ctl = controller("co-located")
        ctl.write_line(0x40, LINE, 0.0)
        assert ctl.stats.bytes_written == COLOCATED_PAYLOAD
        assert ctl.stats.counter_writes == 0

    def test_reads_fetch_72B(self):
        ctl = controller("co-located")
        ctl.read_line(0x40, 0.0)
        assert ctl.stats.bytes_read == COLOCATED_PAYLOAD

    def test_no_cache_design_serializes_decrypt(self):
        ctl = controller("co-located")
        ctl.write_line(0x40, LINE, 0.0)
        result = ctl.read_line(0x40, 10000.0)
        assert result.complete_ns - 10000.0 == pytest.approx(
            result.raw_read_ns + ctl.engine.latency_ns
        )

    def test_cache_design_overlaps_on_hit(self):
        ctl = controller("co-located-cc")
        ctl.write_line(0x40, LINE, 0.0)  # counter cached by the write
        result = ctl.read_line(0x40, 10000.0)
        assert result.counter_cache_hit
        assert result.complete_ns - 10000.0 == pytest.approx(
            max(result.raw_read_ns, ctl.engine.latency_ns)
        )

    def test_cache_design_serializes_on_miss_then_hits(self):
        ctl = controller("co-located-cc")
        ctl.write_line(0x40, LINE, 0.0)
        ctl.engine.counter_cache.invalidate_all()
        miss = ctl.read_line(0x40, 10000.0)
        assert not miss.counter_cache_hit
        hit = ctl.read_line(0x40, 20000.0)
        assert hit.counter_cache_hit


class TestCoalescing:
    def test_repeated_plain_writes_coalesce(self):
        ctl = controller("sca")
        first = ctl.write_line(0x40, LINE, 0.0)
        second = ctl.write_line(0x40, LINE2, 1.0)
        assert not first.coalesced
        assert second.coalesced
        assert ctl.stats.bytes_written == 64

    def test_coalesced_write_updates_device(self):
        ctl = controller("sca")
        ctl.write_line(0x40, LINE, 0.0)
        ctl.write_line(0x40, LINE2, 1.0)
        result = ctl.read_line(0x40, 10000.0)
        assert result.plaintext == LINE2

    def test_pair_to_pair_merge(self):
        ctl = controller("sca")
        first = ctl.write_line(0x40, LINE, 0.0, counter_atomic=True)
        second = ctl.write_line(0x40, LINE2, 1.0, counter_atomic=True)
        assert first.paired and second.paired
        assert second.coalesced
        result = ctl.read_line(0x40, 10000.0)
        assert result.plaintext == LINE2

    def test_plain_write_does_not_merge_into_pair(self):
        ctl = controller("sca")
        ctl.write_line(0x40, LINE, 0.0, counter_atomic=True)
        plain = ctl.write_line(0x40, LINE2, 1.0, counter_atomic=False)
        assert not plain.coalesced

    def test_coalescing_disabled_by_config(self):
        config = fast_config().with_controller(coalesce_writes=False)
        ctl = MemoryController(config, get_design("sca"))
        ctl.write_line(0x40, LINE, 0.0)
        second = ctl.write_line(0x40, LINE2, 1.0)
        assert not second.coalesced


class TestBusWidthSelection:
    def test_colocated_uses_72bit_bus(self):
        assert controller("co-located").timing.bus_width_bits == 72

    def test_separate_uses_64bit_bus(self):
        assert controller("sca").timing.bus_width_bits == 64


class TestFifoDrainAblation:
    def test_fifo_serializes_drains(self):
        config = fast_config().with_controller(drain_policy="fifo")
        fifo = MemoryController(config, get_design("sca"))
        relaxed = controller("sca")
        for ctl in (fifo, relaxed):
            for i in range(8):
                ctl.write_line(i * 64, LINE, 0.0)
        fifo_last = max(r.drain_ns for r in fifo.journal.records)
        relaxed_last = max(r.drain_ns for r in relaxed.journal.records)
        assert fifo_last > relaxed_last


class TestReadQueue:
    def test_slots_released_after_arrival(self):
        ctl = controller("no-encryption")
        for i in range(8):
            ctl.read_line(0x1000 + i * 64, 10000.0 * i)
        # Widely spaced reads never accumulate.
        assert ctl.read_queue_peak <= 2

    def test_burst_beyond_capacity_waits(self):
        config_small = fast_config().with_controller(read_queue_entries=2)
        ctl = MemoryController(config_small, get_design("no-encryption"))
        # Three simultaneous reads to one bank: the third must wait for
        # a queue slot (and records the wait).
        ctl.read_line(0x1000, 0.0)
        ctl.read_line(0x1000 + 8 * 64, 0.0)  # same bank, different row
        ctl.read_line(0x1000 + 16 * 64, 0.0)
        assert ctl.total_read_queue_wait_ns > 0.0
        assert ctl.read_queue_peak == 2

    def test_counter_fills_share_the_read_queue(self):
        ctl = controller("sca")
        ctl.write_line(0x1000, LINE, 0.0)
        ctl.engine.counter_cache.invalidate_all()
        ctl.read_line(0x1000, 5000.0)  # data read + parallel counter fill
        assert ctl.read_queue_peak >= 1
