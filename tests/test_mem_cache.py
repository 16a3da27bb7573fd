"""Tests for the set-associative cache level (functional + metadata)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CACHE_LINE_SIZE, CacheConfig
from repro.errors import AddressError
from repro.mem.cache import Cache

SMALL = CacheConfig(size_bytes=4 * 1024, ways=4, hit_latency_ns=1.0)
LINE = bytes(range(64))


@pytest.fixture
def cache():
    return Cache(SMALL, functional=True, name="test")


class TestFillAndRead:
    def test_miss_then_hit(self, cache):
        assert cache.read(0x40) is None
        cache.fill(0x40, LINE)
        assert cache.read(0x40).read_bytes(0, 8) == LINE[:8]

    def test_offset_reads(self, cache):
        cache.fill(0x40, LINE)
        line = cache.read(0x48)
        assert line is cache.peek(0x40)
        assert line.read_bytes(8, 4) == LINE[8:12]

    def test_stats_track_hits_and_misses(self, cache):
        cache.read(0x40)
        cache.fill(0x40, LINE)
        cache.read(0x40)
        assert cache.stats.read_misses == 1
        assert cache.stats.read_hits == 1
        assert cache.stats.miss_rate == pytest.approx(0.5)


class TestWrites:
    def test_write_miss_returns_false(self, cache):
        assert cache.write(0x40, b"12345678", 8) is False
        assert cache.occupancy() == 0

    def test_write_hit_mutates_line(self, cache):
        cache.fill(0x40, LINE)
        cache.write(0x40, b"\xff" * 8, 8)
        assert cache.read(0x40).read_bytes(0, 8) == b"\xff" * 8

    def test_write_miss_counts_nothing(self, cache):
        cache.write(0x40, b"12345678", 8)
        assert cache.stats.write_misses == 0
        assert cache.stats.accesses == 0

    def test_write_through_takes_bytes_and_ends_clean(self, cache):
        cache.fill(0x40, LINE)
        cache.write(0x40, b"\xff" * 8, 8, counter_atomic=True)
        assert cache.write(0x40, b"\x11" * 64, 64, dirty=False) is True
        line = cache.peek(0x40)
        assert not line.dirty
        assert line.counter_atomic  # only a writeback clears the flag
        assert line.read_bytes(0, 64) == b"\x11" * 64
        assert cache.stats.write_hits == 2

    def test_write_sets_dirty(self, cache):
        cache.fill(0x40, LINE)
        cache.write(0x40, b"\xff" * 8, 8)
        assert cache.peek(0x40).dirty

    def test_counter_atomic_flag_sticks(self, cache):
        """Section 5.1: the CounterAtomic annotation rides with the line
        until it is written back."""
        cache.fill(0x40, LINE)
        cache.write(0x40, b"\x01" * 8, 8, counter_atomic=True)
        cache.write(0x48, b"\x02" * 8, 8, counter_atomic=False)
        assert cache.peek(0x40).counter_atomic


class TestClwb:
    def test_clean_line_cleans_without_invalidating(self, cache):
        cache.fill(0x40, LINE)
        cache.write(0x40, b"\xff" * 8, 8, counter_atomic=True)
        flushed = cache.clean_line(0x40)
        assert flushed is not None
        payload, counter_atomic = flushed
        assert counter_atomic is True
        assert payload[:8] == b"\xff" * 8
        assert cache.contains(0x40)
        assert not cache.peek(0x40).dirty
        assert not cache.peek(0x40).counter_atomic

    def test_clean_of_clean_line_is_noop(self, cache):
        cache.fill(0x40, LINE)
        assert cache.clean_line(0x40) is None

    def test_clean_of_absent_line_is_noop(self, cache):
        assert cache.clean_line(0x40) is None

    def test_dirty_lines_lists_addresses_in_order(self, cache):
        stride = cache.num_sets * CACHE_LINE_SIZE
        for address in (stride + 0x40, 0x80, 0x40):
            cache.fill(address, LINE, dirty=address != 0x80)
        assert cache.dirty_lines() == [0x40, stride + 0x40]


class TestEviction:
    def _colliding(self, cache, count):
        stride = cache.num_sets * CACHE_LINE_SIZE
        return [way * stride for way in range(count)]

    def test_lru_victim_selected(self, cache):
        addresses = self._colliding(cache, cache.ways + 1)
        for address in addresses[:-1]:
            cache.fill(address, LINE, dirty=True)
        cache.read(addresses[0])  # refresh way 0
        victim = cache.fill(addresses[-1], LINE)
        assert victim.address == addresses[1]

    def test_clean_victim_dropped_but_counted(self, cache):
        addresses = self._colliding(cache, cache.ways + 1)
        for address in addresses[:-1]:
            cache.fill(address, LINE)
        assert cache.fill(addresses[-1], LINE) is None
        assert cache.stats.evictions == 1
        assert cache.stats.dirty_evictions == 0

    def test_dirty_victim_carries_payload_and_flag(self, cache):
        addresses = self._colliding(cache, cache.ways + 1)
        cache.fill(addresses[0], LINE)
        cache.write(addresses[0], b"\xee" * 8, 8, counter_atomic=True)
        for address in addresses[1:-1]:
            cache.fill(address, LINE)
        victim = cache.fill(addresses[-1], LINE)
        assert victim.dirty
        assert victim.counter_atomic
        assert victim.payload[:8] == b"\xee" * 8

    def test_refill_merges_instead_of_evicting(self, cache):
        cache.fill(0x40, LINE)
        cache.write(0x40, b"\xaa" * 8, 8)
        assert cache.fill(0x40, None) is None
        # Dirty data survives a redundant fill.
        assert cache.read(0x40).read_bytes(0, 8) == b"\xaa" * 8

    def test_invalidate_all(self, cache):
        cache.fill(0x40, LINE)
        cache.invalidate_all()
        assert cache.occupancy() == 0


class TestBoundsChecking:
    def test_read_crossing_line_rejected(self, cache):
        cache.fill(0x40, LINE)
        with pytest.raises(AddressError):
            cache.peek(0x40).read_bytes(60, 8)

    def test_write_crossing_line_rejected(self, cache):
        cache.fill(0x40, LINE)
        with pytest.raises(AddressError):
            cache.peek(0x40).write_bytes(60, b"12345678")


class TestTimingOnlyMode:
    def test_tag_behavior_matches_without_payloads(self):
        cache = Cache(SMALL, functional=False)
        cache.fill(0x40, None)
        assert cache.read(0x40).read_bytes(0, 8) is None
        assert cache.write(0x40, None, 8) is True
        assert cache.peek(0x40).dirty

    def test_dirty_eviction_without_payload(self):
        cache = Cache(SMALL, functional=False)
        stride = cache.num_sets * CACHE_LINE_SIZE
        cache.fill(0, None)
        cache.write(0, None, 8)
        for way in range(1, cache.ways + 1):
            cache.fill(way * stride, None)
        assert cache.stats.dirty_evictions == 1


class TestProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 255), st.booleans()),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_contents_match_reference_model(self, ops):
        """Functional cache reads always reflect the latest fill/write."""
        cache = Cache(SMALL, functional=True)
        reference = {}
        for line_index, is_write in ops:
            address = line_index * CACHE_LINE_SIZE
            if is_write and cache.contains(address):
                payload = bytes([line_index % 256]) * 8
                cache.write(address, payload, 8)
                reference[address] = payload
            elif not cache.contains(address):
                # A (re)fill installs fresh contents; any earlier dirty
                # data for this line was lost with its eviction.
                payload = bytes([(line_index * 7) % 256]) * CACHE_LINE_SIZE
                cache.fill(address, payload)
                reference[address] = payload[:8]
        for address, expected in reference.items():
            hit = cache.read(address)
            if hit is not None:
                assert hit.read_bytes(0, 8) == expected[:8]
