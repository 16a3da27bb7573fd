"""Tests for the on-chip counter cache (volatile, write-back, LRU)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CACHE_LINE_SIZE, CounterCacheConfig
from repro.crypto.counter_cache import GROUP_SPAN, CounterCache

SMALL = CounterCacheConfig(size_bytes=4 * 1024, ways=4)
EIGHT = tuple(range(8))


class _Store:
    """The counter store as the write path's fill sees it."""

    def read_counter_line(self, data_address):
        return EIGHT


STORE = _Store()


@pytest.fixture
def cache():
    return CounterCache(SMALL)


class TestLookups:
    def test_miss_on_empty_cache(self, cache):
        assert cache.lookup_for_read(0x40) is None
        assert cache.stats.read_misses == 1

    def test_hit_after_fill(self, cache):
        cache.fill(0x40, EIGHT)
        assert cache.lookup_for_read(0x40) == 1  # slot 1 of the group
        assert cache.stats.read_hits == 1

    def test_fill_covers_whole_group(self, cache):
        cache.fill(0, EIGHT)
        for slot in range(8):
            assert cache.lookup_for_read(slot * CACHE_LINE_SIZE) == slot

    def test_write_lookup_counts_separately(self, cache):
        cache.fill(0, EIGHT)
        assert cache.write(0, 9, STORE) == (True, None)
        assert cache.stats.write_hits == 1
        assert cache.write(GROUP_SPAN * 50, 9, STORE) == (False, None)
        assert cache.stats.write_misses == 1
        assert cache.stats.read_hits == cache.stats.read_misses == 0


class TestUpdates:
    def test_update_requires_resident_line(self, cache):
        """A write miss allocates: the line is filled, then updated."""
        assert not cache.contains(0x40)
        assert cache.write(0x40, 99, STORE) == (False, None)
        assert cache.stats.fills == 1
        assert cache.lookup_for_read(0x40) == 99
        assert cache.lookup_for_read(0x80) == 2  # sibling from the fill

    def test_update_marks_dirty(self, cache):
        cache.fill(0, EIGHT)
        assert not cache.is_dirty(0)
        cache.write(0, 42, STORE)
        assert cache.is_dirty(0)

    def test_write_ticks_lru_like_lookup_then_store(self, cache):
        cache.fill(0, EIGHT)
        tick = cache._tick
        cache.write(0, 42, STORE)  # hit: one touch for the probe, one for the store
        assert cache._tick == tick + 2
        cache.write(GROUP_SPAN, 43, STORE)  # miss: one for the fill, one for the store
        assert cache._tick == tick + 4

    def test_write_miss_returns_dirty_victim(self, cache):
        stride = cache.num_sets * GROUP_SPAN
        cache.write(0, 123, STORE)
        for way in range(1, cache.ways):
            cache.fill(way * stride, EIGHT)
        hit, victim = cache.write(cache.ways * stride, 5, STORE)
        assert not hit
        assert victim == (0, (123,) + EIGHT[1:])


class TestWriteback:
    def test_writeback_clean_line_is_noop(self, cache):
        cache.fill(0, EIGHT)
        assert cache.writeback_line(0) is None

    def test_writeback_dirty_line_returns_counters(self, cache):
        cache.fill(0, EIGHT)
        cache.write(0x40, 77, STORE)
        group_base, counters = cache.writeback_line(0x40)
        assert group_base == 0
        assert counters[1] == 77

    def test_writeback_cleans_without_invalidating(self, cache):
        cache.fill(0, EIGHT)
        cache.write(0, 5, STORE)
        cache.writeback_line(0)
        assert not cache.is_dirty(0)
        assert cache.contains(0)

    def test_second_writeback_is_noop(self, cache):
        cache.fill(0, EIGHT)
        cache.write(0, 5, STORE)
        assert cache.writeback_line(0) is not None
        assert cache.writeback_line(0) is None


class TestEviction:
    def _group(self, index: int) -> int:
        return index * GROUP_SPAN

    def test_lru_eviction_order(self, cache):
        # Fill one set beyond its ways by using addresses that collide.
        stride = cache.num_sets * GROUP_SPAN
        for way in range(cache.ways):
            cache.fill(way * stride, EIGHT)
        cache.lookup_for_read(0)  # make way 0 most-recent
        victim = cache.fill(cache.ways * stride, EIGHT)
        assert victim is None  # victim (way 1) was clean
        assert cache.contains(0)
        assert not cache.contains(stride)

    def test_dirty_eviction_returns_payload(self, cache):
        stride = cache.num_sets * GROUP_SPAN
        cache.fill(0, EIGHT)
        cache.write(0, 123, STORE)
        for way in range(1, cache.ways):
            cache.fill(way * stride, EIGHT)
        victim = cache.fill(cache.ways * stride, EIGHT)
        assert victim is not None
        group_base, counters = victim
        assert group_base == 0
        assert counters[0] == 123
        assert cache.stats.dirty_evictions == 1

    def test_refill_resident_line_does_not_evict(self, cache):
        cache.fill(0, EIGHT)
        assert cache.fill(0, EIGHT) is None
        assert cache.occupancy() == 1


class TestVolatility:
    def test_invalidate_all_drops_everything(self, cache):
        cache.fill(0, EIGHT)
        cache.fill(GROUP_SPAN, EIGHT)
        cache.invalidate_all()
        assert cache.occupancy() == 0
        assert not cache.contains(0)

    def test_dirty_lines_enumerates_only_dirty(self, cache):
        cache.fill(0, EIGHT)
        cache.fill(GROUP_SPAN, EIGHT)
        cache.write(GROUP_SPAN, 9, STORE)
        dirty = cache.dirty_lines()
        assert len(dirty) == 1
        assert dirty[0][0] == GROUP_SPAN


class TestProperties:
    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, groups):
        cache = CounterCache(SMALL)
        for group in groups:
            cache.fill(group * GROUP_SPAN, EIGHT)
        assert cache.occupancy() <= cache.num_sets * cache.ways

    @given(st.lists(st.tuples(st.integers(0, 60), st.integers(1, 1000)), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_latest_update_wins(self, updates):
        """The cache always returns the most recent counter written."""
        cache = CounterCache(CounterCacheConfig(size_bytes=64 * 1024, ways=16))
        latest = {}
        for group, counter in updates:
            address = group * GROUP_SPAN
            cache.write(address, counter, STORE)
            latest[address] = counter
        for address, expected in latest.items():
            if cache.contains(address):
                assert cache.lookup_for_read(address) == expected
