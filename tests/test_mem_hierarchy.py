"""Tests for the L1/L2 hierarchy over the memory controller."""

import pytest

from repro.config import CACHE_LINE_SIZE, fast_config
from repro.core.designs import get_design
from repro.crypto.otp import OTPCipher, make_block_cipher
from repro.errors import AddressError
from repro.mem.controller import MemoryController
from repro.mem.hierarchy import CacheHierarchy


def make_hierarchy(design="sca", cores=1):
    config = fast_config(num_cores=cores)
    controller = MemoryController(config, get_design(design))
    return CacheHierarchy(config, controller), controller


def served_by(hierarchy, controller, access):
    """Where ``access()`` was satisfied: "l1", "l2" or "memory".

    Read off the counters an access moves: its L1 counts one hit or one
    miss, an L2 lookup counts a read hit or miss, and memory is a
    controller read.
    """

    def l1_counts():
        return [
            (
                l1.stats.read_hits + l1.stats.write_hits,
                l1.stats.read_misses + l1.stats.write_misses,
            )
            for l1 in hierarchy.l1s
        ]

    before = l1_counts()
    l2_hits, l2_misses = hierarchy.l2.stats.read_hits, hierarchy.l2.stats.read_misses
    reads = controller.stats.reads
    access()
    moved = [
        (hits - hits_before, misses - misses_before)
        for (hits, misses), (hits_before, misses_before) in zip(l1_counts(), before)
    ]
    changed = [delta for delta in moved if delta != (0, 0)]
    assert changed in ([(1, 0)], [(0, 1)])
    if changed == [(1, 0)]:
        assert controller.stats.reads == reads
        assert hierarchy.l2.stats.read_hits == l2_hits
        assert hierarchy.l2.stats.read_misses == l2_misses
        return "l1"
    if controller.stats.reads > reads:
        assert controller.stats.reads == reads + 1
        assert hierarchy.l2.stats.read_misses == l2_misses + 1
        assert hierarchy.l2.stats.read_hits == l2_hits
        return "memory"
    assert hierarchy.l2.stats.read_misses == l2_misses
    assert hierarchy.l2.stats.read_hits == l2_hits + 1
    return "l2"


class TestLoadPath:
    def test_cold_load_comes_from_memory(self):
        hierarchy, controller = make_hierarchy()
        complete = []
        source = served_by(
            hierarchy,
            controller,
            lambda: complete.append(hierarchy.load(0, 0x1000, 8, 0.0)),
        )
        assert source == "memory"
        assert complete[0] > 0.0
        assert hierarchy.read_current(0, 0x1000, 8) == bytes(8)

    def test_second_load_hits_l1(self):
        hierarchy, controller = make_hierarchy()
        hierarchy.load(0, 0x1000, 8, 0.0)
        assert served_by(
            hierarchy, controller, lambda: hierarchy.load(0, 0x1000, 8, 1000.0)
        ) == "l1"

    def test_sibling_core_hits_shared_l2(self):
        hierarchy, controller = make_hierarchy(cores=2)
        hierarchy.load(0, 0x1000, 8, 0.0)
        assert served_by(
            hierarchy, controller, lambda: hierarchy.load(1, 0x1000, 8, 1000.0)
        ) == "l2"
        assert hierarchy.l1s[1].contains(0x1000)

    def test_l1_hit_is_fastest(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.load(0, 0x1000, 8, 0.0)
        complete = hierarchy.load(0, 0x1000, 8, 1000.0)
        assert complete - 1000.0 == pytest.approx(hierarchy.config.l1.hit_latency_ns)

    def test_miss_latencies_add_up(self):
        hierarchy, _ = make_hierarchy(cores=2)
        config = hierarchy.config
        hierarchy.load(0, 0x1000, 8, 0.0)
        complete = hierarchy.load(1, 0x1000, 8, 1000.0)
        assert complete == 1000.0 + config.l1.hit_latency_ns + config.l2.hit_latency_ns

    def test_complete_aliases_are_the_access_paths(self):
        assert CacheHierarchy.load_complete is CacheHierarchy.load
        assert CacheHierarchy.store_complete is CacheHierarchy.store


class TestStorePath:
    def test_store_then_load_round_trip(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.store(0, 0x1000, b"\xaa" * 8, 8, 0.0)
        hierarchy.load(0, 0x1000, 8, 100.0)
        assert hierarchy.read_current(0, 0x1000, 8) == b"\xaa" * 8

    def test_store_allocates_on_miss(self):
        hierarchy, controller = make_hierarchy()
        assert served_by(
            hierarchy,
            controller,
            lambda: hierarchy.store(0, 0x1000, b"\xbb" * 8, 8, 0.0),
        ) == "memory"
        assert hierarchy.l1s[0].contains(0x1000)
        assert hierarchy.l1s[0].peek(0x1000).dirty

    def test_store_preserves_rest_of_line(self):
        hierarchy, controller = make_hierarchy()
        controller.write_line(0x1000, bytes(range(64)), 0.0)
        hierarchy.store(0, 0x1008, b"\xff" * 8, 8, 100.0)
        hierarchy.load(0, 0x1000, 8, 200.0)
        assert hierarchy.read_current(0, 0x1000, 8) == bytes(range(8))

    def test_cross_line_access_rejected(self):
        hierarchy, _ = make_hierarchy()
        with pytest.raises(AddressError, match="crosses a cache line"):
            hierarchy.load(0, 0x103C, 16, 0.0)
        with pytest.raises(AddressError, match="crosses a cache line"):
            hierarchy.store(0, 0x103C, b"x" * 16, 16, 0.0)

    def test_bad_length_rejected(self):
        hierarchy, _ = make_hierarchy()
        with pytest.raises(AddressError, match="out of range"):
            hierarchy.load(0, 0x1000, 0, 0.0)
        with pytest.raises(AddressError, match="out of range"):
            hierarchy.store(0, 0x1000, None, 65, 0.0)
        assert hierarchy.l1s[0].occupancy() == 0


class TestStatistics:
    def test_l1_counts_each_access_as_one_hit_or_miss(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.load(0, 0x1000, 8, 0.0)
        hierarchy.load(0, 0x1000, 8, 100.0)
        hierarchy.store(0, 0x2000, b"\x01" * 8, 8, 200.0)
        l1 = hierarchy.l1s[0].stats
        assert (l1.read_hits, l1.read_misses, l1.write_hits, l1.write_misses) == (1, 1, 0, 1)
        assert l1.miss_rate == pytest.approx(2 / 3)
        l2 = hierarchy.l2.stats
        assert (l2.read_hits, l2.read_misses) == (0, 2)

    def test_store_hit_counts_one_write_hit(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.store(0, 0x2000, b"\x01" * 8, 8, 0.0)
        hierarchy.store(0, 0x2008, b"\x02" * 8, 8, 100.0)
        l1 = hierarchy.l1s[0].stats
        assert (l1.write_hits, l1.write_misses) == (1, 1)


class TestClwb:
    def test_clwb_pushes_data_to_nvm(self):
        hierarchy, controller = make_hierarchy()
        hierarchy.store(0, 0x1000, b"\xcc" * 8, 8, 0.0)
        accept = hierarchy.clwb(0, 0x1000, 100.0)
        assert accept is not None
        # The device keeps the plaintext under the line's counter ...
        stored = controller.device.read_line(0x1000)
        assert stored.payload[:8] == b"\xcc" * 8
        # ... and the image of NVM holds it enciphered under that counter.
        cipher = OTPCipher(make_block_cipher(controller.config.encryption))
        data_lines, _counters = controller.journal.reconstruct(accept, cipher=cipher)
        ciphertext, counter = data_lines[0x1000]
        assert counter == stored.encrypted_with
        assert ciphertext != stored.payload
        assert cipher.decrypt(0x1000, counter, ciphertext) == stored.payload

    def test_clwb_keeps_line_cached(self):
        hierarchy, controller = make_hierarchy()
        hierarchy.store(0, 0x1000, b"\xcc" * 8, 8, 0.0)
        hierarchy.clwb(0, 0x1000, 100.0)
        assert served_by(
            hierarchy, controller, lambda: hierarchy.load(0, 0x1000, 8, 200.0)
        ) == "l1"

    def test_clwb_clean_line_is_noop(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.load(0, 0x1000, 8, 0.0)
        assert hierarchy.clwb(0, 0x1000, 100.0) is None

    def test_clwb_carries_counter_atomic_flag(self):
        hierarchy, controller = make_hierarchy()
        hierarchy.store(0, 0x1000, b"\x01" * 8, 8, 0.0, counter_atomic=True)
        hierarchy.clwb(0, 0x1000, 100.0)
        assert controller.stats.paired_writes == 1

    def test_clwb_finds_dirty_line_in_l2(self):
        """A line evicted from L1 into L2 is still clwb-able."""
        hierarchy, controller = make_hierarchy()
        hierarchy.store(0, 0x1000, b"\xdd" * 8, 8, 0.0)
        # Evict from L1 by filling its set.
        l1 = hierarchy.l1s[0]
        stride = l1.num_sets * CACHE_LINE_SIZE
        base = 0x1000
        for way in range(1, l1.ways + 1):
            hierarchy.load(0, base + way * stride, 8, 10.0 * way)
        assert not l1.contains(0x1000)
        accept = hierarchy.clwb(0, 0x1000, 1000.0)
        assert accept is not None


class TestEvictionWritebacks:
    def test_dirty_l2_eviction_reaches_controller(self):
        hierarchy, controller = make_hierarchy()
        l2 = hierarchy.l2
        stride = l2.num_sets * CACHE_LINE_SIZE
        hierarchy.store(0, 0x0, b"\xee" * 8, 8, 0.0)
        writes_before = controller.stats.data_writes
        # Blow through both L1 and L2 sets for address 0's set with
        # enough pressure that the dirty line falls out of both levels.
        for way in range(1, 3 * l2.ways + 2):
            hierarchy.load(0, way * stride, 8, 100.0 * way)
        assert controller.stats.data_writes > writes_before


class TestReadCurrent:
    def test_reads_through_cache(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.store(0, 0x1000, b"\x42" * 8, 8, 0.0)
        assert hierarchy.read_current(0, 0x1000, 8) == b"\x42" * 8

    def test_reads_decrypted_nvm_when_uncached(self):
        hierarchy, controller = make_hierarchy()
        hierarchy.store(0, 0x1000, b"\x42" * 8, 8, 0.0)
        hierarchy.clwb(0, 0x1000, 10.0)
        hierarchy.invalidate_all()
        assert hierarchy.read_current(0, 0x1000, 8) == b"\x42" * 8


class TestFlushAll:
    def test_flush_all_dirty_persists_everything(self):
        hierarchy, controller = make_hierarchy()
        for i in range(8):
            hierarchy.store(0, 0x1000 + i * 64, bytes([i]) * 8, 8, float(i))
        hierarchy.flush_all_dirty(1000.0)
        hierarchy.invalidate_all()
        for i in range(8):
            assert hierarchy.read_current(0, 0x1000 + i * 64, 8) == bytes([i]) * 8
