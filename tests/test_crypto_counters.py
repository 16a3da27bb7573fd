"""Tests for the architectural counter store and address mapping."""

import random

import pytest

from repro.config import CACHE_LINE_SIZE
from repro.crypto.counters import (
    COUNTER_LIMIT,
    CounterStore,
    counter_line_address,
    counter_slot,
)
from repro.errors import AddressError, CounterOverflowError

BASE = 1 << 20  # counter region base for these tests
SIZE = 2 << 20


@pytest.fixture
def store():
    return CounterStore(counter_region_base=BASE, memory_size_bytes=SIZE)


class TestMapping:
    def test_counter_line_address_groups_eight_lines(self):
        for line_index in range(16):
            address = line_index * CACHE_LINE_SIZE
            expected_group = (line_index // 8) * CACHE_LINE_SIZE
            assert counter_line_address(address, 0) == expected_group

    def test_counter_slot_cycles_mod_eight(self):
        slots = [counter_slot(i * CACHE_LINE_SIZE) for i in range(16)]
        assert slots == list(range(8)) * 2

    def test_counter_line_address_respects_base(self):
        assert counter_line_address(0, BASE) == BASE


class TestStore:
    def test_unwritten_counter_reads_zero(self, store):
        assert store.read(0x40) == 0

    def test_write_read_round_trip(self, store):
        store.write(0x40, 17)
        assert store.read(0x40) == 17

    def test_sub_line_addresses_share_a_counter(self, store):
        store.write(0x40, 5)
        assert store.read(0x47) == 5
        assert store.read(0x7F) == 5

    def test_adjacent_lines_have_independent_counters(self, store):
        store.write(0x00, 1)
        store.write(0x40, 2)
        assert store.read(0x00) == 1
        assert store.read(0x40) == 2

    def test_rejects_addresses_in_counter_region(self, store):
        with pytest.raises(AddressError):
            store.read(BASE)
        with pytest.raises(AddressError):
            store.write(BASE + 64, 1)

    def test_rejects_negative_address(self, store):
        with pytest.raises(AddressError):
            store.read(-64)

    def test_counter_overflow_detected(self, store):
        with pytest.raises(CounterOverflowError):
            store.write(0, COUNTER_LIMIT)


class TestCounterLines:
    def test_write_counter_line_sets_all_slots(self, store):
        values = tuple(range(10, 18))
        store.write_counter_line(0, values)
        assert store.read_counter_line(0) == values

    def test_counter_line_rejects_wrong_width(self, store):
        with pytest.raises(AddressError):
            store.write_counter_line(0, (1, 2, 3))

    def test_read_counter_line_any_member_address(self, store):
        values = tuple(range(8))
        store.write_counter_line(0, values)
        # Reading via the 5th line of the group returns the same tuple.
        assert store.read_counter_line(5 * CACHE_LINE_SIZE) == values

    def test_snapshot_restore_round_trip(self, store):
        store.write(0x40, 9)
        snapshot = store.snapshot()
        store.write(0x40, 10)
        store.restore(snapshot)
        assert store.read(0x40) == 9

    def test_touched_lines_sorted(self, store):
        store.write(0x100, 1)
        store.write(0x40, 1)
        assert list(store.touched_lines()) == [0x40, 0x100]


def per_slot(store, counters):
    """The reference install: one ``write`` per entry."""
    for address, value in counters.items():
        store.write(address, value)


class TestBulkInstall:
    """``install`` against a ``write`` per entry."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_slot_writes(self, seed):
        rng = random.Random(seed)
        # Offset 8 puts a second address in a line: the later value wins.
        counters = {}
        for _ in range(200):
            line = rng.randrange(0, BASE // CACHE_LINE_SIZE) * CACHE_LINE_SIZE
            value = rng.choice((0, 1, COUNTER_LIMIT - 1, rng.randrange(COUNTER_LIMIT)))
            counters[line + rng.choice((0, 0, 8))] = value
        bulk = CounterStore(counter_region_base=BASE, memory_size_bytes=SIZE)
        reference = CounterStore(counter_region_base=BASE, memory_size_bytes=SIZE)
        for store in (bulk, reference):
            store.write(0x40, 5)  # pre-existing slot
        bulk.install(counters)
        per_slot(reference, counters)
        assert bulk.get_state() == reference.get_state()
        assert list(bulk.snapshot()) == list(reference.snapshot())

    @pytest.mark.parametrize(
        "bad, error",
        [
            ({BASE: 1}, AddressError),
            ({-CACHE_LINE_SIZE: 1}, AddressError),
            ({0x80: COUNTER_LIMIT}, CounterOverflowError),
            ({0x80: -1}, CounterOverflowError),
        ],
    )
    def test_bad_entry_raises_what_write_raises(self, bad, error):
        counters = {0x40: 1, **bad, 0xC0: 2}
        bulk = CounterStore(counter_region_base=BASE, memory_size_bytes=SIZE)
        reference = CounterStore(counter_region_base=BASE, memory_size_bytes=SIZE)
        with pytest.raises(error) as raised:
            bulk.install(counters)
        with pytest.raises(error) as expected:
            per_slot(reference, counters)
        assert str(raised.value) == str(expected.value)
        assert bulk.get_state() == reference.get_state()
