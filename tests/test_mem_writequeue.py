"""Tests for the write queues: occupancy, coalescing, ready bits, ADR."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueueFullError, SimulationError
from repro.mem.writequeue import WriteQueue


def make_entry(queue, address=0x40, t=0.0, ca=False):
    entry = queue.accept(address, t, None, is_counter=False, counter_atomic=ca)
    return entry


class TestAcceptance:
    def test_empty_queue_accepts_immediately(self):
        queue = WriteQueue("q", 4)
        assert make_entry(queue, t=5.0).accept_ns == 5.0
        assert queue.total_accept_wait_ns == 0.0

    def test_full_queue_waits_for_earliest_release(self):
        queue = WriteQueue("q", 2)
        for i in range(2):
            entry = make_entry(queue, address=i * 64, t=0.0)
            queue.schedule(entry, 0.0, 50.0 + i, 100.0 + i)
        assert make_entry(queue, address=0x80, t=10.0).accept_ns == 50.0

    def test_slots_free_after_release_time(self):
        queue = WriteQueue("q", 1)
        entry = make_entry(queue, t=0.0)
        queue.schedule(entry, 0.0, 30.0, 100.0)
        assert make_entry(queue, address=0x80, t=40.0).accept_ns == 40.0

    def test_occupancy_counts_unreleased(self):
        queue = WriteQueue("q", 4)
        for i in range(3):
            entry = make_entry(queue, address=i * 64)
            queue.schedule(entry, 0.0, 50.0, 100.0)
        assert queue.occupancy(10.0) == 3
        assert queue.occupancy(60.0) == 0

    def test_accept_wait_accounted(self):
        queue = WriteQueue("q", 1)
        entry = make_entry(queue, t=0.0)
        queue.schedule(entry, 0.0, 100.0, 100.0)
        late = queue.accept(0x80, 10.0, None, is_counter=False)
        assert late.accept_ns == 100.0
        assert queue.total_accept_wait_ns == pytest.approx(90.0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(QueueFullError):
            WriteQueue("q", 0)


class TestReadyBits:
    def test_ready_before_accept_rejected(self):
        queue = WriteQueue("q", 4)
        entry = make_entry(queue, t=10.0)
        with pytest.raises(SimulationError):
            queue.schedule(entry, 5.0, 20.0, 20.0)

    def test_drain_before_ready_rejected(self):
        queue = WriteQueue("q", 4)
        entry = make_entry(queue, t=0.0)
        with pytest.raises(SimulationError):
            queue.schedule(entry, 10.0, 5.0, 5.0)

    def test_slot_release_after_drain_rejected(self):
        queue = WriteQueue("q", 4)
        entry = make_entry(queue, t=0.0)
        with pytest.raises(SimulationError):
            queue.schedule(entry, 0.0, 20.0, 10.0)


class TestCoalescing:
    def _queued_entry(self, queue, address=0x40, release=1000.0):
        entry = make_entry(queue, address=address, t=0.0)
        queue.schedule(entry, 0.0, release, release)
        return entry

    def test_live_entry_merges(self):
        queue = WriteQueue("q", 4)
        entry = self._queued_entry(queue)
        merged = queue.probe(0x40, 10.0)
        assert merged is entry
        queue.merge(merged, b"x" * 64, 7)
        assert merged.encrypted_with == 7
        assert merged.coalesced == 1
        assert queue.coalesced == 1

    def test_issued_entry_does_not_merge(self):
        queue = WriteQueue("q", 4)
        self._queued_entry(queue, release=5.0)
        assert queue.probe(0x40, 10.0) is None

    def test_counter_atomic_entry_protected_by_default(self):
        queue = WriteQueue("q", 4)
        entry = make_entry(queue, ca=True)
        queue.schedule(entry, 0.0, 1000.0, 1000.0)
        assert queue.probe(0x40, 1.0) is None
        assert queue.probe(0x40, 1.0, counter_atomic_ok=True) is entry

    def test_disabled_coalescing(self):
        queue = WriteQueue("q", 4, coalesce=False)
        self._queued_entry(queue)
        assert queue.probe(0x40, 1.0) is None

    def test_peek_does_not_mutate(self):
        queue = WriteQueue("q", 4)
        entry = self._queued_entry(queue)
        peeked = queue.probe(0x40, 1.0)
        assert peeked is entry
        assert entry.coalesced == 0
        assert queue.coalesced == 0

    def test_merge_replaces_counter_values(self):
        queue = WriteQueue("q", 4)
        entry = queue.accept(0x40, 0.0, None, True, 0, (0, (1,) * 8))
        queue.schedule(entry, 0.0, 1000.0, 1000.0)
        queue.merge(entry, None, 0, (0, (2,) * 8))
        assert entry.counter_values == (0, (2,) * 8)
        queue.merge(entry, None, 0)
        assert entry.counter_values == (0, (2,) * 8)


class TestCrashSemantics:
    def test_adr_drains_only_ready_entries(self):
        """Paper §5.2.2 'Steps During a System Failure': only ready
        entries drain when the power fails."""
        queue = WriteQueue("q", 8)
        ready = make_entry(queue, address=0x00, t=0.0)
        queue.schedule(ready, 5.0, 100.0, 100.0)
        unready = make_entry(queue, address=0x40, t=0.0)
        queue.schedule(unready, 50.0, 120.0, 120.0)  # pair completes late

        crash_ns = 20.0
        drainable = queue.adr_drainable_at(crash_ns)
        dropped = queue.dropped_at(crash_ns)
        assert [e.address for e in drainable] == [0x00]
        assert [e.address for e in dropped] == [0x40]

    def test_entries_at_excludes_drained(self):
        queue = WriteQueue("q", 8)
        entry = make_entry(queue, t=0.0)
        queue.schedule(entry, 0.0, 10.0, 10.0)
        assert queue.entries_at(5.0) == [entry]
        assert queue.entries_at(15.0) == []

    def test_entries_at_excludes_not_yet_accepted(self):
        queue = WriteQueue("q", 8)
        entry = make_entry(queue, t=100.0)
        queue.schedule(entry, 100.0, 200.0, 200.0)
        assert queue.entries_at(50.0) == []


class TestProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e4), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_acceptance_never_earlier_than_request(self, times):
        queue = WriteQueue("q", 4)
        for i, t in enumerate(sorted(times)):
            entry = queue.accept(i * 64, t, None, is_counter=False)
            assert entry.accept_ns >= t
            queue.schedule(
                entry, entry.accept_ns, entry.accept_ns + 25.0, entry.accept_ns + 50.0
            )

    @given(st.lists(st.floats(min_value=0, max_value=1e4), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_peak_occupancy_bounded_by_capacity(self, times):
        queue = WriteQueue("q", 3)
        for i, t in enumerate(sorted(times)):
            entry = queue.accept(i * 64, t, None, is_counter=False)
            queue.schedule(
                entry, entry.accept_ns, entry.accept_ns + 40.0, entry.accept_ns + 40.0
            )
        assert queue.peak_occupancy <= 3 + 1
