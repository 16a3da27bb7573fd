"""Tests for the persist journal and its crash-time reconstruction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CACHE_LINE_SIZE
from repro.errors import SimulationError
from repro.persist.journal import JournalKind, PersistJournal

LINE = bytes(range(64))
LINE2 = bytes(64)


class TestDataRecords:
    def test_record_persists_after_drain(self):
        journal = PersistJournal()
        journal.record_data(1, 0x40, LINE, 5, accept_ns=0, ready_ns=0, drain_ns=10)
        data, _ = journal.reconstruct(20.0)
        assert data[0x40] == (LINE, 5)

    def test_record_absent_before_ready(self):
        journal = PersistJournal()
        journal.record_data(1, 0x40, LINE, 5, accept_ns=0, ready_ns=8, drain_ns=10)
        data, _ = journal.reconstruct(5.0)
        assert 0x40 not in data

    def test_adr_drains_ready_but_undrained(self):
        journal = PersistJournal()
        journal.record_data(1, 0x40, LINE, 5, accept_ns=0, ready_ns=2, drain_ns=100)
        with_adr, _ = journal.reconstruct(10.0, adr=True)
        without_adr, _ = journal.reconstruct(10.0, adr=False)
        assert 0x40 in with_adr
        assert 0x40 not in without_adr

    def test_later_record_wins(self):
        journal = PersistJournal()
        journal.record_data(1, 0x40, LINE, 1, accept_ns=0, ready_ns=0, drain_ns=5)
        journal.record_data(2, 0x40, LINE2, 2, accept_ns=10, ready_ns=10, drain_ns=15)
        data, _ = journal.reconstruct(20.0)
        assert data[0x40] == (LINE2, 2)

    def test_crash_between_records_keeps_older(self):
        journal = PersistJournal()
        journal.record_data(1, 0x40, LINE, 1, accept_ns=0, ready_ns=0, drain_ns=5)
        journal.record_data(2, 0x40, LINE2, 2, accept_ns=10, ready_ns=10, drain_ns=15)
        data, _ = journal.reconstruct(7.0)
        assert data[0x40] == (LINE, 1)


class TestAmendments:
    def test_amendment_applies_after_effective_time(self):
        journal = PersistJournal()
        journal.record_data(1, 0x40, LINE, 1, accept_ns=0, ready_ns=0, drain_ns=100)
        journal.amend_data(1, LINE2, 2, effective_ns=50.0)
        data_before, _ = journal.reconstruct(40.0)
        data_after, _ = journal.reconstruct(60.0)
        assert data_before[0x40] == (LINE, 1)
        assert data_after[0x40] == (LINE2, 2)

    def test_latest_applicable_amendment_wins(self):
        journal = PersistJournal()
        journal.record_data(1, 0x40, LINE, 1, accept_ns=0, ready_ns=0, drain_ns=100)
        journal.amend_data(1, LINE2, 2, effective_ns=30.0)
        journal.amend_data(1, LINE, 3, effective_ns=60.0)
        data, _ = journal.reconstruct(45.0)
        assert data[0x40] == (LINE2, 2)
        data, _ = journal.reconstruct(70.0)
        assert data[0x40] == (LINE, 3)

    def test_amending_unknown_record_raises(self):
        journal = PersistJournal()
        with pytest.raises(SimulationError):
            journal.amend_data(99, LINE, 1, effective_ns=0.0)

    def test_amending_wrong_kind_raises(self):
        journal = PersistJournal()
        record = journal.record_counter(
            address=0x1000, counters=tuple(range(8)), group_base=0,
            accept_ns=0, ready_ns=0, drain_ns=1,
        )
        with pytest.raises(SimulationError):
            journal.amend_data(record.entry_id, LINE, 1, effective_ns=0.0)


class TestCounterRecords:
    def test_full_line_record_sets_eight_counters(self):
        journal = PersistJournal()
        journal.record_counter(
            address=0x1000, counters=tuple(range(8)), group_base=0,
            accept_ns=0, ready_ns=0, drain_ns=1,
        )
        _, counters = journal.reconstruct(10.0)
        for slot in range(8):
            assert counters[slot * CACHE_LINE_SIZE] == slot

    def test_single_slot_record(self):
        journal = PersistJournal()
        journal.record_counter(
            address=0x1000, counters=(42,), group_base=0x40,
            accept_ns=0, ready_ns=0, drain_ns=1, single_slot=True,
        )
        _, counters = journal.reconstruct(10.0)
        assert counters == {0x40: 42}

    def test_counter_amendment(self):
        journal = PersistJournal()
        record = journal.record_counter(
            address=0x1000, counters=tuple(range(8)), group_base=0,
            accept_ns=0, ready_ns=0, drain_ns=100,
        )
        journal.amend_counter(record.entry_id, 0, tuple(range(10, 18)), effective_ns=50.0)
        _, before = journal.reconstruct(40.0)
        _, after = journal.reconstruct(60.0)
        assert before[0] == 0
        assert after[0] == 10


class TestPairSemantics:
    def test_pair_persists_or_vanishes_together(self):
        """The property the ready-bit protocol provides: with a shared
        ready time, any crash instant keeps either both or neither."""
        journal = PersistJournal()
        ready = 50.0
        journal.record_data(1, 0x40, LINE, 7, accept_ns=10, ready_ns=ready, drain_ns=200)
        journal.record_counter(
            address=0x1000, counters=(7,) * 8, group_base=0,
            accept_ns=12, ready_ns=ready, drain_ns=220, entry_id=2,
        )
        for crash in (5.0, 11.0, 30.0, 49.9, 50.1, 100.0, 300.0):
            data, counters = journal.reconstruct(crash)
            assert (0x40 in data) == (0 in counters)


class TestFinalImage:
    def test_final_image_is_infinite_time(self):
        journal = PersistJournal()
        journal.record_data(1, 0x40, LINE, 1, accept_ns=0, ready_ns=0, drain_ns=1e12)
        data, _ = journal.final_image()
        assert 0x40 in data

    def test_len_counts_records(self):
        journal = PersistJournal()
        journal.record_data(1, 0x40, LINE, 1, accept_ns=0, ready_ns=0, drain_ns=1)
        journal.record_counter(
            address=0x1000, counters=(1,) * 8, group_base=0,
            accept_ns=0, ready_ns=0, drain_ns=1,
        )
        assert len(journal) == 2


def reference_reconstruct(journal, crash_ns, adr=True, adr_budget=None):
    """Replay record by record: does it persist, and with which values?"""
    data, counters = {}, {}
    adr_drained = 0
    for record in journal.records:
        # persists_at: in the array, or ready and drained by ADR.
        if not (record.drain_ns <= crash_ns or (adr and record.ready_ns <= crash_ns)):
            continue
        if adr_budget is not None and record.drain_ns > crash_ns:
            if adr_drained >= adr_budget:
                continue
            adr_drained += 1
        # effective_values: the latest amendment in effect, else the record.
        values = (record.payload, record.encrypted_with, record.group_base, record.counters)
        for amendment in record.amendments:
            if amendment.effective_ns <= crash_ns:
                values = (
                    amendment.payload,
                    amendment.encrypted_with,
                    amendment.group_base,
                    amendment.counters,
                )
        payload, encrypted_with, group_base, line_counters = values
        if record.kind is JournalKind.DATA:
            data[record.address] = (payload, encrypted_with)
        elif record.single_slot:
            counters[group_base] = line_counters[0]
        else:
            for slot, value in enumerate(line_counters):
                counters[group_base + slot * CACHE_LINE_SIZE] = value
    return data, counters


def reference_adr_pending(journal, crash_ns):
    return sum(
        1 for record in journal.records if record.ready_ns <= crash_ns < record.drain_ns
    )


#: One journal write: (is_counter, line, accept, ready delta, drain
#: delta, single_slot, amendment effective deltas).
WRITES = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, 7),
        st.integers(0, 100),
        st.integers(0, 50),
        st.one_of(st.integers(0, 100), st.just(None)),
        st.booleans(),
        st.lists(st.integers(0, 120), max_size=3),
    ),
    min_size=1,
    max_size=40,
)


def build_journal(writes):
    journal = PersistJournal()
    for index, (is_counter, line, accept, ready_d, drain_d, single, amends) in enumerate(writes):
        ready = float(accept + ready_d)
        drain = float("inf") if drain_d is None else ready + drain_d
        if is_counter:
            width = 1 if single else 8
            record = journal.record_counter(
                address=0x100000 + line * CACHE_LINE_SIZE,
                counters=tuple(index + slot for slot in range(width)),
                group_base=line * 8 * CACHE_LINE_SIZE,
                accept_ns=float(accept), ready_ns=ready, drain_ns=drain,
                single_slot=single,
            )
            for step, delta in enumerate(amends):
                journal.amend_counter(
                    record.entry_id,
                    line * 8 * CACHE_LINE_SIZE,
                    tuple(100 * (step + 1) + index + slot for slot in range(width)),
                    effective_ns=float(accept + delta),
                )
        else:
            journal.record_data(
                index, line * CACHE_LINE_SIZE, bytes([index % 256]) * 64, index + 1,
                accept_ns=float(accept), ready_ns=ready, drain_ns=drain,
            )
            for step, delta in enumerate(amends):
                journal.amend_data(
                    index, bytes([(index + step + 1) % 256]) * 64, 100 * (step + 1) + index,
                    effective_ns=float(accept + delta),
                )
    return journal


class TestReconstructionProperties:
    @given(
        WRITES,
        st.floats(min_value=0, max_value=400),
        st.booleans(),
        st.one_of(st.none(), st.integers(0, 5)),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_persists_at_replay(self, writes, crash, adr, adr_budget):
        """Records with and without amendments, with and without ADR and
        an ADR budget: reconstruction equals the per-record replay."""
        journal = build_journal(writes)
        data, counters = journal.reconstruct(crash, adr=adr, adr_budget=adr_budget)
        ref_data, ref_counters = reference_reconstruct(
            journal, crash, adr=adr, adr_budget=adr_budget
        )
        # Insertion order too: crash images install lines in this order.
        assert list(data.items()) == list(ref_data.items())
        assert list(counters.items()) == list(ref_counters.items())
        assert journal.adr_pending(crash) == reference_adr_pending(journal, crash)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 7),     # line index
                st.integers(0, 100),   # accept
                st.integers(0, 100),   # ready delta
                st.integers(0, 100),   # drain delta
            ),
            min_size=1,
            max_size=50,
        ),
        st.floats(min_value=0, max_value=500),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_crash_time_for_fixed_line_count(self, writes, crash):
        """Reconstruction at a later time never loses persisted lines."""
        journal = PersistJournal()
        for i, (line, accept, ready_d, drain_d) in enumerate(writes):
            accept_f = float(accept)
            ready = accept_f + ready_d
            journal.record_data(
                i, line * 64, LINE, i + 1,
                accept_ns=accept_f, ready_ns=ready, drain_ns=ready + drain_d,
            )
        earlier, _ = journal.reconstruct(crash)
        later, _ = journal.reconstruct(crash + 100.0)
        assert set(earlier) <= set(later)
