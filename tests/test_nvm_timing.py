"""Tests for the bank/bus timing model (read priority, rows, scaling)."""

import typing

import pytest

from repro.config import NVMTimingConfig
from repro.nvm.timing import BankTimingModel, BusModel

TIMING = NVMTimingConfig(num_banks=8)


def test_annotations_resolve():
    """Every annotation names an imported type (mypy sees the same)."""
    for method in (
        BankTimingModel.schedule_read,
        BankTimingModel.schedule_write,
        BusModel.schedule_transfer,
    ):
        assert typing.get_type_hints(method)["return"] in (float, typing.Tuple[float, float])


class TestBankReads:
    def test_idle_read_latency_is_row_miss(self):
        banks = BankTimingModel(TIMING)
        complete = banks.schedule_read(0, 100.0, row=1)
        assert complete == pytest.approx(100.0 + TIMING.read_access_ns)

    def test_row_hit_is_column_latency_only(self):
        banks = BankTimingModel(TIMING)
        banks.schedule_read(0, 0.0, row=1)
        complete = banks.schedule_read(0, 1000.0, row=1)
        assert complete == pytest.approx(1000.0 + TIMING.t_cl_ns)
        assert banks.row_hits == 1

    def test_row_conflict_pays_full_latency(self):
        banks = BankTimingModel(TIMING)
        banks.schedule_read(0, 0.0, row=1)
        complete = banks.schedule_read(0, 1000.0, row=2)
        assert complete == pytest.approx(1000.0 + TIMING.read_access_ns)

    def test_back_to_back_reads_serialize_per_bank(self):
        banks = BankTimingModel(TIMING)
        first = banks.schedule_read(0, 0.0)
        second = banks.schedule_read(0, 0.0)
        assert second == pytest.approx(first + TIMING.read_access_ns)
        assert banks.total_read_wait_ns == pytest.approx(first)

    def test_different_banks_run_in_parallel(self):
        banks = BankTimingModel(TIMING)
        first = banks.schedule_read(0, 0.0)
        second = banks.schedule_read(1, 0.0)
        assert second == pytest.approx(first)
        assert banks.total_read_wait_ns == 0.0


class TestReadWritePriority:
    def test_read_never_waits_for_queued_write(self):
        """Reads preempt writes (write cancellation); a read issued
        while a long PCM write occupies the bank starts immediately."""
        banks = BankTimingModel(TIMING)
        banks.schedule_write(0, 0.0)
        complete = banks.schedule_read(0, 10.0)
        assert complete == pytest.approx(10.0 + TIMING.read_access_ns)

    def test_write_waits_for_earlier_read(self):
        banks = BankTimingModel(TIMING)
        read_complete = banks.schedule_read(0, 0.0)
        start, _complete = banks.schedule_write(0, 0.0)
        assert start >= read_complete

    def test_writes_serialize_per_bank_with_recovery(self):
        banks = BankTimingModel(TIMING)
        _first_start, first_complete = banks.schedule_write(0, 0.0)
        second_start, second_complete = banks.schedule_write(0, 0.0)
        assert second_start == pytest.approx(first_complete + TIMING.t_wtr_ns)
        assert second_complete == pytest.approx(second_start + TIMING.write_access_ns)

    def test_write_closes_open_row(self):
        banks = BankTimingModel(TIMING)
        banks.schedule_read(0, 0.0, row=1)
        banks.schedule_write(0, 100.0)
        late_read = banks.schedule_read(0, 10000.0, row=1)
        # Row was closed by the write: full latency again.
        assert late_read == pytest.approx(10000.0 + TIMING.read_access_ns)


class TestLatencyScaling:
    def test_read_scale_stretches_reads_only(self):
        slow = NVMTimingConfig(read_latency_scale=10.0)
        assert slow.read_access_ns == pytest.approx(630.0)
        assert slow.write_access_ns == pytest.approx(313.0)

    def test_write_scale_stretches_writes_only(self):
        slow = NVMTimingConfig(write_latency_scale=2.0)
        assert slow.write_access_ns == pytest.approx(626.0)
        assert slow.read_access_ns == pytest.approx(63.0)

    def test_row_hit_scales_with_read_latency(self):
        banks = BankTimingModel(NVMTimingConfig(read_latency_scale=2.0))
        banks.schedule_read(0, 0.0, row=1)
        complete = banks.schedule_read(0, 1000.0, row=1)
        assert complete == pytest.approx(1000.0 + 2.0 * 15.0)


class TestBus:
    def test_transfer_duration(self):
        bus = BusModel(TIMING)
        done = bus.schedule_transfer(0.0, 64)
        assert done == pytest.approx(8 * TIMING.beat_ns)

    def test_transfers_serialize(self):
        bus = BusModel(TIMING)
        first = bus.schedule_transfer(0.0, 64)
        second = bus.schedule_transfer(0.0, 64)
        assert second == pytest.approx(first + 8 * TIMING.beat_ns)

    def test_utilization(self):
        bus = BusModel(TIMING)
        bus.schedule_transfer(0.0, 64)
        assert 0.0 < bus.utilization(100.0) < 1.0
        assert bus.utilization(0.0) == 0.0

    def test_bytes_accounting(self):
        bus = BusModel(TIMING)
        bus.schedule_transfer(0.0, 64)
        bus.schedule_transfer(0.0, 72)
        assert bus.bytes_moved == 136

    def test_reset(self):
        bus = BusModel(TIMING)
        bus.schedule_transfer(0.0, 64)
        bus.reset()
        assert bus.transfers == 0
        assert bus.schedule_transfer(0.0, 64) == pytest.approx(8 * TIMING.beat_ns)
