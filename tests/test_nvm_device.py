"""Tests for the persistent NVM byte store."""

import pytest

from repro.config import MB
from repro.errors import AddressError
from repro.nvm.address import AddressMap
from repro.nvm.device import NVMDevice, PersistedLine

LINE = bytes(range(64))


@pytest.fixture
def device():
    return NVMDevice(AddressMap(memory_size_bytes=64 * MB))


class TestPersistence:
    def test_unwritten_line_reads_zero(self, device):
        stored = device.read_line(0x40)
        assert stored.payload == bytes(64)
        assert stored.encrypted_with == 0

    def test_persist_read_round_trip(self, device):
        device.persist_line(0x40, LINE, encrypted_with=7)
        stored = device.read_line(0x40)
        assert stored.payload == LINE
        assert stored.encrypted_with == 7

    def test_sub_line_address_maps_to_line(self, device):
        device.persist_line(0x40, LINE)
        assert device.read_line(0x77).payload == LINE

    def test_overwrite_replaces(self, device):
        device.persist_line(0x40, LINE, encrypted_with=1)
        device.persist_line(0x40, bytes(64), encrypted_with=2)
        assert device.read_line(0x40).encrypted_with == 2

    def test_none_payload_in_timing_mode_stores_zeroes(self, device):
        device.persist_line(0x40, None, encrypted_with=3)
        stored = device.read_line(0x40)
        assert stored.payload == bytes(64)
        assert stored.encrypted_with == 3

    def test_out_of_range_rejected(self, device):
        with pytest.raises(AddressError):
            device.persist_line(64 * MB, LINE)
        with pytest.raises(AddressError):
            device.read_line(-64)

    def test_persisted_line_length_validated(self):
        with pytest.raises(AddressError):
            PersistedLine(payload=b"short", encrypted_with=0)


class TestSnapshotting:
    def test_snapshot_restore(self, device):
        device.persist_line(0x40, LINE, encrypted_with=5)
        snapshot = device.snapshot()
        device.persist_line(0x40, bytes(64), encrypted_with=6)
        device.restore(snapshot)
        assert device.read_line(0x40).encrypted_with == 5

    def test_touched_lines(self, device):
        device.persist_line(0x100, LINE)
        device.persist_line(0x40, LINE)
        assert list(device.touched_lines()) == [0x40, 0x100]

    def test_footprint(self, device):
        device.persist_line(0, LINE)
        device.persist_line(0x40, LINE)
        device.persist_line(0x40, LINE)  # rewrite, same line
        assert device.footprint_bytes == 128


class TestWearIntegration:
    def test_wear_tracks_writes(self, device):
        device.persist_line(0x40, LINE)
        device.persist_line(0x40, LINE)
        assert device.wear.writes_to(0x40) == 2

    def test_wear_disabled(self):
        device = NVMDevice(AddressMap(memory_size_bytes=64 * MB), track_wear=False)
        device.persist_line(0x40, LINE)
        assert device.wear is None

