"""Tests for the persistent NVM byte store."""

import random

import pytest

from repro.config import CACHE_LINE_SIZE, MB
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


def per_line(device, lines):
    """The reference install: one ``persist_line`` per entry."""
    for address, (payload, encrypted_with) in lines.items():
        device.persist_line(address, payload, encrypted_with)


def random_image(seed, count=60):
    rng = random.Random(seed)
    lines = {}
    for _ in range(count):
        address = rng.randrange(0, 1024) * CACHE_LINE_SIZE + rng.choice((0, 0, 8, 63))
        payload = None if rng.random() < 0.1 else bytes([rng.randrange(256)]) * CACHE_LINE_SIZE
        lines[address] = (payload, rng.randrange(0, 1 << 20))
    return lines


class TestBulkInstall:
    """``install`` against a ``persist_line`` per entry."""

    @pytest.mark.parametrize("track_wear", [False, True])
    @pytest.mark.parametrize("bookkeeping", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_line_persists(self, seed, track_wear, bookkeeping):
        # Addresses inside one line (offsets 8, 63) share it: the later wins.
        lines = random_image(seed)
        devices = []
        for install in (True, False):
            device = NVMDevice(AddressMap(memory_size_bytes=64 * MB), track_wear=track_wear)
            device.crash_bookkeeping = bookkeeping
            device.persist_line(0x40, LINE, encrypted_with=9)  # pre-existing line
            if install:
                device.install(lines)
            else:
                per_line(device, lines)
            devices.append(device)
        bulk, reference = devices
        assert bulk.get_state() == reference.get_state()

    def test_empty_mapping_is_a_no_op(self, device):
        device.install({})
        assert device.get_state() == NVMDevice(AddressMap(memory_size_bytes=64 * MB)).get_state()

    @pytest.mark.parametrize(
        "bad",
        [
            {64 * MB: (LINE, 1)},
            {-CACHE_LINE_SIZE: (LINE, 1)},
            {0x80: (b"short", 1)},
            {0x80: (LINE + b"x", 1)},
        ],
    )
    def test_bad_entry_raises_what_persist_line_raises(self, bad):
        lines = {0x40: (LINE, 1), **bad, 0xC0: (LINE, 2)}
        bulk = NVMDevice(AddressMap(memory_size_bytes=64 * MB))
        reference = NVMDevice(AddressMap(memory_size_bytes=64 * MB))
        with pytest.raises(AddressError) as raised:
            bulk.install(lines)
        with pytest.raises(AddressError) as expected:
            per_line(reference, lines)
        assert str(raised.value) == str(expected.value)
        assert bulk.get_state() == reference.get_state()
