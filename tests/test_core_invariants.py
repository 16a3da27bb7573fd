"""Tests for the counter-atomicity (Eq. 4) invariant checker."""

import pytest

from repro.config import CACHE_LINE_SIZE, MB, EncryptionConfig
from repro.core.invariants import check_counter_atomicity
from repro.crypto.counters import CounterStore
from repro.crypto.otp import OTPCipher, make_block_cipher
from repro.nvm.address import AddressMap
from repro.nvm.device import NVMDevice

LINE = bytes(i % 256 for i in range(64))


@pytest.fixture
def setup():
    address_map = AddressMap(memory_size_bytes=64 * MB)
    device = NVMDevice(address_map)
    store = CounterStore(
        counter_region_base=address_map.counter_region_base,
        memory_size_bytes=address_map.memory_size_bytes,
    )
    cipher = OTPCipher(make_block_cipher(EncryptionConfig()))
    return device, store, cipher


class TestChecker:
    def test_in_sync_line_passes(self, setup):
        device, store, cipher = setup
        device.persist_line(0x40, cipher.encrypt(0x40, 7, LINE), encrypted_with=7)
        store.write(0x40, 7)
        assert check_counter_atomicity(device, store) == []

    def test_stale_counter_detected(self, setup):
        """Figure 3(a): data persisted, counter write lost."""
        device, store, cipher = setup
        device.persist_line(0x40, cipher.encrypt(0x40, 7, LINE), encrypted_with=7)
        store.write(0x40, 6)
        violations = check_counter_atomicity(device, store)
        assert len(violations) == 1
        assert violations[0].address == 0x40
        assert "out of sync" in violations[0].describe() or "garbage" in violations[0].describe()

    def test_stale_data_detected(self, setup):
        """Figure 3(b): counter persisted, data write lost."""
        device, store, cipher = setup
        device.persist_line(0x40, cipher.encrypt(0x40, 6, LINE), encrypted_with=6)
        store.write(0x40, 7)
        assert len(check_counter_atomicity(device, store)) == 1

    def test_scoped_check(self, setup):
        device, store, cipher = setup
        device.persist_line(0x40, cipher.encrypt(0x40, 7, LINE), encrypted_with=7)
        store.write(0x40, 1)  # violation at 0x40
        device.persist_line(0x80, cipher.encrypt(0x80, 2, LINE), encrypted_with=2)
        store.write(0x80, 2)  # consistent at 0x80
        assert check_counter_atomicity(device, store, addresses=[0x80]) == []
        assert len(check_counter_atomicity(device, store, addresses=[0x40])) == 1

    def test_counter_region_lines_ignored(self, setup):
        device, store, _ = setup
        counter_base = device.address_map.counter_region_base
        device.persist_line(counter_base, LINE, encrypted_with=0)
        assert check_counter_atomicity(device, store) == []


class TestGarbageDemonstration:
    def test_true_counter_recovers_stored_plaintext(self, setup):
        device, store, cipher = setup
        device.persist_line(0x40, cipher.encrypt(0x40, 9, LINE), encrypted_with=9)
        store.write(0x40, 3)
        stored = device.read_line(0x40)
        assert cipher.decrypt(0x40, stored.encrypted_with, stored.payload) == LINE
        assert cipher.decrypt(0x40, store.read(0x40), stored.payload) != LINE
