"""Counter-mode OTP construction tests (paper Eq. 1-4)."""

import struct
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CACHE_LINE_SIZE, EncryptionConfig
from repro.crypto.aes import AES128
from repro.crypto.otp import OTPCipher, decrypt_line, encrypt_line, make_block_cipher
from repro.crypto.prf import NP_BATCH_MIN
from repro.errors import CryptoError

LINE = st.binary(min_size=CACHE_LINE_SIZE, max_size=CACHE_LINE_SIZE)
ADDRESSES = st.integers(min_value=0, max_value=2**40).map(lambda a: a - (a % 64))
COUNTERS = st.integers(min_value=0, max_value=2**40)


@pytest.fixture
def cipher():
    return OTPCipher(make_block_cipher(EncryptionConfig()))


class TestRoundTrip:
    @given(LINE, ADDRESSES, COUNTERS)
    @settings(max_examples=100)
    def test_decrypt_with_same_counter_recovers_plaintext(self, line, address, counter):
        cipher = OTPCipher(make_block_cipher(EncryptionConfig()))
        assert cipher.decrypt(address, counter, cipher.encrypt(address, counter, line)) == line

    @given(LINE, ADDRESSES, COUNTERS)
    @settings(max_examples=100)
    def test_decrypt_with_stale_counter_yields_garbage(self, line, address, counter):
        """Paper Eq. 4: a counter mismatch produces wrong plaintext."""
        cipher = OTPCipher(make_block_cipher(EncryptionConfig()))
        ciphertext = cipher.encrypt(address, counter + 1, line)
        assert cipher.decrypt(address, counter, ciphertext) != line

    def test_decrypt_with_wrong_address_yields_garbage(self, cipher):
        """The pad binds the line's address, preventing relocation."""
        line = bytes(range(64))
        ciphertext = cipher.encrypt(0x1000, 7, line)
        assert cipher.decrypt(0x1040, 7, ciphertext) != line


class TestPadProperties:
    def test_pad_deterministic(self, cipher):
        assert cipher.pad(0x40, 3) == cipher.pad(0x40, 3)

    def test_pad_counter_unique(self, cipher):
        pads = {cipher.pad(0x40, c) for c in range(64)}
        assert len(pads) == 64

    def test_pad_address_unique(self, cipher):
        pads = {cipher.pad(a * 64, 1) for a in range(64)}
        assert len(pads) == 64

    def test_pad_blocks_differ_within_line(self, cipher):
        """Each 16 B block of the line gets its own pad block."""
        pad = cipher.pad(0x40, 1)
        blocks = [pad[i : i + 16] for i in range(0, 64, 16)]
        assert len(set(blocks)) == 4

    def test_pad_cache_eviction_does_not_change_results(self):
        small = OTPCipher(make_block_cipher(EncryptionConfig()))
        small._pad_cache_limit = 4
        reference = small.pad(0, 1)
        for i in range(20):
            small.pad(i * 64, i)
        assert small.pad(0, 1) == reference


class TestAESBackend:
    def test_aes_cipher_round_trips(self):
        config = EncryptionConfig(cipher="aes")
        cipher = OTPCipher(make_block_cipher(config))
        line = bytes(range(64))
        assert cipher.decrypt(0x80, 5, cipher.encrypt(0x80, 5, line)) == line

    def test_aes_and_prf_pads_differ(self):
        """Different ciphers are different OTP generators, same interface."""
        line = bytes(64)
        aes = encrypt_line(EncryptionConfig(cipher="aes"), 0, 1, line)
        prf = encrypt_line(EncryptionConfig(cipher="prf"), 0, 1, line)
        assert aes != prf


class TestValidation:
    def test_rejects_wrong_plaintext_length(self, cipher):
        with pytest.raises(CryptoError):
            cipher.encrypt(0, 1, b"short")

    def test_rejects_wrong_ciphertext_length(self, cipher):
        with pytest.raises(CryptoError):
            cipher.decrypt(0, 1, b"short")

    def test_rejects_misaligned_line_size(self):
        with pytest.raises(CryptoError):
            OTPCipher(AES128(bytes(16)), line_size=50)

    def test_convenience_wrappers_round_trip(self):
        config = EncryptionConfig()
        line = bytes(i % 256 for i in range(64))
        assert decrypt_line(config, 0x40, 9, encrypt_line(config, 0x40, 9, line)) == line


def packed_seed_pad(block_cipher, address, counter):
    """Reference pad: one packed ``<QIHH`` seed block per 16 B block."""
    return b"".join(
        block_cipher.encrypt_block(
            struct.pack("<QIHH", address, counter & 0xFFFFFFFF, (counter >> 32) & 0xFFFF, index)
        )
        for index in range(CACHE_LINE_SIZE // 16)
    )


def reference_pads(block_cipher, keys, limit):
    """Sequential pads through an LRU of ``limit`` entries, with its stats."""
    cache = OrderedDict()
    hits = misses = evictions = 0
    pads = []
    for key in keys:
        if key in cache:
            hits += 1
            cache.move_to_end(key)
        else:
            misses += 1
            pad = packed_seed_pad(block_cipher, *key)
            while len(cache) >= limit:
                cache.popitem(last=False)
                evictions += 1
            cache[key] = pad
        pads.append(cache[key])
    stats = {"hits": hits, "misses": misses, "evictions": evictions}
    return pads, dict(stats, entries=len(cache), limit=limit)


EDGE_ADDRESSES = (0, 64, 2**64 - 64)
EDGE_COUNTERS = (0, 1, 2**32 - 1, 2**32, 2**48 - 1, 2**48, 2**64 - 1)


class TestOnePassPad:
    """The PRF's one-pass pad equals the packed-seed ``encrypt_block`` pad."""

    @pytest.mark.parametrize("limit", [4096, 5])
    def test_pad_matches_packed_seeds(self, limit):
        cipher = OTPCipher(make_block_cipher(EncryptionConfig(cipher="prf")))
        cipher._pad_cache_limit = limit
        keys = [(a, c) for a in EDGE_ADDRESSES for c in EDGE_COUNTERS]
        keys += keys[::3]  # warm hits, or misses again after eviction
        expected, stats = reference_pads(cipher._cipher, keys, limit)
        assert [cipher.pad(a, c) for a, c in keys] == expected
        assert cipher.pad_cache_stats == stats

    def test_counters_keep_their_low_48_bits(self):
        cipher = OTPCipher(make_block_cipher(EncryptionConfig(cipher="prf")))
        assert cipher.pad(64, 2**48 + 5) == cipher.pad(64, 5)
        assert cipher.pad(64, 2**64 - 1) == cipher.pad(64, 2**48 - 1)

    @pytest.mark.parametrize("count", range(1, 8))
    def test_pads_many_small_batches_match_pad(self, count):
        assert count * 4 < NP_BATCH_MIN  # the scalar branch of _fresh_pads
        keys = [(EDGE_ADDRESSES[i % 3], EDGE_COUNTERS[(i * 3) % 7]) for i in range(count)]
        keys[-1] = keys[0]  # a duplicate within the batch
        batch = OTPCipher(make_block_cipher(EncryptionConfig(cipher="prf")))
        single = OTPCipher(make_block_cipher(EncryptionConfig(cipher="prf")))
        batch.pad(*keys[count // 2])  # one warm hit
        single.pad(*keys[count // 2])
        assert batch.pads_many(keys) == [single.pad(a, c) for a, c in keys]
        assert batch.pad_cache_stats == single.pad_cache_stats
        assert batch.pads_many(keys) == [packed_seed_pad(batch._cipher, a, c) for a, c in keys]

    @pytest.mark.parametrize("address", [-64, 2**64])
    def test_address_outside_64_bits_raises(self, address):
        cipher = OTPCipher(make_block_cipher(EncryptionConfig(cipher="prf")))
        with pytest.raises(CryptoError):
            cipher.pad(address, 1)
        with pytest.raises(CryptoError):
            cipher.pads_many([(0, 1), (address, 1)])

    def test_aes_pads_keep_packed_seeds(self):
        cipher = OTPCipher(make_block_cipher(EncryptionConfig(cipher="aes")))
        for address in EDGE_ADDRESSES:
            for counter in (1, 2**48 - 1, 2**64 - 1):
                assert cipher.pad(address, counter) == packed_seed_pad(
                    cipher._cipher, address, counter
                )
