"""Hot-path kernel correctness: T-table AES, big-int XOR, stateless pads.

The fast paths must be bit-for-bit equivalent to the reference
implementations in :mod:`repro.bench.oracles` — the perf harness
measures them, these tests pin them.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.oracles import encrypt_block_reference, xor_reference
from repro.config import EncryptionConfig
from repro.crypto.aes import AES128
from repro.crypto.otp import OTPCipher, _xor, make_block_cipher

LINE = st.binary(min_size=64, max_size=64)
BLOCK = st.binary(min_size=16, max_size=16)
KEY = st.binary(min_size=16, max_size=16)


class TestTTableAES:
    def test_fips197_appendix_b_fast_path(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert AES128(key).encrypt_block(plaintext) == expected

    def test_fips197_appendix_c1_both_paths(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        aes = AES128(key)
        assert aes.encrypt_block(plaintext) == expected
        assert encrypt_block_reference(aes, plaintext) == expected

    @given(KEY, BLOCK)
    @settings(max_examples=60)
    def test_fast_path_matches_slow_path(self, key, block):
        aes = AES128(key)
        assert aes.encrypt_block(block) == encrypt_block_reference(aes, block)

    @given(KEY, BLOCK)
    @settings(max_examples=30)
    def test_decrypt_inverts_fast_encrypt(self, key, block):
        aes = AES128(key)
        assert aes.decrypt_block(aes.encrypt_block(block)) == block

    def test_encrypt_blocks_matches_single_block_calls(self):
        aes = AES128(bytes(range(16)))
        blocks = [bytes([i] * 16) for i in range(32)]
        assert aes.encrypt_blocks(blocks) == [aes.encrypt_block(b) for b in blocks]

    def test_fast_path_matches_slow_path_exhaustive_sample(self):
        rng = random.Random(7)
        for _ in range(200):
            key = bytes(rng.randrange(256) for _ in range(16))
            block = bytes(rng.randrange(256) for _ in range(16))
            aes = AES128(key)
            assert aes.encrypt_block(block) == encrypt_block_reference(aes, block)


class TestFastXor:
    @given(LINE, LINE)
    @settings(max_examples=100)
    def test_matches_reference_on_64_byte_lines(self, left, right):
        assert _xor(left, right) == xor_reference(left, right)

    @given(LINE, LINE)
    @settings(max_examples=50)
    def test_self_inverse(self, pad, plaintext):
        assert _xor(pad, _xor(pad, plaintext)) == plaintext

    def test_handles_all_zero_and_all_ff(self):
        zeros, ones = bytes(64), bytes([0xFF] * 64)
        assert _xor(zeros, ones) == ones
        assert _xor(ones, ones) == zeros

    def test_arbitrary_lengths(self):
        for size in (1, 8, 16, 63, 64, 65, 128):
            left = bytes(range(size % 256))[:size].ljust(size, b"\x55")
            right = bytes([0xA7] * size)
            assert _xor(left, right) == xor_reference(left, right)


class TestPadLRUCache:
    """Pads once went through a bounded LRU cache; now every pad is made
    afresh.  Either way a pad depends on its key alone, never on how
    many other pads the cipher has made since."""

    def _cipher(self):
        return OTPCipher(make_block_cipher(EncryptionConfig()))

    def test_eviction_never_changes_pad_values(self):
        cipher = self._cipher()
        reference = {}
        for i in range(12):
            reference[(i * 64, i)] = cipher.pad(i * 64, i)
        for (address, counter), expected in reference.items():
            assert cipher.pad(address, counter) == expected
        assert cipher.pads_many(list(reference)) == list(reference.values())

    def test_encrypt_decrypt_roundtrip_across_evictions(self):
        cipher = self._cipher()
        line = bytes(i % 256 for i in range(64))
        encrypted = {}
        for i in range(10):
            encrypted[i] = cipher.encrypt(i * 64, i + 1, line)
        for i in range(10):
            assert cipher.decrypt(i * 64, i + 1, encrypted[i]) == line
