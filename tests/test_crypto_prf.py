"""Tests for the SplitMix-based simulation PRF."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import struct

from repro.crypto.prf import SplitMixPRF
from repro.errors import CryptoError

_KEY = b"0123456789abcdef"
_TWO_U64 = struct.Struct("<QQ")
U64 = st.integers(min_value=0, max_value=2**64 - 1)


class TestBasics:
    def test_deterministic(self):
        prf = SplitMixPRF(_KEY)
        block = bytes(range(16))
        assert prf.encrypt_block(block) == prf.encrypt_block(block)

    def test_key_sensitivity(self):
        block = bytes(16)
        assert (
            SplitMixPRF(b"A" * 16).encrypt_block(block)
            != SplitMixPRF(b"B" * 16).encrypt_block(block)
        )

    def test_output_length(self):
        assert len(SplitMixPRF(_KEY).encrypt_block(bytes(16))) == 16

    def test_rejects_bad_key(self):
        with pytest.raises(CryptoError):
            SplitMixPRF(b"short")

    def test_rejects_bad_block(self):
        with pytest.raises(CryptoError):
            SplitMixPRF(_KEY).encrypt_block(b"short")


class TestStatisticalProperties:
    @given(st.binary(min_size=16, max_size=16))
    @settings(max_examples=100)
    def test_input_sensitivity(self, block):
        """Any block maps to an output different from a perturbed block.

        This is the property counter-atomicity relies on: a stale
        counter (different input) must yield an unrelated pad.
        """
        prf = SplitMixPRF(_KEY)
        perturbed = bytes([block[0] ^ 1]) + block[1:]
        assert prf.encrypt_block(block) != prf.encrypt_block(perturbed)

    def test_low_entropy_inputs_spread(self):
        """Sequential counters (the common input) yield distinct pads."""
        prf = SplitMixPRF(_KEY)
        outputs = {
            prf.encrypt_block(i.to_bytes(16, "little")) for i in range(1000)
        }
        assert len(outputs) == 1000

    def test_bit_balance(self):
        """Outputs over sequential inputs are roughly half ones."""
        prf = SplitMixPRF(_KEY)
        ones = 0
        total = 0
        for i in range(256):
            out = prf.encrypt_block(i.to_bytes(16, "little"))
            ones += sum(bin(b).count("1") for b in out)
            total += 128
        assert 0.45 < ones / total < 0.55


class TestSharedLowWord:
    """``encrypt_shared_lo`` is ``encrypt_block`` over packed blocks."""

    @given(U64, st.lists(U64, max_size=10))
    @settings(max_examples=200)
    def test_matches_packed_blocks(self, lo, his):
        prf = SplitMixPRF(_KEY)
        expected = b"".join(prf.encrypt_block(_TWO_U64.pack(lo, hi)) for hi in his)
        assert prf.encrypt_shared_lo(lo, his) == expected

    @pytest.mark.parametrize("lo", [-1, -64, 2**64, 2**70])
    def test_low_word_outside_64_bits_raises(self, lo):
        with pytest.raises(CryptoError):
            SplitMixPRF(_KEY).encrypt_shared_lo(lo, [1, 2])
