"""Tests for the utility helpers (bitops, tables)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AlignmentError
from repro.utils.bitops import (
    align_down,
    align_up,
    bytes_to_u64,
    is_aligned,
    is_power_of_two,
    log2_int,
    require_aligned,
    rotl64,
    rotr64,
    u64_to_bytes,
    xor_bytes,
)
from repro.utils.tables import format_table


class TestBitops:
    def test_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(64)
        assert not is_power_of_two(0)
        assert not is_power_of_two(48)

    def test_log2(self):
        assert log2_int(64) == 6
        with pytest.raises(ValueError):
            log2_int(63)

    @given(st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=100)
    def test_align_invariants(self, address):
        down = align_down(address, 64)
        up = align_up(address, 64)
        assert down <= address <= up
        assert down % 64 == 0 and up % 64 == 0
        assert up - down in (0, 64)

    def test_is_aligned(self):
        assert is_aligned(128, 64)
        assert not is_aligned(129, 64)

    def test_require_aligned_raises(self):
        with pytest.raises(AlignmentError):
            require_aligned(7, 8)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=100)
    def test_u64_round_trip(self, value):
        assert bytes_to_u64(u64_to_bytes(value)) == value

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(0, 63))
    @settings(max_examples=100)
    def test_rotation_inverse(self, value, amount):
        assert rotr64(rotl64(value, amount), amount) == value

    def test_xor_bytes(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"
        with pytest.raises(ValueError):
            xor_bytes(b"\x00", b"\x00\x00")


class TestTables:
    def test_renders_headers_and_rows(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bb", 2]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "1.500" in text
        assert "bb" in text

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])
