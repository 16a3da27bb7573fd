"""Tests for traces and the trace builder."""

import pytest

from repro.config import CACHE_LINE_SIZE
from repro.errors import TraceError
from repro.sim.trace import Op, OpKind, Trace, TraceBuilder, merge_round_robin


def reference_shadow(ops, address, length):
    """Per-byte replay of every data-carrying store, in order."""
    shadow = {}
    for op in ops:
        if op.kind is OpKind.STORE and op.data is not None:
            for offset, byte in enumerate(op.data):
                shadow[op.address + offset] = byte
    return bytes(shadow.get(address + i, 0) for i in range(length))


class TestOpValidation:
    def test_rejects_oversized_memory_op(self):
        with pytest.raises(TraceError):
            Op(kind=OpKind.LOAD, address=0, length=128)

    def test_rejects_zero_length(self):
        with pytest.raises(TraceError):
            Op(kind=OpKind.STORE, address=0, length=0)

    def test_rejects_mismatched_data_length(self):
        with pytest.raises(TraceError):
            Op(kind=OpKind.STORE, address=0, length=8, data=b"123")

    def test_rejects_negative_compute(self):
        with pytest.raises(TraceError):
            Op(kind=OpKind.COMPUTE, duration_ns=-1.0)


class TestBuilder:
    def test_fluent_chaining(self):
        builder = TraceBuilder("t")
        trace = (
            builder.txn_begin()
            .store_u64(0x40, 1)
            .clwb(0x40)
            .ccwb(0x40)
            .persist_barrier()
            .txn_end()
            .build()
        )
        kinds = [op.kind for op in trace]
        assert kinds == [
            OpKind.TXN_BEGIN,
            OpKind.STORE,
            OpKind.CLWB,
            OpKind.CCWB,
            OpKind.SFENCE,
            OpKind.TXN_END,
        ]

    def test_shadow_tracks_stores(self):
        builder = TraceBuilder("t")
        builder.store(0x40, b"\x01\x02\x03\x04\x05\x06\x07\x08")
        assert builder.shadow_bytes(0x40, 8) == bytes(range(1, 9))
        assert builder.shadow_bytes(0x48, 4) == bytes(4)

    def test_shadow_last_write_wins(self):
        builder = TraceBuilder("t")
        builder.store(0x40, bytes(range(1, 9)))
        builder.store(0x44, b"\xaa\xbb\xcc\xdd\xee\xff\x11\x22")  # partly over the first
        builder.store(0x42, b"\x99\x98")  # inside both
        builder.store(0x40, b"\x55")
        builder.load(0x40).clwb(0x40)
        for address, length in ((0x3C, 20), (0x40, 12), (0x43, 3), (0x4B, 8), (0x50, 4)):
            assert builder.shadow_bytes(address, length) == reference_shadow(
                builder.build().ops, address, length
            )
        assert builder.shadow_bytes(0x40, 12) == (
            b"\x55\x02\x99\x98\xaa\xbb\xcc\xdd\xee\xff\x11\x22"
        )

    def test_non_functional_shadow_reads_zero(self):
        builder = TraceBuilder("t", functional=False)
        builder.store(0x40, b"\xff" * 8)
        builder.store_u64(0x44, 7)
        assert builder.shadow_bytes(0x3C, 16) == bytes(16)

    def test_store_u64_little_endian(self):
        builder = TraceBuilder("t")
        builder.store_u64(0x40, 0x0102)
        assert builder.shadow_bytes(0x40, 2) == b"\x02\x01"

    def test_timing_only_builder_drops_payloads(self):
        builder = TraceBuilder("t", functional=False)
        builder.store(0x40, b"\xff" * 8)
        store = builder.build().ops[0]
        assert store.data is None
        assert store.length == 8

    def test_clwb_span_covers_all_lines(self):
        builder = TraceBuilder("t")
        builder.clwb_span(0x40, 130)  # 0x40..0xC2 -> lines 0x40, 0x80, 0xC0
        addresses = [op.address for op in builder.build()]
        assert addresses == [0x40, 0x80, 0xC0]

    def test_ccwb_span_covers_groups(self):
        builder = TraceBuilder("t")
        builder.ccwb_span(0, 1024)  # two 512 B groups
        addresses = [op.address for op in builder.build()]
        assert addresses == [0, 512]


class TestTrace:
    def test_counts(self):
        builder = TraceBuilder("t")
        builder.load(0).load(64).store_u64(0, 1)
        counts = builder.build().counts()
        assert counts[OpKind.LOAD] == 2
        assert counts[OpKind.STORE] == 1

    def test_transactions_counted_by_end_markers(self):
        builder = TraceBuilder("t")
        builder.txn_begin().txn_end().txn_begin().txn_end()
        assert builder.build().transactions() == 2

    def test_merge_round_robin_interleaves(self):
        a = TraceBuilder("a")
        a.load(0).load(64)
        b = TraceBuilder("b")
        b.load(128)
        merged = merge_round_robin([a.build(), b.build()])
        assert [op.address for op in merged] == [0, 128, 64]
