"""Tests for the checksummed (single-CA-write) undo log variant."""

import pytest

from repro.bench.harness import run_workload
from repro.config import CACHE_LINE_SIZE, KB, fast_config
from repro.crash.checker import sweep_crash_points
from repro.crash.injector import CrashInjector
from repro.crash.recovery import RecoveryManager
from repro.errors import TransactionError
from repro.sim.machine import Machine
from repro.sim.trace import OpKind, TraceBuilder
from repro.txn.checksum_undo import (
    ChecksummedUndoLog,
    entry_checksum,
    recover_checksummed_undo,
)
from repro.txn.heap import MemoryLayout
from repro.workloads.base import WorkloadParams

OLD = bytes(64)
NEW = bytes([0xEE]) * 64
PARAMS = WorkloadParams(operations=8, footprint_bytes=8 * KB)


@pytest.fixture
def setup():
    config = fast_config()
    layout = MemoryLayout.build(config, log_capacity=16)
    builder = TraceBuilder("cksum")
    txns = ChecksummedUndoLog(builder, layout.arena(0))
    return config, layout, builder, txns


class TestChecksum:
    def test_deterministic(self):
        assert entry_checksum(0x40, 1, OLD) == entry_checksum(0x40, 1, OLD)

    def test_sensitive_to_every_field(self):
        base = entry_checksum(0x40, 1, OLD)
        assert entry_checksum(0x80, 1, OLD) != base
        assert entry_checksum(0x40, 2, OLD) != base
        assert entry_checksum(0x40, 1, NEW) != base

    def test_byte_flip_detected(self):
        tampered = bytes([1]) + OLD[1:]
        assert entry_checksum(0x40, 1, tampered) != entry_checksum(0x40, 1, OLD)


class TestProtocolShape:
    def test_exactly_one_counter_atomic_store_per_txn(self, setup):
        """The variant's selling point: half the CA writes of the
        standard undo protocol."""
        _config, layout, builder, txns = setup
        target = layout.arena(0).heap.alloc_lines(1)
        txns.run([(target, OLD, NEW)])
        ca_stores = [
            op for op in builder.build()
            if op.kind is OpKind.STORE and op.counter_atomic
        ]
        assert len(ca_stores) == 1

    def test_one_fewer_barrier_than_standard_undo(self, setup):
        from repro.txn.undolog import UndoLogTransactions

        config, layout, builder, txns = setup
        target = layout.arena(0).heap.alloc_lines(1)
        txns.run([(target, OLD, NEW)])
        checksum_fences = sum(
            1 for op in builder.build() if op.kind is OpKind.SFENCE
        )

        builder2 = TraceBuilder("std")
        layout2 = MemoryLayout.build(config, log_capacity=16)
        std = UndoLogTransactions(builder2, layout2.arena(0))
        target2 = layout2.arena(0).heap.alloc_lines(1)
        std.run([(target2, OLD, NEW)])
        std_fences = sum(1 for op in builder2.build() if op.kind is OpKind.SFENCE)

        assert checksum_fences == std_fences - 1

    def test_nesting_rejected(self, setup):
        _c, _l, _b, txns = setup
        txns.begin()
        with pytest.raises(TransactionError):
            txns.begin()

    def test_bad_line_rejected(self, setup):
        _c, _l, _b, txns = setup
        txns.begin()
        with pytest.raises(TransactionError):
            txns.write_line(0x1004, OLD, NEW)


class TestRecovery:
    def test_crash_sweep_every_workload(self):
        for workload in ("array", "queue", "btree"):
            outcome = run_workload(
                "sca", workload, mechanism="checksum-undo", params=PARAMS
            )
            report = sweep_crash_points(
                outcome.result, outcome.validator(0), max_points=60
            )
            failure = report.first_failure()
            assert report.all_consistent, (
                "%s first failure at %.1f: %s"
                % (workload, failure.crash_ns, failure.problems[:1])
            )

    def test_mid_prepare_crash_restores_nothing_harmful(self, setup):
        """Entries of the in-flight transaction with valid checksums
        restore pre-images identical to the live values (mutate has
        not run), so partial restores are harmless."""
        config, layout, builder, txns = setup
        target = layout.arena(0).heap.alloc_lines(1)
        txns.run([(target, OLD, NEW)])
        result = Machine(config, "sca").run([builder.build()])
        injector = CrashInjector(result)
        manager = RecoveryManager(config.encryption)
        for crash_ns in injector.interesting_times(limit=30):
            recovered = manager.recover(injector.crash_at(crash_ns))
            recover_checksummed_undo(recovered, layout.arena(0))
            value = recovered.read(target, CACHE_LINE_SIZE)
            assert value in (OLD, NEW)

    def test_stale_generation_entries_ignored(self, setup):
        """After two transactions, recovery of a crash inside txn 2
        must not replay txn 1's entries (seq filtering)."""
        config, layout, builder, txns = setup
        target = layout.arena(0).heap.alloc_lines(1)
        txns.run([(target, OLD, NEW)])
        txns.run([(target, NEW, OLD)])
        result = Machine(config, "sca").run([builder.build()])
        injector = CrashInjector(result)
        manager = RecoveryManager(config.encryption)
        end_of_first = result.txn_end_times[0][0]
        recovered = manager.recover(injector.crash_at(end_of_first + 0.5))
        restored = recover_checksummed_undo(recovered, layout.arena(0))
        # Crash landed between txns: nothing in flight (or txn 2's
        # prepare), never a replay of txn 1 backwards.
        assert recovered.read(target, CACHE_LINE_SIZE) in (NEW, OLD)
        if restored:
            assert recovered.read(target, CACHE_LINE_SIZE) == NEW

    @pytest.mark.parametrize("design", ["sca", "fca", "no-encryption", "ideal"])
    def test_crash_after_an_empty_transaction(self, design):
        """An empty transaction takes a seq but logs nothing and leaves
        ``committed_seq`` behind, so the next one logs a seq two past
        it: recovery must still restore that transaction's entries."""
        config = fast_config()
        layout = MemoryLayout.build(config, log_capacity=16)
        arena = layout.arena(0)
        builder = TraceBuilder("cksum-gap")
        txns = ChecksummedUndoLog(builder, arena)
        targets = [arena.heap.alloc_lines(1), arena.heap.alloc_lines(1)]
        middle = bytes([0x11]) * CACHE_LINE_SIZE
        txns.run([(target, OLD, middle) for target in targets])
        txns.run([])
        txns.run([(target, middle, NEW) for target in targets])
        # The state after each prefix of the three transactions.
        prefixes = [(OLD, OLD), (middle, middle), (middle, middle), (NEW, NEW)]
        result = Machine(config, design).run([builder.build()])
        injector = CrashInjector(result)
        manager = RecoveryManager(result.config.encryption)
        ends = result.txn_end_times[0]
        instants = sorted(
            set(injector.interesting_times()) | set(injector.midpoint_times())
        )
        for crash_ns in instants:
            recovered = manager.recover(injector.crash_at(crash_ns))
            recover_checksummed_undo(recovered, arena)
            state = tuple(recovered.read(t, CACHE_LINE_SIZE) for t in targets)
            acked = sum(1 for end_ns in ends if end_ns <= crash_ns)
            assert state in prefixes[acked:], "torn state at %.1f ns" % crash_ns


class TestPerformance:
    def test_cheaper_than_standard_undo(self):
        """One less barrier and one less CA pair per transaction should
        never make it slower."""
        standard = run_workload("sca", "array", mechanism="undo", params=PARAMS)
        checksummed = run_workload(
            "sca", "array", mechanism="checksum-undo", params=PARAMS
        )
        assert (
            checksummed.stats.runtime_ns <= standard.stats.runtime_ns * 1.02
        )
        assert (
            checksummed.result.controller.stats.paired_writes
            < standard.result.controller.stats.paired_writes
        )
