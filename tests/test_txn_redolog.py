"""Tests for redo-logging transactions."""

import pytest

from repro.config import fast_config
from repro.crash.injector import CrashInjector
from repro.crash.recovery import RecoveryManager
from repro.errors import TransactionError
from repro.sim.machine import Machine
from repro.sim.trace import OpKind, TraceBuilder
from repro.txn.heap import MemoryLayout
from repro.txn.redolog import RedoLogTransactions, recover_redo_log

OLD = bytes(64)
NEW = bytes([0xCD]) * 64


@pytest.fixture
def setup():
    config = fast_config()
    layout = MemoryLayout.build(config, log_capacity=16)
    builder = TraceBuilder("redo-test")
    txns = RedoLogTransactions(builder, layout.arena(0))
    return config, layout, builder, txns


class TestProtocolShape:
    def test_stage_order(self, setup):
        _config, layout, builder, txns = setup
        target = layout.arena(0).heap.alloc_lines(1)
        txns.run([(target, OLD, NEW)])
        labels = [op.note for op in builder.build() if op.kind is OpKind.LABEL]
        assert labels == ["prepare", "commit", "write-back", "retire"]

    def test_two_counter_atomic_stores(self, setup):
        _config, layout, builder, txns = setup
        target = layout.arena(0).heap.alloc_lines(1)
        txns.run([(target, OLD, NEW)])
        ca_stores = [
            op for op in builder.build()
            if op.kind is OpKind.STORE and op.counter_atomic
        ]
        assert len(ca_stores) == 2  # commit (valid=1), retire (valid=0)

    def test_in_place_write_after_commit(self, setup):
        """Redo logging's defining order: data is written in place only
        after the commit record flips."""
        _config, layout, builder, txns = setup
        target = layout.arena(0).heap.alloc_lines(1)
        txns.run([(target, OLD, NEW)])
        ops = builder.build().ops
        commit = next(
            i for i, op in enumerate(ops)
            if op.kind is OpKind.STORE and op.counter_atomic
        )
        in_place = next(
            i for i, op in enumerate(ops)
            if op.kind is OpKind.STORE and op.address == target
        )
        assert in_place > commit

    def test_nesting_rejected(self, setup):
        _config, _layout, _builder, txns = setup
        txns.begin()
        with pytest.raises(TransactionError):
            txns.begin()

    def test_wrong_size_rejected(self, setup):
        _config, _layout, _builder, txns = setup
        txns.begin()
        with pytest.raises(TransactionError):
            txns.write_line(0x1000, OLD, b"small")


class TestRecovery:
    def test_completed_run_recovers_new_value(self, setup):
        config, layout, builder, txns = setup
        target = layout.arena(0).heap.alloc_lines(1)
        txns.run([(target, OLD, NEW)])
        result = Machine(config, "sca").run([builder.build()])
        injector = CrashInjector(result)
        recovered = RecoveryManager(config.encryption).recover(
            injector.crash_at(result.stats.runtime_ns + 1e6)
        )
        recover_redo_log(recovered, layout.arena(0))
        assert recovered.read(target, 64) == NEW

    def test_crash_before_commit_keeps_old_value(self, setup):
        config, layout, builder, txns = setup
        target = layout.arena(0).heap.alloc_lines(1)
        txns.run([(target, OLD, NEW)])
        result = Machine(config, "sca").run([builder.build()])
        injector = CrashInjector(result)
        recovered = RecoveryManager(config.encryption).recover(injector.crash_at(0.5))
        applied = recover_redo_log(recovered, layout.arena(0))
        assert applied == []
        assert recovered.read(target, 64) == bytes(64)

    def test_crash_sweep_always_old_or_new(self, setup):
        """At every crash instant, redo recovery lands on exactly the
        old or the new value — never a torn mixture."""
        config, layout, builder, txns = setup
        target = layout.arena(0).heap.alloc_lines(1)
        txns.run([(target, OLD, NEW)])
        result = Machine(config, "sca").run([builder.build()])
        injector = CrashInjector(result)
        manager = RecoveryManager(config.encryption)
        for crash_ns in injector.interesting_times(limit=40):
            recovered = manager.recover(injector.crash_at(crash_ns))
            recover_redo_log(recovered, layout.arena(0))
            value = recovered.read(target, 64)
            assert value in (bytes(64), NEW), "torn state at %.1f" % crash_ns
