"""Checkpoint/restore: snapshot format safety, store recovery, and the
bit-identical resume guarantee across all four transaction mechanisms.

A checkpoint is the pickled machine; state comparisons go through the
walker in ``tests/state_walker.py``."""

import os
import pickle
import struct

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.bench.harness import build_traces
from repro.config import CACHE_LINE_SIZE, fast_config
from repro.errors import SnapshotCorruptError, SnapshotError, SnapshotVersionError
from repro.sim import snapshot as snapshot_module
from repro.sim.machine import Machine
from repro.sim.snapshot import (
    FORMAT_VERSION,
    MAGIC,
    SnapshotStore,
    read_snapshot,
    result_fingerprint,
    run_with_checkpoints,
    write_snapshot,
)
from repro.sim.trace import TraceBuilder
from repro.txn.heap import MemoryLayout
from repro.txn.shadow import ShadowTransactions
from repro.workloads.base import WorkloadParams
from tests.state_walker import assert_same_state

#: Every transaction mechanism the repo implements.  The first three go
#: through the workload harness; shadow is builder-level (see
#: tests/test_txn_shadow.py) so its traces are hand-assembled here.
MECHANISMS = ("undo", "redo", "checksum-undo", "shadow")


def make_config(num_cores=2, shards=1):
    return fast_config(num_cores=num_cores, functional=True, shards=shards)


def make_traces(config, mechanism, operations=5, seed=11):
    if mechanism != "shadow":
        traces, _runs, _layout = build_traces(
            "hash",
            config,
            mechanism,
            WorkloadParams(operations=operations, seed=seed),
        )
        return traces
    layout = MemoryLayout.build(config, log_capacity=8)
    traces = []
    for core in range(config.num_cores):
        builder = TraceBuilder("shadow-core%d" % core)
        txns = ShadowTransactions(
            builder, layout.arena(core), region_bytes=4 * CACHE_LINE_SIZE
        )
        for version in range(operations):
            fill = (seed * 31 + core * 17 + version * 7) % 255 + 1
            offset = ((seed + version) % 4) * CACHE_LINE_SIZE
            txns.commit_new_version([(offset, bytes([fill]) * CACHE_LINE_SIZE)])
        traces.append(builder.build())
    return traces


def small_machine(events=0):
    """A one-core machine ``events`` events into a short trace."""
    builder = TraceBuilder("small")
    for line in range(8):
        builder.store_u64(0x1000 + line * CACHE_LINE_SIZE, line + 1)
        builder.clwb(0x1000 + line * CACHE_LINE_SIZE)
    builder.sfence()
    machine = Machine(fast_config(), "sca")
    machine.begin([builder.build()])
    machine.run_events(events)
    return machine


def stepped_to(config, design, traces, cut):
    machine = Machine(config, design)
    machine.begin(traces)
    for _ in range(cut):
        machine.step()
    return machine


def assert_resume_from_cut_is_bit_identical(config, design, traces, draw_cut):
    """Pickle a machine ``draw_cut(total)`` events in, unpickle it and
    finish: the result and the final state equal the uninterrupted run's."""
    baseline = Machine(config, design)
    expected = result_fingerprint(baseline.run(traces))
    total = baseline.events_executed
    assume(total >= 2)
    machine = stepped_to(config, design, traces, draw_cut(total))
    # Round-trip through real serialization, as a snapshot file would.
    resumed = pickle.loads(pickle.dumps(machine, protocol=4))
    while resumed.step():
        pass
    assert result_fingerprint(resumed.finish()) == expected
    assert_same_state(resumed, baseline)


class TestResumeDeterminism:
    """The tentpole guarantee: checkpoint at *any* event boundary,
    pickle the machine, unpickle it, and the finished result is
    bit-identical (exact floats, final image, journal) to the
    uninterrupted run."""

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @given(data=st.data())
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_resume_from_any_cut_is_bit_identical(self, mechanism, data):
        seed = data.draw(st.integers(min_value=0, max_value=999), label="seed")
        design = data.draw(
            st.sampled_from(
                ("sca", "co-located-cc", "no-encryption", "sca+bmt", "fca+bmt")
            ),
            label="design",
        )
        config = make_config()
        traces = make_traces(config, mechanism, seed=seed)
        assert_resume_from_cut_is_bit_identical(
            config,
            design,
            traces,
            lambda total: data.draw(
                st.integers(min_value=1, max_value=total - 1), label="cut"
            ),
        )

    @pytest.mark.parametrize("design", ["sca", "fca+bmt"])
    @given(data=st.data())
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_sharded_resume_from_any_cut_is_bit_identical(self, design, data):
        """Four cores on two controllers: the pickle carries both shards,
        the commit log and the cross-shard barrier."""
        seed = data.draw(st.integers(min_value=0, max_value=999), label="seed")
        config = make_config(num_cores=4, shards=2)
        traces = make_traces(config, "undo", seed=seed)
        assert_resume_from_cut_is_bit_identical(
            config,
            design,
            traces,
            lambda total: data.draw(
                st.integers(min_value=1, max_value=total - 1), label="cut"
            ),
        )

    def test_pickle_keeps_shared_objects(self):
        """What a field-by-field restore had to rebuild, pickle keeps: one
        object behind every reference to it."""
        config = make_config()
        machine = stepped_to(config, "fca+bmt", make_traces(config, "undo"), 300)
        resumed = pickle.loads(pickle.dumps(machine, protocol=4))
        controller = resumed.controller
        assert resumed.hierarchy.controller is controller
        assert resumed._pending and all(
            any(core is mine for mine in resumed._cores) for core in resumed._pending
        )
        for layer in (controller.atomicity, controller.integrity, controller.layout):
            assert layer.ctrl is controller
        journal = controller.journal
        assert journal.records
        assert all(journal._by_entry_id[r.entry_id] is r for r in journal.records)
        for queue in (controller.data_queue, controller.counter_queue):
            assert all(
                address == entry.address
                for address, entry in queue._live_by_address.items()
            )

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_store_roundtrip_per_mechanism(self, mechanism, tmp_path):
        """File-level roundtrip: snapshot mid-run to disk, resume via
        run_with_checkpoints, compare fingerprints."""
        config = make_config()
        traces = make_traces(config, mechanism)
        baseline = Machine(config, "sca")
        expected = result_fingerprint(baseline.run(traces))
        cut = baseline.events_executed // 2
        assert cut >= 1
        store = SnapshotStore(str(tmp_path), code="c1")
        store.save(stepped_to(config, "sca", traces, cut))
        resumed = Machine(config, "sca")
        result, stats = run_with_checkpoints(resumed, traces, store=store)
        assert stats["restored"] == 1
        assert stats["restored_events"] == cut
        assert result_fingerprint(result) == expected


class TestSnapshotFile:
    def test_roundtrip_preserves_state_and_header(self, tmp_path):
        path = str(tmp_path / "snap.ckpt")
        machine = small_machine(events=5)
        write_snapshot(path, machine, code="abc123", meta={"events": 7})
        loaded, header = read_snapshot(path, expected_code="abc123")
        assert isinstance(loaded, Machine) and loaded is not machine
        assert_same_state(loaded, machine)
        assert header["code"] == "abc123"
        assert header["meta"] == {"events": 7}
        assert header["format"] == FORMAT_VERSION == 2

    def test_publish_is_atomic_no_tmp_left(self, tmp_path):
        path = str(tmp_path / "snap.ckpt")
        write_snapshot(path, small_machine())
        assert os.listdir(str(tmp_path)) == ["snap.ckpt"]

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.ckpt")
        with open(path, "wb") as handle:
            handle.write(b"not a snapshot at all")
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(path)

    def test_every_truncation_point_is_detected(self, tmp_path):
        """A torn write (file cut at any byte) must never restore."""
        path = str(tmp_path / "snap.ckpt")
        write_snapshot(path, small_machine(events=3))
        with open(path, "rb") as handle:
            blob = handle.read()
        torn = str(tmp_path / "torn.ckpt")
        for length in range(0, len(blob), max(1, len(blob) // 9)):
            with open(torn, "wb") as handle:
                handle.write(blob[:length])
            with pytest.raises(SnapshotCorruptError):
                read_snapshot(torn)

    def test_body_bitflip_fails_checksum(self, tmp_path):
        path = str(tmp_path / "snap.ckpt")
        write_snapshot(path, small_machine())
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        blob[-1] ^= 0x40
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(path)

    def test_body_that_is_not_a_machine_is_corrupt(self, tmp_path):
        """A sound container around another pickle (a state mapping, as
        format 1 held) is quarantined, never resumed."""
        store = SnapshotStore(str(tmp_path))
        path = write_snapshot(store._path(0), {"events": 1})
        with pytest.raises(SnapshotCorruptError, match="not a pickled Machine"):
            read_snapshot(path)
        assert store.load_latest() is None
        assert store.quarantined == 1
        assert os.path.exists(path + ".corrupt")

    def test_code_mismatch_is_a_version_error(self, tmp_path):
        path = str(tmp_path / "snap.ckpt")
        write_snapshot(path, small_machine(events=2), code="old-code")
        with pytest.raises(SnapshotVersionError):
            read_snapshot(path, expected_code="new-code")
        # Without an expectation the same file loads fine.
        machine, _header = read_snapshot(path)
        assert machine.events_executed == 2

    def test_unknown_container_format_rejected(self, tmp_path):
        for version in (FORMAT_VERSION - 1, 999):
            path = str(tmp_path / ("format-%d.ckpt" % version))
            header = (
                b'{"format": %d, "code": "", "crc": 0, "body_bytes": 0, "meta": {}}'
                % version
            )
            with open(path, "wb") as handle:
                handle.write(MAGIC)
                handle.write(struct.pack(">I", len(header)))
                handle.write(header)
            with pytest.raises(SnapshotVersionError):
                read_snapshot(path)


class TestSnapshotStore:
    def test_generations_increment_and_prune_to_keep(self, tmp_path):
        store = SnapshotStore(str(tmp_path), keep=2)
        for n in range(4):
            store.save(small_machine(events=n))
        assert store.generations() == [2, 3]
        machine, _header = store.load_latest()
        assert machine.events_executed == 3
        assert store.saved == 4

    def test_falls_back_past_torn_generation(self, tmp_path):
        store = SnapshotStore(str(tmp_path), keep=3)
        store.save(small_machine(events=0))
        newest = store.save(small_machine(events=1))
        with open(newest, "rb") as handle:
            blob = handle.read()
        with open(newest, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        machine, _header = store.load_latest()
        assert machine.events_executed == 0
        assert store.quarantined == 1
        assert os.path.exists(newest + ".corrupt")
        assert not os.path.exists(newest)

    def test_quarantine_files_survive_pruning(self, tmp_path):
        store = SnapshotStore(str(tmp_path), keep=1)
        doomed = store.save(small_machine())
        with open(doomed, "ab") as handle:
            handle.write(b"trailing garbage")
        assert store.load_latest() is None
        for n in range(1, 4):
            store.save(small_machine(events=n))
        assert os.path.exists(doomed + ".corrupt")

    def test_stale_code_generations_invalidated(self, tmp_path):
        writer = SnapshotStore(str(tmp_path), code="rev-a")
        writer.save(small_machine(events=0))
        writer.save(small_machine(events=1))
        reader = SnapshotStore(str(tmp_path), code="rev-b")
        assert reader.load_latest() is None
        assert reader.invalidated == 2
        assert reader.generations() == []

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(SnapshotError):
            SnapshotStore(str(tmp_path), keep=0)


class TestRunWithCheckpoints:
    def _base(self):
        config = make_config()
        traces = make_traces(config, "undo")
        baseline = Machine(config, "sca")
        expected = result_fingerprint(baseline.run(traces))
        return config, traces, expected, baseline.events_executed

    def test_event_cadence_saves_snapshots(self, tmp_path):
        config, traces, expected, total = self._base()
        store = SnapshotStore(str(tmp_path), code="c1")
        result, stats = run_with_checkpoints(
            Machine(config, "sca"),
            traces,
            store=store,
            every_events=max(1, total // 5),
        )
        assert result_fingerprint(result) == expected
        assert stats["saved"] >= 3
        assert stats["restored"] == 0
        assert store.generations()  # snapshots actually landed on disk

    def test_resume_false_starts_fresh(self, tmp_path):
        config, traces, expected, total = self._base()
        store = SnapshotStore(str(tmp_path), code="c1")
        store.save(stepped_to(config, "sca", traces, total // 2))
        result, stats = run_with_checkpoints(
            Machine(config, "sca"), traces, store=store, resume=False
        )
        assert stats["restored"] == 0
        assert result_fingerprint(result) == expected

    def test_torn_newest_generation_falls_back_then_matches(self, tmp_path):
        """The acceptance scenario: newest snapshot torn mid-write,
        recovery quarantines it, resumes one generation back, and still
        reproduces the uninterrupted result bit-for-bit."""
        config, traces, expected, total = self._base()
        store = SnapshotStore(str(tmp_path), code="c1")
        cuts = (total // 3, 2 * total // 3)
        machine = Machine(config, "sca")
        machine.begin(traces)
        done = 0
        for cut in cuts:
            while done < cut:
                machine.step()
                done += 1
            store.save(machine)
        newest = store._path(store.generations()[-1])
        with open(newest, "rb") as handle:
            blob = handle.read()
        with open(newest, "wb") as handle:
            handle.write(blob[: len(blob) // 3])
        result, stats = run_with_checkpoints(
            Machine(config, "sca"), traces, store=store
        )
        assert stats["restored"] == 1
        assert stats["restored_events"] == cuts[0]
        assert stats["quarantined"] == 1
        assert os.path.exists(newest + ".corrupt")
        assert result_fingerprint(result) == expected

    def test_all_generations_bad_restarts_from_zero(self, tmp_path):
        config, traces, expected, total = self._base()
        store = SnapshotStore(str(tmp_path), code="c1")
        path = store.save(stepped_to(config, "sca", traces, total // 2))
        with open(path, "wb") as handle:
            handle.write(b"shredded")
        result, stats = run_with_checkpoints(
            Machine(config, "sca"), traces, store=store
        )
        assert stats["restored"] == 0
        assert stats["quarantined"] == 1
        assert result_fingerprint(result) == expected

    def test_policy_validation(self, tmp_path):
        config, traces, _expected, _total = self._base()
        for store in (None, SnapshotStore(str(tmp_path))):
            with pytest.raises(SnapshotError, match="at least one event"):
                run_with_checkpoints(
                    Machine(config, "sca"), traces, store=store, every_events=0
                )

    def test_on_event_hears_every_chunk(self, monkeypatch, tmp_path):
        """One observer call per run_events chunk, bounded by the chunk
        and by the next checkpoint; checkpoints land every N events."""
        config, traces, expected, total = self._base()
        chunk = snapshot_module.EVENT_CHUNK
        counts = []
        result, _stats = run_with_checkpoints(
            Machine(config, "sca"), traces, on_event=counts.append
        )
        assert counts == list(range(chunk, total, chunk)) + [total]
        assert result_fingerprint(result) == expected
        monkeypatch.setattr(snapshot_module, "EVENT_CHUNK", 7)
        counts = []
        store = SnapshotStore(str(tmp_path), code="c1", keep=total)
        result, stats = run_with_checkpoints(
            Machine(config, "sca"),
            traces,
            store=store,
            every_events=10,
            on_event=counts.append,
        )
        # Each call stops at the chunk, the next checkpoint or the end.
        expected_counts, position, mark = [], 0, 10
        while position < total:
            position = min(position + 7, mark, total)
            expected_counts.append(position)
            if position == mark:
                mark += 10
        assert counts == expected_counts
        marks = list(range(10, total, 10))
        assert stats["saved"] == len(marks)
        saved = [
            read_snapshot(store._path(generation))[1]["meta"]["events"]
            for generation in store.generations()
        ]
        assert saved == marks
        assert result_fingerprint(result) == expected

    def test_snapshot_of_another_run_raises(self, tmp_path):
        """A store holding another design's (or other traces') run must
        not be resumed under the caller's label."""
        config, traces, expected, _total = self._base()
        store = SnapshotStore(str(tmp_path), code="c1")
        store.save(stepped_to(config, "sca", traces, 300))
        with pytest.raises(SnapshotError, match="'sca'.*'fca'"):
            run_with_checkpoints(Machine(config, "fca"), traces, store=store)
        other = make_traces(config, "undo", seed=12)
        with pytest.raises(SnapshotError, match="traces"):
            run_with_checkpoints(Machine(config, "sca"), other, store=store)
        with pytest.raises(SnapshotError, match="config"):
            run_with_checkpoints(
                Machine(make_config().with_controller(drain_policy="fifo"), "sca"),
                traces,
                store=store,
            )
        # The matching request still resumes it.
        result, stats = run_with_checkpoints(Machine(config, "sca"), traces, store=store)
        assert (stats["restored"], stats["restored_events"]) == (1, 300)
        assert result_fingerprint(result) == expected

    def test_traced_run_resumes_to_the_same_trace_file(self, tmp_path):
        """A machine with an open JSONL event trace checkpoints; the
        resumed run appends the rest of the file."""
        def traced(name):
            return make_config().with_controller(event_trace_path=str(tmp_path / name))

        traces = make_traces(make_config(), "undo")
        whole = Machine(traced("whole.jsonl"), "sca")
        expected = result_fingerprint(whole.run(traces))
        whole.controller._trace.close()
        config = traced("resumed.jsonl")
        store = SnapshotStore(str(tmp_path / "ckpt"), code="c1")
        partial = stepped_to(config, "sca", traces, whole.events_executed // 2)
        store.save(partial)
        partial.controller._trace.close()
        result, stats = run_with_checkpoints(Machine(config, "sca"), traces, store=store)
        result.controller._trace.close()
        assert stats["restored"] == 1
        assert result_fingerprint(result) == expected
        whole_lines = (tmp_path / "whole.jsonl").read_text().splitlines()
        resumed_lines = (tmp_path / "resumed.jsonl").read_text().splitlines()
        assert len(resumed_lines) > 0
        assert resumed_lines == whole_lines
