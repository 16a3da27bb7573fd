"""Checkpoint/restore: snapshot format safety, store recovery, and the
bit-identical resume guarantee across all four transaction mechanisms."""

import os
import pickle
import struct

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.bench.harness import build_traces
from repro.config import CACHE_LINE_SIZE, fast_config
from repro.errors import SnapshotCorruptError, SnapshotError, SnapshotVersionError
from repro.sim.machine import Machine
from repro.sim.snapshot import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointPolicy,
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

#: Every transaction mechanism the repo implements.  The first three go
#: through the workload harness; shadow is builder-level (see
#: tests/test_txn_shadow.py) so its traces are hand-assembled here.
MECHANISMS = ("undo", "redo", "checksum-undo", "shadow")


def make_config():
    return fast_config(num_cores=2, functional=True)


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


class TestResumeDeterminism:
    """The tentpole guarantee: checkpoint at *any* event boundary,
    serialize, restore into a fresh machine, and the finished result is
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
        baseline = Machine(config, design)
        expected = result_fingerprint(baseline.run(traces))
        total = baseline.events_executed
        assume(total >= 2)
        cut = data.draw(st.integers(min_value=1, max_value=total - 1), label="cut")
        machine = Machine(config, design)
        machine.begin(traces)
        for _ in range(cut):
            machine.step()
        # Round-trip through real serialization, as a snapshot file would.
        blob = pickle.dumps(machine.get_state(), protocol=4)
        resumed = Machine.from_state(pickle.loads(blob))
        while resumed.step():
            pass
        assert result_fingerprint(resumed.finish()) == expected

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
        partial = Machine(config, "sca")
        partial.begin(traces)
        for _ in range(cut):
            partial.step()
        store = SnapshotStore(str(tmp_path), code="c1")
        store.save(partial.get_state())
        resumed = Machine(config, "sca")
        result, stats = run_with_checkpoints(resumed, traces, store=store)
        assert stats["restored"] == 1
        assert stats["restored_events"] == cut
        assert result_fingerprint(result) == expected


class TestSnapshotFile:
    def test_roundtrip_preserves_state_and_header(self, tmp_path):
        path = str(tmp_path / "snap.ckpt")
        state = {"answer": 42, "payload": bytes(range(16))}
        write_snapshot(path, state, code="abc123", meta={"events": 7})
        loaded, header = read_snapshot(path, expected_code="abc123")
        assert loaded == state
        assert header["code"] == "abc123"
        assert header["meta"] == {"events": 7}
        assert header["format"] == FORMAT_VERSION

    def test_publish_is_atomic_no_tmp_left(self, tmp_path):
        path = str(tmp_path / "snap.ckpt")
        write_snapshot(path, {"n": 1})
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
        write_snapshot(path, {"k": list(range(64))})
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
        write_snapshot(path, {"k": "v"})
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        blob[-1] ^= 0x40
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(path)

    def test_code_mismatch_is_a_version_error(self, tmp_path):
        path = str(tmp_path / "snap.ckpt")
        write_snapshot(path, {"k": "v"}, code="old-code")
        with pytest.raises(SnapshotVersionError):
            read_snapshot(path, expected_code="new-code")
        # Without an expectation the same file loads fine.
        state, _header = read_snapshot(path)
        assert state == {"k": "v"}

    def test_unknown_container_format_rejected(self, tmp_path):
        path = str(tmp_path / "future.ckpt")
        header = b'{"format": 999, "code": "", "crc": 0, "body_bytes": 0, "meta": {}}'
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
            store.save({"n": n})
        assert store.generations() == [2, 3]
        state, _header = store.load_latest()
        assert state == {"n": 3}
        assert store.saved == 4

    def test_falls_back_past_torn_generation(self, tmp_path):
        store = SnapshotStore(str(tmp_path), keep=3)
        store.save({"n": 0})
        newest = store.save({"n": 1})
        with open(newest, "rb") as handle:
            blob = handle.read()
        with open(newest, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        state, _header = store.load_latest()
        assert state == {"n": 0}
        assert store.quarantined == 1
        assert os.path.exists(newest + ".corrupt")
        assert not os.path.exists(newest)

    def test_quarantine_files_survive_pruning(self, tmp_path):
        store = SnapshotStore(str(tmp_path), keep=1)
        doomed = store.save({"n": 0})
        with open(doomed, "ab") as handle:
            handle.write(b"trailing garbage")
        assert store.load_latest() is None
        for n in range(1, 4):
            store.save({"n": n})
        assert os.path.exists(doomed + ".corrupt")

    def test_stale_code_generations_invalidated(self, tmp_path):
        writer = SnapshotStore(str(tmp_path), code="rev-a")
        writer.save({"n": 0})
        writer.save({"n": 1})
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
            policy=CheckpointPolicy(every_events=max(1, total // 5)),
        )
        assert result_fingerprint(result) == expected
        assert stats["saved"] >= 3
        assert stats["restored"] == 0
        assert store.generations()  # snapshots actually landed on disk

    def test_resume_false_starts_fresh(self, tmp_path):
        config, traces, expected, total = self._base()
        store = SnapshotStore(str(tmp_path), code="c1")
        partial = Machine(config, "sca")
        partial.begin(traces)
        for _ in range(total // 2):
            partial.step()
        store.save(partial.get_state())
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
            store.save(machine.get_state())
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
        partial = Machine(config, "sca")
        partial.begin(traces)
        for _ in range(total // 2):
            partial.step()
        path = store.save(partial.get_state())
        with open(path, "wb") as handle:
            handle.write(b"shredded")
        result, stats = run_with_checkpoints(
            Machine(config, "sca"), traces, store=store
        )
        assert stats["restored"] == 0
        assert stats["quarantined"] == 1
        assert result_fingerprint(result) == expected

    def test_policy_validation(self):
        with pytest.raises(SnapshotError):
            CheckpointPolicy(every_events=0)
        assert not CheckpointPolicy().enabled
        assert CheckpointPolicy(every_events=10).enabled

    def test_on_event_sees_every_event(self):
        config, traces, _expected, total = self._base()
        counts = []
        run_with_checkpoints(
            Machine(config, "sca"), traces, on_event=counts.append
        )
        assert len(counts) == total
        assert counts[-1] == total
