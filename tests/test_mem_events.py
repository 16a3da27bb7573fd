"""Tests for the controller's record log, its trace tap, and designs CLI."""

import dataclasses
import json
import pickle

import pytest

from repro.bench.cli import main as cli_main
from repro.bench.harness import build_traces
from repro.config import fast_config
from repro.core.designs import get_design
from repro.mem.controller import MemoryController
from repro.mem.events import READ, TRACE_FIELDS, ControllerStats, JsonlTrace, fold
from repro.sim.machine import Machine
from repro.workloads.base import WorkloadParams

_CODE_OF_KIND = {kind: code for code, (kind, _names) in TRACE_FIELDS.items()}


def run_machine(config, design="sca", workload="hash", operations=4, seed=7):
    traces, _runs, _layout = build_traces(
        workload, config, "undo", WorkloadParams(operations=operations, seed=seed)
    )
    machine = Machine(config, design)
    result = machine.run(traces)
    return machine, result


def traced_config(path, num_cores=1, shards=1):
    config = fast_config(num_cores=num_cores, functional=True, shards=shards)
    return config.with_controller(event_trace_path=str(path))


def refold(path):
    """Fold a JSONL trace back into ControllerStats."""
    records = []
    for line in path.read_text().splitlines():
        fields = json.loads(line)
        code = _CODE_OF_KIND[fields["kind"]]
        records.append((code,) + tuple(fields[name] for name in TRACE_FIELDS[code][1]))
    stats = ControllerStats()
    fold(stats, records)
    return stats


class TestStatsDerivation:
    """ControllerStats is purely a fold over the record log."""

    @pytest.mark.parametrize("design", ["no-encryption", "co-located-cc", "sca", "fca+bmt"])
    def test_trace_refolds_to_stats(self, design, tmp_path):
        path = tmp_path / "events.jsonl"
        machine, _result = run_machine(traced_config(path, num_cores=2), design=design)
        assert dataclasses.asdict(refold(path)) == dataclasses.asdict(
            machine.controller.stats
        )

    def test_each_shard_trace_refolds_to_its_stats(self, tmp_path):
        path = tmp_path / "events.jsonl"
        machine, _result = run_machine(traced_config(path, num_cores=2, shards=2))
        shards = machine.controller.controllers
        assert len(shards) == 2
        for index, shard in enumerate(shards):
            shard_path = tmp_path / ("events.jsonl.shard%d" % index)
            assert dataclasses.asdict(refold(shard_path)) == dataclasses.asdict(shard.stats)

    def test_stats_survive_state_roundtrip(self):
        config = fast_config(num_cores=1, functional=True)
        machine, _result = run_machine(config)
        controller = machine.controller
        fresh = pickle.loads(pickle.dumps(controller, protocol=4))
        assert dataclasses.asdict(fresh.stats) == dataclasses.asdict(controller.stats)
        # The restored stats object is live — new records must fold
        # into it, not into a stale instance.
        fresh.records.append((READ, 0, 0.0, 5.0, 64, False))
        assert fresh.stats.reads == controller.stats.reads + 1


class TestJsonlTrace:
    def test_trace_records_typed_events(self, tmp_path):
        trace_path = tmp_path / "events.jsonl"
        _machine, result = run_machine(traced_config(trace_path))
        lines = trace_path.read_text().strip().splitlines()
        assert lines, "trace should not be empty"
        records = [json.loads(line) for line in lines]
        kinds = {record["kind"] for record in records}
        assert {"read", "write-request", "data-persist", "drain"} <= kinds
        reads = sum(1 for record in records if record["kind"] == "read")
        assert reads == result.controller.stats.reads

    def test_trace_written_per_request(self, tmp_path):
        """A killed run loses at most the request in flight."""
        path = tmp_path / "events.jsonl"
        config = traced_config(path)
        controller = MemoryController(config, get_design("sca"))
        controller.write_line(0x40, bytes(64), 10.0)
        written = [json.loads(line)["kind"] for line in path.read_text().splitlines()]
        assert written[0] == "write-request"
        assert "data-persist" in written and not controller.records

    def test_no_trace_file_without_config(self, tmp_path):
        config = fast_config(num_cores=1, functional=True)
        machine, _result = run_machine(config)
        assert machine.controller._trace is None
        assert not any(
            record[0] == _CODE_OF_KIND["drain"] for record in machine.controller.records
        )

    def test_subscriber_writes_and_closes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace = JsonlTrace(str(path))
        trace.write([(_CODE_OF_KIND["data-persist"], 64, 64, False, 1.0, 2.0, 0.0)])
        trace.close()
        record = json.loads(path.read_text())
        assert record == {
            "kind": "data-persist",
            "address": 64,
            "payload_bytes": 64,
            "coalesced": False,
            "accept_ns": 1.0,
            "drain_ns": 2.0,
            "accept_wait_ns": 0.0,
        }


class TestDesignsCli:
    def test_matrix_lists_every_design(self, capsys):
        assert cli_main(["designs"]) == 0
        out = capsys.readouterr().out
        for name in (
            "no-encryption", "ideal", "unsafe", "co-located", "co-located-cc",
            "fca", "sca", "fca+bmt", "sca+bmt", "fca+bmt-lazy", "sca+bmt-eager",
        ):
            assert name in out
        assert "72b" in out and "64b" in out
        assert "NO" in out  # the unsafe design's verdict

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "designs.json"
        assert cli_main(["designs", "--json", str(path)]) == 0
        document = json.loads(path.read_text())
        rows = {row["name"]: row for row in document["designs"]}
        assert len(rows) == 11
        assert rows["sca+bmt"]["atomicity"] == "sca"
        assert rows["sca+bmt"]["integrity"] == "lazy"
        assert rows["co-located"]["bus_bits"] == 72
        assert rows["unsafe"]["crash_consistent"] is False
