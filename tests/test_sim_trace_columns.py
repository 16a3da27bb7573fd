"""Columnar traces: the pinned trace format, the builder's errors, the
read-only ``Op`` view, pickling, and that no run path builds an ``Op``.

``tests/fixtures/golden_traces.json`` (see ``tests/equivalence_harness.py``,
``--capture-traces``) was captured from the per-op ``Op`` lists that
traces held before they became columns.  A failure of
``test_traces_match_golden`` means the builder or the trace file format
changed a byte; fix the change, do not re-capture the fixture.
"""

from __future__ import annotations

import pickle

import pytest

from repro.bench.harness import build_traces, run_workload, run_workload_stats
from repro.config import bench_config, fast_config
from repro.crash.injector import CrashInjector
from repro.errors import TraceError
from repro.service.scenario import ServiceJob, run_service_job
from repro.service.traffic import TrafficSpec
from repro.sim.machine import Machine
from repro.sim.snapshot import (
    SnapshotStore,
    result_fingerprint,
    run_with_checkpoints,
)
from repro.sim.trace import CODES, KINDS, Op, OpKind, Trace, TraceBuilder
from repro.sim.tracefile import dumps_trace, loads_trace
from repro.workloads.base import WorkloadParams
from tests.equivalence_harness import (
    TRACE_FIXTURE_PATH,
    TRACE_SCENARIOS,
    load_fixture,
    trace_cell,
    trace_scenario_key,
    trace_scenario_traces,
)

_FIXTURE = load_fixture(TRACE_FIXTURE_PATH)

_COLUMNS = (
    "codes",
    "addresses",
    "lengths",
    "payloads",
    "counter_atomic",
    "durations",
    "notes",
)

_SCENARIO_IDS = [trace_scenario_key(*scenario) for *scenario, _config in TRACE_SCENARIOS]


def test_fixture_covers_every_scenario():
    assert set(_FIXTURE["cells"]) == set(_SCENARIO_IDS)


@pytest.mark.parametrize("scenario", TRACE_SCENARIOS, ids=_SCENARIO_IDS)
def test_traces_match_golden(scenario):
    *identity, config = scenario
    traces = trace_scenario_traces(*identity, config)
    golden = _FIXTURE["cells"][trace_scenario_key(*identity)]
    assert [trace_cell(trace) for trace in traces] == golden


@pytest.mark.parametrize("scenario", TRACE_SCENARIOS, ids=_SCENARIO_IDS)
def test_trace_file_round_trips_columns(scenario):
    *identity, config = scenario
    for trace in trace_scenario_traces(*identity, config):
        restored = loads_trace(dumps_trace(trace))
        assert restored == trace
        for column in _COLUMNS:
            assert getattr(restored, column) == getattr(trace, column), column


def test_codes_follow_declaration_order():
    assert KINDS == tuple(OpKind)
    assert [CODES[kind] for kind in OpKind] == list(range(len(OpKind)))


def _op_error(**fields) -> str:
    with pytest.raises(TraceError) as info:
        Op(**fields)
    return str(info.value)


def _builder_error(call) -> str:
    builder = TraceBuilder("t")
    with pytest.raises(TraceError) as info:
        call(builder)
    assert len(builder.build()) == 0  # a rejected op appends nothing
    return str(info.value)


class TestBuilderErrors:
    """Every builder method rejects what ``Op`` rejects, in its words."""

    @pytest.mark.parametrize("length", [0, -1, 65, 128])
    def test_load_length(self, length):
        assert _builder_error(lambda b: b.load(0x40, length)) == _op_error(
            kind=OpKind.LOAD, address=0x40, length=length
        )

    @pytest.mark.parametrize("length", [0, -8, 65])
    def test_store_length(self, length):
        assert _builder_error(lambda b: b.store(0x40, length=length)) == _op_error(
            kind=OpKind.STORE, address=0x40, length=length
        )

    @pytest.mark.parametrize("data", [b"", bytes(65)])
    @pytest.mark.parametrize("functional", [True, False])
    def test_store_payload_length(self, data, functional):
        builder = TraceBuilder("t", functional=functional)
        with pytest.raises(TraceError) as info:
            builder.store(0x40, data)
        assert len(builder.build()) == 0
        assert str(info.value) == _op_error(
            kind=OpKind.STORE, address=0x40, length=len(data), data=data
        )

    def test_negative_compute(self):
        assert _builder_error(lambda b: b.compute(-0.5)) == _op_error(
            kind=OpKind.COMPUTE, duration_ns=-0.5
        )

    def test_boundaries_accepted(self):
        builder = TraceBuilder("t")
        builder.load(0, 1).load(0, 64).store(0, bytes(64)).store(0, length=1).compute(0.0)
        assert len(builder.build()) == 5


def _sample_ops():
    return [
        Op(kind=OpKind.TXN_BEGIN, note="t1"),
        Op(
            kind=OpKind.STORE,
            address=0x40,
            length=8,
            data=bytes(range(8)),
            counter_atomic=True,
        ),
        Op(kind=OpKind.STORE, address=0x80, length=16),
        Op(kind=OpKind.LOAD, address=0x40, length=4),
        Op(kind=OpKind.CLWB, address=0x40),
        Op(kind=OpKind.CCWB, address=0),
        Op(kind=OpKind.SFENCE),
        Op(kind=OpKind.COMPUTE, duration_ns=12.5),
        Op(kind=OpKind.LABEL, note="a label"),
        Op(kind=OpKind.TXN_END, note="t1"),
    ]


class TestOpView:
    def test_ops_is_a_fresh_tuple(self):
        trace = Trace(ops=_sample_ops(), name="t")
        ops = trace.ops
        assert isinstance(ops, tuple)
        assert ops == trace.ops and ops is not trace.ops
        with pytest.raises(AttributeError):
            trace.ops.append(Op(kind=OpKind.SFENCE))

    def test_trace_from_ops_round_trips(self):
        ops = _sample_ops()
        trace = Trace(ops=ops, name="t")
        assert trace.ops == tuple(ops)
        assert list(trace) == ops
        assert len(trace) == len(ops)
        assert trace.codes == [CODES[op.kind] for op in ops]

    def test_builder_matches_ops(self):
        builder = TraceBuilder("t")
        builder.txn_begin("t1")
        builder.store(0x40, bytes(range(8)), counter_atomic=True)
        builder.store(0x80, length=16)
        builder.load(0x40, 4).clwb(0x40).ccwb(0).sfence().compute(12.5)
        builder.label("a label").txn_end("t1")
        assert builder.build() == Trace(ops=_sample_ops(), name="t")

    def test_equality_compares_name_and_columns(self):
        ops = _sample_ops()
        assert Trace(ops=ops, name="a") == Trace(ops=ops, name="a")
        assert Trace(ops=ops, name="a") != Trace(ops=ops, name="b")
        assert Trace(ops=ops, name="a") != Trace(ops=ops[:-1], name="a")
        assert Trace(ops=ops, name="a") != ops

    def test_repr_does_not_dump_ops(self):
        text = repr(Trace(ops=_sample_ops() * 50, name="big"))
        assert "big" in text and "500" in text
        assert "Op(" not in text


class TestPickle:
    def test_pickle_keeps_name_and_columns(self):
        trace = Trace(ops=_sample_ops(), name="t")
        restored = pickle.loads(pickle.dumps(trace, protocol=4))
        assert restored == trace
        for column in _COLUMNS:
            assert getattr(restored, column) == getattr(trace, column), column

    def test_timing_only_run_leaves_pickle_unchanged(self):
        """The recorded cache pass a timing-only run keeps on its trace
        stays out of every pickle (and so out of every checkpoint)."""
        config = bench_config().scaled(functional=False)
        (trace,) = trace_scenario_traces("array", "redo", 12, 23, config)
        before = pickle.dumps(trace, protocol=4)
        Machine(config, "sca").run([trace])
        assert trace.__dict__.get("_cache_passes")  # the run kept its pass
        assert pickle.dumps(trace, protocol=4) == before
        machine = Machine(config, "sca")
        machine.begin([trace])
        machine.run_events(10)
        restored = pickle.loads(pickle.dumps(machine, protocol=4))
        assert "_cache_passes" not in restored._cores[0].trace.__dict__


@pytest.fixture
def no_op_objects(monkeypatch):
    """Make building any ``Op`` fail for the duration of a test."""

    def refuse(self):
        raise AssertionError("a run path built an Op: %r" % (self.kind,))

    monkeypatch.setattr(Op, "__post_init__", refuse)


class TestNoRunPathBuildsOps:
    def test_timing_only_single_core_sweep(self, no_op_objects):
        config = bench_config()
        params = WorkloadParams(operations=6, seed=3)
        first = run_workload_stats("sca", "array", config, "redo", params)
        # The second design replays the first run's recorded cache pass.
        second = run_workload_stats("fca", "array", config, "redo", params)
        assert first.runtime_ns > 0 and second.runtime_ns > 0

    def test_functional_two_core_run_and_crash_images(self, no_op_objects):
        outcome = run_workload(
            "sca",
            "hash",
            fast_config(num_cores=2),
            "undo",
            WorkloadParams(operations=4, seed=9),
        )
        injector = CrashInjector(outcome.result)
        runtime = outcome.result.stats.runtime_ns
        for fraction in (0.25, 0.5, 0.9):
            injector.crash_at(runtime * fraction)

    def test_service_job(self, no_op_objects):
        spec = TrafficSpec(tenants=2, operations=20, seed=5, keyspace=16)
        document = run_service_job(ServiceJob(design="sca", traffic=spec))
        assert document["design"] == "sca"

    def test_checkpoint_resume(self, no_op_objects, tmp_path):
        config = fast_config(num_cores=2)
        traces, _runs, _layout = build_traces(
            "hash", config, "undo", WorkloadParams(operations=4, seed=9)
        )
        expected = result_fingerprint(Machine(config, "sca").run(traces))
        store = SnapshotStore(str(tmp_path), code="c1")
        partial = Machine(config, "sca")
        partial.begin(traces)
        for _ in range(40):
            partial.step()
        store.save(partial)
        result, stats = run_with_checkpoints(
            Machine(config, "sca"),
            traces,
            store=store,
            every_events=50,
        )
        assert stats["restored"] == 1
        assert result_fingerprint(result) == expected
