"""KV engine unit tests: tenant namespaces, splits, validation, SLO math."""

import dataclasses
import random

import pytest

from repro.bench.oracles import ProbeOnlyService
from repro.config import CACHE_LINE_SIZE, fast_config
from repro.crash.injector import CrashInjector
from repro.crash.recovery import RecoveryManager
from repro.errors import ServiceError
from repro.service import (
    LatencyHistogram,
    ServiceValidator,
    ServiceWorkload,
    TrafficSpec,
    attribute_latencies,
    build_tenant_arenas,
    generate_operations,
    summarize_tenants,
)
from repro.service.kv import TOMBSTONE_KEY, CommitRecord
from repro.sim.machine import Machine
from repro.workloads.base import RecordedTxn
from tests.test_workload_validator import ZERO, seeded_history


@pytest.fixture()
def workload():
    return ServiceWorkload(fast_config(), tenants=2, initial_buckets=8)


@pytest.fixture()
def store(workload):
    return workload.stores[0]


class TestTenantKV:
    def test_put_get_roundtrip(self, store):
        store.put(1, 100)
        store.put(2, 200)
        assert store.get(1) == 100
        assert store.get(2) == 200
        assert store.get(3) is None

    def test_overwrite_keeps_count(self, store):
        store.put(5, 1)
        store.put(5, 2)
        assert store.get(5) == 2
        assert store.count == 1

    def test_delete_tombstones_and_reinsert(self, store):
        store.put(7, 70)
        assert store.delete(7) is True
        assert store.get(7) is None
        assert store.delete(7) is False
        store.put(7, 71)
        assert store.get(7) == 71

    def test_scan_is_sorted_and_bounded(self, store):
        for key in (9, 3, 12, 5):
            store.put(key, key * 10)
        store.delete(5)
        assert store.scan(3, 12) == [(3, 30), (9, 90), (12, 120)]
        assert store.scan(100, 200) == []

    def test_invalid_keys_rejected(self, store):
        with pytest.raises(ServiceError):
            store.put(0, 1)
        with pytest.raises(ServiceError):
            store.put(TOMBSTONE_KEY, 1)

    def test_split_grows_table_and_preserves_contents(self, store):
        pairs = {key: key * 7 for key in range(1, 60)}
        for key, value in pairs.items():
            store.put(key, value)
        assert store.splits >= 1
        assert store.nbuckets > 8
        assert store.count == len(pairs)
        for key, value in pairs.items():
            assert store.get(key) == value

    def test_probe_only_engine_matches_indexed_engine(self):
        ops = [("put", k, k * 3) for k in range(1, 30)]
        ops += [("put", k, k * 5) for k in range(1, 30, 2)]
        ops += [("del", k, 0) for k in range(1, 30, 3)]

        def run(service):
            kv = service(fast_config(), tenants=1).stores[0]
            for kind, key, value in ops:
                if kind == "put":
                    kv.put(key, value)
                else:
                    kv.delete(key)
            return kv.scan(1, 64)

        assert run(ServiceWorkload) == run(ProbeOnlyService)

    def test_tenants_use_disjoint_arenas(self, workload):
        arenas = workload.arenas
        spans = sorted((a.heap.base, a.heap.limit) for a in arenas)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start

    def test_build_tenant_arenas_rejects_overcommit(self):
        with pytest.raises(ServiceError):
            build_tenant_arenas(fast_config(), tenants=100000)


class TestServiceWorkload:
    def test_execute_commits_one_span_per_operation(self, workload):
        spec = TrafficSpec(tenants=2, operations=40, seed=3, keyspace=16)
        operations = generate_operations(spec)
        workload.execute(operations)
        run = workload.build_run(operations)
        spans = run.op_commit_spans()
        assert set(spans) == {op.index for op in operations}
        for first, last in spans.values():
            assert 0 <= first <= last < len(run.commit_order)

    def test_simulated_trace_matches_commit_order(self, workload):
        spec = TrafficSpec(tenants=2, operations=30, seed=4, keyspace=16)
        operations = generate_operations(spec)
        workload.execute(operations)
        run = workload.build_run(operations)
        result = Machine(workload.config, "sca").run([run.trace])
        assert len(result.txn_end_times[0]) == len(run.commit_order)


class TestLatencyHistogram:
    def test_percentiles_bracket_samples(self):
        histogram = LatencyHistogram()
        for value in range(1, 1001):
            histogram.record(float(value))
        assert histogram.count == 1000
        p50 = histogram.percentile(0.50)
        assert 475 <= p50 <= 550
        assert histogram.percentile(0.999) <= histogram.max_ns == 1000.0
        assert histogram.percentile(1.0) == 1000.0

    def test_merge_matches_single_stream(self):
        left, right, both = (
            LatencyHistogram(),
            LatencyHistogram(),
            LatencyHistogram(),
        )
        for value in range(1, 500):
            (left if value % 2 else right).record(float(value))
            both.record(float(value))
        left.merge(right)
        assert left.as_dict() == both.as_dict()

    def test_rejects_negative_and_bad_quantiles(self):
        histogram = LatencyHistogram()
        with pytest.raises(ServiceError):
            histogram.record(-1.0)
        with pytest.raises(ServiceError):
            histogram.percentile(0.0)
        assert histogram.percentile(0.5) == 0.0


class TestLatencyAttribution:
    def _timings(self, spec):
        config = fast_config()
        workload = ServiceWorkload(config, spec.tenants)
        operations = generate_operations(spec)
        workload.execute(operations)
        run = workload.build_run(operations)
        result = Machine(config, "sca").run([run.trace])
        return run, attribute_latencies(run, result.txn_end_times[0], spec)

    def test_open_loop_latency_is_queue_plus_service(self):
        spec = TrafficSpec(tenants=2, operations=40, seed=5, keyspace=16)
        _run, timings = self._timings(spec)
        assert len(timings) == spec.operations
        for timing in timings:
            assert timing.service_ns > 0
            assert timing.start_ns >= timing.arrival_ns
            assert timing.latency_ns == pytest.approx(
                timing.queue_ns + timing.service_ns
            )

    def test_acks_are_monotone_on_the_trace_clock(self):
        spec = TrafficSpec(tenants=2, operations=40, seed=5, keyspace=16)
        _run, timings = self._timings(spec)
        acks = [t.ack_ns for t in timings]
        assert acks == sorted(acks)

    def test_closed_loop_clients_respect_think_time(self):
        spec = TrafficSpec(
            tenants=2,
            operations=40,
            seed=6,
            keyspace=16,
            mode="closed",
            clients=3,
            think_ns=500.0,
        )
        _run, timings = self._timings(spec)
        last_completion = {}
        for timing in timings:
            previous = last_completion.get(timing.client)
            if previous is not None:
                assert timing.arrival_ns >= previous + spec.think_ns
            last_completion[timing.client] = timing.completion_ns

    def test_crash_cutoff_limits_latency_samples(self):
        spec = TrafficSpec(tenants=2, operations=40, seed=7, keyspace=16)
        _run, timings = self._timings(spec)
        cutoff = timings[len(timings) // 2].ack_ns
        slos = summarize_tenants(spec, timings, crash_ns=cutoff)
        acked = sum(slo.acked for slo in slos)
        assert acked == sum(1 for t in timings if t.ack_ns <= cutoff)
        assert sum(slo.ops for slo in slos) == spec.operations
        assert sum(slo.histogram.count for slo in slos) == acked

    def test_length_mismatch_is_loud(self):
        spec = TrafficSpec(tenants=2, operations=10, seed=8, keyspace=16)
        run, timings = self._timings(spec)
        assert timings
        with pytest.raises(ServiceError):
            attribute_latencies(run, [0.0], spec)


def tenant_states(history):
    """The state after each prefix of ``history``, from an empty image."""
    state, states = {}, [{}]
    for txn in history:
        for line, _old, new in txn.writes:
            state[line] = new
        states.append(dict(state))
    return states


def reference_tenant_prefix(run, tenant, recovered):
    """The descending ``all(...)`` scan the keyed prefix index replaced."""
    tracked = sorted(run.tenant_tracked_lines(tenant))
    values = {line: recovered.read(line, CACHE_LINE_SIZE) for line in tracked}
    states = tenant_states(run.tenant_histories[tenant])
    for j in range(len(states) - 1, -1, -1):
        if all(values[line] == states[j].get(line, ZERO) for line in tracked):
            return j
    return None


def synthetic_service_run(base, histories, rng):
    """``base`` with ``histories`` committed in a seeded interleaving."""
    remaining = [len(history) for history in histories]
    order = []
    while any(remaining):
        tenant = rng.choice([t for t, left in enumerate(remaining) if left])
        local = len(histories[tenant]) - remaining[tenant]
        order.append(CommitRecord(tenant=tenant, local_index=local, tag="put", op_index=None))
        remaining[tenant] -= 1
    return dataclasses.replace(base, tenant_histories=histories, commit_order=order)


def top_lines(arena, count):
    """Lines at the top of a tenant's heap, which the base run never uses."""
    top = (arena.heap.limit // CACHE_LINE_SIZE - 1) * CACHE_LINE_SIZE
    return [top - i * CACHE_LINE_SIZE for i in range(count)]


@pytest.fixture(scope="module")
def finished_service():
    workload = ServiceWorkload(fast_config(), tenants=3, initial_buckets=8)
    operations = generate_operations(TrafficSpec(tenants=3, operations=20, seed=5, keyspace=16))
    workload.execute(operations)
    run = workload.build_run(operations)
    result = Machine(workload.config, "sca").run([run.trace])
    image = CrashInjector(result).crash_at(result.stats.runtime_ns + 1e9)
    recovered = RecoveryManager(result.config.encryption).recover(image)
    return run, recovered


class TestServiceValidatorPrefixIndex:
    """Each tenant's keyed prefix lookup against the descending scan."""

    def assert_same_prefixes(self, run, recovered, end_times):
        verdict = ServiceValidator(run, txn_end_times=end_times).classify(recovered)
        assert [t.tenant for t in verdict.tenants] == list(range(run.tenants))
        for tenant_verdict in verdict.tenants:
            expected = reference_tenant_prefix(run, tenant_verdict.tenant, recovered)
            assert tenant_verdict.matched_prefix == expected
            assert tenant_verdict.consistent == (
                expected is not None and expected >= tenant_verdict.required_prefix
            )
        return verdict

    def test_base_run_recovers_every_tenant_whole(self, finished_service):
        run, recovered = finished_service
        verdict = self.assert_same_prefixes(run, recovered, None)
        assert verdict.consistent
        assert [t.matched_prefix for t in verdict.tenants] == [
            len(history) for history in run.tenant_histories
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_histories(self, finished_service, seed):
        base, recovered = finished_service
        rng = random.Random(seed)
        pool = [ZERO, b"\x01" * CACHE_LINE_SIZE, b"\x02" * CACHE_LINE_SIZE]
        lines = [top_lines(arena, rng.randint(1, 4)) for arena in base.arenas]
        histories = [seeded_history(rng, tenant_lines, rng.randint(0, 15), pool)
                     for tenant_lines in lines]
        run = synthetic_service_run(base, histories, rng)
        end_times = sorted(rng.uniform(0, 100) for _ in run.commit_order)
        recovered.image.crash_ns = 50.0
        states = [tenant_states(history) for history in histories]
        odd = pool + [b"\x03" * CACHE_LINE_SIZE]
        for _ in range(12):
            for tenant_lines, tenant_states_ in zip(lines, states):
                if rng.random() < 0.7:
                    probe = rng.choice(tenant_states_)
                else:
                    probe = {line: rng.choice(odd) for line in tenant_lines}
                for line in tenant_lines:
                    value = probe.get(line, ZERO)
                    if value == ZERO and rng.random() < 0.5:
                        recovered.plaintext_lines.pop(line, None)
                    else:
                        recovered.plaintext_lines[line] = value
            self.assert_same_prefixes(run, recovered, end_times)

    def test_state_revisited_matches_the_largest_prefix(self, finished_service):
        base, recovered = finished_service
        one = b"\x01" * CACHE_LINE_SIZE
        (line,) = top_lines(base.arenas[1], 1)
        history = [
            RecordedTxn(index=0, writes=[(line, ZERO, one)]),
            RecordedTxn(index=1, writes=[(line, one, ZERO)]),  # prefix 2 == prefix 0
            RecordedTxn(index=2, writes=[(line, ZERO, one)]),
        ]
        histories = [[], history, []]
        run = synthetic_service_run(base, histories, random.Random(0))
        recovered.plaintext_lines.pop(line, None)
        verdict = self.assert_same_prefixes(run, recovered, None)
        assert [t.matched_prefix for t in verdict.tenants] == [0, 2, 0]
        recovered.plaintext_lines[line] = one
        verdict = self.assert_same_prefixes(run, recovered, None)
        assert [t.matched_prefix for t in verdict.tenants] == [0, 3, 0]
