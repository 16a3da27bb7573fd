"""Tests for the prefix validator and access-distribution helpers."""

import random

import pytest

from repro.bench.harness import run_workload
from repro.config import CACHE_LINE_SIZE, KB
from repro.crash.injector import CrashInjector
from repro.crash.recovery import RecoveryManager
from repro.errors import DecryptionFailure, WorkloadError
from repro.workloads.base import (
    PrefixValidator,
    RecordedTxn,
    WorkloadParams,
    WorkloadRun,
    zipf_index,
)

PARAMS = WorkloadParams(operations=6, footprint_bytes=8 * KB)
ZERO = bytes(CACHE_LINE_SIZE)


def final_recovered(outcome):
    injector = CrashInjector(outcome.result)
    return RecoveryManager(outcome.result.config.encryption).recover(
        injector.crash_at(outcome.stats.runtime_ns + 1e9)
    )


class TestPrefixValidator:
    def test_final_state_is_the_full_prefix(self):
        outcome = run_workload("sca", "array", params=PARAMS)
        assert outcome.validator(0)(final_recovered(outcome)) == []

    def test_detects_corrupted_line(self):
        outcome = run_workload("sca", "array", params=PARAMS)
        recovered = final_recovered(outcome)
        victim = outcome.runs[0].history[-1].writes[0][0]
        recovered.plaintext_lines[victim] = b"\xde\xad" * 32
        problems = outcome.validator(0)(recovered)
        assert problems
        assert "prefix" in problems[0]

    def test_commit_durability_enforced(self):
        """A crash time after txn k's commit must not accept prefixes
        shorter than k+1."""
        outcome = run_workload("sca", "array", params=PARAMS)
        run = outcome.runs[0]
        end_times = outcome.result.txn_end_times[0]
        validator = PrefixValidator(run, txn_end_times=end_times)
        recovered = final_recovered(outcome)
        # Roll the memory back to the initial (empty) state but claim
        # the crash happened after the last commit: must be rejected.
        recovered.plaintext_lines = {
            line: bytes(CACHE_LINE_SIZE) for line in recovered.plaintext_lines
        }
        recovered.image.crash_ns = end_times[-1] + 1.0
        # Clear the txn record so recovery is a no-op.
        problems = validator(recovered)
        assert problems

    def test_unknown_mechanism_raises(self):
        """An unknown mechanism is a caller bug, not a crash outcome."""
        outcome = run_workload("sca", "array", params=PARAMS)
        run = outcome.runs[0]
        broken = WorkloadRun(
            name=run.name,
            arena=run.arena,
            initial_image=run.initial_image,
            history=run.history,
            final_model=run.final_model,
            mechanism="journaling",
            operations=run.operations,
        )
        validator = PrefixValidator(broken)
        with pytest.raises(WorkloadError):
            validator(final_recovered(outcome))

    def test_tracked_lines_cover_history(self):
        outcome = run_workload("sca", "queue", params=PARAMS)
        run = outcome.runs[0]
        tracked = run.tracked_lines()
        for txn in run.history:
            for line, _old, _new in txn.writes:
                assert line in tracked


def reference_verdict(run, recovered):
    """The descending scan the keyed lookup replaced.

    Returns ``(detected, matched_prefix)``: every tracked line read
    strictly, then the largest prefix whose state equals them all.
    """
    tracked = sorted(run.tracked_lines())
    values, detected = {}, []
    for line in tracked:
        try:
            values[line] = recovered.read(line, CACHE_LINE_SIZE)
        except DecryptionFailure:
            detected.append("tracked line 0x%x undecryptable after recovery" % line)
    if detected:
        return detected, None
    states = [dict(run.initial_image)]
    for txn in run.history:
        state = dict(states[-1])
        for line, _old, new in txn.writes:
            state[line] = new
        states.append(state)
    for j in range(len(states) - 1, -1, -1):
        if all(values[line] == states[j].get(line, ZERO) for line in tracked):
            return [], j
    return [], None


def synthetic_run(base, history, initial=None):
    return WorkloadRun(
        name="synthetic",
        arena=base.arena,
        initial_image=dict(initial or {}),
        history=history,
        final_model=base.final_model,
        mechanism="undo",
        operations=len(history),
    )


def seeded_history(rng, lines, transactions, pool):
    """Random writes drawn from a small value pool, so states recur."""
    state, history = {}, []
    for index in range(transactions):
        writes = []
        for line in sorted(rng.sample(lines, rng.randint(1, len(lines)))):
            old = state.get(line, ZERO)
            new = rng.choice(pool)
            if new != old:
                writes.append((line, old, new))
                state[line] = new
        history.append(RecordedTxn(index=index, writes=writes))
    return history


def set_tracked(recovered, lines, state, rng):
    """Make ``lines`` read as ``state``; zero lines are dropped or stored."""
    for line in lines:
        value = state.get(line, ZERO)
        if value == ZERO and rng.random() < 0.5:
            recovered.plaintext_lines.pop(line, None)
        else:
            recovered.plaintext_lines[line] = value


@pytest.fixture(scope="module")
def base_outcome():
    return run_workload("sca", "array", params=PARAMS)


class TestKeyedPrefixVerdict:
    """``classify`` against the descending ``all(...)`` scan."""

    def lines_beyond(self, recovered, count):
        start = (max(recovered.plaintext_lines) // CACHE_LINE_SIZE + 64) * CACHE_LINE_SIZE
        return [start + i * CACHE_LINE_SIZE for i in range(count)]

    def assert_same_verdict(self, run, recovered, end_times=None):
        verdict = PrefixValidator(run, txn_end_times=end_times).classify(recovered)
        detected, matched = reference_verdict(run, recovered)
        assert verdict.detected == detected
        assert verdict.matched_prefix == matched
        return verdict

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_histories(self, base_outcome, seed):
        rng = random.Random(seed)
        recovered = final_recovered(base_outcome)
        lines = self.lines_beyond(recovered, rng.randint(1, 6))
        pool = [ZERO, b"\x01" * CACHE_LINE_SIZE, b"\x02" * CACHE_LINE_SIZE]
        history = seeded_history(rng, lines, rng.randint(1, 30), pool)
        initial = {lines[0]: pool[2]} if seed % 2 else {}
        run = synthetic_run(base_outcome.runs[0], history, initial)
        end_times = sorted(rng.uniform(0, 100) for _ in history)
        recovered.image.crash_ns = 50.0
        state = dict(initial)
        states = [dict(state)]
        for txn in history:
            for line, _old, new in txn.writes:
                state[line] = new
            states.append(dict(state))
        for probe in states + [
            {line: rng.choice(pool + [b"\x03" * CACHE_LINE_SIZE]) for line in lines}
            for _ in range(5)
        ]:
            set_tracked(recovered, lines, probe, rng)
            verdict = self.assert_same_verdict(run, recovered, end_times)
            assert verdict.matched_prefix is not None or probe not in states

    def test_state_revisited_matches_the_largest_prefix(self, base_outcome):
        recovered = final_recovered(base_outcome)
        (line,) = self.lines_beyond(recovered, 1)
        one = b"\x01" * CACHE_LINE_SIZE
        history = [
            RecordedTxn(index=0, writes=[(line, ZERO, one)]),
            RecordedTxn(index=1, writes=[(line, one, ZERO)]),  # prefix 2 == prefix 0
            RecordedTxn(index=2, writes=[(line, ZERO, one)]),
        ]
        run = synthetic_run(base_outcome.runs[0], history)
        recovered.plaintext_lines.pop(line, None)
        assert self.assert_same_verdict(run, recovered).matched_prefix == 2
        recovered.plaintext_lines[line] = one
        assert self.assert_same_verdict(run, recovered).matched_prefix == 3

    def test_empty_tracked_set_matches_the_whole_history(self, base_outcome):
        recovered = final_recovered(base_outcome)
        history = [RecordedTxn(index=i, writes=[]) for i in range(3)]
        run = synthetic_run(base_outcome.runs[0], history)
        assert run.tracked_lines() == set()
        verdict = self.assert_same_verdict(run, recovered)
        assert verdict.matched_prefix == 3
        assert verdict.consistent

    def test_garbage_tracked_lines_are_detected_in_order(self, base_outcome):
        recovered = final_recovered(base_outcome)
        run = base_outcome.runs[0]
        tracked = sorted(run.tracked_lines())
        recovered.garbage_lines.update({tracked[-1], tracked[0]})
        verdict = self.assert_same_verdict(run, recovered)
        assert verdict.detected == [
            "tracked line 0x%x undecryptable after recovery" % line
            for line in (tracked[0], tracked[-1])
        ]
        assert not verdict.consistent


class TestZipfIndex:
    def test_uniform_when_alpha_zero(self):
        rng = random.Random(1)
        counts = [0] * 10
        for _ in range(10000):
            counts[zipf_index(rng, 10, 0.0)] += 1
        assert min(counts) > 700  # roughly uniform

    def test_skew_concentrates_low_indices(self):
        rng = random.Random(1)
        hits_low = sum(1 for _ in range(5000) if zipf_index(rng, 1000, 1.5) < 100)
        assert hits_low > 2500  # far above the uniform 10%

    def test_bounds_respected(self):
        rng = random.Random(2)
        for alpha in (0.0, 0.5, 2.0):
            for _ in range(500):
                index = zipf_index(rng, 7, alpha)
                assert 0 <= index < 7

    def test_single_element_population(self):
        rng = random.Random(3)
        assert zipf_index(rng, 1, 2.0) == 0

    def test_negative_alpha_rejected_by_params(self):
        with pytest.raises(WorkloadError):
            WorkloadParams(operations=1, zipf_alpha=-0.5)

    def test_skewed_workload_has_better_counter_locality(self):
        """The fig15 rationale: skew raises counter-cache hit rates."""
        uniform = run_workload(
            "array",
            "array",
            params=WorkloadParams(operations=60, footprint_bytes=64 * KB),
        ) if False else run_workload(
            "sca",
            "array",
            params=WorkloadParams(operations=60, footprint_bytes=64 * KB),
        )
        skewed = run_workload(
            "sca",
            "array",
            params=WorkloadParams(
                operations=60, footprint_bytes=64 * KB, zipf_alpha=2.0
            ),
        )
        assert (
            skewed.stats.counter_cache_miss_rate
            <= uniform.stats.counter_cache_miss_rate
        )
