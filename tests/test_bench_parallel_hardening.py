"""Hardened sweep execution: engines, timeouts, retries, backoff,
fallback, quarantine."""

import logging
import os
import time

import pytest

from repro.bench.parallel import SweepExecutor, SweepJob
from repro.config import fast_config
from repro.crash.campaign import CampaignRunner, CampaignSpec
from repro.errors import JobExecutionError
from repro.utils.store import JsonStore, content_key
from repro.workloads.base import WorkloadParams

PARAMS = WorkloadParams(operations=8, footprint_bytes=8 * 1024)


# Worker functions must be module-level so the pool can resolve them.


def well_behaved(item):
    return "done:%s" % item


def double(item):
    return item * 2


def hang_unless_sentinel(item):
    """Sleep forever on the first call, succeed on the retry.

    The first attempt drops a sentinel file and wedges; the retried
    attempt sees the sentinel and returns — the signature of a
    transiently hung worker.
    """
    if item.startswith("hang:"):
        sentinel = item[len("hang:"):]
        if not os.path.exists(sentinel):
            with open(sentinel, "w", encoding="utf-8") as stream:
                stream.write("first attempt\n")
            time.sleep(60)
    return "done:%s" % item


def hang_always(item):
    time.sleep(60)


def fail_unless_sentinel(item):
    if item.startswith("fail:"):
        sentinel = item[len("fail:"):]
        if not os.path.exists(sentinel):
            with open(sentinel, "w", encoding="utf-8") as stream:
                stream.write("first attempt\n")
            raise ValueError("transient worker failure")
    return "done:%s" % item


def fail_always(item):
    raise ValueError("permanent failure on %s" % item)


class TestBackendEquivalence:
    @pytest.mark.parametrize("name", ["inline", "pool"])
    def test_same_results_every_backend(self, name):
        executor = SweepExecutor(workers=2, retry_backoff_s=0.0, backend=name)
        seen = []
        results = executor.map(
            double,
            [1, 2, 3, 4, 5],
            on_result=lambda index, value: seen.append((index, value)),
        )
        assert results == [2, 4, 6, 8, 10]
        assert sorted(seen) == [(0, 2), (1, 4), (2, 6), (3, 8), (4, 10)]
        assert executor.stats()["backend"] == name

    def test_inline_is_serial_and_ordered(self):
        executor = SweepExecutor(workers=1)
        order = []
        executor.map(double, [3, 1, 2], on_result=lambda i, v: order.append(i))
        assert order == [0, 1, 2]
        assert executor.stats()["backend"] == "inline"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            SweepExecutor(workers=2, backend="carrier-pigeon")


class TestTimeoutsAndRetries:
    def test_hung_worker_is_timed_out_and_retried(self, tmp_path):
        executor = SweepExecutor(
            workers=2, job_timeout_s=1.0, max_retries=2, retry_backoff_s=0.01
        )
        items = ["hang:%s" % (tmp_path / "sentinel"), "plain"]
        results = executor.map(hang_unless_sentinel, items)
        assert results == ["done:%s" % items[0], "done:plain"]
        assert executor.timeouts >= 1
        assert executor.retries >= 1
        assert executor.stats()["timeouts"] == executor.timeouts

    def test_permanently_hung_job_raises_after_retries(self):
        executor = SweepExecutor(
            workers=2, job_timeout_s=0.3, max_retries=1, retry_backoff_s=0.01
        )
        with pytest.raises(JobExecutionError):
            executor.map(hang_always, ["a", "b"])
        assert executor.timeouts >= 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_lone_hung_job_times_out_at_any_worker_count(self, workers):
        # A timeout runs the map on the pool even at one worker or one
        # item: only a worker process can be reclaimed when it hangs.
        executor = SweepExecutor(
            workers=workers, job_timeout_s=0.3, max_retries=0, retry_backoff_s=0.0
        )
        with pytest.raises(JobExecutionError):
            executor.map(hang_always, ["a"])
        assert executor.timeouts >= 1
        assert executor.stats()["backend"] == "pool"

    def test_transient_failure_is_retried(self, tmp_path):
        executor = SweepExecutor(workers=2, max_retries=2, retry_backoff_s=0.01)
        items = ["fail:%s" % (tmp_path / "sentinel"), "plain"]
        results = executor.map(fail_unless_sentinel, items)
        assert results == ["done:%s" % items[0], "done:plain"]
        assert executor.retries >= 1

    def test_persistent_failure_falls_back_in_process_then_raises(self):
        executor = SweepExecutor(workers=2, max_retries=1, retry_backoff_s=0.01)
        with pytest.raises(ValueError, match="permanent failure"):
            executor.map(fail_always, ["a", "b"])
        # The final attempt ran in-process, not in a broken pool.
        assert executor.pool_fallbacks >= 1

    def test_on_result_fires_for_pooled_results(self, tmp_path):
        executor = SweepExecutor(workers=2, retry_backoff_s=0.01)
        landed = {}
        results = executor.map(
            well_behaved,
            ["a", "b", "c"],
            on_result=lambda index, value: landed.__setitem__(index, value),
        )
        assert results == ["done:a", "done:b", "done:c"]
        assert landed == {0: "done:a", 1: "done:b", 2: "done:c"}


class TestPoolBackoff:
    def test_no_sleep_after_final_retry_round(self):
        # fail_always exhausts max_retries + 1 attempts; backoff must be
        # slept only *between* rounds (2 sleeps for max_retries=2),
        # never after the last attempt, and the total is exposed.
        executor = SweepExecutor(
            workers=2, max_retries=2, retry_backoff_s=0.05, backend="pool"
        )
        with pytest.raises(ValueError, match="permanent failure"):
            executor.map(fail_always, ["x"])
        expected = 0.05 * (2 ** 0) + 0.05 * (2 ** 1)
        assert executor.backoff_slept_s == pytest.approx(expected)
        assert executor.stats()["backoff_slept_s"] == pytest.approx(expected)
        assert executor.retries == 2
        assert executor.pool_fallbacks == 1

    def test_no_backoff_when_first_attempt_succeeds(self):
        executor = SweepExecutor(
            workers=2, max_retries=2, retry_backoff_s=5.0, backend="pool"
        )
        start = time.monotonic()
        assert executor.map(double, [7]) == [14]
        assert time.monotonic() - start < 4.0
        assert executor.backoff_slept_s == 0.0

    def test_transient_failure_retries_then_succeeds(self, tmp_path):
        sentinel = tmp_path / "sentinel"
        executor = SweepExecutor(
            workers=2, max_retries=2, retry_backoff_s=0.01, backend="pool"
        )
        results = executor.map(fail_unless_sentinel, ["fail:%s" % sentinel])
        assert results == ["done:fail:%s" % sentinel]
        assert executor.retries == 1
        assert executor.backoff_slept_s == pytest.approx(0.01)


class TestCampaignOracle:
    def test_pool_campaign_matches_serial_oracle(self):
        spec = CampaignSpec(
            workloads=("array",),
            designs=("sca", "unsafe"),
            mechanisms=("undo",),
            faults=("torn-data", "bitflip-data"),
            crash_points=4,
            seed=7,
            operations=6,
        )
        serial = CampaignRunner(spec).run().as_dict()
        executor = SweepExecutor(workers=2)
        pooled = CampaignRunner(spec, executor=executor).run().as_dict()
        assert executor.stats()["backend"] == "pool"
        assert serial.pop("executor")["backend"] == "inline"
        pooled.pop("executor")
        assert pooled == serial


class TestCacheQuarantine:
    def test_corrupt_entry_is_quarantined_counted_and_logged(self, tmp_path, caplog):
        cache = JsonStore(str(tmp_path))
        job = SweepJob("sca", "array", config=fast_config(), params=PARAMS)
        SweepExecutor(workers=1, cache=cache).map_stats([job])
        entry = tmp_path / (content_key(job.document()) + ".json")
        good = entry.read_text(encoding="utf-8")
        for count, damaged in enumerate((good[: len(good) // 2], '{"stats": 42}'), 1):
            entry.write_text(damaged, encoding="utf-8")
            executor = SweepExecutor(workers=1, cache=cache)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="repro.utils.store"):
                executor.map_stats([job])
            assert cache.quarantined == count
            assert (executor.cache_misses, executor.jobs_executed) == (1, 1)
            assert (tmp_path / (entry.name + ".corrupt")).read_text(encoding="utf-8") == damaged
            assert any("corrupt file" in r.message for r in caplog.records)
            # The job re-ran and its result replaced the quarantined entry.
            assert entry.read_text(encoding="utf-8") == good

    def test_executor_surfaces_corruption_in_stats(self, tmp_path):
        cache = JsonStore(str(tmp_path))
        job = SweepJob("sca", "array", config=fast_config(), params=PARAMS)
        key = content_key(job.document())
        (tmp_path / (key + ".json")).write_text('{"stats": 42}', encoding="utf-8")
        executor = SweepExecutor(workers=1, cache=cache)
        executor.map_stats([job])
        assert executor.cache_corruption_events == 1
        assert executor.stats()["cache_corruption_events"] == 1
        # The recomputed result replaced the quarantined entry.
        assert (tmp_path / (key + ".json")).exists()

    def test_clear_sweeps_quarantined_files_too(self, tmp_path):
        cache = JsonStore(str(tmp_path))
        (tmp_path / ("d" * 64 + ".json.corrupt")).write_text("x", encoding="utf-8")
        (tmp_path / ("1" * 64 + ".json")).write_text("x", encoding="utf-8")
        (tmp_path / "report.json").write_text("x", encoding="utf-8")
        assert cache.clear() == 2
        # Only the store's own files go: a user's file in the directory stays.
        assert [path.name for path in tmp_path.iterdir()] == ["report.json"]
