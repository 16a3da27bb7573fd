"""Parallel sweep execution with an on-disk result cache.

Every paper artifact is a sweep over (workload x design x config)
points, and each point is an independent, deterministic simulation.
This module decomposes such sweeps into :class:`SweepJob` descriptions
and executes them through a :class:`SweepExecutor`, which

* fans jobs out over a hardened ``multiprocessing.Pool`` when
  ``workers > 1`` or a job timeout is set (falling back to in-process
  execution when the pool cannot be created or breaks),
* preserves deterministic result ordering — ``map_stats`` returns one
  :class:`~repro.sim.stats.MachineStats` per job, in job order, with
  values identical to a serial run, and
* memoizes finished jobs in a :class:`~repro.utils.store.JsonStore`
  keyed by :func:`~repro.utils.store.content_key` of the job's document
  (design, workload, mechanism, config, params) and the code version,
  so repeated sweeps are incremental and any code or config change
  invalidates exactly the affected points.  Each result is stored as it
  lands, so a sweep killed midway keeps what it finished.

Workers return only the :class:`MachineStats` summary — never the live
controller/hierarchy objects — so job results are cheap to pickle and
to persist as JSON.  Experiments that need the full simulation state
(crash sweeps) keep running in-process.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, cast

from ..config import SystemConfig, fast_config
from ..errors import JobExecutionError
from ..sim.stats import CoreStats, MachineStats
from ..utils.store import JsonStore, content_key
from ..workloads.base import WorkloadParams

__all__ = [
    "SweepJob",
    "SweepExecutor",
    "execute_job",
    "default_cache_dir",
    "stats_to_dict",
    "stats_from_dict",
]

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Job description


@dataclass(frozen=True)
class SweepJob:
    """One independent design point of a sweep.

    The job carries everything a worker process needs to reproduce the
    simulation: all fields are plain frozen dataclasses, so the job is
    picklable and hashable for caching.
    """

    design: str
    workload: str
    config: Optional[SystemConfig] = None
    mechanism: str = "undo"
    params: Optional[WorkloadParams] = None

    def document(self) -> Dict[str, object]:
        """What the job's result depends on: its cache identity."""
        config = self.config if self.config is not None else fast_config()
        params = self.params if self.params is not None else WorkloadParams()
        return {
            "design": self.design,
            "workload": self.workload,
            "mechanism": self.mechanism,
            "config": dataclasses.asdict(config),
            "params": dataclasses.asdict(params),
        }


def execute_job(job: SweepJob) -> MachineStats:
    """Run one job to completion; the worker-side entry point.

    Imported lazily so worker processes created with the ``spawn``
    start method can resolve it by qualified name.
    """
    from .harness import run_workload_stats

    return run_workload_stats(
        job.design,
        job.workload,
        config=job.config,
        mechanism=job.mechanism,
        params=job.params,
    )


# ---------------------------------------------------------------------------
# Stats (de)serialization


def stats_to_dict(stats: MachineStats) -> Dict[str, object]:
    """JSON-ready form of a :class:`MachineStats` (cache file payload)."""
    return dataclasses.asdict(stats)


def stats_from_dict(payload: Dict[str, object]) -> MachineStats:
    """Inverse of :func:`stats_to_dict`."""
    data = dict(payload)
    per_core = [CoreStats(**core) for core in data.pop("per_core")]
    return MachineStats(per_core=per_core, **data)


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-bench``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-bench")


# ---------------------------------------------------------------------------
# Executor

#: A finished job result is delivered through this callback as soon as
#: it is available: ``on_result(index, value)``.
ResultCallback = Callable[[int, object], None]


class _WorkerStalledError(Exception):
    """A worker's heartbeat went stale: hung or killed mid-job."""


class SweepExecutor:
    """Runs sweep jobs in this process or over a hardened process pool.

    ``SweepExecutor()`` (the default used by ``Experiment.run``) is a
    plain in-process serial runner with no cache, preserving the exact
    behaviour experiments had before this engine existed.

    ``backend`` picks the engine: ``"inline"`` (serial, in process, the
    deterministic oracle) or ``"pool"`` (a local
    ``multiprocessing.Pool``).  The default, ``None``, runs a map on the
    pool when it has more than one item and ``workers > 1``, or when a
    job or heartbeat timeout is set — only a worker process can be
    reclaimed when its job hangs — and inline otherwise.

    The pooled path is hardened against misbehaving workers:

    * ``job_timeout_s`` bounds every job; a hung worker is detected,
      the pool (and the hung process with it) is torn down and rebuilt,
      and the job is retried.
    * Failures and timeouts are retried up to ``max_retries`` times
      with exponential backoff (``retry_backoff_s`` base).  Backoff is
      slept *between* rounds only — never after the final attempt of a
      permanently failing job — and the total is reported as
      ``stats()['backoff_slept_s']``.
    * A job that exhausts pool retries on *errors* gets one final
      in-process attempt, so a broken pool degrades to serial
      execution instead of failing the sweep; a job that exhausts
      retries on *timeouts* raises :class:`JobExecutionError` (running
      it in-process would hang the sweep instead).
    * With ``heartbeat_timeout_s`` set, jobs that publish a heartbeat
      file (see :mod:`repro.bench.resilience`) are watched while they
      run: a worker whose heartbeat goes stale is declared stalled well
      before the job timeout, torn down with the pool, and retried.  A
      job that never writes its heartbeat file is *not* stalled — the
      job timeout alone covers workers that die before their first
      beat, which avoids false stalls for jobs queued behind a busy
      pool.
    * Corrupt result-cache entries are quarantined and counted by the
      cache (``cache.quarantined``), never silently recomputed.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[JsonStore] = None,
        job_timeout_s: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.1,
        heartbeat_timeout_s: Optional[float] = None,
        backend: Optional[str] = None,
    ) -> None:
        if backend not in (None, "inline", "pool"):
            raise ValueError(
                "unknown execution backend %r; available: inline, pool" % backend
            )
        self.workers = max(1, int(workers))
        self.cache = cache
        self.job_timeout_s = job_timeout_s
        self.max_retries = max(0, int(max_retries))
        self.retry_backoff_s = max(0.0, float(retry_backoff_s))
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.backend = backend
        self.resolved_backend: Optional[str] = None
        self.cache_hits = 0
        self.cache_misses = 0
        self.jobs_executed = 0
        self.retries = 0
        self.timeouts = 0
        self.stalls = 0
        self.pool_fallbacks = 0
        self.backoff_slept_s = 0.0

    # -- stats -------------------------------------------------------------

    @property
    def cache_corruption_events(self) -> int:
        return self.cache.quarantined if self.cache is not None else 0

    def stats(self) -> Dict[str, object]:
        """Executor health counters, for reports and the CLI."""
        return {
            # Before any map ran: the engine a multi-job map would use.
            "backend": self.resolved_backend or self._engine(2),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_corruption_events": self.cache_corruption_events,
            "jobs_executed": self.jobs_executed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "stalls": self.stalls,
            "pool_fallbacks": self.pool_fallbacks,
            "backoff_slept_s": round(self.backoff_slept_s, 4),
        }

    # -- execution --------------------------------------------------------

    def map_stats(self, jobs: Sequence[SweepJob]) -> List[MachineStats]:
        """Execute all jobs; result ``i`` belongs to ``jobs[i]``."""
        if self.cache is None:
            return cast(List[MachineStats], self.map(execute_job, jobs))
        results, hits = self.map_resumable(
            execute_job,
            jobs,
            [content_key(job.document()) for job in jobs],
            self.cache,
            load=lambda document: stats_from_dict(document["stats"]),
            dump=lambda key, stats: {"key": key, "stats": stats_to_dict(stats)},
        )
        self.cache_hits += hits
        self.cache_misses += len(jobs) - hits
        return cast(List[MachineStats], results)

    def map_resumable(
        self,
        fn: Callable,
        items: Sequence[object],
        keys: Sequence[str],
        store: Optional[JsonStore],
        load: Callable[[dict], object],
        dump: Optional[Callable[[str, Any], Dict[str, object]]] = None,
        on_result: Optional[ResultCallback] = None,
        heartbeats: Optional[Sequence[Optional[str]]] = None,
    ) -> Tuple[List[object], int]:
        """:meth:`map` that reuses the results ``store`` already holds.

        ``keys[i]`` names the result of ``items[i]``.  A stored document
        counts once ``load`` accepts it (see :meth:`JsonStore.get`); the
        other items run through :meth:`map`, and each result is stored,
        as ``dump(key, value)`` or as the value itself, the moment it
        lands and before ``on_result`` hears of it.  Returns the results
        in item order and how many came from the store.
        """
        results: List[object] = [None] * len(items)
        pending: List[int] = []
        for index, key in enumerate(keys):
            value = store.get(key, load) if store is not None else None
            if value is None:
                pending.append(index)
            else:
                results[index] = value

        def landed(position: int, value: object) -> None:
            index = pending[position]
            if store is not None:
                key = keys[index]
                document = dump(key, value) if dump is not None else value
                store.put(key, cast(Dict[str, object], document))
            if on_result is not None:
                on_result(index, value)

        if pending:
            fresh = self.map(
                fn,
                [items[index] for index in pending],
                on_result=landed,
                heartbeats=(
                    [heartbeats[index] for index in pending]
                    if heartbeats is not None
                    else None
                ),
            )
            for index, value in zip(pending, fresh):
                results[index] = value
        return results, len(items) - len(pending)

    def _engine(self, item_count: int) -> str:
        """The engine a map of ``item_count`` items runs on."""
        if self.backend is not None:
            return self.backend
        timed = self.job_timeout_s is not None or self.heartbeat_timeout_s is not None
        if item_count > 0 and (timed or (self.workers > 1 and item_count > 1)):
            return "pool"
        return "inline"

    def map(
        self,
        fn: Callable,
        items: Sequence[object],
        on_result: Optional[ResultCallback] = None,
        heartbeats: Optional[Sequence[Optional[str]]] = None,
    ) -> List[object]:
        """Hardened ordered map: ``results[i] = fn(items[i])``.

        ``fn`` must be a module-level callable and every item picklable
        when the map runs on the pool.  ``on_result`` fires as each
        result lands, which lets callers journal progress for
        resumability.  ``heartbeats`` (optional, one path or None per
        item) names the heartbeat file each job updates while it runs;
        the watchdog only engages when ``heartbeat_timeout_s`` is set.
        """
        items = list(items)
        results: List[object] = [None] * len(items)
        self.jobs_executed += len(items)
        if heartbeats is not None and len(heartbeats) != len(items):
            raise ValueError("heartbeats must align one-to-one with items")
        self.resolved_backend = self._engine(len(items))
        if self.resolved_backend == "pool":
            self._map_pooled(fn, items, results, on_result, heartbeats)
        else:
            self._run_inline(fn, items, results, range(len(items)), on_result)
        return results

    # -- pooled execution -------------------------------------------------

    def _map_pooled(
        self,
        fn: Callable,
        items: List[object],
        results: List[object],
        on_result: Optional[ResultCallback],
        heartbeats: Optional[Sequence[Optional[str]]],
    ) -> None:
        import multiprocessing

        pool = self._make_pool(min(self.workers, len(items)))
        if pool is None:
            self._run_inline(fn, items, results, range(len(items)), on_result)
            return
        remaining = list(range(len(items)))
        attempts = [0] * len(items)
        timed_out = [False] * len(items)
        try:
            while remaining:
                handles = []
                pool_broken = False
                for index in remaining:
                    self._clear_heartbeat(heartbeats, index)
                    try:
                        handles.append((index, pool.apply_async(fn, (items[index],))))
                    except Exception:
                        handles.append((index, None))
                        pool_broken = True
                failed: List[int] = []
                for index, handle in handles:
                    if handle is None:
                        failed.append(index)
                        attempts[index] += 1
                        continue
                    heartbeat = heartbeats[index] if heartbeats is not None else None
                    try:
                        value = self._collect(handle, heartbeat)
                    except multiprocessing.TimeoutError:
                        self.timeouts += 1
                        timed_out[index] = True
                        attempts[index] += 1
                        failed.append(index)
                        # The worker is still wedged on this job; the
                        # pool must be rebuilt to free the slot.
                        pool_broken = True
                        logger.warning(
                            "job %d timed out after %.1f s (attempt %d/%d)",
                            index,
                            self.job_timeout_s or 0.0,
                            attempts[index],
                            self.max_retries + 1,
                        )
                    except _WorkerStalledError as exc:
                        self.stalls += 1
                        timed_out[index] = True
                        attempts[index] += 1
                        failed.append(index)
                        pool_broken = True
                        logger.warning(
                            "job %d stalled (attempt %d/%d): %s",
                            index,
                            attempts[index],
                            self.max_retries + 1,
                            exc,
                        )
                    except Exception as exc:
                        timed_out[index] = False
                        attempts[index] += 1
                        failed.append(index)
                        pool_broken = True
                        logger.warning(
                            "job %d failed in worker (attempt %d/%d): %s: %s",
                            index,
                            attempts[index],
                            self.max_retries + 1,
                            type(exc).__name__,
                            exc,
                        )
                    else:
                        results[index] = value
                        timed_out[index] = False
                        if on_result is not None:
                            on_result(index, value)
                exhausted = [i for i in failed if attempts[i] > self.max_retries]
                remaining = [i for i in failed if attempts[i] <= self.max_retries]
                if exhausted:
                    hung = [i for i in exhausted if timed_out[i]]
                    if hung:
                        raise JobExecutionError(
                            "job(s) %s timed out on every attempt (%d tries each)"
                            % (hung, self.max_retries + 1)
                        )
                    # Persistent worker-side errors: degrade to one
                    # in-process attempt so a broken pool cannot sink
                    # the sweep; a genuine job bug reproduces here with
                    # a real traceback.
                    self.pool_fallbacks += 1
                    self._run_inline(fn, items, results, exhausted, on_result)
                if remaining:
                    # Backoff belongs *between* rounds: it is only slept
                    # here, when another retry round will actually run.
                    self.retries += len(remaining)
                    self._backoff(attempts, remaining)
                    if pool_broken:
                        pool = self._rebuild_pool(pool, min(self.workers, len(remaining)))
                        if pool is None:
                            self._run_inline(fn, items, results, remaining, on_result)
                            remaining = []
        finally:
            if pool is not None:
                pool.terminate()
                pool.join()

    @staticmethod
    def _run_inline(
        fn: Callable,
        items: List[object],
        results: List[object],
        indexes: Iterable[int],
        on_result: Optional[ResultCallback],
    ) -> None:
        for index in indexes:
            results[index] = fn(items[index])
            if on_result is not None:
                on_result(index, results[index])

    def _backoff(self, attempts: List[int], remaining: List[int]) -> None:
        if self.retry_backoff_s <= 0:
            return
        # Exponential in the retry round: the round number is how many
        # attempts the least-retried surviving job has already made.
        round_number = min(attempts[i] for i in remaining)
        delay = self.retry_backoff_s * (2 ** (round_number - 1))
        self.backoff_slept_s += delay
        time.sleep(delay)

    # -- heartbeat watchdog ------------------------------------------------

    @staticmethod
    def _clear_heartbeat(
        heartbeats: Optional[Sequence[Optional[str]]], index: int
    ) -> None:
        """Drop a stale heartbeat file before (re)dispatching its job."""
        if heartbeats is None or heartbeats[index] is None:
            return
        try:
            os.unlink(heartbeats[index])
        except OSError:
            pass

    def _collect(self, handle, heartbeat: Optional[str]):
        """Wait for one async result, watching the job's heartbeat.

        Without a watchdog this is a plain ``handle.get(timeout)``.
        With one, the wait is chopped into short polls; a heartbeat
        file that exists but has not been touched for
        ``heartbeat_timeout_s`` raises :class:`_WorkerStalledError`.  A
        *missing* file never stalls the job — the job timeout covers
        workers that die before their first beat.
        """
        import multiprocessing

        if self.heartbeat_timeout_s is None or heartbeat is None:
            return handle.get(self.job_timeout_s)
        poll = max(0.01, min(0.25, self.heartbeat_timeout_s / 4.0))
        deadline = (
            time.monotonic() + self.job_timeout_s
            if self.job_timeout_s is not None
            else None
        )
        while True:
            remaining = poll
            if deadline is not None:
                remaining = min(poll, deadline - time.monotonic())
                if remaining <= 0:
                    raise multiprocessing.TimeoutError()
            try:
                return handle.get(remaining)
            except multiprocessing.TimeoutError:
                if deadline is not None and time.monotonic() >= deadline:
                    raise
                try:
                    age = time.time() - os.path.getmtime(heartbeat)
                except OSError:
                    continue  # no beat yet; only the job timeout applies
                if age > self.heartbeat_timeout_s:
                    raise _WorkerStalledError(
                        "heartbeat %s is %.1f s stale (limit %.1f s)"
                        % (heartbeat, age, self.heartbeat_timeout_s)
                    ) from None

    def _rebuild_pool(self, pool, workers: int):
        try:
            pool.terminate()
            pool.join()
        except Exception:  # pragma: no cover - teardown best-effort
            pass
        return self._make_pool(workers)

    def _make_pool(self, workers: int):
        """A ``multiprocessing.Pool`` (it supports ``terminate``, which
        is what lets a hung worker be reclaimed), or None."""
        try:
            import multiprocessing

            methods = multiprocessing.get_all_start_methods()
            if "fork" in methods:
                # Fork shares the already-imported simulator with the
                # workers; spawn works too, just with a slower start.
                context = multiprocessing.get_context("fork")
            else:  # pragma: no cover - platform without fork
                context = multiprocessing.get_context()
            return context.Pool(processes=workers)
        except (ImportError, OSError, ValueError):
            self.pool_fallbacks += 1
            return None
