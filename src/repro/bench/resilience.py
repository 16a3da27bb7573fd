"""Self-healing execution: worker heartbeats + checkpointed workloads.

Two cooperating halves:

* :class:`Heartbeat` is the worker side of the executor's watchdog
  (``SweepExecutor(heartbeat_timeout_s=...)``).  A worker beats while
  it makes progress; the parent declares it stalled when the beat file
  goes stale and recycles the pool.  Beats are rate-limited and renamed
  into place, so a half-written beat can never look like progress; they
  skip the fsync durable results pay, because the watchdog reads only
  the file's mtime and a beat lost to a power cut costs nothing.
* :func:`run_workload_resilient` runs one workload simulation under
  periodic durable checkpoints (:mod:`repro.sim.snapshot`).  Traces are
  regenerated deterministically from the workload description, so only
  machine state needs to persist; a rerun after a crash restores the
  newest valid snapshot and continues, producing a bit-identical
  result.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Optional, Tuple

from ..config import SystemConfig, fast_config
from ..sim.machine import Machine
from ..sim.snapshot import SnapshotStore, run_with_checkpoints
from ..utils.versioning import code_version
from ..workloads.base import WorkloadParams
from .harness import WorkloadRunOutcome, build_traces

__all__ = ["Heartbeat", "run_workload_resilient"]

#: Default minimum spacing between heartbeat writes.  Far below any
#: sane watchdog timeout.
DEFAULT_BEAT_INTERVAL_S = 0.05


class Heartbeat:
    """Worker-side liveness beacon: a small file, atomically refreshed.

    ``beat()`` is cheap to call often — writes are rate-limited to
    ``min_interval_s``.  The watchdog reads only the file's mtime; the
    JSON payload (pid, progress) is for humans debugging a stall.
    """

    def __init__(self, path: str, min_interval_s: float = DEFAULT_BEAT_INTERVAL_S) -> None:
        self.path = path
        self.min_interval_s = min_interval_s
        self.beats_written = 0
        self._last_beat = 0.0
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)

    def beat(self, progress: Optional[int] = None, force: bool = False) -> bool:
        """Refresh the beacon; returns True when a write happened."""
        now = time.monotonic()
        if not force and now - self._last_beat < self.min_interval_s:
            return False
        payload = {"pid": os.getpid(), "progress": progress, "time": time.time()}
        tmp_path = "%s.tmp.%d" % (self.path, os.getpid())
        try:
            with open(tmp_path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_path, self.path)
        except OSError:
            # A beacon that cannot be written degrades to no watchdog
            # coverage for this worker, never to a worker crash.
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            return False
        self._last_beat = now
        self.beats_written += 1
        return True

    def clear(self) -> None:
        try:
            os.unlink(self.path)
        except OSError:
            pass


def run_workload_resilient(
    design: str,
    workload_name: str,
    config: Optional[SystemConfig] = None,
    mechanism: str = "undo",
    params: Optional[WorkloadParams] = None,
    checkpoint_dir: Optional[str] = None,
    every_events: Optional[int] = None,
    heartbeat: Optional[Heartbeat] = None,
    code: Optional[str] = None,
    keep: int = 3,
) -> Tuple[WorkloadRunOutcome, Dict[str, int]]:
    """Like ``run_workload`` but checkpointed and heartbeat-instrumented.

    With ``checkpoint_dir`` set, machine state is snapshotted there on
    the given cadence and a rerun resumes from the newest valid
    snapshot (falling back past torn generations, discarding snapshots
    written by different code).  Traces, workload runs and the memory
    layout are regenerated deterministically, so the resumed result is
    bit-identical to an uninterrupted run.

    Returns ``(outcome, stats)`` where ``stats`` reports saves,
    restores, quarantines and invalidations (all zero when
    checkpointing is off).
    """
    if config is None:
        config = fast_config()
    traces, runs, layout = build_traces(workload_name, config, mechanism, params)
    store = None
    if checkpoint_dir is not None:
        store = SnapshotStore(
            checkpoint_dir,
            code=code if code is not None else code_version(),
            keep=keep,
        )
    on_event = None
    if heartbeat is not None:
        on_event = heartbeat.beat
    machine = Machine(config, design)
    result, stats = run_with_checkpoints(
        machine, traces, store=store, every_events=every_events, on_event=on_event
    )
    outcome = WorkloadRunOutcome(
        design=design,
        workload=workload_name,
        result=result,
        runs=runs,
        layout=layout,
    )
    return outcome, stats
