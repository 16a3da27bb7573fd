"""Bank and bus timing for the PCM main memory.

The simulator uses a *resource-timeline* model: each bank and the shared
bus keep the time at which they next become free.  A request arriving at
time ``t`` starts at ``max(t, resource free time)`` and pushes the free
time forward by its occupancy.  This captures queueing, bank conflicts
and bus contention without per-cycle simulation.

PCM asymmetry (reads ~63 ns, writes ~313 ns before scaling) comes from
Table 2; writes additionally hold the bank for the long write-recovery
time ``tWR``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..config import CACHE_LINE_SIZE, NVMTimingConfig


class BankTimingModel:
    """Per-bank next-free timelines for the NVM array.

    Reads are prioritized over writes, as in any modern memory
    controller: a read never waits behind queued array writes (PCM
    write cancellation / pausing lets an urgent read preempt a long
    write, per Qureshi et al.), while writes wait for both earlier
    writes *and* earlier reads on their bank.  Writes therefore bound
    the drain throughput of the write queues without inflating demand
    read latency — misprioritizing this was the dominant modeling error
    in early versions of this simulator.
    """

    #: Lines per row buffer per bank (a 4 KB row of 64 B lines).
    LINES_PER_ROW = 64

    def __init__(self, timing: NVMTimingConfig) -> None:
        self.timing = timing
        # Config is frozen, so the derived latencies are hoisted out of
        # the per-access path (they were property lookups per call).
        self._read_access_ns = timing.read_access_ns
        self._row_hit_ns = timing.t_cl_ns * timing.read_latency_scale
        self._write_access_ns = timing.write_access_ns
        self._t_wtr_ns = timing.t_wtr_ns
        self._read_free: List[float] = [0.0] * timing.num_banks
        self._write_free: List[float] = [0.0] * timing.num_banks
        self._open_row: List[Optional[int]] = [None] * timing.num_banks
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.total_read_wait_ns = 0.0
        self.total_write_wait_ns = 0.0

    def schedule_read(
        self, bank: int, request_ns: float, row: Optional[int] = None
    ) -> float:
        """Schedule an array read of one line on ``bank``.

        Returns when the line is available.  ``row`` identifies the
        row-buffer row; a hit skips the row activation (``tRCD``) and
        pays only the column read (``tCL``), which is what gives
        sequential streams their short latency.
        """
        read_free = self._read_free
        free = read_free[bank]
        start = request_ns if request_ns >= free else free
        self.total_read_wait_ns += start - request_ns
        open_row = self._open_row
        if row is not None and open_row[bank] == row:
            complete = start + self._row_hit_ns
            self.row_hits += 1
        else:
            complete = start + self._read_access_ns
            open_row[bank] = row
        read_free[bank] = complete
        # A preempted write must redo its slot after the read.
        write_free = self._write_free
        if write_free[bank] < complete:
            write_free[bank] = complete
        self.reads += 1
        return complete

    def schedule_write(self, bank: int, request_ns: float) -> Tuple[float, float]:
        """Schedule an array write of one line on ``bank``.

        Returns ``(start_ns, complete_ns)``: the write issues at start
        and is durable at complete (after ``tCWD``+burst), but the bank
        stays busy through the long PCM write-recovery window ``tWR``.
        PCM writes go to the cell array, so they close the open row.
        """
        write_free = self._write_free
        start = request_ns
        free = write_free[bank]
        if free > start:
            start = free
        free = self._read_free[bank]
        if free > start:
            start = free
        self.total_write_wait_ns += start - request_ns
        complete = start + self._write_access_ns
        write_free[bank] = complete + self._t_wtr_ns
        self._open_row[bank] = None
        self.writes += 1
        return start, complete

    def get_state(self) -> dict:
        """Checkpoint state: per-bank timelines and counters."""
        return {
            "read_free": list(self._read_free),
            "write_free": list(self._write_free),
            "open_row": list(self._open_row),
            "reads": self.reads,
            "writes": self.writes,
            "row_hits": self.row_hits,
            "total_read_wait_ns": self.total_read_wait_ns,
            "total_write_wait_ns": self.total_write_wait_ns,
        }

    def set_state(self, state: dict) -> None:
        self._read_free = list(state["read_free"])
        self._write_free = list(state["write_free"])
        self._open_row = list(state["open_row"])
        self.reads = state["reads"]
        self.writes = state["writes"]
        self.row_hits = state["row_hits"]
        self.total_read_wait_ns = state["total_read_wait_ns"]
        self.total_write_wait_ns = state["total_write_wait_ns"]


class BusModel:
    """The shared memory bus between controller and DIMM.

    Width matters: the baseline bus is 64-bit (8 B per beat) and the
    co-located designs widen it to 72-bit so that a 64 B line plus its
    8 B counter move in one 8-beat burst (paper Section 3.2.1).
    """

    def __init__(self, timing: NVMTimingConfig) -> None:
        self.timing = timing
        self._free_ns = 0.0
        #: burst_ns memoized per payload size (only a handful occur).
        self._burst_cache: dict = {}
        self.transfers = 0
        self.bytes_moved = 0
        self.busy_ns = 0.0

    def schedule_transfer(self, request_ns: float, payload_bytes: int = CACHE_LINE_SIZE) -> float:
        """Reserve the bus; returns the transfer completion time."""
        free = self._free_ns
        start = request_ns if request_ns >= free else free
        duration = self._burst_cache.get(payload_bytes)
        if duration is None:
            duration = self.timing.burst_ns(payload_bytes)
            self._burst_cache[payload_bytes] = duration
        done = start + duration
        self._free_ns = done
        self.transfers += 1
        self.bytes_moved += payload_bytes
        self.busy_ns += duration
        return done

    def utilization(self, elapsed_ns: float) -> float:
        """Fraction of ``elapsed_ns`` the bus spent transferring."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.busy_ns / elapsed_ns)

    def reset(self) -> None:
        self._free_ns = 0.0
        self.transfers = 0
        self.bytes_moved = 0
        self.busy_ns = 0.0

    def get_state(self) -> dict:
        """Checkpoint state: bus timeline and traffic counters."""
        return {
            "free_ns": self._free_ns,
            "transfers": self.transfers,
            "bytes_moved": self.bytes_moved,
            "busy_ns": self.busy_ns,
        }

    def set_state(self, state: dict) -> None:
        self._free_ns = state["free_ns"]
        self.transfers = state["transfers"]
        self.bytes_moved = state["bytes_moved"]
        self.busy_ns = state["busy_ns"]
