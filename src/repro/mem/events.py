"""The controller's event records, their stats fold, and the trace tap.

The decomposed controller (see :mod:`repro.mem.controller`) does not
increment statistics inline.  Instead, every observable action on the
write/read path — a read completing, a data line persisting, a
counter-atomic pair committing, a tree node draining — appends one
record, a plain tuple ``(code, *fields)``, to the controller's record
log, and :class:`ControllerStats` is *derived* from the log by
:func:`fold`.  When ``config.controller.event_trace_path`` is set,
:class:`JsonlTrace` also writes every record as one JSON line, named by
the :data:`TRACE_FIELDS` table — the opt-in observability tap.

Record contract (also documented in ``docs/architecture.md``):

* Records are appended in emission order; each carries a fixed field
  tuple per code (:data:`TRACE_FIELDS`).  Timestamps are absolute
  simulated nanoseconds (the controller's timing contract).
* Float-valued statistics (read latency, accept waits) are accumulated
  in emission order, which the controller keeps identical to the
  pre-decomposition increment order so long-run sums stay bit-identical.
* ``drain`` records carry no statistics; the controller produces them
  only while a trace is configured.
* A checkpoint pickles the log as it stands, unfolded records and
  ``ControllerStats`` together; a JSONL trace is diagnostic output
  that a resumed run appends to.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Dict, List, Optional, Tuple

from ..config import CACHE_LINE_SIZE

#: Record codes.  A record is ``(code, *fields)`` with the fields named
#: in :data:`TRACE_FIELDS`.
READ = 0
DATA_PERSIST = 1
COUNTER_PERSIST = 2
PAIR = 3
WRITE_REQUEST = 4
COUNTER_FETCH = 5
CCWB = 6
CCWB_FLUSH = 7
CCWB_TREE_FLUSH = 8
TREE_NODE = 9
TREE_VERIFY = 10
TREE_FILL = 11
ROOT_UPDATE = 12
DRAIN = 13

#: code -> (trace kind, names of the fields after the code).
TRACE_FIELDS: Dict[int, Tuple[str, Tuple[str, ...]]] = {
    # One read_line completed (decryption overlap already applied).
    READ: (
        "read",
        ("address", "request_ns", "complete_ns", "payload_bytes", "counter_cache_hit"),
    ),
    # A data-line write was accepted (or coalesced into a queued one).
    # ``accept_wait_ns`` is the stall charged to this write; paired
    # writes charge theirs on the pair record and carry 0.0 here.
    DATA_PERSIST: (
        "data-persist",
        ("address", "payload_bytes", "coalesced", "accept_ns", "drain_ns", "accept_wait_ns"),
    ),
    # A counter-line write reached the counter write queue (split
    # counter region only).
    COUNTER_PERSIST: (
        "counter-persist",
        ("address", "payload_bytes", "coalesced", "paired", "accept_ns", "drain_ns"),
    ),
    # A counter-atomic pair committed (paper Section 5.2.2);
    # ``lag_forced`` marks pairs escalated by the Osiris counter-lag
    # bound rather than requested by the design.
    PAIR: ("pair", ("address", "settled_ns", "accept_wait_ns", "lag_forced", "coalesced")),
    # One write_line entered the controller (before routing).
    WRITE_REQUEST: ("write-request", ("address", "request_ns", "counter_atomic")),
    # A covering counter line was read from the NVM counter region.
    COUNTER_FETCH: ("counter-fetch", ("address", "request_ns", "payload_bytes")),
    # counter_cache_writeback() was invoked (flushing or not) ...
    CCWB: ("ccwb", ("address", "request_ns")),
    # ... and found its covering counter line dirty.
    CCWB_FLUSH: ("ccwb-flush", ("address", "request_ns")),
    # A lazy-mode ccwb drained the coalesced dirty tree nodes.
    CCWB_TREE_FLUSH: ("ccwb-tree-flush", ("request_ns", "nodes")),
    # One integrity-tree node digest was sent to (or merged in) NVM.
    TREE_NODE: ("tree-node", ("address", "coalesced", "drain_ns")),
    # A fetched counter line authenticated against the tree.
    TREE_VERIFY: ("tree-verify", ("group_base", "request_ns")),
    # An uncached tree node was read from NVM during verification.
    TREE_FILL: ("tree-fill", ("address", "payload_bytes")),
    # The on-chip secure root advanced over a persisted counter line.
    ROOT_UPDATE: ("root-update", ("group_base", "effective_ns")),
    # One write-queue entry drained to its bank (trace only).
    DRAIN: ("drain", ("role", "address", "issue_ns", "complete_ns")),
}


@dataclass
class ControllerStats:
    """Aggregate controller statistics for one simulation.

    Derived from the record log by :func:`fold`; nothing in the
    simulation paths increments these fields directly.
    """

    reads: int = 0
    data_writes: int = 0
    counter_writes: int = 0
    paired_writes: int = 0
    coalesced_data_writes: int = 0
    coalesced_counter_writes: int = 0
    ccwb_calls: int = 0
    ccwb_lines_flushed: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    counter_fill_reads: int = 0
    total_read_latency_ns: float = 0.0
    total_write_accept_wait_ns: float = 0.0
    # Bonsai-tree designs only (all zero otherwise).
    tree_node_writes: int = 0
    coalesced_tree_writes: int = 0
    tree_verifications: int = 0
    tree_node_fills: int = 0
    root_updates: int = 0
    ccwb_tree_flushes: int = 0
    lag_forced_pairs: int = 0

    @property
    def mean_read_latency_ns(self) -> float:
        return self.total_read_latency_ns / self.reads if self.reads else 0.0


def fold(stats: ControllerStats, records: List[tuple]) -> None:
    """Fold records into ``stats`` in list (= emission) order.

    Each accumulator is kept in a local for the duration of the batch
    and written back once.  Every accumulator picks up its contributions
    in emission order, so float sums do not depend on how the log was
    split into batches.
    """
    reads = stats.reads
    data_writes = stats.data_writes
    counter_writes = stats.counter_writes
    paired_writes = stats.paired_writes
    coalesced_data = stats.coalesced_data_writes
    coalesced_counter = stats.coalesced_counter_writes
    ccwb_calls = stats.ccwb_calls
    ccwb_lines = stats.ccwb_lines_flushed
    bytes_read = stats.bytes_read
    bytes_written = stats.bytes_written
    counter_fills = stats.counter_fill_reads
    read_latency = stats.total_read_latency_ns
    accept_wait = stats.total_write_accept_wait_ns
    tree_nodes = stats.tree_node_writes
    coalesced_tree = stats.coalesced_tree_writes
    tree_verifies = stats.tree_verifications
    tree_fills = stats.tree_node_fills
    root_updates = stats.root_updates
    tree_flushes = stats.ccwb_tree_flushes
    lag_forced = stats.lag_forced_pairs
    for record in records:
        code = record[0]
        if code == READ:
            reads += 1
            bytes_read += record[4]
            read_latency += record[3] - record[2]
        elif code == DATA_PERSIST:
            if record[3]:
                coalesced_data += 1
            else:
                bytes_written += record[2]
            accept_wait += record[6]
        elif code == WRITE_REQUEST:
            data_writes += 1
        elif code == COUNTER_PERSIST:
            if record[3]:
                coalesced_counter += 1
            else:
                counter_writes += 1
                bytes_written += record[2]
        elif code == PAIR:
            paired_writes += 1
            accept_wait += record[3]
            if record[4]:
                lag_forced += 1
        elif code == CCWB:
            ccwb_calls += 1
        elif code == CCWB_FLUSH:
            ccwb_lines += 1
        elif code == COUNTER_FETCH:
            counter_fills += 1
            bytes_read += record[3]
        elif code == TREE_NODE:
            if record[2]:
                coalesced_tree += 1
            else:
                tree_nodes += 1
                bytes_written += CACHE_LINE_SIZE
        elif code == TREE_VERIFY:
            tree_verifies += 1
        elif code == TREE_FILL:
            tree_fills += 1
            bytes_read += record[2]
        elif code == ROOT_UPDATE:
            root_updates += 1
        elif code == CCWB_TREE_FLUSH:
            tree_flushes += record[2]
    stats.reads = reads
    stats.data_writes = data_writes
    stats.counter_writes = counter_writes
    stats.paired_writes = paired_writes
    stats.coalesced_data_writes = coalesced_data
    stats.coalesced_counter_writes = coalesced_counter
    stats.ccwb_calls = ccwb_calls
    stats.ccwb_lines_flushed = ccwb_lines
    stats.bytes_read = bytes_read
    stats.bytes_written = bytes_written
    stats.counter_fill_reads = counter_fills
    stats.total_read_latency_ns = read_latency
    stats.total_write_accept_wait_ns = accept_wait
    stats.tree_node_writes = tree_nodes
    stats.coalesced_tree_writes = coalesced_tree
    stats.tree_verifications = tree_verifies
    stats.tree_node_fills = tree_fills
    stats.root_updates = root_updates
    stats.ccwb_tree_flushes = tree_flushes
    stats.lag_forced_pairs = lag_forced


class JsonlTrace:
    """Appends records as JSON lines named by :data:`TRACE_FIELDS`.

    The file opens lazily on the first write and stays open for the
    controller's lifetime.  Each :meth:`write` flushes the file, and
    the controller writes once per request, so a killed run loses at
    most the request in flight.  A checkpointed machine pickles the
    path, not the open file: the resumed run appends to the same file.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._stream: Optional[IO[str]] = None

    def write(self, records: List[tuple]) -> None:
        if self._stream is None:
            self._stream = open(self.path, "a", encoding="utf-8")
        stream = self._stream
        for record in records:
            kind, names = TRACE_FIELDS[record[0]]
            line = dict(zip(names, record[1:]))
            line["kind"] = kind
            stream.write(json.dumps(line, sort_keys=True))
            stream.write("\n")
        stream.flush()

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the path only: an unpickled trace reopens it to append."""
        return {**self.__dict__, "_stream": None}
