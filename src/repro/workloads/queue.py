"""Queue: random en/dequeues on a persistent circular queue (§6.2).

Layout::

    meta line : [ head u64 | tail u64 | count u64 | capacity u64 ]
    slots     : one 8-byte item per slot, eight per line

An enqueue writes the slot line and the meta line; a dequeue writes
only the meta line.  The meta line is the structure's recoverability
pivot, which is why Queue shows a comparatively high fraction of
counter-atomic traffic in the paper's scalability discussion (§6.3.2).
"""

from __future__ import annotations

import random

from ..errors import WorkloadError
from .base import TxnRecorder, Workload, WorkloadParams

_ITEM_BYTES = 8


class QueueWorkload(Workload):
    """Randomly enqueues/dequeues items on a persistent queue."""

    name = "queue"

    def __init__(self, params: WorkloadParams = None) -> None:  # type: ignore[assignment]
        super().__init__(params)
        self.capacity = max(16, self.params.footprint_bytes // _ITEM_BYTES)
        self.meta = 0
        self.slots = 0
        self._head = 0
        self._tail = 0
        self._count = 0
        self._next_value = 1

    def _slot_address(self, index: int) -> int:
        return self.slots + (index % self.capacity) * _ITEM_BYTES

    def populate(self, recorder: TxnRecorder, rng: random.Random) -> None:
        arena = getattr(recorder.txns, "arena", None)
        if arena is None:
            raise WorkloadError("transaction mechanism lacks an arena")
        self.meta = arena.heap.alloc_lines(1)
        self.slots = arena.heap.alloc(self.capacity * _ITEM_BYTES)
        recorder.begin()
        recorder.write_u64(self.meta + 0, 0)  # head
        recorder.write_u64(self.meta + 8, 0)  # tail
        recorder.write_u64(self.meta + 16, 0)  # count
        recorder.write_u64(self.meta + 24, self.capacity)
        recorder.commit()
        # Half-fill so dequeues have work from the start.
        prefill = self.capacity // 2
        index = 0
        while index < prefill:
            recorder.begin()
            for _ in range(min(32, prefill - index)):
                self._enqueue_inside(recorder)
                index += 1
            recorder.commit()

    def _enqueue_inside(self, recorder: TxnRecorder) -> None:
        recorder.write_u64(self._slot_address(self._tail), self._next_value)
        self._next_value += 1
        self._tail = (self._tail + 1) % self.capacity
        self._count += 1
        recorder.write_u64(self.meta + 8, self._tail)
        recorder.write_u64(self.meta + 16, self._count)

    def _dequeue_inside(self, recorder: TxnRecorder) -> None:
        recorder.read_u64(self._slot_address(self._head))
        self._head = (self._head + 1) % self.capacity
        self._count -= 1
        recorder.write_u64(self.meta + 0, self._head)
        recorder.write_u64(self.meta + 16, self._count)

    def run_operations(self, recorder: TxnRecorder, rng: random.Random) -> int:
        operations = 0
        remaining = self.params.operations
        while remaining > 0:
            batch = min(self.params.ops_per_txn, remaining)
            recorder.begin()
            for _ in range(batch):
                do_enqueue = rng.random() < 0.5
                if do_enqueue and self._count >= self.capacity:
                    do_enqueue = False
                if not do_enqueue and self._count == 0:
                    do_enqueue = True
                if do_enqueue:
                    self._enqueue_inside(recorder)
                else:
                    self._dequeue_inside(recorder)
                operations += 1
            recorder.commit()
            remaining -= batch
        return operations
