"""Array Swap: swap random items in a persistent array (paper §6.2).

The array holds 8-byte items, eight per cache line.  Each operation
picks two random indices and swaps them inside one transaction (two
line updates when the items live in different lines, one otherwise).
With ``ops_per_txn > 1`` several swaps batch into one transaction —
the knob Figure 16 turns to grow transaction size.
"""

from __future__ import annotations

import random

from ..config import CACHE_LINE_SIZE
from ..errors import WorkloadError
from .base import TxnRecorder, Workload, WorkloadParams, zipf_index

_ITEM_BYTES = 8


class ArraySwapWorkload(Workload):
    """Swaps random items in a persistent array."""

    name = "array"

    def __init__(self, params: WorkloadParams = None) -> None:  # type: ignore[assignment]
        super().__init__(params)
        self.num_items = max(16, self.params.footprint_bytes // _ITEM_BYTES)
        self.base = 0  # assigned by populate via the arena heap

    def _item_address(self, index: int) -> int:
        return self.base + index * _ITEM_BYTES

    def populate(self, recorder: TxnRecorder, rng: random.Random) -> None:
        arena = getattr(recorder.txns, "arena", None)
        if arena is None:
            raise WorkloadError("transaction mechanism lacks an arena")
        self.base = arena.heap.alloc(self.num_items * _ITEM_BYTES)
        # Initialize in line-sized batches: identity permutation.
        items_per_line = CACHE_LINE_SIZE // _ITEM_BYTES
        index = 0
        while index < self.num_items:
            recorder.begin()
            for _ in range(min(64, (self.num_items - index + items_per_line - 1) // items_per_line)):
                for _ in range(items_per_line):
                    if index >= self.num_items:
                        break
                    recorder.write_u64(self._item_address(index), index + 1)
                    index += 1
                if index >= self.num_items:
                    break
            recorder.commit()

    def run_operations(self, recorder: TxnRecorder, rng: random.Random) -> int:
        operations = 0
        remaining = self.params.operations
        while remaining > 0:
            batch = min(self.params.ops_per_txn, remaining)
            recorder.begin()
            for _ in range(batch):
                first = zipf_index(rng, self.num_items, self.params.zipf_alpha)
                second = zipf_index(rng, self.num_items, self.params.zipf_alpha)
                left = recorder.read_u64(self._item_address(first))
                right = recorder.read_u64(self._item_address(second))
                recorder.write_u64(self._item_address(first), right)
                recorder.write_u64(self._item_address(second), left)
                operations += 1
            recorder.commit()
            remaining -= batch
        return operations
