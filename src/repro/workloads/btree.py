"""B-Tree: random inserts into a persistent B-tree (paper §6.2).

A real B-tree of minimum degree ``t`` whose nodes are persistent
objects.  Node layout (two cache lines, 128 B)::

    line 0: [ nkeys u64 | is_leaf u64 | keys[6] u64 ]
    line 1: [ children[7] u64 | value_seed u64 ]

(maximum 6 keys / 7 children per node, i.e. minimum degree t = 3 with
a 2t-1 = 5 key split threshold kept one below the layout cap so a
split target always fits.)

Traversal emits LOADs line by line; structural writes (key shifts,
splits, new nodes) run inside the enclosing transaction, so a single
insert may touch several node lines along the root-to-leaf path —
exactly the write pattern that makes trees interesting in Figure 12.
"""

from __future__ import annotations

import random
from typing import List

from ..config import CACHE_LINE_SIZE
from ..errors import WorkloadError
from .base import TxnRecorder, Workload, WorkloadParams

_MAX_KEYS = 5  # split when a node reaches this many keys
_MAX_CHILDREN = _MAX_KEYS + 1
_NODE_BYTES = 2 * CACHE_LINE_SIZE

_NKEYS = 0
_ISLEAF = 8
_KEYS = 16  # 6 slots available, _MAX_KEYS used
_CHILDREN = CACHE_LINE_SIZE  # second line, 7 slots available


class _Node:
    """In-model mirror of one persistent B-tree node."""

    __slots__ = ("address", "keys", "children", "is_leaf")

    def __init__(self, address: int, is_leaf: bool) -> None:
        self.address = address
        self.keys: List[int] = []
        self.children: List[int] = []  # node addresses
        self.is_leaf = is_leaf


class BTreeWorkload(Workload):
    """Inserts random keys into a persistent B-tree."""

    name = "btree"

    def __init__(self, params: WorkloadParams = None) -> None:  # type: ignore[assignment]
        super().__init__(params)
        self.meta = 0  # line holding the root pointer
        self.root_address = 0
        self._nodes: dict = {}
        self._arena = None

    # -- persistence helpers ------------------------------------------------

    def _alloc_node(self, is_leaf: bool) -> _Node:
        address = self._arena.heap.alloc(_NODE_BYTES)
        node = _Node(address, is_leaf)
        self._nodes[address] = node
        return node

    def _flush_node(self, recorder: TxnRecorder, node: _Node) -> None:
        """Write the node's persistent image through the recorder."""
        recorder.write_u64(node.address + _NKEYS, len(node.keys))
        recorder.write_u64(node.address + _ISLEAF, 1 if node.is_leaf else 0)
        for slot in range(_MAX_KEYS + 1):
            key = node.keys[slot] if slot < len(node.keys) else 0
            recorder.write_u64(node.address + _KEYS + slot * 8, key)
        for slot in range(_MAX_CHILDREN + 1):
            child = node.children[slot] if slot < len(node.children) else 0
            recorder.write_u64(node.address + _CHILDREN + slot * 8, child)

    def _load_node(self, recorder: TxnRecorder, node: _Node) -> None:
        """Emit the LOADs a traversal of this node performs."""
        recorder.read_line(node.address)
        if not node.is_leaf:
            recorder.read_line(node.address + CACHE_LINE_SIZE)

    # -- workload interface ----------------------------------------------------

    def populate(self, recorder: TxnRecorder, rng: random.Random) -> None:
        arena = getattr(recorder.txns, "arena", None)
        if arena is None:
            raise WorkloadError("transaction mechanism lacks an arena")
        self._arena = arena
        self.meta = arena.heap.alloc_lines(1)
        recorder.begin()
        root = self._alloc_node(is_leaf=True)
        self._flush_node(recorder, root)
        self.root_address = root.address
        recorder.write_u64(self.meta, root.address)
        recorder.commit()
        # Pre-grow the tree so measured inserts traverse a realistic
        # depth (footprint-driven, batched to keep the trace compact).
        prepopulate = self.params.footprint_bytes // (2 * _NODE_BYTES)
        inserted = 0
        while inserted < prepopulate:
            batch = min(16, prepopulate - inserted)
            recorder.begin()
            for _ in range(batch):
                self._insert(recorder, rng.getrandbits(32) | 1)
                inserted += 1
            recorder.commit()

    def run_operations(self, recorder: TxnRecorder, rng: random.Random) -> int:
        operations = 0
        remaining = self.params.operations
        while remaining > 0:
            batch = min(self.params.ops_per_txn, remaining)
            recorder.begin()
            for _ in range(batch):
                key = rng.getrandbits(32) | 1
                self._insert(recorder, key)
                operations += 1
            recorder.commit()
            remaining -= batch
        return operations

    # -- B-tree algorithm ---------------------------------------------------------

    def _insert(self, recorder: TxnRecorder, key: int) -> None:
        root = self._nodes[self.root_address]
        if len(root.keys) >= _MAX_KEYS:
            new_root = self._alloc_node(is_leaf=False)
            new_root.children.append(root.address)
            self._split_child(recorder, new_root, 0)
            self._flush_node(recorder, new_root)
            self.root_address = new_root.address
            recorder.write_u64(self.meta, new_root.address)
            root = new_root
        self._insert_nonfull(recorder, root, key)

    def _split_child(self, recorder: TxnRecorder, parent: _Node, index: int) -> None:
        full = self._nodes[parent.children[index]]
        sibling = self._alloc_node(is_leaf=full.is_leaf)
        middle = len(full.keys) // 2
        median = full.keys[middle]
        sibling.keys = full.keys[middle + 1 :]
        full_keys = full.keys[:middle]
        if not full.is_leaf:
            sibling.children = full.children[middle + 1 :]
            full.children = full.children[: middle + 1]
        full.keys = full_keys
        parent.keys.insert(index, median)
        parent.children.insert(index + 1, sibling.address)
        self._flush_node(recorder, full)
        self._flush_node(recorder, sibling)
        self._flush_node(recorder, parent)

    def _insert_nonfull(self, recorder: TxnRecorder, node: _Node, key: int) -> None:
        self._load_node(recorder, node)
        if node.is_leaf:
            position = self._position(node, key)
            node.keys.insert(position, key)
            self._flush_node(recorder, node)
            return
        position = self._position(node, key)
        child = self._nodes[node.children[position]]
        if len(child.keys) >= _MAX_KEYS:
            self._split_child(recorder, node, position)
            if key > node.keys[position]:
                position += 1
            child = self._nodes[node.children[position]]
        self._insert_nonfull(recorder, child, key)

    @staticmethod
    def _position(node: _Node, key: int) -> int:
        position = 0
        while position < len(node.keys) and key > node.keys[position]:
            position += 1
        return position

    # -- verification helpers ---------------------------------------------------------

    def inorder_keys(self) -> List[int]:
        """All keys in sorted order (model-side invariant checking)."""
        result: List[int] = []

        def visit(address: int) -> None:
            node = self._nodes[address]
            if node.is_leaf:
                result.extend(node.keys)
                return
            for index, key in enumerate(node.keys):
                visit(node.children[index])
                result.append(key)
            visit(node.children[len(node.keys)])

        visit(self.root_address)
        return result
