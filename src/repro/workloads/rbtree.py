"""Red-Black Tree: random inserts into a persistent RB-tree (§6.2).

A textbook red-black tree whose nodes are single cache lines::

    [ key u64 | value u64 | left u64 | right u64 | parent u64 | color u64 | pad ]

Insertion performs the standard BST descent (emitting LOADs per visited
node) followed by recolor/rotate fix-ups; every node whose fields
change is rewritten through the recorder inside the transaction.
Rotations touch several nodes per insert, which is why RB-Tree carries
one of the highest counter-atomic write fractions in the paper's
scalability discussion (§6.3.2).
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..config import CACHE_LINE_SIZE
from ..errors import WorkloadError
from .base import TxnRecorder, Workload, WorkloadParams

_RED = 0
_BLACK = 1

_KEY = 0
_VALUE = 8
_LEFT = 16
_RIGHT = 24
_PARENT = 32
_COLOR = 40


class _Node:
    __slots__ = ("address", "key", "value", "left", "right", "parent", "color")

    def __init__(self, address: int, key: int, value: int) -> None:
        self.address = address
        self.key = key
        self.value = value
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None
        self.parent: Optional["_Node"] = None
        self.color = _RED


class RBTreeWorkload(Workload):
    """Inserts random keys into a persistent red-black tree."""

    name = "rbtree"

    def __init__(self, params: WorkloadParams = None) -> None:  # type: ignore[assignment]
        super().__init__(params)
        self.meta = 0  # line holding the root pointer
        self.root: Optional[_Node] = None
        self._arena = None
        self._dirty: List[_Node] = []

    # -- persistence helpers ---------------------------------------------------

    def _mark_dirty(self, node: Optional[_Node]) -> None:
        if node is not None and node not in self._dirty:
            self._dirty.append(node)

    def _flush_dirty(self, recorder: TxnRecorder) -> None:
        for node in self._dirty:
            address = node.address
            recorder.write_u64(address + _KEY, node.key)
            recorder.write_u64(address + _VALUE, node.value)
            recorder.write_u64(address + _LEFT, node.left.address if node.left else 0)
            recorder.write_u64(address + _RIGHT, node.right.address if node.right else 0)
            recorder.write_u64(address + _PARENT, node.parent.address if node.parent else 0)
            recorder.write_u64(address + _COLOR, node.color)
        self._dirty = []

    # -- workload interface -------------------------------------------------------

    def populate(self, recorder: TxnRecorder, rng: random.Random) -> None:
        arena = getattr(recorder.txns, "arena", None)
        if arena is None:
            raise WorkloadError("transaction mechanism lacks an arena")
        self._arena = arena
        self.meta = arena.heap.alloc_lines(1)
        recorder.begin()
        recorder.write_u64(self.meta, 0)
        recorder.commit()
        # Pre-grow the tree so measured inserts traverse a realistic
        # depth (footprint-driven, batched to keep the trace compact).
        prepopulate = self.params.footprint_bytes // (4 * CACHE_LINE_SIZE)
        inserted = 0
        while inserted < prepopulate:
            batch = min(8, prepopulate - inserted)
            recorder.begin()
            for _ in range(batch):
                key = rng.getrandbits(32) | 1
                self._insert(recorder, key, _mix_value(key))
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
                self._insert(recorder, key, _mix_value(key))
                operations += 1
            recorder.commit()
            remaining -= batch
        return operations

    # -- red-black algorithm ------------------------------------------------------------

    def _insert(self, recorder: TxnRecorder, key: int, value: int) -> None:
        address = self._arena.heap.alloc_lines(1)
        node = _Node(address, key, value)
        # BST descent (LOAD per visited node).
        parent: Optional[_Node] = None
        cursor = self.root
        while cursor is not None:
            recorder.read_line(cursor.address)
            parent = cursor
            cursor = cursor.left if key < cursor.key else cursor.right
        node.parent = parent
        old_root = self.root
        if parent is None:
            self.root = node
        elif key < parent.key:
            parent.left = node
            self._mark_dirty(parent)
        else:
            parent.right = node
            self._mark_dirty(parent)
        self._mark_dirty(node)
        self._fixup(node)
        self._flush_dirty(recorder)
        if self.root is not old_root:
            recorder.write_u64(self.meta, self.root.address if self.root else 0)

    def _rotate_left(self, pivot: _Node) -> None:
        child = pivot.right
        assert child is not None
        pivot.right = child.left
        if child.left is not None:
            child.left.parent = pivot
            self._mark_dirty(child.left)
        child.parent = pivot.parent
        if pivot.parent is None:
            self.root = child
        elif pivot is pivot.parent.left:
            pivot.parent.left = child
            self._mark_dirty(pivot.parent)
        else:
            pivot.parent.right = child
            self._mark_dirty(pivot.parent)
        child.left = pivot
        pivot.parent = child
        self._mark_dirty(pivot)
        self._mark_dirty(child)

    def _rotate_right(self, pivot: _Node) -> None:
        child = pivot.left
        assert child is not None
        pivot.left = child.right
        if child.right is not None:
            child.right.parent = pivot
            self._mark_dirty(child.right)
        child.parent = pivot.parent
        if pivot.parent is None:
            self.root = child
        elif pivot is pivot.parent.right:
            pivot.parent.right = child
            self._mark_dirty(pivot.parent)
        else:
            pivot.parent.left = child
            self._mark_dirty(pivot.parent)
        child.right = pivot
        pivot.parent = child
        self._mark_dirty(pivot)
        self._mark_dirty(child)

    def _fixup(self, node: _Node) -> None:
        while node.parent is not None and node.parent.color == _RED:
            parent = node.parent
            grandparent = parent.parent
            if grandparent is None:
                break
            if parent is grandparent.left:
                uncle = grandparent.right
                if uncle is not None and uncle.color == _RED:
                    parent.color = _BLACK
                    uncle.color = _BLACK
                    grandparent.color = _RED
                    self._mark_dirty(parent)
                    self._mark_dirty(uncle)
                    self._mark_dirty(grandparent)
                    node = grandparent
                else:
                    if node is parent.right:
                        node = parent
                        self._rotate_left(node)
                        parent = node.parent
                        assert parent is not None
                    parent.color = _BLACK
                    grandparent.color = _RED
                    self._mark_dirty(parent)
                    self._mark_dirty(grandparent)
                    self._rotate_right(grandparent)
            else:
                uncle = grandparent.left
                if uncle is not None and uncle.color == _RED:
                    parent.color = _BLACK
                    uncle.color = _BLACK
                    grandparent.color = _RED
                    self._mark_dirty(parent)
                    self._mark_dirty(uncle)
                    self._mark_dirty(grandparent)
                    node = grandparent
                else:
                    if node is parent.left:
                        node = parent
                        self._rotate_right(node)
                        parent = node.parent
                        assert parent is not None
                    parent.color = _BLACK
                    grandparent.color = _RED
                    self._mark_dirty(parent)
                    self._mark_dirty(grandparent)
                    self._rotate_left(grandparent)
        if self.root is not None and self.root.color != _BLACK:
            self.root.color = _BLACK
            self._mark_dirty(self.root)

    # -- invariant helpers (model side) --------------------------------------------------

    def check_invariants(self) -> None:
        """Raise WorkloadError if red-black invariants are broken."""
        if self.root is None:
            return
        if self.root.color != _BLACK:
            raise WorkloadError("root is not black")

        def walk(node: Optional[_Node]) -> int:
            if node is None:
                return 1
            if node.color == _RED:
                for child in (node.left, node.right):
                    if child is not None and child.color == _RED:
                        raise WorkloadError("red node has a red child")
            left_black = walk(node.left)
            right_black = walk(node.right)
            if left_black != right_black:
                raise WorkloadError("black-height mismatch")
            return left_black + (1 if node.color == _BLACK else 0)

        walk(self.root)

    def inorder_keys(self) -> List[int]:
        result: List[int] = []

        def visit(node: Optional[_Node]) -> None:
            if node is None:
                return
            visit(node.left)
            result.append(node.key)
            visit(node.right)

        visit(self.root)
        return result


def _mix_value(key: int) -> int:
    key &= (1 << 64) - 1
    key ^= key >> 31
    key = (key * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
    return key or 1
