"""The on-chip tree-node cache.

Every counter-line update changes its leaf and, once the tree settles,
every node on its leaf-to-root path; persisting all of those nodes
eagerly is the Freij-style discipline the FCA+bmt design models.  The
lazy mode instead coalesces dirty path nodes in this cache — repeated
updates to a hot subtree dirty the same few nodes — and flushes them
at ``counter_cache_writeback()`` and on eviction, mirroring SCA's
counter relaxation.

The cache is fully associative with true LRU (tree working sets are a
handful of paths, far below set-conflict scale) and, like the counter
cache, *volatile*: its contents vanish at power loss, which is safe
because interior nodes are reconstructible from persisted counters.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError

__all__ = ["TreeNodeCache"]

#: ``(level, index)`` — see :mod:`repro.integrity.tree`.
TreeNode = Tuple[int, int]


class TreeNodeCache:
    """Fully associative LRU cache of Merkle-tree nodes with dirty bits."""

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ConfigurationError("tree-node cache needs at least one entry")
        self.entries = entries
        # node -> dirty; dict order is LRU order (reinsert on touch).
        self._lines: Dict[TreeNode, bool] = {}

    def __len__(self) -> int:
        return len(self._lines)

    def contains(self, node: TreeNode) -> bool:
        return node in self._lines

    def dirty_count(self) -> int:
        return sum(1 for dirty in self._lines.values() if dirty)

    def touch(self, node: TreeNode, dirty: bool = False) -> bool:
        """Access a node; returns True on hit.  ``dirty`` marks it dirty."""
        if node not in self._lines:
            return False
        was_dirty = self._lines.pop(node)
        self._lines[node] = was_dirty or dirty
        return True

    def insert(self, node: TreeNode, dirty: bool) -> Optional[TreeNode]:
        """Install (or touch) a node.

        Returns the evicted node if a *dirty* victim had to make room —
        the caller owes NVM a writeback of its current digest.  Clean
        victims are dropped silently (reconstructible).
        """
        if self.touch(node, dirty):
            return None
        victim: Optional[TreeNode] = None
        if len(self._lines) >= self.entries:
            victim_node = next(iter(self._lines))
            if self._lines.pop(victim_node):
                victim = victim_node
        self._lines[node] = dirty
        return victim

    def clean(self, node: TreeNode) -> bool:
        """Mark a cached node clean; returns True if it was dirty.

        Does not touch recency — a writeback is not a reuse.
        """
        if not self._lines.get(node, False):
            return False
        self._lines[node] = False
        return True

    def flush_dirty(self) -> List[TreeNode]:
        """All dirty nodes, cleaned in place, in (level, index) order."""
        dirty = sorted(node for node, is_dirty in self._lines.items() if is_dirty)
        for node in dirty:
            self.clean(node)
        return dirty

    def invalidate_all(self) -> None:
        """Drop every entry: the cache's volatility at power loss."""
        self._lines.clear()
