"""Integrity-persistence policies: tree-node drains and fetch authentication.

The integrity layer owns the Bonsai Merkle Tree state of the ``+bmt``
designs — the working tree (with its on-chip secure root), the tree
node cache, and the dedicated tree write queue — and the two hooks the
rest of the controller calls:

* ``note_counter_persist`` — hash the leaf whenever a counter line
  persists (the tree settles its interior nodes and root when they are
  next read), and persist the leaf-to-root path per the mode:
  :class:`EagerTreePersistence` drives the whole path into the tree
  write queue right there (Freij-style strict ordering, no ADR cover —
  the write settles only when the path has drained), while
  :class:`LazyTreePersistence` dirties the node cache and flushes at
  ``counter_cache_writeback()`` / eviction (the Phoenix relaxation —
  safe because interior nodes are reconstructible from persisted
  leaves).
* ``verify_counter_fetch`` — authenticate a counter-line fetch against
  the tree before its counters may generate OTPs.

:class:`NoIntegrity` is the null object for every design without a
tree: all hooks are free and no state is kept.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from ..config import CACHE_LINE_SIZE, SystemConfig
from ..core.designs import DesignPolicy
from ..errors import SimulationError
from ..integrity.cache import TreeNodeCache
from ..integrity.tree import IntegrityTreeEngine, TreeNode
from .events import CCWB_TREE_FLUSH, ROOT_UPDATE, TREE_FILL, TREE_NODE, TREE_VERIFY
from .writequeue import WriteQueue

if TYPE_CHECKING:
    from .controller import MemoryController


class NoIntegrity:
    """Null integrity persistence: no tree, every hook is a no-op."""

    mode = ""

    def __init__(self, ctrl: "MemoryController", config: SystemConfig, policy: DesignPolicy) -> None:
        self.ctrl = ctrl
        self.tree: Optional[IntegrityTreeEngine] = None
        self.tree_cache: Optional[TreeNodeCache] = None
        self.tree_queue: Optional[WriteQueue] = None

    def should_force_pair(self, line: int, new_counter: int) -> bool:
        """Osiris bound: must this unpaired write escalate to a pair?"""
        return False

    def note_counter_persist(
        self, group_base: int, counters: Tuple[int, ...], effective_ns: float
    ) -> float:
        """Hook on every counter-line persist; returns the settle time."""
        return effective_ns

    def verify_counter_fetch(self, data_address: int, request_ns: float) -> float:
        """Hook on every counter-line fetch; returns the trust time."""
        return request_ns

    def on_ccwb(self, request_ns: float) -> None:
        """Hook after a ccwb counter flush (lazy mode drains here)."""


class TreePersistence(NoIntegrity):
    """Shared Bonsai-tree machinery of the eager and lazy modes."""

    def __init__(self, ctrl: "MemoryController", config: SystemConfig, policy: DesignPolicy) -> None:
        super().__init__(ctrl, config, policy)
        self.tree = IntegrityTreeEngine(
            config.encryption, ctrl.address_map, arity=config.integrity.arity
        )
        self.tree_cache = TreeNodeCache(config.integrity.node_cache_entries)
        self.tree_queue = WriteQueue(
            "tree-wq",
            config.integrity.tree_write_queue_entries,
            coalesce=config.controller.coalesce_writes,
            entry_ids=ctrl.entry_ids,
        )
        self._max_counter_lag = config.integrity.max_counter_lag
        self._magic = policy.magic_counter_persistence

    def should_force_pair(self, line: int, new_counter: int) -> bool:
        if self._magic:
            return False
        return new_counter - self.ctrl.counter_store.read(line) > self._max_counter_lag

    def persist_tree_node(self, node: TreeNode, request_ns: float) -> float:
        """Send one tree node's current digest to NVM.

        Pure traffic: tree writes carry no journal records because a
        crash never needs them back — recovery rebuilds interior nodes
        from the persisted counters and checks the secure register.
        Repeated writes of a hot upper node coalesce in the tree queue.
        Returns when the node's digest is durable in the array (the
        point an eager/strict-ordering caller must wait for).
        """
        ctrl = self.ctrl
        queue = self.tree_queue
        assert self.tree is not None and queue is not None
        address = self.tree.node_address(node)
        entry = queue.probe(address, request_ns)
        if entry is not None:
            queue.merge(entry, None, 0)
            drain_ns = entry.drain_ns
            ctrl.records.append((TREE_NODE, address, True, drain_ns))
            return request_ns if request_ns >= drain_ns else drain_ns
        entry = queue.accept(address, request_ns, None, False)
        accept_ns = entry.accept_ns
        issue, drain = ctrl.drain_write("tree", address, accept_ns, CACHE_LINE_SIZE)
        queue.schedule(entry, accept_ns, issue, drain)
        ctrl.records.append((TREE_NODE, address, False, drain))
        return drain

    def verify_counter_fetch(self, data_address: int, request_ns: float) -> float:
        """Authenticate a counter-line fetch against the tree.

        Walks the leaf-to-root path bottom-up; the walk stops at the
        first node already in the on-chip node cache (a cached node is
        trusted — it was verified on its way in).  Uncached nodes cost
        a real 64 B NVM read each.  Returns when the fetched counters
        are trusted.
        """
        ctrl = self.ctrl
        assert self.tree is not None and self.tree_cache is not None
        group_base = ctrl.address_map.data_group_base(data_address)
        if not self.tree.verify_leaf(
            group_base, ctrl.counter_store.read_counter_line(group_base)
        ):
            raise SimulationError(
                "integrity-tree mismatch for counter line of group 0x%x" % group_base
            )
        ctrl.records.append((TREE_VERIFY, group_base, request_ns))
        address_map = ctrl.address_map
        arrival = request_ns
        index = self.tree.leaf_index(group_base)
        for level in range(self.tree.levels):
            node = (level, index)
            if self.tree_cache.touch(node):
                break
            address = self.tree.node_address(node)
            complete = ctrl.banks.schedule_read(
                address_map.bank_of(address), request_ns, address_map.row_of(address)
            )
            node_arrival = ctrl.bus.schedule_transfer(complete, CACHE_LINE_SIZE)
            arrival = max(arrival, node_arrival)
            ctrl.records.append((TREE_FILL, address, CACHE_LINE_SIZE))
            evicted = self.tree_cache.insert(node, dirty=False)
            if evicted is not None:
                self.persist_tree_node(evicted, request_ns)
            index //= self.tree.arity
        return arrival


class EagerTreePersistence(TreePersistence):
    """Freij-style strict ordering: the root path drains per persist.

    The eager discipline takes no ADR cover for metadata — that is
    Freij's premise — so a write is not architecturally persistent
    until its whole root path has *drained* to the array, and the
    returned settle time extends the caller's acceptance ticket.
    """

    mode = "eager"

    def note_counter_persist(
        self, group_base: int, counters: Tuple[int, ...], effective_ns: float
    ) -> float:
        assert self.tree is not None and self.tree_cache is not None
        path = self.tree.update_group(group_base, counters)
        self.ctrl.records.append((ROOT_UPDATE, group_base, effective_ns))
        settled_ns = effective_ns
        for node in path:
            evicted = self.tree_cache.insert(node, dirty=False)
            if evicted is not None:
                self.persist_tree_node(evicted, effective_ns)
            settled_ns = max(settled_ns, self.persist_tree_node(node, effective_ns))
        return settled_ns


class LazyTreePersistence(TreePersistence):
    """Phoenix-style relaxation: dirty nodes coalesce on chip.

    Interior nodes reach NVM at node-cache evictions and at
    ``counter_cache_writeback()`` — the paper's persistence point — so
    the NVM tree catches up exactly when the counters do.  The write
    itself has no ordering obligation (interior nodes are
    reconstructible from persisted leaves) and settles unchanged.
    """

    mode = "lazy"

    def note_counter_persist(
        self, group_base: int, counters: Tuple[int, ...], effective_ns: float
    ) -> float:
        assert self.tree is not None and self.tree_cache is not None
        path = self.tree.update_group(group_base, counters)
        self.ctrl.records.append((ROOT_UPDATE, group_base, effective_ns))
        for node in path:
            evicted = self.tree_cache.insert(node, dirty=True)
            if evicted is not None:
                self.persist_tree_node(evicted, effective_ns)
        return effective_ns

    def on_ccwb(self, request_ns: float) -> None:
        # Piggyback on the paper's persistence point: flush every
        # coalesced dirty tree node here, so the NVM tree catches up
        # exactly when the counters do.
        assert self.tree_cache is not None
        dirty = self.tree_cache.flush_dirty()
        for node in dirty:
            self.persist_tree_node(node, request_ns)
        self.ctrl.records.append((CCWB_TREE_FLUSH, request_ns, len(dirty)))


def build_integrity(
    ctrl: "MemoryController", config: SystemConfig, policy: DesignPolicy
) -> NoIntegrity:
    """Instantiate the integrity strategy for a design's axis value.

    The persistence mode comes from the design when pinned
    (``policy.integrity_mode``) and falls back to
    ``IntegrityConfig.mode`` otherwise, matching the pre-decomposition
    controller's resolution order.
    """
    if not policy.integrity_tree:
        return NoIntegrity(ctrl, config, policy)
    mode = policy.integrity_mode or config.integrity.mode
    cls = EagerTreePersistence if mode == "eager" else LazyTreePersistence
    return cls(ctrl, config, policy)
