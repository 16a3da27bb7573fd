"""The Bonsai Merkle Tree over the counter region.

Geometry
--------

The tree authenticates the *counter store*, not the data region: with
per-line MACs riding in the ECC lanes (``repro.crypto.integrity``),
protecting the counters transitively protects the data, which is what
makes the Bonsai tree orders of magnitude smaller than a full-memory
tree.  One level-0 node digests one 64 B counter line (= the eight
counters of one data-line group); each interior node digests ``arity``
children; the root lives in a crash-safe secure register on the
controller, never in NVM.

Digests are single u64 values produced by a keyed SplitMix64 chain —
the same simulation-substitute trade as :mod:`repro.crypto.prf`: fast,
deterministic, input-sensitive, and explicitly **not** cryptographic.
Node indices are deliberately *not* absorbed into the digest, so every
untouched node at a level shares one precomputed default digest and
the tree can stay sparse (only touched paths are materialized).

Crash semantics
---------------

The engine is on-chip (volatile) working state; NVM persistence of
tree nodes is traffic/latency modeling handled by the memory
controller.  What survives a crash is (a) the secure root register and
(b) whatever counter lines persisted — interior nodes are always
reconstructible from the persisted leaves (:meth:`root_over`), the
Phoenix observation that makes tree-node writes journal-free.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..config import CACHE_LINE_SIZE, COUNTERS_PER_LINE, EncryptionConfig
from ..crypto.counter_cache import GROUP_SPAN
from ..crypto.prf import (
    NP_BATCH_MIN,
    SplitMixPRF,
    _splitmix64,
    _splitmix64_chain,
    _splitmix64_words,
)
from ..errors import AddressError, ConfigurationError
from ..nvm.address import AddressMap
from ..utils.accel import np as _np
from ..utils.bitops import align_down, is_power_of_two

__all__ = ["IntegrityTreeEngine", "TreeNode", "derive_tree_key"]

#: A tree node is identified by ``(level, index)``: level 0 holds the
#: counter-line digests, the root sits alone at ``engine.levels``.
TreeNode = Tuple[int, int]

_TWO_U64 = struct.Struct("<QQ")

#: Domain-separation constants so a leaf digest can never collide with
#: an interior digest over the same values.
_LEAF_DOMAIN = 0x9D1B0F5B1E4C68A1
_NODE_DOMAIN = 0x6E2A9C47D3B185F3

#: Address bits below a line, and line-index bits below a leaf.
_LINE_BITS = CACHE_LINE_SIZE.bit_length() - 1
_SLOT_BITS = COUNTERS_PER_LINE.bit_length() - 1

if _np is not None:
    _U64 = _np.dtype("<u8")


def derive_tree_key(config: EncryptionConfig) -> int:
    """Derive an independent u64 tree-hash key from the encryption key."""
    mixer = SplitMixPRF(config.key)
    lo, hi = _TWO_U64.unpack(mixer.encrypt_block(b"bmt-tree-hash-ky"))
    return lo ^ hi


class IntegrityTreeEngine:
    """Sparse keyed hash tree over counter lines, with a secure root.

    ``update_group`` is the hot path: one counter-line change hashes
    its leaf right away and marks it stale.  The interior nodes and
    the root settle when next read — through :attr:`root`, an interior
    :meth:`node_digest` or :meth:`get_state` — in one pass per level
    that hashes each parent of a stale node once.  An interior digest
    is a pure function of its children's current digests, so a read
    sees exactly what re-hashing the path on every update would give.
    ``root_over`` rebuilds the root from scratch over a persisted
    counter mapping — the post-crash verification walk.
    """

    def __init__(
        self,
        encryption: EncryptionConfig,
        address_map: AddressMap,
        arity: int = COUNTERS_PER_LINE,
    ) -> None:
        if not is_power_of_two(arity) or arity < 2:
            raise ConfigurationError("tree arity must be a power of two >= 2")
        self.arity = arity
        self._arity_bits = arity.bit_length() - 1
        self.counter_region_base = address_map.counter_region_base
        self.counter_region_bytes = address_map.counter_region_bytes
        #: One leaf per data-line group (= per counter line).
        self.num_leaves = max(
            1, -(-address_map.data_region_bytes // GROUP_SPAN)
        )
        levels = 1
        while arity ** levels < self.num_leaves:
            levels += 1
        #: Root level; persistable node levels are ``0 .. levels - 1``.
        self.levels = levels
        key = derive_tree_key(encryption)
        # Each domain's first chain step, hashed once.
        self._leaf_seed = _splitmix64(key ^ _LEAF_DOMAIN)
        self._node_seed = _splitmix64(key ^ _NODE_DOMAIN)
        # Default digest of an untouched node, per level: level 0 is
        # the digest of eight zero counters, level L+1 the digest of
        # ``arity`` level-L defaults.  Uniform within a level because
        # indices are not absorbed.
        defaults = [_splitmix64_chain(self._leaf_seed, (0,) * COUNTERS_PER_LINE)]
        for _ in range(levels):
            defaults.append(_splitmix64_chain(self._node_seed, (defaults[-1],) * arity))
        self._defaults = defaults
        # Touched nodes in first-touch order.  An interior node (level
        # >= 1) holds None from its first update until a read settles
        # it; level 0 always holds the leaf's current digest.
        self._nodes: Dict[TreeNode, Optional[int]] = {}
        #: Leaf indices updated since the interior nodes last settled.
        self._stale: Set[int] = set()
        self._root = defaults[levels]
        # Node placement: the first line of each level in the packed
        # layout (level 0 spans ``arity ** levels`` lines, each level
        # above an ``arity``-th of the one below).
        offsets = [0]
        capacity = arity**levels
        for _ in range(levels):
            offsets.append(offsets[-1] + capacity)
            capacity //= arity
        self._level_offsets = offsets
        self._placement_span = align_down(self.counter_region_bytes, CACHE_LINE_SIZE)

    # -- digest primitives ---------------------------------------------------

    def leaf_digest(self, counters: Tuple[int, ...]) -> int:
        """Digest of one counter line (eight counter values)."""
        if len(counters) != COUNTERS_PER_LINE:
            raise AddressError(
                "a tree leaf digests exactly %d counters" % COUNTERS_PER_LINE
            )
        return _splitmix64_chain(self._leaf_seed, counters)

    def node_digest(self, node: TreeNode) -> int:
        """Current digest of a node (default if never touched)."""
        if node[0] and self._stale:
            self._settle()
        digest = self._nodes.get(node)
        return self._defaults[node[0]] if digest is None else digest

    @property
    def root(self) -> int:
        """The secure register: root digest over the covered counters."""
        if self._stale:
            self._settle()
        return self._root

    def _settle(self) -> None:
        """Hash every interior node above a stale leaf, once, level by level."""
        nodes = self._nodes
        get = nodes.get
        chain = _splitmix64_chain
        seed = self._node_seed
        bits = self._arity_bits
        width = range(self.arity)
        children = self._stale
        for level in range(1, self.levels + 1):
            below = level - 1
            child_default = self._defaults[below]
            parents = {index >> bits for index in children}
            for parent in parents:
                base = parent << bits
                digest = chain(seed, [get((below, base + k), child_default) for k in width])
                nodes[(level, parent)] = digest
            children = parents
        # The top level has one node, the root.
        self._root = digest
        self._stale = set()

    # -- incremental update (the runtime hot path) ---------------------------

    def leaf_index(self, group_base: int) -> int:
        """Leaf index covering the data-line group at ``group_base``."""
        if group_base % GROUP_SPAN != 0:
            raise AddressError("0x%x is not a group base" % group_base)
        index = group_base // GROUP_SPAN
        if index < 0 or index >= self.num_leaves:
            raise AddressError("group 0x%x outside the covered data region" % group_base)
        return index

    def update_group(
        self, group_base: int, counters: Tuple[int, ...]
    ) -> List[TreeNode]:
        """Hash one changed counter line's leaf; its path settles on read.

        Returns the *persistable* path nodes, leaf-to-top (levels
        ``0 .. levels - 1``).  The root is updated in the secure
        register and is never written to NVM, so it is not in the path.
        The interior nodes and the root are hashed by the next read
        (:attr:`root`); here they only keep their first-touch place in
        the node map.
        """
        index = self.leaf_index(group_base)
        nodes = self._nodes
        nodes[(0, index)] = self.leaf_digest(counters)
        self._stale.add(index)
        reserve = nodes.setdefault
        bits = self._arity_bits
        path: List[TreeNode] = [(0, index)]
        for level in range(1, self.levels):
            index >>= bits
            node = (level, index)
            reserve(node, None)
            path.append(node)
        reserve((self.levels, 0), None)
        return path

    def verify_leaf(self, group_base: int, counters: Tuple[int, ...]) -> bool:
        """Check a fetched counter line against the tree (runtime verify)."""
        node = (0, self.leaf_index(group_base))
        return self.leaf_digest(counters) == self.node_digest(node)

    # -- from-scratch rebuild (the post-crash walk) --------------------------

    def root_over(self, counters: Mapping[int, int]) -> int:
        """Root digest over a persisted counter mapping.

        ``counters`` maps data-line address -> counter value (the
        :meth:`repro.crypto.counters.CounterStore.snapshot` shape);
        absent lines implicitly hold 0.  The rebuild is sparse: only
        touched subtrees are hashed, everything else is a default.

        With numpy loaded and at least :data:`~repro.crypto.prf.NP_BATCH_MIN`
        leaf groups, the counters are grouped as arrays and each level is
        hashed as uint64 lanes while it has that many nodes; the scalar
        walk hashes the levels above.  Otherwise the scalar walk does it
        all, and it stays the reference.
        """
        if _np is not None and len(counters) >= NP_BATCH_MIN:
            lanes = self._lane_levels(counters)
            if lanes is not None:
                return self._walk_up(*lanes)
        return self._walk_up(0, self._leaf_digests(counters))

    def _leaf_digests(self, counters: Mapping[int, int]) -> Dict[int, int]:
        """Scalar grouping by leaf: ``{leaf index: leaf digest}``."""
        groups: Dict[int, List[int]] = {}
        for line_address, value in counters.items():
            group = align_down(line_address, GROUP_SPAN)
            slot = (line_address // CACHE_LINE_SIZE) % COUNTERS_PER_LINE
            groups.setdefault(group, [0] * COUNTERS_PER_LINE)[slot] = value
        return {
            self.leaf_index(group): self.leaf_digest(tuple(values))
            for group, values in groups.items()
        }

    def _walk_up(self, start: int, level_digests: Dict[int, int]) -> int:
        """Scalar walk from level ``start``'s ``{node index: digest}`` to the root."""
        arity = self.arity
        for level in range(start + 1, self.levels + 1):
            child_default = self._defaults[level - 1]
            parents: Dict[int, int] = {}
            for parent in {i // arity for i in level_digests}:
                base = parent * arity
                parents[parent] = _splitmix64_chain(
                    self._node_seed,
                    [
                        level_digests.get(base + k, child_default)
                        for k in range(arity)
                    ],
                )
            level_digests = parents
        return level_digests.get(0, self._defaults[self.levels])

    @staticmethod
    def _chain_lanes(seed: int, table):
        """:func:`_splitmix64_chain` down each column of a uint64 table.

        ``table`` is ``(width, nodes)``: one column per node.
        """
        state = _np.full(table.shape[1], seed, dtype=_U64)
        for row in table:
            state = _splitmix64_words(state ^ row)
        return state

    def _lane_levels(
        self, counters: Mapping[int, int]
    ) -> Optional[Tuple[int, Dict[int, int]]]:
        """Group ``counters`` by leaf and hash levels as uint64 lanes.

        Each level is hashed as lanes while it has at least
        ``NP_BATCH_MIN`` nodes.  Returns the last level hashed and its
        ``{node index: digest}``, for :meth:`_walk_up` to finish; None
        when the leaves are too few, or when an address or value does
        not fit the lanes (the scalar path then hashes it or raises).
        """
        count = len(counters)
        try:
            addresses = _np.fromiter(counters, dtype=_np.int64, count=count)
            digests = _np.fromiter(counters.values(), dtype=_U64, count=count)
        except OverflowError:
            return None
        if addresses.min() < 0 or addresses.max() >= self.num_leaves * GROUP_SPAN:
            return None
        children = addresses >> _LINE_BITS
        # Stable, so a line given twice (two addresses in one line) keeps
        # mapping order; the last one wins, as in the scalar grouping.
        order = _np.argsort(children, kind="stable")
        children = children[order]
        digests = digests[order]
        last = _np.ones(count, dtype=bool)
        last[:-1] = children[1:] != children[:-1]
        children = children[last]
        digests = digests[last]
        # Level -1 is the counter slots: their parents are the leaves.
        level = -1
        bits, fill, seed = _SLOT_BITS, 0, self._leaf_seed
        while level < self.levels:
            parents = children >> bits
            first = _np.ones(len(parents), dtype=bool)
            first[1:] = parents[1:] != parents[:-1]
            nodes = parents[first]
            if len(nodes) < NP_BATCH_MIN:
                break
            # Column = parent, row = child position; absent children
            # keep their level's default digest.
            table = _np.full((1 << bits, len(nodes)), fill, dtype=_U64)
            table[children & ((1 << bits) - 1), _np.cumsum(first) - 1] = digests
            digests = self._chain_lanes(seed, table)
            children = nodes
            level += 1
            bits, fill, seed = self._arity_bits, self._defaults[level], self._node_seed
        if level < 0:
            return None
        return level, dict(zip(children.tolist(), digests.tolist()))

    def rebuild(self, counters: Mapping[int, int]) -> int:
        """Reset the working tree to cover ``counters`` (Phoenix recovery).

        Drops all materialized nodes and pending updates (nodes are
        lazily re-derived as defaults plus fresh updates) and reseals
        the root.
        """
        self._nodes.clear()
        self._stale = set()
        self._root = self._defaults[self.levels]
        for line_address, value in sorted(counters.items()):
            group = align_down(line_address, GROUP_SPAN)
            # Re-insert whole groups once; update_group digests all 8 slots.
            if (0, group // GROUP_SPAN) in self._nodes:
                continue
            values = [0] * COUNTERS_PER_LINE
            for slot in range(COUNTERS_PER_LINE):
                values[slot] = counters.get(group + slot * CACHE_LINE_SIZE, 0)
            self.update_group(group, tuple(values))
        return self.root

    # -- NVM placement --------------------------------------------------------

    def node_address(self, node: TreeNode) -> int:
        """Pseudo NVM address of a tree node, for bank scheduling only.

        Tree nodes notionally live alongside the counters; the exact
        placement only influences bank/row arithmetic in the timing
        model, so levels are packed densely and wrapped into the
        counter region.
        """
        level, index = node
        line = self._level_offsets[level] + index
        return self.counter_region_base + (line * CACHE_LINE_SIZE) % self._placement_span

    # -- checkpoint state -----------------------------------------------------

    def get_state(self) -> Dict[str, object]:
        root = self.root  # settles the interior nodes first
        return {
            "nodes": [(level, index, digest) for (level, index), digest in self._nodes.items()],
            "root": root,
        }

    def set_state(self, state: Dict[str, object]) -> None:
        self._nodes = {
            (level, index): digest for level, index, digest in state["nodes"]
        }
        self._stale = set()
        self._root = state["root"]
