"""Unit tests for the Bonsai tree engine and the tree-node cache."""

import random

import pytest

from repro.config import CACHE_LINE_SIZE, COUNTERS_PER_LINE, EncryptionConfig
from repro.crypto.counter_cache import GROUP_SPAN
from repro.crypto.prf import NP_BATCH_MIN, _splitmix64
from repro.errors import AddressError, ConfigurationError
from repro.integrity import IntegrityTreeEngine, TreeNodeCache, derive_tree_key
from repro.integrity import tree as tree_module
from repro.nvm.address import AddressMap

MAX_COUNTER = (1 << 48) - 1


def make_engine(memory_kb=64, arity=COUNTERS_PER_LINE):
    return IntegrityTreeEngine(
        EncryptionConfig(),
        AddressMap(memory_size_bytes=memory_kb * 1024),
        arity=arity,
    )


def populate(engine, groups, salt=1):
    """Update ``groups`` counter lines; returns the equivalent mapping."""
    counters = {}
    for group in range(groups):
        base = group * GROUP_SPAN
        values = tuple(group * COUNTERS_PER_LINE + i + salt for i in range(COUNTERS_PER_LINE))
        engine.update_group(base, values)
        for i, value in enumerate(values):
            counters[base + i * CACHE_LINE_SIZE] = value
    return counters


class TestTreeEngine:
    def test_empty_root_matches_empty_rebuild(self):
        engine = make_engine()
        assert engine.root == engine.root_over({})

    def test_incremental_update_matches_from_scratch_rebuild(self):
        engine = make_engine()
        counters = populate(engine, groups=13)
        assert engine.root == engine.root_over(counters)
        # Overwriting a group moves the root and stays consistent.
        before = engine.root
        engine.update_group(0, tuple(range(100, 100 + COUNTERS_PER_LINE)))
        for i in range(COUNTERS_PER_LINE):
            counters[i * CACHE_LINE_SIZE] = 100 + i
        assert engine.root != before
        assert engine.root == engine.root_over(counters)

    def test_update_returns_persistable_path_without_root(self):
        engine = make_engine()
        path = engine.update_group(0, (1,) * COUNTERS_PER_LINE)
        assert len(path) == engine.levels
        assert [level for level, _index in path] == list(range(engine.levels))
        # The root level never appears: it lives in the secure register.
        assert all(level < engine.levels for level, _index in path)

    def test_verify_leaf(self):
        engine = make_engine()
        values = tuple(range(1, COUNTERS_PER_LINE + 1))
        engine.update_group(GROUP_SPAN, values)
        assert engine.verify_leaf(GROUP_SPAN, values)
        tampered = (99,) + values[1:]
        assert not engine.verify_leaf(GROUP_SPAN, tampered)

    def test_leaf_index_validation(self):
        engine = make_engine()
        with pytest.raises(AddressError):
            engine.leaf_index(GROUP_SPAN + CACHE_LINE_SIZE)  # not a group base
        with pytest.raises(AddressError):
            engine.leaf_index(engine.num_leaves * GROUP_SPAN)  # out of region

    def test_leaf_digest_requires_full_line(self):
        engine = make_engine()
        with pytest.raises(AddressError):
            engine.leaf_digest((1, 2, 3))

    def test_rebuild_reseals_to_the_rebuilt_root(self):
        engine = make_engine()
        counters = populate(engine, groups=5)
        expected = engine.root_over(counters)
        dirty = make_engine()
        populate(dirty, groups=9, salt=7)  # unrelated working state
        assert dirty.rebuild(counters) == expected
        assert dirty.root == expected

    def test_node_addresses_line_aligned_in_counter_region(self):
        engine = make_engine()
        engine.update_group(0, (1,) * COUNTERS_PER_LINE)
        for node in list(engine._nodes):
            address = engine.node_address(node)
            assert address % CACHE_LINE_SIZE == 0
            assert engine.counter_region_base <= address
            assert address < engine.counter_region_base + engine.counter_region_bytes

    def test_state_roundtrip_preserves_root_and_verification(self):
        engine = make_engine()
        counters = populate(engine, groups=4)
        clone = make_engine()
        clone.set_state(engine.get_state())
        assert clone.root == engine.root
        assert clone.root == clone.root_over(counters)

    def test_key_derivation_is_deterministic_and_key_dependent(self):
        config = EncryptionConfig()
        other = EncryptionConfig(key=b"a-different-key!"[:16])
        assert derive_tree_key(config) == derive_tree_key(config)
        assert derive_tree_key(config) != derive_tree_key(other)
        # Different keys produce different digests over the same data.
        a = IntegrityTreeEngine(config, AddressMap(memory_size_bytes=64 * 1024))
        b = IntegrityTreeEngine(other, AddressMap(memory_size_bytes=64 * 1024))
        values = (5,) * COUNTERS_PER_LINE
        assert a.leaf_digest(values) != b.leaf_digest(values)

    def test_arity_must_be_power_of_two(self):
        for arity in (0, 1, 3, 6):
            with pytest.raises(ConfigurationError):
                make_engine(arity=arity)
        wide = make_engine(arity=16)
        assert wide.levels >= 1


def incremental_root(fresh, counters):
    """Reference root: one ``update_group`` per group on the ``fresh`` engine.

    Groups the mapping the way ``root_over`` does: absent slots hold 0
    and a line given twice keeps the later value.
    """
    groups = {}
    for address, value in counters.items():
        slot = (address // CACHE_LINE_SIZE) % COUNTERS_PER_LINE
        groups.setdefault(address - address % GROUP_SPAN, [0] * COUNTERS_PER_LINE)[slot] = value
    for base, values in groups.items():
        fresh.update_group(base, tuple(values))
    return fresh.root


def spread_counters(engine, groups, seed):
    """``groups`` leaf groups across the whole region, first and last leaf
    included (distant subtrees), counters 0 and 2**48-1 among the values,
    in shuffled mapping order."""
    rng = random.Random(seed)
    leaves = set(rng.sample(range(1, engine.num_leaves - 1), max(0, groups - 2)))
    leaves |= {0, engine.num_leaves - 1}
    leaves = sorted(leaves)[:groups]
    items = []
    for leaf in leaves:
        for slot in rng.sample(range(COUNTERS_PER_LINE), rng.randint(1, COUNTERS_PER_LINE)):
            value = rng.choice((0, MAX_COUNTER, rng.randrange(1, MAX_COUNTER)))
            items.append((leaf * GROUP_SPAN + slot * CACHE_LINE_SIZE, value))
    rng.shuffle(items)
    return dict(items)


def scalar_root(engine, counters, monkeypatch):
    """``root_over`` with the numpy lanes switched off: the scalar walk."""
    with monkeypatch.context() as patch:
        patch.setattr(tree_module, "_np", None)
        return engine.root_over(counters)


class TestRootOverLanes:
    """``root_over`` is one root whichever way each level is hashed.

    With numpy, levels of at least ``NP_BATCH_MIN`` nodes are hashed as
    uint64 lanes; the scalar walk and a per-group ``update_group``
    replay are the references.  Without numpy all three are scalar.
    """

    @pytest.mark.parametrize("arity", [2, COUNTERS_PER_LINE])
    @pytest.mark.parametrize(
        "groups", [0, 1, NP_BATCH_MIN - 1, NP_BATCH_MIN, NP_BATCH_MIN + 1, 1000]
    )
    def test_lanes_match_scalar_walk(self, groups, arity, monkeypatch):
        engine = make_engine(memory_kb=4096, arity=arity)
        counters = spread_counters(engine, groups, seed=groups * 7 + arity)
        root = engine.root_over(counters)
        assert root == scalar_root(engine, counters, monkeypatch)
        assert root == incremental_root(make_engine(memory_kb=4096, arity=arity), counters)

    def test_extreme_counters_in_every_slot(self, monkeypatch):
        engine = make_engine(memory_kb=1024)
        for value in (0, MAX_COUNTER):
            counters = {
                leaf * GROUP_SPAN + slot * CACHE_LINE_SIZE: value
                for leaf in range(0, engine.num_leaves, 17)
                for slot in range(COUNTERS_PER_LINE)
            }
            root = engine.root_over(counters)
            assert root == scalar_root(engine, counters, monkeypatch)
            assert root == incremental_root(make_engine(memory_kb=1024), counters)

    def test_values_beyond_uint64_take_the_scalar_walk(self, monkeypatch):
        engine = make_engine(memory_kb=1024)
        counters = spread_counters(engine, 40, seed=9)
        first, second = list(counters)[:2]
        counters[first] = -1
        counters[second] = (1 << 70) + 5
        assert engine.root_over(counters) == scalar_root(engine, counters, monkeypatch)

    def test_line_given_twice_keeps_the_later_value(self, monkeypatch):
        engine = make_engine(memory_kb=1024)
        counters = spread_counters(engine, 40, seed=3)
        first = next(iter(counters))
        counters[first + 8] = 12345  # same line, later in mapping order
        root = engine.root_over(counters)
        assert root == scalar_root(engine, counters, monkeypatch)
        assert root == incremental_root(make_engine(memory_kb=1024), counters)

    @pytest.mark.parametrize("outside", [-CACHE_LINE_SIZE, "end"])
    def test_address_outside_the_region_raises_on_both_paths(self, outside, monkeypatch):
        engine = make_engine(memory_kb=1024)
        counters = spread_counters(engine, 40, seed=5)
        address = engine.num_leaves * GROUP_SPAN if outside == "end" else outside
        counters[address] = 1
        with pytest.raises(AddressError):
            engine.root_over(counters)
        with pytest.raises(AddressError):
            scalar_root(engine, counters, monkeypatch)


class EagerReferenceTree:
    """The tree as it was hashed eagerly: every ``update_group``
    re-hashes the whole leaf-to-root path and the root.

    Geometry and the key come from ``engine``; the chain is the plain
    per-step ``_splitmix64`` loop, and nothing else of the engine is
    used.
    """

    def __init__(self, engine):
        self.arity = engine.arity
        self.levels = engine.levels
        self.num_leaves = engine.num_leaves
        self.key = derive_tree_key(EncryptionConfig())
        defaults = [self.chain(tree_module._LEAF_DOMAIN, (0,) * COUNTERS_PER_LINE)]
        for _ in range(self.levels):
            defaults.append(self.chain(tree_module._NODE_DOMAIN, (defaults[-1],) * self.arity))
        self.defaults = defaults
        self.nodes = {}
        self.root = defaults[self.levels]

    def chain(self, domain, values):
        state = _splitmix64(self.key ^ domain)
        for value in values:
            state = _splitmix64(state ^ value)
        return state

    def update_group(self, group_base, counters):
        index = group_base // GROUP_SPAN
        assert 0 <= index < self.num_leaves and group_base % GROUP_SPAN == 0
        self.nodes[(0, index)] = self.chain(tree_module._LEAF_DOMAIN, counters)
        path = [(0, index)]
        for level in range(1, self.levels + 1):
            index //= self.arity
            base = index * self.arity
            child_default = self.defaults[level - 1]
            digest = self.chain(
                tree_module._NODE_DOMAIN,
                [self.nodes.get((level - 1, base + k), child_default) for k in range(self.arity)],
            )
            self.nodes[(level, index)] = digest
            if level < self.levels:
                path.append((level, index))
        self.root = digest
        return path

    def node_digest(self, node):
        return self.nodes.get(node, self.defaults[node[0]])

    def get_state(self):
        return {
            "nodes": [(level, index, digest) for (level, index), digest in self.nodes.items()],
            "root": self.root,
        }

    def set_state(self, state):
        self.nodes = {(level, index): digest for level, index, digest in state["nodes"]}
        self.root = state["root"]

    def rebuild(self, counters):
        """The eager rebuild: drop every node, then one update per group."""
        self.nodes.clear()
        self.root = self.defaults[self.levels]
        for line_address in sorted(counters):
            group = line_address - line_address % GROUP_SPAN
            if (0, group // GROUP_SPAN) in self.nodes:
                continue
            self.update_group(
                group,
                tuple(
                    counters.get(group + slot * CACHE_LINE_SIZE, 0)
                    for slot in range(COUNTERS_PER_LINE)
                ),
            )
        return self.root


def leaf_walk(num_leaves, rng, count):
    """Seeded leaf indices: the same group again, an adjacent group, a
    distant group or the last leaf, in random turns."""
    last = num_leaves - 1
    current = rng.randrange(num_leaves)
    leaves = [current, current]
    while len(leaves) < count:
        pick = rng.random()
        if pick < 0.2:
            pass
        elif pick < 0.45:
            current = min(last, max(0, current + rng.choice((-1, 1))))
        elif pick < 0.85:
            current = rng.randrange(num_leaves)
        else:
            current = last
        leaves.append(current)
    return leaves


def counter_line(rng):
    return tuple(
        rng.choice((0, MAX_COUNTER, rng.randrange(1, MAX_COUNTER)))
        for _ in range(COUNTERS_PER_LINE)
    )


def assert_same_tree(engine, reference):
    assert engine.get_state() == reference.get_state()  # node order included
    assert engine.root == reference.root


def read_and_compare(engine, reference, rng, leaf):
    """One random read of the engine, checked against the reference."""
    kind = rng.randrange(3)
    if kind == 0:
        assert engine.root == reference.root
    elif kind == 1:
        # An interior node on the updated path, or anywhere on its level.
        level = rng.randint(1, engine.levels)
        shift = engine._arity_bits * level
        index = rng.choice((leaf >> shift, rng.randrange(max(1, engine.num_leaves >> shift))))
        assert engine.node_digest((level, index)) == reference.node_digest((level, index))
    else:
        assert_same_tree(engine, reference)


class TestSettleOnRead:
    """Interior digests hashed on read equal the eager per-update path.

    The reference is the eager ``update_group`` above; every sequence
    compares the returned paths, and reads of the root, of interior
    ``node_digest`` and of ``get_state()`` (node order included).
    """

    @pytest.mark.parametrize("arity", [2, COUNTERS_PER_LINE])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("read_every", [0, 1, 5])
    def test_matches_eager_reference(self, arity, seed, read_every):
        rng = random.Random(seed * 100 + arity * 10 + read_every)
        engine = make_engine(memory_kb=1024, arity=arity)
        reference = EagerReferenceTree(engine)
        for step, leaf in enumerate(leaf_walk(engine.num_leaves, rng, 120)):
            counters = counter_line(rng)
            assert engine.update_group(leaf * GROUP_SPAN, counters) == reference.update_group(
                leaf * GROUP_SPAN, counters
            )
            if read_every and step % read_every == 0:
                read_and_compare(engine, reference, rng, leaf)
        assert_same_tree(engine, reference)

    def test_each_interior_node_hashed_once_per_read(self, monkeypatch):
        engine = make_engine(memory_kb=1024)
        for leaf in (0, 1, 2, 9, engine.num_leaves - 1):
            engine.update_group(leaf * GROUP_SPAN, (leaf,) * COUNTERS_PER_LINE)
        interior = {node for node in engine._nodes if node[0] >= 1}
        calls = []
        chain = tree_module._splitmix64_chain
        monkeypatch.setattr(
            tree_module,
            "_splitmix64_chain",
            lambda seed, values: calls.append(1) or chain(seed, values),
        )
        engine.root
        assert len(calls) == len(interior)
        engine.root
        engine.get_state()
        assert len(calls) == len(interior)

    @pytest.mark.parametrize("pending", [False, True])
    def test_set_state_then_updates(self, pending):
        rng = random.Random(11)
        source = make_engine(memory_kb=1024)
        reference = EagerReferenceTree(source)
        for leaf in leaf_walk(source.num_leaves, rng, 30):
            counters = counter_line(rng)
            source.update_group(leaf * GROUP_SPAN, counters)
            reference.update_group(leaf * GROUP_SPAN, counters)
        state = source.get_state()
        engine = make_engine(memory_kb=1024)
        if pending:
            # Updates the loaded state must replace, never settle into it.
            populate(engine, groups=6, salt=3)
        engine.set_state(state)
        assert_same_tree(engine, reference)
        for leaf in leaf_walk(engine.num_leaves, rng, 30):
            counters = counter_line(rng)
            assert engine.update_group(leaf * GROUP_SPAN, counters) == reference.update_group(
                leaf * GROUP_SPAN, counters
            )
        assert_same_tree(engine, reference)

    def test_rebuild_with_updates_pending(self):
        rng = random.Random(5)
        engine = make_engine(memory_kb=1024)
        reference = EagerReferenceTree(engine)
        for leaf in leaf_walk(engine.num_leaves, rng, 25):
            engine.update_group(leaf * GROUP_SPAN, counter_line(rng))
        counters = spread_counters(engine, 12, seed=8)
        assert engine.rebuild(counters) == reference.rebuild(counters)
        assert engine.root == engine.root_over(counters)
        assert_same_tree(engine, reference)
        for leaf in leaf_walk(engine.num_leaves, rng, 10):
            counters = counter_line(rng)
            engine.update_group(leaf * GROUP_SPAN, counters)
            reference.update_group(leaf * GROUP_SPAN, counters)
        assert_same_tree(engine, reference)

    def test_rebuild_over_nothing_is_the_empty_root(self):
        engine = make_engine()
        populate(engine, groups=3)  # pending, never read
        assert engine.rebuild({}) == engine.root_over({})
        assert engine.get_state() == {"nodes": [], "root": engine.root_over({})}

    def test_verify_leaf_needs_no_root_read(self):
        rng = random.Random(7)
        engine = make_engine(memory_kb=1024)
        lines = {}
        for leaf in leaf_walk(engine.num_leaves, rng, 40):
            lines[leaf] = counter_line(rng)
            engine.update_group(leaf * GROUP_SPAN, lines[leaf])
        for leaf, counters in lines.items():
            assert engine.verify_leaf(leaf * GROUP_SPAN, counters)
            assert not engine.verify_leaf(leaf * GROUP_SPAN, (counters[0] ^ 1,) + counters[1:])
        untouched = next(leaf for leaf in range(engine.num_leaves) if leaf not in lines)
        assert engine.verify_leaf(untouched * GROUP_SPAN, (0,) * COUNTERS_PER_LINE)
        assert engine._stale  # nothing above the leaves was hashed

    @pytest.mark.parametrize("arity", [2, COUNTERS_PER_LINE])
    def test_node_address_matches_level_walk(self, arity):
        engine = make_engine(memory_kb=1024, arity=arity)
        span = engine.counter_region_bytes - engine.counter_region_bytes % CACHE_LINE_SIZE
        for level in range(engine.levels + 1):
            offset, capacity = 0, arity**engine.levels
            for _ in range(level):
                offset += capacity
                capacity //= arity
            for index in (0, 1, max(0, (engine.num_leaves >> (engine._arity_bits * level)) - 1)):
                expected = engine.counter_region_base + (
                    (offset + index) * CACHE_LINE_SIZE
                ) % span
                assert engine.node_address((level, index)) == expected


class TestTreeNodeCache:
    def test_needs_at_least_one_entry(self):
        with pytest.raises(ConfigurationError):
            TreeNodeCache(0)

    def test_touch_miss_then_insert_hit(self):
        cache = TreeNodeCache(4)
        assert not cache.touch((0, 0))
        assert cache.insert((0, 0), dirty=False) is None
        assert cache.touch((0, 0))
        assert len(cache) == 1

    def test_eviction_returns_only_dirty_victims(self):
        cache = TreeNodeCache(2)
        cache.insert((0, 0), dirty=False)
        cache.insert((0, 1), dirty=True)
        # Clean LRU victim (0, 0) is dropped silently.
        assert cache.insert((0, 2), dirty=True) is None
        # Now (0, 1) is the dirty LRU victim and must be written back.
        assert cache.insert((0, 3), dirty=False) == (0, 1)

    def test_touch_refreshes_lru_order(self):
        cache = TreeNodeCache(2)
        cache.insert((0, 0), dirty=True)
        cache.insert((0, 1), dirty=True)
        cache.touch((0, 0))
        assert cache.insert((0, 2), dirty=False) == (0, 1)

    def test_clean_does_not_refresh_lru_order(self):
        cache = TreeNodeCache(2)
        cache.insert((0, 0), dirty=True)
        cache.insert((0, 1), dirty=True)
        assert cache.clean((0, 0))
        # (0, 0) stays LRU despite the writeback; being clean now, it
        # is dropped without a victim.
        assert cache.insert((0, 2), dirty=False) is None
        assert not cache.contains((0, 0))
        assert cache.contains((0, 1))

    def test_flush_dirty_is_sorted_and_cleans(self):
        cache = TreeNodeCache(8)
        cache.insert((1, 3), dirty=True)
        cache.insert((0, 5), dirty=True)
        cache.insert((0, 1), dirty=False)
        assert cache.flush_dirty() == [(0, 5), (1, 3)]
        assert cache.dirty_count() == 0
        assert cache.flush_dirty() == []

    def test_invalidate_all(self):
        cache = TreeNodeCache(4)
        cache.insert((0, 0), dirty=True)
        cache.invalidate_all()
        assert len(cache) == 0

    def test_state_roundtrip_preserves_order_and_dirty_bits(self):
        cache = TreeNodeCache(2)
        cache.insert((0, 0), dirty=True)
        cache.insert((0, 1), dirty=False)
        clone = TreeNodeCache(2)
        clone.set_state(cache.get_state())
        assert clone.dirty_count() == 1
        # LRU order survived: (0, 0) is still the dirty victim.
        assert clone.insert((0, 2), dirty=False) == (0, 0)
