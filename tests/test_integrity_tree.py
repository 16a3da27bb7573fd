"""Unit tests for the Bonsai tree engine and the tree-node cache."""

import random

import pytest

from repro.config import CACHE_LINE_SIZE, COUNTERS_PER_LINE, EncryptionConfig
from repro.crypto.counter_cache import GROUP_SPAN
from repro.crypto.prf import NP_BATCH_MIN
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
