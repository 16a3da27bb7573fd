"""Property-based testing of the cache hierarchy against a flat model.

Random interleavings of loads, stores, clwbs and evictions-inducing
traffic must always read back the values a flat reference memory
predicts — across both cache levels and the encrypted NVM underneath.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import CACHE_LINE_SIZE, fast_config
from repro.core.designs import get_design
from repro.mem.controller import MemoryController
from repro.mem.hierarchy import CacheHierarchy

# Ops: (kind, line index, offset slot, value byte)
#   kind 0 = load, 1 = store, 2 = clwb.
OPS = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.integers(0, 40),  # spans several cache sets to force evictions
        st.integers(0, 7),
        st.integers(0, 255),
    ),
    min_size=1,
    max_size=150,
)

BASE = 0x20000


def run_ops(ops, design="sca"):
    config = fast_config()
    controller = MemoryController(config, get_design(design))
    hierarchy = CacheHierarchy(config, controller)
    reference = {}
    clock = 0.0
    for kind, line_index, slot, value in ops:
        clock += 10.0
        address = BASE + line_index * CACHE_LINE_SIZE + slot * 8
        if kind == 0:
            hierarchy.load(0, address, 8, clock)
            expected = reference.get(address, bytes(8))
            # The loaded bytes are the L1 line's, which read_current reads first.
            assert hierarchy.l1s[0].contains(address)
            loaded = hierarchy.read_current(0, address, 8)
            assert loaded == expected, "load mismatch at 0x%x" % address
        elif kind == 1:
            payload = bytes([value]) * 8
            hierarchy.store(0, address, payload, 8, clock)
            reference[address] = payload
        else:
            hierarchy.clwb(0, address, clock)
    return hierarchy, reference


class TestHierarchyAgainstReference:
    @pytest.mark.parametrize("design", ["sca", "no-encryption"])
    @given(ops=OPS)
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_loads_always_see_reference_values(self, design, ops):
        run_ops(ops, design)  # assertions inside

    @given(ops=OPS)
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_read_current_agrees_everywhere(self, ops):
        hierarchy, reference = run_ops(ops)
        for address, expected in reference.items():
            assert hierarchy.read_current(0, address, 8) == expected

    @given(ops=OPS)
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_flush_all_then_invalidate_preserves_state(self, ops):
        """After flushing every dirty line and dropping the caches, the
        encrypted NVM alone reproduces the reference memory."""
        hierarchy, reference = run_ops(ops)
        hierarchy.flush_all_dirty(1e9)
        hierarchy.invalidate_all()
        for address, expected in reference.items():
            assert hierarchy.read_current(0, address, 8) == expected
