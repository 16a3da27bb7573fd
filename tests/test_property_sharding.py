"""Property-based testing of the sharded memory system.

Two families of properties:

* **Address algebra** — the :class:`~repro.nvm.address.ShardMap`
  interleave is a bijection between the global data space and the
  disjoint union of the shards' local spaces, for *arbitrary* shard
  counts (not just the power-of-two deployments).
* **Crash durability** — on a machine sharded 2 and 4 ways, a uniform
  power failure at *any* instant (Hypothesis picks the nanosecond, not
  a curated sample) recovers every crash-consistent design to a
  consistent transaction prefix, exactly as the singleton contract
  promises.  The coordinator's merged journal is what makes the stock
  injector/recovery stack work unchanged here.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.harness import run_workload
from repro.config import KB, fast_config
from repro.crash.injector import CrashInjector
from repro.crash.recovery import RecoveryManager
from repro.nvm.address import SHARD_GRANULE, ShardMap
from repro.workloads.base import WorkloadParams

# Crash-consistent designs the sharded sweep must preserve verbatim.
SAFE_DESIGNS = ["sca", "fca", "ideal", "co-located", "co-located-cc", "no-encryption"]

PARAMS = WorkloadParams(operations=8, footprint_bytes=8 * KB)

SHARD_COUNTS = st.integers(min_value=1, max_value=9)


def shard_map(shards: int) -> ShardMap:
    # One MB per shard keeps every count's geometry valid and divisible.
    return ShardMap(memory_size_bytes=shards * 1024 * 1024, shards=shards)


class TestShardMapBijection:
    @given(shards=SHARD_COUNTS, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_global_round_trip(self, shards, data):
        mapping = shard_map(shards)
        address = data.draw(
            st.integers(min_value=0, max_value=mapping.data_capacity_bytes - 1)
        )
        shard, local = mapping.to_local(address)
        assert 0 <= shard < shards
        assert mapping.to_global(shard, local) == address
        assert mapping.shard_of(address) == shard

    @given(shards=SHARD_COUNTS, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_local_round_trip(self, shards, data):
        mapping = shard_map(shards)
        local_capacity = mapping.data_capacity_bytes // shards
        shard = data.draw(st.integers(min_value=0, max_value=shards - 1))
        local = data.draw(st.integers(min_value=0, max_value=local_capacity - 1))
        assert mapping.to_local(mapping.to_global(shard, local)) == (shard, local)

    @given(shards=SHARD_COUNTS, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_interleave_is_granular(self, shards, data):
        """All bytes of one granule land on one shard, contiguously."""
        mapping = shard_map(shards)
        groups = mapping.data_capacity_bytes // SHARD_GRANULE
        group = data.draw(st.integers(min_value=0, max_value=groups - 1))
        base = group * SHARD_GRANULE
        first = mapping.to_local(base)
        last = mapping.to_local(base + SHARD_GRANULE - 1)
        assert first[0] == last[0] == group % shards
        assert last[1] - first[1] == SHARD_GRANULE - 1


class _SweepFixture:
    """One simulated run per (design, shards), shared across examples."""

    def __init__(self):
        self._cache = {}

    def get(self, design: str, shards: int):
        key = (design, shards)
        if key not in self._cache:
            outcome = run_workload(
                design, "array", config=fast_config(shards=shards), params=PARAMS
            )
            self._cache[key] = (
                outcome.result,
                outcome.validator(0),
                CrashInjector(outcome.result),
                RecoveryManager(outcome.result.config.encryption),
            )
        return self._cache[key]


_SWEEPS = _SweepFixture()


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("design", SAFE_DESIGNS)
@given(fraction=st.floats(min_value=0.0, max_value=1.0))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_crash_at_any_instant_recovers_a_prefix(design, shards, fraction):
    result, validator, injector, manager = _SWEEPS.get(design, shards)
    crash_ns = fraction * (result.stats.runtime_ns + 1.0)
    image = injector.crash_at(crash_ns)
    recovered = manager.recover(image, encrypted=result.policy.encrypts)
    verdict = validator.classify(recovered)
    assert verdict.consistent, (
        "%s x%d inconsistent at %.1f ns: detected=%s silent=%s"
        % (design, shards, crash_ns, verdict.detected, verdict.silent)
    )
