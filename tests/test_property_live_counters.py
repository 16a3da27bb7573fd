"""Property: a live read finds the counter its line was written under.

The live device and the persist journal keep plaintext; ciphertext is
built only where it is observed (crash and final images).  That is
sound only because the read path never needs the ciphertext: the
counter a read decrypts with — the counter cache's, else the counter
store's after a fill — is always the counter the line was encrypted
under (``encrypted_with``), so decrypting the stored ciphertext would
give back the bytes last written.  Every encrypted design keeps that
source current: it writes evicted dirty counter lines back, or persists
each counter with its data.

Hypothesis drives random write, read and ccwb sequences through a
counter cache small enough to evict, on the singleton controller and on
a 2-shard system, and after every op checks every data line on the live
device, then reads every written line back.  A failure names the design
and the op sequence.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import CACHE_LINE_SIZE, fast_config
from repro.core.designs import get_design, list_designs
from repro.crypto.counter_cache import GROUP_SPAN
from repro.mem.controller import MemoryController
from repro.mem.sharded import ShardedMemorySystem

ENCRYPTED = [
    name
    for name in list_designs(include_unsafe=True, include_integrity=True)
    if get_design(name).encrypts
]

# An op is (kind, group, slot, payload seed): kind 0 = read, 1 = plain
# write, 2 = counter-atomic write, 3 = ccwb.  Twelve counter groups
# overflow the four-line counter cache below.
OPS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 11), st.integers(0, 2), st.integers(0, 255)),
    min_size=1,
    max_size=60,
)


def payload_for(seed: int) -> bytes:
    return bytes((seed + i) % 256 for i in range(CACHE_LINE_SIZE))


def build(design: str, shards: int):
    # Four counter lines of 4 ways: one set, so every fifth group evicts.
    config = fast_config(shards=shards).with_counter_cache(4 * CACHE_LINE_SIZE * shards)
    if shards == 1:
        return MemoryController(config, get_design(design))
    return ShardedMemorySystem(config, get_design(design))


def counter_read_path_finds(controller, line: int) -> int:
    """The counter a read of ``line`` decrypts with, without touching LRU state."""
    engine = controller.engine
    cache = engine.counter_cache
    if controller.policy.layout.kind == "colocated":
        # The 72 B fetch carries the counter the line was stored with.
        return controller.counter_store.read(line)
    entry = cache._find(cache.group_base(line))
    if entry is not None:
        return entry.counters[(line % GROUP_SPAN) // CACHE_LINE_SIZE]
    return controller.counter_store.read(line)


def check_live_lines(system, design, ops, done):
    controllers = system.controllers if isinstance(system, ShardedMemorySystem) else [system]
    for controller in controllers:
        device = controller.device
        for line in device.touched_lines():
            if not controller.address_map.is_data_address(line):
                continue
            written = device.read_line(line).encrypted_with
            found = counter_read_path_finds(controller, line)
            assert found == written, (
                "%s: line 0x%x was written under counter %d but a read finds %d, "
                "after ops %r" % (design, line, written, found, ops[:done])
            )


def drive(design: str, shards: int, ops):
    system = build(design, shards)
    expected = {}
    clock = 0.0
    for done, (kind, group, slot, seed) in enumerate(ops, start=1):
        address = 0x10000 + group * GROUP_SPAN + slot * CACHE_LINE_SIZE
        clock += 7.0
        if kind == 0:
            result = system.read_line(address, clock)
            assert result.plaintext == expected.get(address, bytes(CACHE_LINE_SIZE)), (
                "%s: read of 0x%x returned other bytes than last written, after ops %r"
                % (design, address, ops[:done])
            )
        elif kind in (1, 2):
            payload = payload_for(seed)
            system.write_line(address, payload, clock, counter_atomic=(kind == 2))
            expected[address] = payload
        else:
            system.counter_cache_writeback(address, clock)
        check_live_lines(system, design, ops, done)
    # Then read every written line back, each read filling (and maybe
    # evicting) counter lines in turn.
    for address, payload in sorted(expected.items()):
        clock += 7.0
        assert system.read_line(address, clock).plaintext == payload, (
            "%s: final read of 0x%x returned other bytes than last written, after ops %r"
            % (design, address, ops)
        )
        check_live_lines(system, design, ops, len(ops))


@pytest.mark.parametrize("shards", [1, 2], ids=["singleton", "2shards"])
@pytest.mark.parametrize("design", ENCRYPTED)
@given(ops=OPS)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_reads_find_the_counter_each_line_was_written_under(design, shards, ops):
    drive(design, shards, ops)


def test_the_cache_is_small_enough_to_evict():
    """The property runs with dirty counter lines evicted and refilled."""
    system = build("sca", 1)
    for group in range(12):
        system.write_line(0x10000 + group * GROUP_SPAN, payload_for(group), 10.0 * group)
    stats = system.engine.counter_cache.stats
    assert stats.dirty_evictions > 0
