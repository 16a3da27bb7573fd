"""Batched crypto paths are bit-identical to their scalar oracles.

PR6 vectorizes the AES T-table rounds, the OTP pad XOR and the
counter-cache probes over whole batches (numpy when available, with the
scalar implementations retained as oracles).  These properties pin the
equivalence contract from docs/performance.md: same bytes, same stats,
same LRU state — for every batch size including 0 and 1 — and the
fast-forward simulation path reproduces the step-by-step fingerprint.
The SplitMix64 PRF and the ECC-lane tags run as numpy uint64 lanes on
the crash-image read side; they are pinned against the per-block PRF
and a per-byte CBC-MAC reference on both sides of the dispatch
threshold.
"""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import build_traces
from repro.config import fast_config
from repro.crypto.aes import _NP_BATCH_MIN, AES128
from repro.crypto.counter_cache import COUNTERS_PER_LINE, CounterCache
from repro.crypto.counters import CounterStore
from repro.crypto.integrity import IntegrityEngine
from repro.crypto.otp import OTPCipher, make_block_cipher
from repro.crypto.prf import NP_BATCH_MIN, SplitMixPRF
from repro.config import CounterCacheConfig, EncryptionConfig
from repro.errors import CryptoError
from repro.sim.machine import Machine
from repro.sim.snapshot import (
    CheckpointPolicy,
    SnapshotStore,
    result_fingerprint,
    run_with_checkpoints,
)
from repro.utils.accel import HAVE_NUMPY
from repro.workloads.base import WorkloadParams

KEY = st.binary(min_size=16, max_size=16)
BLOCKS = st.lists(st.binary(min_size=16, max_size=16), min_size=0, max_size=40)

#: (address, counter) pools kept small so batches collide: duplicate
#: keys inside one batch are the interesting accounting case.
ADDRESSES = st.integers(min_value=0, max_value=31).map(lambda i: i * 64)
COUNTERS = st.integers(min_value=0, max_value=5)
LINES = st.binary(min_size=64, max_size=64)
ITEMS = st.lists(st.tuples(ADDRESSES, COUNTERS, LINES), min_size=0, max_size=24)

MASK64 = (1 << 64) - 1
#: Batch sizes around the numpy dispatch threshold, plus 0, 1 and a
#: whole crash image's worth.
BATCH_SIZES = (0, 1, NP_BATCH_MIN - 1, NP_BATCH_MIN, NP_BATCH_MIN + 1, 1000)
#: uint64 lanes, biased towards the wrap-around extremes.
LANES = st.one_of(st.sampled_from([0, MASK64]), st.integers(min_value=0, max_value=MASK64))


def lane_values(count, drawn, seed):
    """``count`` lanes: 0 and 2**64-1 first, then the drawn ones, then random."""
    rng = random.Random(seed)
    lanes = [0, MASK64] + list(drawn)
    lanes += [rng.getrandbits(64) for _ in range(count - len(lanes))]
    return lanes[:count]


def reference_tag(engine, address, counter, ciphertext):
    """The per-byte CBC-MAC the batched and scalar tags must reproduce."""
    encrypt = engine._prf.encrypt_block
    digest = encrypt(struct.pack("<QQ", address, counter))
    for offset in range(0, 64, 16):
        digest = encrypt(bytes(a ^ b for a, b in zip(digest, ciphertext[offset : offset + 16])))
    return digest[:8]


def make_otp(cipher_name, limit=None):
    cipher = OTPCipher(make_block_cipher(EncryptionConfig(cipher=cipher_name)))
    if limit is not None:
        cipher._pad_cache_limit = limit
    return cipher


def pad_cache_state(cipher):
    return (
        cipher.pad_hits,
        cipher.pad_misses,
        cipher.pad_evictions,
        list(cipher._pad_cache.items()),
    )


class TestBatchedAES:
    @given(KEY, BLOCKS)
    @settings(max_examples=60, deadline=None)
    def test_encrypt_blocks_matches_scalar(self, key, blocks):
        aes = AES128(key)
        assert aes.encrypt_blocks(blocks) == [aes.encrypt_block(b) for b in blocks]

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not available")
    @given(KEY, st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_numpy_batch_matches_scalar_around_dispatch_threshold(self, key, delta):
        # Sizes straddling _NP_BATCH_MIN: both dispatch outcomes, plus
        # the forced-numpy path on sizes the dispatcher would keep scalar.
        aes = AES128(key)
        for count in (0, 1, _NP_BATCH_MIN - delta, _NP_BATCH_MIN + delta):
            count = max(0, count)
            blocks = [bytes([(count * 31 + i) % 256] * 16) for i in range(count)]
            expected = [aes.encrypt_block(b) for b in blocks]
            assert aes.encrypt_blocks(blocks) == expected
            assert aes.encrypt_blocks_numpy(blocks) == expected

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not available")
    def test_numpy_batch_matches_bytewise_reference(self):
        aes = AES128(bytes(range(16)))
        blocks = [bytes([i, 255 - i] * 8) for i in range(64)]
        slow = [aes._encrypt_block_slow(b) for b in blocks]
        assert aes.encrypt_blocks_numpy(blocks) == slow


class TestBatchedPRF:
    """SplitMix64 over numpy uint64 lanes == the scalar per-block PRF."""

    @pytest.mark.parametrize("count", BATCH_SIZES)
    @given(
        key=KEY,
        drawn=st.lists(LANES, max_size=8),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=10, deadline=None)
    def test_encrypt_blocks_matches_encrypt_block(self, count, key, drawn, seed):
        prf = SplitMixPRF(key)
        lanes = lane_values(2 * count, drawn, seed)
        blocks = [struct.pack("<QQ", lo, hi) for lo, hi in zip(lanes[::2], lanes[1::2])]
        assert prf.encrypt_blocks(blocks) == [prf.encrypt_block(b) for b in blocks]

    @pytest.mark.parametrize("count", (1, NP_BATCH_MIN + 1))
    def test_short_block_rejected_on_both_paths(self, count):
        blocks = [bytes(16)] * (count - 1) + [bytes(15)]
        with pytest.raises(CryptoError):
            SplitMixPRF(bytes(16)).encrypt_blocks(blocks)


class TestBatchedTags:
    """tag_many == per-line tag == the per-byte CBC-MAC reference."""

    @pytest.mark.parametrize("count", BATCH_SIZES)
    @given(
        drawn=st.lists(LANES, max_size=8),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=10, deadline=None)
    def test_tag_many_matches_tag(self, count, drawn, seed):
        engine = IntegrityEngine(EncryptionConfig())
        lanes = lane_values(2 * count, drawn, seed)
        rng = random.Random(seed)
        items = [
            (address, counter, rng.randbytes(64))
            for address, counter in zip(lanes[::2], lanes[1::2])
        ]
        expected = [engine.tag(a, c, t) for a, c, t in items]
        assert engine.tag_many(items) == expected
        assert expected == [reference_tag(engine, a, c, t) for a, c, t in items]

    @pytest.mark.parametrize("count", (1, NP_BATCH_MIN + 1))
    def test_63_byte_line_rejected_on_both_paths(self, count):
        engine = IntegrityEngine(EncryptionConfig())
        items = [(64 * i, i, bytes(64)) for i in range(count - 1)] + [(0, 1, bytes(63))]
        with pytest.raises(CryptoError):
            engine.tag(0, 1, bytes(63))
        with pytest.raises(CryptoError):
            engine.tag_many(items)


class TestBatchedOTP:
    @pytest.mark.parametrize("cipher_name", ["aes", "prf"])
    @given(keys=st.lists(st.tuples(ADDRESSES, st.integers(min_value=1, max_value=5)), max_size=24))
    @settings(max_examples=40, deadline=None)
    def test_pads_many_matches_sequential(self, cipher_name, keys):
        batched = make_otp(cipher_name)
        sequential = make_otp(cipher_name)
        assert batched.pads_many(keys) == [sequential.pad(a, c) for a, c in keys]
        assert pad_cache_state(batched) == pad_cache_state(sequential)

    @pytest.mark.parametrize("cipher_name", ["aes", "prf"])
    @given(keys=st.lists(st.tuples(ADDRESSES, st.integers(min_value=1, max_value=5)), max_size=24))
    @settings(max_examples=25, deadline=None)
    def test_pads_many_matches_sequential_under_eviction(self, cipher_name, keys):
        # A tiny pad cache forces the eviction loop (and can evict a
        # pending placeholder mid-batch); state must still match.
        batched = make_otp(cipher_name, limit=4)
        sequential = make_otp(cipher_name, limit=4)
        assert batched.pads_many(keys) == [sequential.pad(a, c) for a, c in keys]
        assert pad_cache_state(batched) == pad_cache_state(sequential)

    @pytest.mark.parametrize("cipher_name", ["aes", "prf"])
    @pytest.mark.parametrize("evict", [False, True])
    @pytest.mark.parametrize("misses", [7, 8, 9])
    def test_pads_many_either_side_of_the_lane_threshold(self, cipher_name, misses, evict):
        """7, 8 and 9 missing pads are 28, 32 and 36 PRF blocks, either side
        of NP_BATCH_MIN: below it the seeds are packed bytes, from it up
        they go to the PRF as uint64 lanes.  Duplicates, warm hits and
        evictions of warm pads ride along; counters at and above 2**48
        check the seed layout's 48-bit counter field."""
        counters = [1, (1 << 48) - 1, (1 << 48) + 3, 1 << 32, 0xFFFFFFFF, 2, 3, 4, 5]
        fresh = [((i * 977 + 3) * 64, counters[i]) for i in range(misses)]
        fresh[-1] = ((1 << 58) - 64, fresh[-1][1])
        warm = [((1 << 30) + i * 64, 9) for i in range(4)]
        keys = [warm[-1]] + fresh[:3] + [fresh[0]] + fresh[3:] + [fresh[-1], warm[-1], fresh[1]]
        # Room for the batch plus one: the probe evicts the three older warm pads.
        limit = misses + 1 if evict else None
        batched = make_otp(cipher_name, limit)
        sequential = make_otp(cipher_name, limit)
        for cipher in (batched, sequential):
            for address, counter in warm:
                cipher.pad(address, counter)
        assert batched.pads_many(keys) == [sequential.pad(a, c) for a, c in keys]
        assert pad_cache_state(batched) == pad_cache_state(sequential)
        assert batched.pad_misses == len(warm) + misses
        assert batched.pad_evictions == (3 if evict else 0)

    @pytest.mark.parametrize("cipher_name", ["aes", "prf"])
    @given(items=ITEMS)
    @settings(max_examples=40, deadline=None)
    def test_encrypt_lines_matches_scalar(self, cipher_name, items):
        batched = make_otp(cipher_name)
        sequential = make_otp(cipher_name)
        assert batched.encrypt_lines(items) == [
            sequential.encrypt(a, c, t) for a, c, t in items
        ]
        assert pad_cache_state(batched) == pad_cache_state(sequential)

    @given(items=ITEMS)
    @settings(max_examples=20, deadline=None)
    def test_decrypt_lines_inverts_encrypt_lines(self, items):
        cipher = make_otp("prf")
        encrypted = cipher.encrypt_lines(items)
        roundtrip = cipher.decrypt_lines(
            [(a, c, e) for (a, c, _t), e in zip(items, encrypted)]
        )
        assert roundtrip == [t for _a, _c, t in items]


class TestBulkCounterCache:
    @given(
        addresses=st.lists(st.integers(min_value=0, max_value=255).map(lambda i: i * 64), max_size=64),
        warm=st.lists(st.integers(min_value=0, max_value=255).map(lambda i: i * 64), max_size=16),
    )
    @settings(max_examples=40, deadline=None)
    def test_lookup_many_matches_sequential(self, addresses, warm):
        def build():
            cache = CounterCache(CounterCacheConfig(size_bytes=4096, ways=2))
            cache.fill_many(
                [(a, tuple(range(1, COUNTERS_PER_LINE + 1))) for a in warm]
            )
            return cache

        bulk, seq = build(), build()
        assert bulk.lookup_for_read_many(addresses) == [
            seq.lookup_for_read(a) for a in addresses
        ]
        assert bulk.stats.as_dict() == seq.stats.as_dict()
        assert bulk.get_state() == seq.get_state()

    def test_fill_many_matches_sequential_fills(self):
        counters = tuple(range(1, COUNTERS_PER_LINE + 1))
        # One address per 512 B counter-line group so 40 fills install
        # 40 distinct lines into a 32-entry cache: guaranteed evictions.
        fills = [(a * 512, counters) for a in range(40)]

        bulk = CounterCache(CounterCacheConfig(size_bytes=2048, ways=2))
        seq = CounterCache(CounterCacheConfig(size_bytes=2048, ways=2))
        store = CounterStore(counter_region_base=1 << 26, memory_size_bytes=1 << 26)
        bulk_victims = []
        for chunk_start in range(0, len(fills), 8):
            chunk = fills[chunk_start : chunk_start + 8]
            bulk_victims.extend(bulk.fill_many(chunk))
            # Dirty what just landed so later evictions yield victims.
            for address, _ in chunk:
                bulk.write(address, address + 1, store)
        seq_victims = []
        for chunk_start in range(0, len(fills), 8):
            for address, line_counters in fills[chunk_start : chunk_start + 8]:
                victim = seq.fill(address, line_counters)
                if victim is not None:
                    seq_victims.append(victim)
            for address, _ in fills[chunk_start : chunk_start + 8]:
                seq.write(address, address + 1, store)
        assert bulk_victims == seq_victims
        assert bulk_victims  # eviction pressure actually produced writebacks
        assert bulk.get_state() == seq.get_state()


class TestFastForward:
    """run_with_checkpoints' chunked crash-free path (no on_event) must
    reproduce the per-event fingerprint exactly, checkpoints included."""

    def _scenario(self, mechanism, operations, seed):
        config = fast_config(num_cores=2, functional=True)
        traces, _runs, _layout = build_traces(
            "hash", config, mechanism, WorkloadParams(operations=operations, seed=seed)
        )
        stepped = Machine(config, "sca")
        expected = result_fingerprint(stepped.run(traces))
        return config, traces, expected, stepped.events_executed

    @given(
        mechanism=st.sampled_from(["undo", "redo"]),
        operations=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=8, deadline=None)
    def test_fast_forward_fingerprint_matches_stepped(self, mechanism, operations, seed):
        config, traces, expected, _total = self._scenario(mechanism, operations, seed)
        result, stats = run_with_checkpoints(Machine(config, "sca"), traces)
        assert result_fingerprint(result) == expected
        assert stats["restored"] == 0

    @given(seed=st.integers(min_value=1, max_value=50))
    @settings(max_examples=6, deadline=None)
    def test_fast_forward_with_checkpoints_resumes_identically(self, seed, tmp_path_factory):
        config, traces, expected, total = self._scenario("undo", 4, seed)
        cadence = max(1, total // 4)
        base = tmp_path_factory.mktemp("ff")
        store = SnapshotStore(str(base), code="ff")
        result, stats = run_with_checkpoints(
            Machine(config, "sca"),
            traces,
            store=store,
            policy=CheckpointPolicy(every_events=cadence),
        )
        assert result_fingerprint(result) == expected
        assert stats["saved"] >= 1
        # Resume from the newest on-disk snapshot: same fingerprint.
        resumed, resumed_stats = run_with_checkpoints(
            Machine(config, "sca"), traces, store=store
        )
        assert resumed_stats["restored"] == 1
        assert result_fingerprint(resumed) == expected
