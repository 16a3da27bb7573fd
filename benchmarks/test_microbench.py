"""Component micro-benchmarks (simulator performance, not paper shapes).

These time the hot inner components so regressions in simulator speed
are visible: OTP pad generation for both ciphers, counter-cache
operations, and raw machine throughput in ops/second.
"""

import pytest

from repro.config import MB, CounterCacheConfig, EncryptionConfig, fast_config
from repro.crypto.counter_cache import GROUP_SPAN, CounterCache
from repro.crypto.counters import CounterStore
from repro.crypto.otp import OTPCipher, make_block_cipher
from repro.sim.machine import Machine
from repro.sim.trace import TraceBuilder

LINE = bytes(range(64))


def test_prf_otp_encrypt_throughput(benchmark):
    cipher = OTPCipher(make_block_cipher(EncryptionConfig(cipher="prf")))
    counter = iter(range(1, 10**9))

    def encrypt():
        return cipher.encrypt(0x1000, next(counter), LINE)

    benchmark(encrypt)


def test_aes_otp_encrypt_throughput(benchmark):
    cipher = OTPCipher(make_block_cipher(EncryptionConfig(cipher="aes")))
    counter = iter(range(1, 10**9))

    def encrypt():
        return cipher.encrypt(0x1000, next(counter), LINE)

    benchmark(encrypt)


def test_counter_cache_update_throughput(benchmark):
    cache = CounterCache(CounterCacheConfig(size_bytes=64 * 1024, ways=16))
    store = CounterStore(counter_region_base=64 * MB, memory_size_bytes=64 * MB)
    for group in range(64):
        cache.fill(group * GROUP_SPAN, tuple(range(8)))
    state = {"i": 0}

    def update():
        state["i"] = (state["i"] + 1) % 64
        cache.write(state["i"] * GROUP_SPAN, state["i"], store)

    benchmark(update)


def test_machine_op_throughput(benchmark):
    """Simulated trace ops per benchmark round (1000-op trace)."""

    def build_and_run():
        builder = TraceBuilder("micro")
        for i in range(200):
            builder.store_u64(0x1000 + (i % 32) * 64, i)
            builder.clwb(0x1000 + (i % 32) * 64)
            if i % 8 == 7:
                builder.ccwb(0x1000)
                builder.persist_barrier()
        return Machine(fast_config(), "sca").run([builder.build()])

    result = benchmark.pedantic(build_and_run, rounds=3, iterations=1)
    assert result.stats.runtime_ns > 0
