"""Counter-mode memory encryption substrate.

The paper encrypts each 64 B cache line by XORing it with a one-time pad
(OTP) derived from the line address and a per-line write counter:

    OTP       = En(address || counter, key)
    ciphertext = OTP xor plaintext
    plaintext  = OTP xor ciphertext

This package provides two interchangeable block ciphers (a validated
pure-Python AES-128 and a fast keyed PRF for large simulations), the OTP
construction, the per-line counter store, the on-chip counter cache, and
the encryption engine that ties them together with the paper's 40 ns
latency model.
"""

from .aes import AES128
from .compression import (
    compress_counter_line,
    decompress_counter_line,
    traffic_savings,
)
from .counter_cache import CounterCache, CounterCacheStats
from .integrity import IntegrityEngine, TaggedLine
from .counters import CounterStore, counter_line_address
from .engine import EncryptionEngine
from .otp import OTPCipher, make_block_cipher
from .prf import SplitMixPRF

__all__ = [
    "AES128",
    "compress_counter_line",
    "decompress_counter_line",
    "traffic_savings",
    "SplitMixPRF",
    "OTPCipher",
    "make_block_cipher",
    "CounterStore",
    "counter_line_address",
    "CounterCache",
    "IntegrityEngine",
    "TaggedLine",
    "CounterCacheStats",
    "EncryptionEngine",
]
