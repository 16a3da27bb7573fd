"""Reference implementations of the crypto kernels and the KV lookup.

Slow, obviously-correct versions of what :mod:`repro.crypto` and
:mod:`repro.service.kv` compute fast.  Nothing on a simulation path
calls them: the perf harness (:mod:`repro.bench.perf`) measures the
fast kernels against them, and the tests pin the fast kernels to them.

* :func:`encrypt_block_reference` — AES-128 encryption with the
  textbook FIPS-197 round functions (SubBytes, ShiftRows, MixColumns,
  AddRoundKey), the oracle of the T-table
  :meth:`~repro.crypto.aes.AES128.encrypt_block`;
* :func:`xor_reference` — a per-byte XOR, the oracle of the big-integer
  XOR the OTP uses (:func:`repro.crypto.otp._xor`);
* :class:`ProbeOnlyService` — the KV service whose tenants
  (:class:`ProbeOnlyKV`) walk the probe chain on every lookup instead
  of reading their volatile key->slot index.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..crypto.aes import _SBOX, AES128, _xtime
from ..errors import CryptoError
from ..service.kv import ServiceWorkload, TenantKV


def _sub_bytes(state: List[int]) -> None:
    for index in range(16):
        state[index] = _SBOX[state[index]]


def _shift_rows(state: List[int]) -> List[int]:
    # State is column-major: state[4*col + row].
    shifted = state[:]
    for row in range(1, 4):
        for col in range(4):
            shifted[4 * col + row] = state[4 * ((col + row) % 4) + row]
    return shifted


def _mix_columns(state: List[int]) -> None:
    for col in range(4):
        base = 4 * col
        a = state[base : base + 4]
        state[base + 0] = _xtime(a[0]) ^ _xtime(a[1]) ^ a[1] ^ a[2] ^ a[3]
        state[base + 1] = a[0] ^ _xtime(a[1]) ^ _xtime(a[2]) ^ a[2] ^ a[3]
        state[base + 2] = a[0] ^ a[1] ^ _xtime(a[2]) ^ _xtime(a[3]) ^ a[3]
        state[base + 3] = _xtime(a[0]) ^ a[0] ^ a[1] ^ a[2] ^ _xtime(a[3])


def encrypt_block_reference(aes: AES128, block: bytes) -> bytes:
    """Encrypt one 16-byte block with ``aes``'s key, round by round."""
    if len(block) != 16:
        raise CryptoError("AES block must be 16 bytes")
    round_keys = aes._round_keys
    state = list(block)
    AES128._add_round_key(state, round_keys[0])
    for round_index in range(1, AES128.ROUNDS):
        _sub_bytes(state)
        state = _shift_rows(state)
        _mix_columns(state)
        AES128._add_round_key(state, round_keys[round_index])
    _sub_bytes(state)
    state = _shift_rows(state)
    AES128._add_round_key(state, round_keys[AES128.ROUNDS])
    return bytes(state)


def xor_reference(left: bytes, right: bytes) -> bytes:
    """XOR two equal-length byte strings one byte at a time."""
    return bytes(a ^ b for a, b in zip(left, right))


class ProbeOnlyKV(TenantKV):
    """A tenant engine that ignores its index and probes on every lookup."""

    def _locate(self, key: int) -> Tuple[Optional[int], Optional[int]]:
        return self._probe(key)


class ProbeOnlyService(ServiceWorkload):
    """The KV service over probe-only tenant engines."""

    store_type = ProbeOnlyKV
