"""Fast keyed pseudo-random function used as the simulation block cipher.

Pure-Python AES is roughly two orders of magnitude too slow for sweeps
over millions of memory events.  The simulator therefore defaults to a
SplitMix64-based keyed PRF with the same *interface and relevant
properties* as AES in counter mode:

* deterministic: the same (key, block) input always yields the same
  16-byte output, so encrypt-then-decrypt round-trips;
* input-sensitive: any change to the address or counter produces an
  unrelated pad, so decrypting with a stale counter yields garbage —
  the exact failure mode the paper's counter-atomicity prevents.

It is **not** cryptographically secure and is clearly labeled as a
simulation substitute (see DESIGN.md).

SplitMix64 is pure uint64 arithmetic, so numpy reproduces it exactly:
its multiply, add and shift wrap modulo 2^64 just as ``& _MASK64``
does.  :meth:`SplitMixPRF.encrypt_words` runs the block PRF over whole
uint64 lane arrays; :meth:`SplitMixPRF.encrypt_block` stays the
reference.  :meth:`SplitMixPRF.encrypt_shared_lo` is the scalar form
for the blocks of one OTP pad, which share their low word, and
:func:`_splitmix64_chain` the one the integrity tree's digests use.
"""

from __future__ import annotations

import struct
from typing import Sequence

from ..errors import CryptoError
from ..utils.accel import np as _np

_MASK64 = (1 << 64) - 1
_TWO_U64 = struct.Struct("<QQ")

#: Smallest batch that takes the numpy lanes (PRF blocks, or lines for
#: :meth:`~repro.crypto.integrity.IntegrityEngine.tag_many`).  Array
#: set-up dominates small batches: against the scalar loop numpy runs
#: 0.6x at 8 blocks, 1.1x at 16, 1.3-2.1x at 32 and 13x at 1,024 (see
#: docs/performance.md).  Live-simulation pads come in 4-block batches,
#: so only crash-image reads cross it.
NP_BATCH_MIN = 32

if _np is not None:
    _U64 = _np.dtype("<u8")
    _GAMMA = _np.uint64(0x9E3779B97F4A7C15)
    _MIX1 = _np.uint64(0xBF58476D1CE4E5B9)
    _MIX2 = _np.uint64(0x94D049BB133111EB)
    _S1, _S3, _S27, _S30, _S31 = (_np.uint64(n) for n in (1, 3, 27, 30, 31))


def _splitmix64(state: int) -> int:
    """One SplitMix64 output step (public-domain mixing constants)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _splitmix64_chain(state: int, values) -> int:
    """Fold ``values`` into ``state``: ``state = _splitmix64(state ^ value)``.

    The steps of :func:`_splitmix64` are inlined, one per value.
    """
    for value in values:
        z = ((state ^ value) + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        state = z ^ (z >> 31)
    return state


def _splitmix64_words(state):
    """:func:`_splitmix64` over a uint64 array (wrapping arithmetic)."""
    z = state + _GAMMA
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


class SplitMixPRF:
    """A keyed 128-bit block PRF built from two SplitMix64 lanes."""

    BLOCK_SIZE = 16

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise CryptoError("SplitMixPRF requires a 16-byte key")
        self._key_lo, self._key_hi = _TWO_U64.unpack(key)

    def encrypt_block(self, block: bytes) -> bytes:
        """Map a 16-byte block to a 16-byte pseudo-random output."""
        if len(block) != 16:
            raise CryptoError("PRF block must be 16 bytes")
        lo, hi = _TWO_U64.unpack(block)
        # Mix both halves and the key into each output lane so that a
        # change anywhere in the input perturbs the whole output.
        mixed_lo = _splitmix64(lo ^ self._key_lo)
        mixed_hi = _splitmix64(hi ^ self._key_hi ^ mixed_lo)
        out_lo = _splitmix64(mixed_lo ^ (mixed_hi << 1 & _MASK64) ^ self._key_hi)
        out_hi = _splitmix64(mixed_hi ^ (out_lo >> 3) ^ self._key_lo)
        return _TWO_U64.pack(out_lo, out_hi)

    def encrypt_words(self, lo, hi):
        """:meth:`encrypt_block` over uint64 lane arrays.

        ``lo`` and ``hi`` hold the little-endian halves of each input
        block; returns the ``(lo, hi)`` halves of each output block.
        Needs numpy.
        """
        key_lo = _np.uint64(self._key_lo)
        key_hi = _np.uint64(self._key_hi)
        mixed_lo = _splitmix64_words(lo ^ key_lo)
        mixed_hi = _splitmix64_words(hi ^ key_hi ^ mixed_lo)
        out_lo = _splitmix64_words(mixed_lo ^ (mixed_hi << _S1) ^ key_hi)
        out_hi = _splitmix64_words(mixed_hi ^ (out_lo >> _S3) ^ key_lo)
        return out_lo, out_hi

    def encrypt_shared_lo(self, lo: int, his: Sequence[int]) -> bytes:
        """:meth:`encrypt_block` over the blocks ``(lo, hi)`` for each ``hi``.

        Returns the output blocks joined, in ``his`` order.  The blocks
        share their low word (an OTP pad's line address), so the first
        mixing step, which depends only on ``lo`` and the key, runs
        once; the other three steps are inlined per block, and one
        ``struct`` call packs every output word.  ``lo`` must fit 64
        bits (:class:`CryptoError` otherwise), as it would in a packed
        block; each ``hi`` is taken modulo 2^64.
        """
        if not 0 <= lo <= _MASK64:
            raise CryptoError("PRF block word 0x%x does not fit 64 bits" % lo)
        key_lo = self._key_lo
        z = ((lo ^ key_lo) + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        mixed_lo = z ^ (z >> 31)
        # mixed_lo ^ key_hi feeds both the mixed_hi and the out_lo step.
        shared = mixed_lo ^ self._key_hi
        words = []
        for hi in his:
            z = ((hi ^ shared) + 0x9E3779B97F4A7C15) & _MASK64
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            mixed_hi = z ^ (z >> 31)
            z = ((shared ^ (mixed_hi << 1 & _MASK64)) + 0x9E3779B97F4A7C15) & _MASK64
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            out_lo = z ^ (z >> 31)
            z = ((mixed_hi ^ (out_lo >> 3) ^ key_lo) + 0x9E3779B97F4A7C15) & _MASK64
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            words.append(out_lo)
            words.append(z ^ (z >> 31))
        return struct.pack("<%dQ" % len(words), *words)

    def encrypt_blocks(self, blocks) -> list:
        """Batched :meth:`encrypt_block`.

        Batches of :data:`NP_BATCH_MIN` blocks or more run as numpy
        lanes (:meth:`encrypt_words`); smaller ones, and every batch
        without numpy, call :meth:`encrypt_block` per block.
        """
        if _np is not None and len(blocks) >= NP_BATCH_MIN:
            if set(map(len, blocks)) != {16}:
                raise CryptoError("PRF block must be 16 bytes")
            words = _np.frombuffer(b"".join(blocks), dtype=_U64).reshape(-1, 2)
            out_lo, out_hi = self.encrypt_words(words[:, 0], words[:, 1])
            raw = _np.stack((out_lo, out_hi), axis=1).astype(_U64, copy=False).tobytes()
            return [raw[start : start + 16] for start in range(0, len(raw), 16)]
        return [self.encrypt_block(block) for block in blocks]
