"""Pure-Python AES-128 block cipher (FIPS-197).

The simulator only needs the forward direction: counter-mode encryption
both encrypts and decrypts by XORing with ``En(address || counter)``, so
no inverse cipher is required (we still implement decryption for
completeness and for tests against the published FIPS-197 vectors).

:meth:`AES128.encrypt_block` is a T-table implementation that folds
SubBytes, ShiftRows and MixColumns into four 256-entry word tables (the
classic software formulation from the Rijndael reference code).  Its
bit-for-bit reference, the textbook round functions, lives with the
other oracles in :mod:`repro.bench.oracles`.

Even the fast path is far slower than hardware AES; large simulations
use :class:`repro.crypto.prf.SplitMixPRF` instead (selected by
``EncryptionConfig.cipher``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errors import CryptoError
from ..utils.accel import np as _np

_SBOX: List[int] = []
_INV_SBOX: List[int] = [0] * 256


def _build_sbox() -> None:
    """Construct the AES S-box from GF(2^8) inverses plus the affine map."""
    if _SBOX:
        return
    # Multiplicative inverse table via exp/log tables over GF(2^8).
    exp_table = [0] * 512
    log_table = [0] * 256
    value = 1
    for exponent in range(255):
        exp_table[exponent] = value
        log_table[value] = exponent
        # Multiply by generator 0x03 = x + 1.
        value ^= (value << 1) ^ (0x11B if value & 0x80 else 0)
        value &= 0xFF
    for exponent in range(255, 512):
        exp_table[exponent] = exp_table[exponent - 255]

    def gf_inverse(byte: int) -> int:
        if byte == 0:
            return 0
        return exp_table[255 - log_table[byte]]

    for byte in range(256):
        inv = gf_inverse(byte)
        # Affine transformation.
        result = 0
        for bit in range(8):
            result |= (
                (
                    (inv >> bit)
                    ^ (inv >> ((bit + 4) % 8))
                    ^ (inv >> ((bit + 5) % 8))
                    ^ (inv >> ((bit + 6) % 8))
                    ^ (inv >> ((bit + 7) % 8))
                    ^ (0x63 >> bit)
                )
                & 1
            ) << bit
        _SBOX.append(result)
        _INV_SBOX[result] = byte


_build_sbox()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]

# T-tables: for a substituted byte s, each table holds one column of the
# MixColumns matrix applied to s, so a full round per output word is
# four table lookups, three XORs and the round key.  Column words are
# big-endian ``row0<<24 | row1<<16 | row2<<8 | row3``.
_TE0: List[int] = []
_TE1: List[int] = []
_TE2: List[int] = []
_TE3: List[int] = []


def _build_ttables() -> None:
    if _TE0:
        return
    for byte in range(256):
        s = _SBOX[byte]
        s2 = _xtime(s)
        s3 = s2 ^ s
        _TE0.append((s2 << 24) | (s << 16) | (s << 8) | s3)
        _TE1.append((s3 << 24) | (s2 << 16) | (s << 8) | s)
        _TE2.append((s << 24) | (s3 << 16) | (s2 << 8) | s)
        _TE3.append((s << 24) | (s << 16) | (s3 << 8) | s2)


def _xtime(byte: int) -> int:
    """Multiply by x in GF(2^8)."""
    byte <<= 1
    if byte & 0x100:
        byte ^= 0x11B
    return byte & 0xFF


def _gf_mul(a: int, b: int) -> int:
    """General GF(2^8) multiplication (used by the inverse cipher)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


_build_ttables()

# Numpy mirrors of the T-tables/S-box (built lazily on first batch
# call): same integer contents, so the vectorized rounds below compute
# bit-for-bit the same words as the scalar loop in encrypt_block.
_NP_TABLES: Optional[Tuple] = None

#: Batch size at which the numpy path beats the scalar T-table loop;
#: below it, per-call numpy overhead dominates.
_NP_BATCH_MIN = 16


def _numpy_tables() -> Optional[Tuple]:
    global _NP_TABLES
    if _NP_TABLES is None and _np is not None:
        _NP_TABLES = (
            _np.array(_TE0, dtype=_np.uint32),
            _np.array(_TE1, dtype=_np.uint32),
            _np.array(_TE2, dtype=_np.uint32),
            _np.array(_TE3, dtype=_np.uint32),
            _np.array(_SBOX, dtype=_np.uint32),
        )
    return _NP_TABLES


class AES128:
    """AES with a 128-bit key operating on 16-byte blocks."""

    BLOCK_SIZE = 16
    ROUNDS = 10

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise CryptoError("AES-128 requires a 16-byte key")
        self._round_keys = self._expand_key(key)
        # Round keys as big-endian 32-bit column words for the T-table
        # path; the flat byte lists stay for the reference/inverse paths.
        self._round_key_words: List[tuple] = [
            tuple(
                (flat[4 * j] << 24) | (flat[4 * j + 1] << 16) | (flat[4 * j + 2] << 8) | flat[4 * j + 3]
                for j in range(4)
            )
            for flat in self._round_keys
        ]

    @staticmethod
    def _expand_key(key: bytes) -> List[List[int]]:
        """Produce 11 round keys of 16 bytes each, stored as flat lists."""
        words: List[List[int]] = [list(key[i : i + 4]) for i in range(0, 16, 4)]
        for index in range(4, 4 * (AES128.ROUNDS + 1)):
            previous = list(words[index - 1])
            if index % 4 == 0:
                previous = previous[1:] + previous[:1]
                previous = [_SBOX[b] for b in previous]
                previous[0] ^= _RCON[index // 4 - 1]
            words.append([a ^ b for a, b in zip(words[index - 4], previous)])
        round_keys: List[List[int]] = []
        for round_index in range(AES128.ROUNDS + 1):
            flat: List[int] = []
            for word in words[4 * round_index : 4 * round_index + 4]:
                flat.extend(word)
            round_keys.append(flat)
        return round_keys

    @staticmethod
    def _add_round_key(state: List[int], round_key: Sequence[int]) -> None:
        for index in range(16):
            state[index] ^= round_key[index]

    @staticmethod
    def _inv_sub_bytes(state: List[int]) -> None:
        for index in range(16):
            state[index] = _INV_SBOX[state[index]]

    @staticmethod
    def _inv_shift_rows(state: List[int]) -> List[int]:
        shifted = state[:]
        for row in range(1, 4):
            for col in range(4):
                shifted[4 * ((col + row) % 4) + row] = state[4 * col + row]
        return shifted

    @staticmethod
    def _inv_mix_columns(state: List[int]) -> None:
        for col in range(4):
            base = 4 * col
            a = state[base : base + 4]
            state[base + 0] = (
                _gf_mul(a[0], 14) ^ _gf_mul(a[1], 11) ^ _gf_mul(a[2], 13) ^ _gf_mul(a[3], 9)
            )
            state[base + 1] = (
                _gf_mul(a[0], 9) ^ _gf_mul(a[1], 14) ^ _gf_mul(a[2], 11) ^ _gf_mul(a[3], 13)
            )
            state[base + 2] = (
                _gf_mul(a[0], 13) ^ _gf_mul(a[1], 9) ^ _gf_mul(a[2], 14) ^ _gf_mul(a[3], 11)
            )
            state[base + 3] = (
                _gf_mul(a[0], 11) ^ _gf_mul(a[1], 13) ^ _gf_mul(a[2], 9) ^ _gf_mul(a[3], 14)
            )

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block (T-table fast path)."""
        if len(block) != 16:
            raise CryptoError("AES block must be 16 bytes")
        T0, T1, T2, T3 = _TE0, _TE1, _TE2, _TE3
        sbox = _SBOX
        rk = self._round_key_words
        value = int.from_bytes(block, "big")
        k0, k1, k2, k3 = rk[0]
        w0 = ((value >> 96) & 0xFFFFFFFF) ^ k0
        w1 = ((value >> 64) & 0xFFFFFFFF) ^ k1
        w2 = ((value >> 32) & 0xFFFFFFFF) ^ k2
        w3 = (value & 0xFFFFFFFF) ^ k3
        for k0, k1, k2, k3 in rk[1:10]:
            t0 = T0[w0 >> 24] ^ T1[(w1 >> 16) & 255] ^ T2[(w2 >> 8) & 255] ^ T3[w3 & 255] ^ k0
            t1 = T0[w1 >> 24] ^ T1[(w2 >> 16) & 255] ^ T2[(w3 >> 8) & 255] ^ T3[w0 & 255] ^ k1
            t2 = T0[w2 >> 24] ^ T1[(w3 >> 16) & 255] ^ T2[(w0 >> 8) & 255] ^ T3[w1 & 255] ^ k2
            t3 = T0[w3 >> 24] ^ T1[(w0 >> 16) & 255] ^ T2[(w1 >> 8) & 255] ^ T3[w2 & 255] ^ k3
            w0, w1, w2, w3 = t0, t1, t2, t3
        k0, k1, k2, k3 = rk[10]
        o0 = (
            (sbox[w0 >> 24] << 24)
            | (sbox[(w1 >> 16) & 255] << 16)
            | (sbox[(w2 >> 8) & 255] << 8)
            | sbox[w3 & 255]
        ) ^ k0
        o1 = (
            (sbox[w1 >> 24] << 24)
            | (sbox[(w2 >> 16) & 255] << 16)
            | (sbox[(w3 >> 8) & 255] << 8)
            | sbox[w0 & 255]
        ) ^ k1
        o2 = (
            (sbox[w2 >> 24] << 24)
            | (sbox[(w3 >> 16) & 255] << 16)
            | (sbox[(w0 >> 8) & 255] << 8)
            | sbox[w1 & 255]
        ) ^ k2
        o3 = (
            (sbox[w3 >> 24] << 24)
            | (sbox[(w0 >> 16) & 255] << 16)
            | (sbox[(w1 >> 8) & 255] << 8)
            | sbox[w2 & 255]
        ) ^ k3
        return ((o0 << 96) | (o1 << 64) | (o2 << 32) | o3).to_bytes(16, "big")

    def encrypt_blocks(self, blocks: Sequence[bytes]) -> List[bytes]:
        """Encrypt several 16-byte blocks (pad-generation batch path).

        Large batches take the numpy-vectorized rounds when numpy is
        available (byte-identical to the scalar path, which remains
        the oracle); small batches and numpy-free installs run the
        scalar T-table loop.
        """
        if _np is not None and len(blocks) >= _NP_BATCH_MIN:
            return self.encrypt_blocks_numpy(blocks)
        encrypt = self.encrypt_block
        return [encrypt(block) for block in blocks]

    def encrypt_blocks_numpy(self, blocks: Sequence[bytes]) -> List[bytes]:
        """Vectorized T-table rounds over a whole batch of blocks.

        One numpy gather per table per round covers every block; all
        arithmetic is exact uint32, so outputs are byte-identical to
        :meth:`encrypt_block`.  Raises if numpy is unavailable — use
        :meth:`encrypt_blocks` for automatic dispatch.
        """
        tables = _numpy_tables()
        if tables is None:
            raise CryptoError("numpy is not available for batched AES")
        count = len(blocks)
        if count == 0:
            return []
        joined = b"".join(blocks)
        if len(joined) != 16 * count:
            raise CryptoError("AES block must be 16 bytes")
        T0, T1, T2, T3, sbox = tables
        rk = self._round_key_words
        words = _np.frombuffer(joined, dtype=">u4").reshape(count, 4).astype(_np.uint32)
        k0, k1, k2, k3 = rk[0]
        w0 = words[:, 0] ^ _np.uint32(k0)
        w1 = words[:, 1] ^ _np.uint32(k1)
        w2 = words[:, 2] ^ _np.uint32(k2)
        w3 = words[:, 3] ^ _np.uint32(k3)
        for k0, k1, k2, k3 in rk[1:10]:
            t0 = T0[w0 >> 24] ^ T1[(w1 >> 16) & 255] ^ T2[(w2 >> 8) & 255] ^ T3[w3 & 255] ^ _np.uint32(k0)
            t1 = T0[w1 >> 24] ^ T1[(w2 >> 16) & 255] ^ T2[(w3 >> 8) & 255] ^ T3[w0 & 255] ^ _np.uint32(k1)
            t2 = T0[w2 >> 24] ^ T1[(w3 >> 16) & 255] ^ T2[(w0 >> 8) & 255] ^ T3[w1 & 255] ^ _np.uint32(k2)
            t3 = T0[w3 >> 24] ^ T1[(w0 >> 16) & 255] ^ T2[(w1 >> 8) & 255] ^ T3[w2 & 255] ^ _np.uint32(k3)
            w0, w1, w2, w3 = t0, t1, t2, t3
        k0, k1, k2, k3 = rk[10]
        out = _np.empty((count, 4), dtype=_np.uint32)
        out[:, 0] = (
            (sbox[w0 >> 24] << 24)
            | (sbox[(w1 >> 16) & 255] << 16)
            | (sbox[(w2 >> 8) & 255] << 8)
            | sbox[w3 & 255]
        ) ^ _np.uint32(k0)
        out[:, 1] = (
            (sbox[w1 >> 24] << 24)
            | (sbox[(w2 >> 16) & 255] << 16)
            | (sbox[(w3 >> 8) & 255] << 8)
            | sbox[w0 & 255]
        ) ^ _np.uint32(k1)
        out[:, 2] = (
            (sbox[w2 >> 24] << 24)
            | (sbox[(w3 >> 16) & 255] << 16)
            | (sbox[(w0 >> 8) & 255] << 8)
            | sbox[w1 & 255]
        ) ^ _np.uint32(k2)
        out[:, 3] = (
            (sbox[w3 >> 24] << 24)
            | (sbox[(w0 >> 16) & 255] << 16)
            | (sbox[(w1 >> 8) & 255] << 8)
            | sbox[w2 & 255]
        ) ^ _np.uint32(k3)
        raw = out.astype(">u4").tobytes()
        return [raw[offset : offset + 16] for offset in range(0, 16 * count, 16)]

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block (inverse cipher)."""
        if len(block) != 16:
            raise CryptoError("AES block must be 16 bytes")
        state = list(block)
        self._add_round_key(state, self._round_keys[self.ROUNDS])
        for round_index in range(self.ROUNDS - 1, 0, -1):
            state = self._inv_shift_rows(state)
            self._inv_sub_bytes(state)
            self._add_round_key(state, self._round_keys[round_index])
            self._inv_mix_columns(state)
        state = self._inv_shift_rows(state)
        self._inv_sub_bytes(state)
        self._add_round_key(state, self._round_keys[0])
        return bytes(state)
