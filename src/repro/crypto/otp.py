"""The one-time-pad (OTP) construction of counter-mode encryption.

A 64 B cache line needs four 16 B pad blocks.  Each pad block is
``En(address || counter || block_index, key)`` so that every block of
every line version gets a unique pad (paper Eq. 1-3).

The live machine makes no pads: its device and persist journal keep
plaintext with each line's counter.  Pads are made where ciphertext is
observed, a whole image at a time: crash and final images encipher
their lines in one :meth:`OTPCipher.encrypt_lines` batch, and recovery
decrypts an image in one :meth:`OTPCipher.decrypt_lines` batch.  Each
pad is computed when asked for; nothing is cached.
"""

from __future__ import annotations

import struct
from typing import List, Protocol, Sequence, Tuple

from ..config import CACHE_LINE_SIZE, EncryptionConfig
from ..errors import CryptoError
from ..utils.accel import np as _np
from .aes import AES128
from .prf import NP_BATCH_MIN, SplitMixPRF

_SEED_BLOCK = struct.Struct("<QIHH")  # address, counter-low, counter-high, block index
#: The counter bits a seed block keeps (counter-low and counter-high).
_COUNTER_BITS = (1 << 48) - 1
#: Where the block index sits in a seed block's high word.
_BLOCK_INDEX_SHIFT = 48

if _np is not None:
    _U64 = _np.dtype("<u8")


class BlockCipher(Protocol):
    """Anything providing a 16-byte forward permutation/PRF."""

    BLOCK_SIZE: int

    def encrypt_block(self, block: bytes) -> bytes:  # pragma: no cover - protocol
        ...


def make_block_cipher(config: EncryptionConfig) -> BlockCipher:
    """Instantiate the cipher selected by the configuration."""
    if config.cipher == "aes":
        return AES128(config.key)
    if config.cipher == "prf":
        return SplitMixPRF(config.key)
    raise CryptoError("unknown cipher %r" % config.cipher)


class OTPCipher:
    """Counter-mode line encryption: pad generation + XOR.

    The pad depends on (line address, counter); a mismatch between the
    counter used to encrypt and the counter used to decrypt yields
    garbage, which is what the paper's Eq. 4 expresses.
    """

    def __init__(self, cipher: BlockCipher, line_size: int = CACHE_LINE_SIZE) -> None:
        if line_size % cipher.BLOCK_SIZE != 0:
            raise CryptoError("line size must be a multiple of the cipher block size")
        self._cipher = cipher
        self.line_size = line_size
        self._blocks_per_line = line_size // cipher.BLOCK_SIZE
        # The PRF takes a pad's seed blocks as words: the address is
        # every block's low word, and block i's high word is the
        # counter's low 48 bits with i above them (_SEED_BLOCK's layout).
        self._encrypt_words = getattr(cipher, "encrypt_words", None)
        self._encrypt_shared_lo = getattr(cipher, "encrypt_shared_lo", None)
        self._block_words = [
            index << _BLOCK_INDEX_SHIFT for index in range(self._blocks_per_line)
        ]

    def pad(self, address: int, counter: int) -> bytes:
        """Generate the one-time pad for (address, counter)."""
        return self._fresh_pads(((address, counter),))[0]

    def encrypt(self, address: int, counter: int, plaintext: bytes) -> bytes:
        """Encrypt one line: ``pad(address, counter) XOR plaintext``.

        Counter 0 is reserved to mean "stored in the clear": it is the
        architectural state of never-written lines, whose contents read
        as zeroes without any pad.  The encryption engine's global
        counter starts at 1, so real writes never use it.
        """
        if len(plaintext) != self.line_size:
            raise CryptoError(
                "plaintext must be %d bytes, got %d" % (self.line_size, len(plaintext))
            )
        if counter == 0:
            return plaintext
        pad = self.pad(address, counter)
        return _xor(pad, plaintext)

    def decrypt(self, address: int, counter: int, ciphertext: bytes) -> bytes:
        """Decrypt one line; correct only if ``counter`` matches encryption."""
        if len(ciphertext) != self.line_size:
            raise CryptoError(
                "ciphertext must be %d bytes, got %d" % (self.line_size, len(ciphertext))
            )
        if counter == 0:
            return ciphertext
        pad = self.pad(address, counter)
        return _xor(pad, ciphertext)

    # -- batch paths --------------------------------------------------------

    def pads_many(self, keys: Sequence[Tuple[int, int]]) -> List[bytes]:
        """Pads for many (address, counter) pairs in one cipher batch.

        Equivalent to ``[self.pad(a, c) for a, c in keys]`` — same
        bytes — but all pad blocks go through the cipher as one batch
        (:meth:`_fresh_pads`).
        """
        return self._fresh_pads(keys)

    def _fresh_pads(self, keys: Sequence[Tuple[int, int]]) -> List[bytes]:
        """The pads of ``keys``, all blocks through the cipher in one batch.

        A cipher with ``encrypt_words`` (the PRF) takes batches of
        :data:`~repro.crypto.prf.NP_BATCH_MIN` blocks or more straight
        as uint64 lanes in :data:`_SEED_BLOCK`'s layout: ``lo`` is the
        address, ``hi`` the low 48 counter bits with the block index
        above them.  Every pad is then a slice of one output buffer.
        The PRF builds smaller batches, such as :meth:`pad`'s one key,
        one pad at a time from the same words (``encrypt_shared_lo``);
        other ciphers (AES) get packed seed bytes.
        """
        blocks_per_line = self._blocks_per_line
        line_size = self.line_size
        encrypt_words = self._encrypt_words
        if (
            _np is not None
            and encrypt_words is not None
            and len(keys) * blocks_per_line >= NP_BATCH_MIN
        ):
            count = len(keys)
            addresses = _np.fromiter(
                [address for address, _counter in keys], dtype=_U64, count=count
            )
            counters = _np.fromiter(
                [counter & _COUNTER_BITS for _address, counter in keys],
                dtype=_U64,
                count=count,
            )
            block_index = _np.arange(blocks_per_line, dtype=_U64) << _np.uint64(_BLOCK_INDEX_SHIFT)
            out_lo, out_hi = encrypt_words(
                _np.repeat(addresses, blocks_per_line),
                (counters[:, None] | block_index).ravel(),
            )
            raw = _np.stack((out_lo, out_hi), axis=1).astype(_U64, copy=False).tobytes()
            return [raw[start : start + line_size] for start in range(0, len(raw), line_size)]
        encrypt_shared_lo = self._encrypt_shared_lo
        if encrypt_shared_lo is not None:
            block_words = self._block_words
            pads = []
            for address, counter in keys:
                bits = counter & _COUNTER_BITS
                pads.append(encrypt_shared_lo(address, [bits | word for word in block_words]))
            return pads
        pack = _SEED_BLOCK.pack
        seeds = [
            pack(address, counter & 0xFFFFFFFF, (counter >> 32) & 0xFFFF, block_index)
            for address, counter in keys
            for block_index in range(blocks_per_line)
        ]
        encrypt_batch = getattr(self._cipher, "encrypt_blocks", None)
        if encrypt_batch is not None:
            blocks = encrypt_batch(seeds)
        else:
            blocks = [self._cipher.encrypt_block(seed) for seed in seeds]
        return [
            b"".join(blocks[start : start + blocks_per_line])
            for start in range(0, len(blocks), blocks_per_line)
        ]

    def encrypt_lines(
        self, items: Sequence[Tuple[int, int, bytes]]
    ) -> List[bytes]:
        """Encrypt many ``(address, counter, plaintext)`` lines at once.

        Byte-identical to calling :meth:`encrypt` per line; pads are
        produced by :meth:`pads_many` and the XOR runs over the whole
        batch in one numpy pass when numpy is available (the scalar
        big-int XOR remains the oracle).  Counter 0 lines pass through
        in the clear, exactly as in :meth:`encrypt`.
        """
        line_size = self.line_size
        for _address, _counter, text in items:
            if len(text) != line_size:
                raise CryptoError(
                    "plaintext must be %d bytes, got %d" % (line_size, len(text))
                )
        pads = self.pads_many(
            [(address, counter) for address, counter, _text in items if counter != 0]
        )
        if _np is not None and len(pads) >= 4:
            return self._xor_lines_numpy(items, pads)
        out: List[bytes] = []
        pad_index = 0
        for _address, counter, text in items:
            if counter == 0:
                out.append(text)
            else:
                out.append(_xor(pads[pad_index], text))
                pad_index += 1
        return out

    #: Alias: counter-mode decryption is the same pad XOR.
    decrypt_lines = encrypt_lines

    def _xor_lines_numpy(
        self, items: Sequence[Tuple[int, int, bytes]], pads: List[bytes]
    ) -> List[bytes]:
        """One vectorized XOR across every enciphered line of a batch."""
        line_size = self.line_size
        texts = [text for _address, counter, text in items if counter != 0]
        raw = (
            _np.frombuffer(b"".join(pads), dtype=_np.uint64)
            ^ _np.frombuffer(b"".join(texts), dtype=_np.uint64)
        ).tobytes()
        lines = [raw[start : start + line_size] for start in range(0, len(raw), line_size)]
        if len(lines) == len(items):
            return lines
        # Counter-0 lines pass through in the clear, in their places.
        enciphered = iter(lines)
        return [
            next(enciphered) if counter != 0 else text for _address, counter, text in items
        ]


def _xor(left: bytes, right: bytes) -> bytes:
    """XOR two equal-length byte strings as one big-integer operation.

    For 64 B lines this is an order of magnitude faster than a per-byte
    generator: CPython performs the XOR over 30-bit limbs in C.
    """
    return (
        int.from_bytes(left, "little") ^ int.from_bytes(right, "little")
    ).to_bytes(len(left), "little")
