"""Per-line integrity tags (MACs) for encrypted NVM lines.

The paper's counter-atomicity guarantees that decryption never *needs*
to fail; it does not give the controller a way to *detect* a failure
when a design is (or a bug makes it) inconsistent — a stale counter
silently yields garbage plaintext.  Secure-processor designs pair
counter-mode encryption with a per-line MAC for exactly this reason,
and the follow-on work to this paper (Osiris, ISCA/MICRO lineage) uses
those MACs to make counters *recoverable*: try candidate counters until
the MAC verifies.

This module provides the tag substrate:

    tag = PRF(tag_key, address || counter || ciphertext)[:8]

The tag binds the line's address, the counter version, and the stored
ciphertext, so a verifier can test a candidate counter without any
simulator ground truth — the property
:mod:`repro.crash.counter_recovery` exploits.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..config import CACHE_LINE_SIZE, EncryptionConfig
from ..errors import CryptoError
from ..utils.accel import np as _np
from .prf import NP_BATCH_MIN, SplitMixPRF

TAG_BYTES = 8

_HEADER = struct.Struct("<QQ")
_LINE_ERROR = "integrity tags cover whole %d B lines" % CACHE_LINE_SIZE
_TAG_ERROR = "integrity tags are %d bytes" % TAG_BYTES


def derive_tag_key(config: EncryptionConfig) -> bytes:
    """Derive an independent tag key from the encryption key."""
    mixer = SplitMixPRF(config.key)
    return mixer.encrypt_block(b"integrity-tag-ky")  # 16-byte domain label


class IntegrityEngine:
    """Computes and verifies per-line MACs."""

    def __init__(self, config: EncryptionConfig) -> None:
        self._prf = SplitMixPRF(derive_tag_key(config))

    def tag(self, address: int, counter: int, ciphertext: bytes) -> bytes:
        """MAC over (address, counter, ciphertext)."""
        if len(ciphertext) != CACHE_LINE_SIZE:
            raise CryptoError(_LINE_ERROR)
        encrypt = self._prf.encrypt_block
        # Absorb the ciphertext in 16-byte blocks through the PRF,
        # chaining each output into the next input (CBC-MAC shape; fine
        # for fixed-length messages under an independent key).  Each
        # block XOR is one big-integer operation, as in ``otp._xor``.
        digest = encrypt(_HEADER.pack(address, counter))
        for offset in range(0, CACHE_LINE_SIZE, 16):
            block = int.from_bytes(digest, "little") ^ int.from_bytes(
                ciphertext[offset : offset + 16], "little"
            )
            digest = encrypt(block.to_bytes(16, "little"))
        return digest[:TAG_BYTES]

    def tag_many(self, items: Sequence[Tuple[int, int, bytes]]) -> List[bytes]:
        """:meth:`tag` for many ``(address, counter, ciphertext)`` lines.

        From :data:`~repro.crypto.prf.NP_BATCH_MIN` lines up, the CBC-MAC
        chain runs across all lines at once: five PRF passes over numpy
        uint64 lanes for any number of lines.  Smaller batches, and every
        batch without numpy, call :meth:`tag` per line.
        """
        if _np is None or len(items) < NP_BATCH_MIN:
            tag = self.tag
            return [tag(address, counter, text) for address, counter, text in items]
        texts = [text for _address, _counter, text in items]
        if set(map(len, texts)) != {CACHE_LINE_SIZE}:
            raise CryptoError(_LINE_ERROR)
        encrypt_words = self._prf.encrypt_words
        lo, hi = encrypt_words(
            _np.array([address for address, _counter, _text in items], dtype=_np.uint64),
            _np.array([counter for _address, counter, _text in items], dtype=_np.uint64),
        )
        words = _np.frombuffer(b"".join(texts), dtype="<u8").reshape(len(items), -1)
        for column in range(0, words.shape[1], 2):
            lo, hi = encrypt_words(lo ^ words[:, column], hi ^ words[:, column + 1])
        raw = lo.astype("<u8", copy=False).tobytes()
        return [raw[start : start + TAG_BYTES] for start in range(0, len(raw), TAG_BYTES)]

    def verify(
        self, address: int, counter: int, ciphertext: bytes, tag: bytes
    ) -> bool:
        """Constant-shape verification of a stored tag."""
        if len(tag) != TAG_BYTES:
            raise CryptoError(_TAG_ERROR)
        expected = self.tag(address, counter, ciphertext)
        result = 0
        for a, b in zip(expected, tag):
            result |= a ^ b
        return result == 0


@dataclass(frozen=True)
class TaggedLine:
    """A ciphertext line together with its integrity tag."""

    address: int
    ciphertext: bytes
    tag: bytes

    def verify_with(self, engine: IntegrityEngine, counter: int) -> bool:
        return engine.verify(self.address, counter, self.ciphertext, self.tag)

    def first_verifying(
        self, engine: IntegrityEngine, counters: Sequence[int]
    ) -> Optional[int]:
        """The first of ``counters`` under which the tag verifies, or None.

        Tags every candidate in one :meth:`IntegrityEngine.tag_many`
        batch; the answer equals :meth:`verify_with` tried in order.
        """
        if len(self.tag) != TAG_BYTES:
            raise CryptoError(_TAG_ERROR)
        tags = engine.tag_many(
            [(self.address, counter, self.ciphertext) for counter in counters]
        )
        for counter, tag in zip(counters, tags):
            if tag == self.tag:
                return counter
        return None
