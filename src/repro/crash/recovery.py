"""Post-crash memory recovery.

After a reboot, the memory controller decrypts each line with the
counter found in the architectural counter region — exactly what a real
controller would do.  The simulator additionally knows the counter each
line was *actually* encrypted with, so it can report (rather than
silently return garbage for) every line where the two disagree.

:class:`RecoveredMemory` is the byte-level view that transaction-level
recovery (:mod:`repro.txn`) runs on.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Set, Tuple

from ..config import CACHE_LINE_SIZE, EncryptionConfig
from ..core.invariants import AtomicityViolation, check_counter_atomicity
from ..crypto.otp import OTPCipher, make_block_cipher
from ..errors import DecryptionFailure
from ..utils.bitops import align_down, bytes_to_u64
from .injector import CrashImage

_ZERO_LINE = bytes(CACHE_LINE_SIZE)
_U64 = struct.Struct("<Q")


class GarbageRead(bytes):
    """Bytes from a non-strict read that touched undecryptable lines.

    A real controller cannot tell garbage from data: the read succeeds
    and returns whatever the wrong pad produced.  The simulator returns
    this ``bytes`` subtype instead of silently zero-filling or handing
    back anonymous bytes, so callers — and the crash checker's
    accounting — can distinguish decrypted garbage from a legitimately
    zero untouched line without any behavioural change for code that
    just wanted the bytes.
    """

    __slots__ = ()


@dataclass
class RecoveredMemory:
    """Decrypted post-crash memory with undecryptable-line tracking."""

    image: CrashImage
    plaintext_lines: Dict[int, bytes]
    garbage_lines: Set[int]
    #: How many non-strict reads returned :class:`GarbageRead` data.
    garbage_reads: int = 0

    def read(self, address: int, length: int, strict: bool = True) -> bytes:
        """Read recovered plaintext bytes.

        ``strict=True`` raises :class:`DecryptionFailure` when the read
        touches a line whose counter was out of sync — recovery code
        that *depends* on such a line is broken.  ``strict=False``
        returns the garbage as a :class:`GarbageRead` (a ``bytes``
        subtype), mirroring real hardware while keeping the taint
        visible to callers that care.
        """
        result = bytearray()
        offset = address
        remaining = length
        garbage_hit = False
        while remaining > 0:
            line = align_down(offset, CACHE_LINE_SIZE)
            if line in self.garbage_lines:
                if strict:
                    raise DecryptionFailure(line)
                garbage_hit = True
            payload = self.plaintext_lines.get(line, _ZERO_LINE)
            start = offset - line
            take = min(remaining, CACHE_LINE_SIZE - start)
            result.extend(payload[start : start + take])
            offset += take
            remaining -= take
        if garbage_hit:
            self.garbage_reads += 1
            return GarbageRead(result)
        return bytes(result)

    def read_u64(self, address: int, strict: bool = True) -> int:
        return bytes_to_u64(self.read(address, 8, strict=strict))

    def is_garbage(self, address: int) -> bool:
        return align_down(address, CACHE_LINE_SIZE) in self.garbage_lines

    def fingerprint(self) -> str:
        """Content hash of the recovered state.

        Covers the plaintext lines and the garbage set — everything
        recovery and validation observe — so two recoveries are
        bit-identical iff their fingerprints match.  Used by the
        nested-crash determinism and resume-equivalence properties.
        """
        lines = self.plaintext_lines
        addresses = sorted(lines)
        # One buffer, one hash: each address as a little-endian u64 (line
        # addresses and log targets read back as u64), then its line.
        pack = _U64.pack
        blob = b"".join(
            chain.from_iterable(zip(map(pack, addresses), map(lines.__getitem__, addresses)))
        )
        blob += b"|garbage|" + b"".join(map(pack, sorted(self.garbage_lines)))
        return hashlib.sha256(blob).hexdigest()


class RecoveryManager:
    """Decrypts crash images the way a rebooted controller would."""

    def __init__(self, encryption: EncryptionConfig) -> None:
        self.encryption = encryption
        self._cipher = OTPCipher(make_block_cipher(encryption))

    def recover(self, image: CrashImage, encrypted: bool = True) -> RecoveredMemory:
        """Decrypt every touched data line of ``image``.

        For unencrypted designs pass ``encrypted=False``: payloads are
        stored in the clear and counters are irrelevant.  Encrypted
        images decrypt in one :meth:`~repro.crypto.otp.OTPCipher.decrypt_lines`
        batch, byte- and pad-cache-identical to per-line ``decrypt``.
        """
        plaintext: Dict[int, bytes] = {}
        garbage: Set[int] = set()
        address_map = image.address_map
        device = image.device
        read_counter = image.counter_store.read
        items: List[Tuple[int, int, bytes]] = []
        for line in device.touched_lines():
            if not address_map.is_data_address(line):
                continue
            stored = device.read_line(line)
            if not encrypted:
                plaintext[line] = stored.payload
                continue
            architectural = read_counter(line)
            items.append((line, architectural, stored.payload))
            if architectural != stored.encrypted_with:
                # Eq. 4: wrong pad -> garbage plaintext.
                garbage.add(line)
        decrypted = self._cipher.decrypt_lines(items)
        plaintext.update(zip([line for line, _, _ in items], decrypted))
        return RecoveredMemory(
            image=image, plaintext_lines=plaintext, garbage_lines=garbage
        )

    def violations(self, image: CrashImage) -> List[AtomicityViolation]:
        """All counter-atomicity violations in the image."""
        return check_counter_atomicity(image.device, image.counter_store)
