"""Osiris-style counter recovery (an extension of the paper).

The paper enforces counter-atomicity so that data and counter never go
out of sync.  The follow-on line of work makes the opposite trade:
allow them to go out of sync by a *bounded* amount and recover the lost
counters after a crash by search — for each undecryptable line, try
candidate counters near the stored one and accept the one whose
integrity tag verifies.  The bound comes from flushing the counter at
least every K updates, so the true counter is always within K of the
persisted one.

This module implements that recovery over the simulator's crash images,
given per-line integrity tags (:mod:`repro.crypto.integrity`).  It is
used by the extension bench to show (a) how many unsafe-design crash
states become recoverable with tags + search, and (b) why bounding the
counter lag matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..config import CACHE_LINE_SIZE, EncryptionConfig
from ..crypto.integrity import IntegrityEngine, TaggedLine
from ..crypto.otp import OTPCipher, make_block_cipher
from .injector import CrashImage, tag_data_lines

if TYPE_CHECKING:  # pragma: no cover - typing only (session imports us)
    from .session import RecoveryContext


@dataclass
class CounterRecoveryReport:
    """Outcome of one counter-recovery pass over a crash image."""

    lines_checked: int = 0
    already_consistent: int = 0
    recovered: int = 0
    unrecoverable: int = 0
    #: address -> recovered counter, for the lines the search fixed.
    recovered_counters: Dict[int, int] = field(default_factory=dict)
    #: Total candidate counters tried (the search cost).
    candidates_tried: int = 0

    @property
    def recovery_rate(self) -> float:
        broken = self.recovered + self.unrecoverable
        if broken == 0:
            return 1.0
        return self.recovered / broken


class CounterRecoverer:
    """Searches for lost counters using integrity tags."""

    def __init__(self, encryption: EncryptionConfig, max_lag: int = 64) -> None:
        if max_lag < 1:
            raise ValueError("counter search needs a positive lag bound")
        self.max_lag = max_lag
        self.integrity = IntegrityEngine(encryption)
        self.cipher = OTPCipher(make_block_cipher(encryption))

    def recover_line(
        self, line: TaggedLine, stored_counter: int
    ) -> Optional[int]:
        """Find the true counter for one line, or None.

        Tries the architecturally stored counter first, then counters
        up to ``max_lag`` ahead of it (writes only ever advance the
        counter, so the persisted value can only lag).  The whole
        window is tagged in one batch; the first candidate whose tag
        matches wins.
        """
        return line.first_verifying(
            self.integrity, range(stored_counter, stored_counter + self.max_lag + 1)
        )

    def recover_image(
        self,
        image: CrashImage,
        tags: Optional[Dict[int, bytes]] = None,
        context: Optional["RecoveryContext"] = None,
    ) -> CounterRecoveryReport:
        """Run counter recovery over every tagged data line of an image.

        ``tags`` maps line address -> the integrity tag persisted with
        the line's current NVM ciphertext.  When omitted, tags are
        materialized from the image itself via :func:`collect_tags` —
        modeling a design whose tags ride in the ECC lanes and are
        therefore inherently atomic with each data write.

        Each line of the sweep is one restartable
        :meth:`~repro.crash.session.RecoveryContext.step`: recovered
        counters are written into ``image.counter_store`` (an 8-byte
        crash-atomic write) before the step completes, so a nested
        crash mid-sweep loses nothing — retrying the sweep finds every
        already-repaired line consistent and skips it.
        """
        if context is None:
            from .session import RecoveryContext

            context = RecoveryContext()
        context.enter_phase("counter-search")
        if tags is None:
            tags = collect_tags(image, self)
        report = CounterRecoveryReport()
        for address, tag in sorted(tags.items()):
            if not image.address_map.is_data_address(address):
                continue
            stored = image.device.read_line(address)
            line = TaggedLine(address=address, ciphertext=stored.payload, tag=tag)
            architectural = image.counter_store.read(address)
            report.lines_checked += 1
            if architectural == stored.encrypted_with:
                report.already_consistent += 1
                context.step()
                continue
            found = self.recover_line(line, architectural)
            report.candidates_tried += (
                (found - architectural + 1)
                if found is not None
                else self.max_lag + 1
            )
            if found is not None and found == stored.encrypted_with:
                report.recovered += 1
                report.recovered_counters[address] = found
                image.counter_store.write(address, found)
            else:
                report.unrecoverable += 1
            context.step()
        return report


def collect_tags(image: CrashImage, recoverer: CounterRecoverer) -> Dict[int, bytes]:
    """Tags for the data lines persisted in a crash image.

    Models a design that writes the tag together with each data line:
    tags ride in the ECC lanes, so they are inherently atomic with the
    data — the assumption the follow-on work makes.  The tag is
    computed over the ciphertext *as persisted* and the counter it was
    really encrypted with; recovery never reads that counter directly,
    it only observes which candidate makes the tag verify.
    """
    return tag_data_lines(image.device, recoverer.integrity)
