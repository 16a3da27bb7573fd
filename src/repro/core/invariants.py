"""Counter-atomicity invariant checking (paper Eq. 4).

A post-crash NVM image is *decryptable* at a line if the counter stored
in the architectural counter region equals the counter that was used to
encrypt the ciphertext resident at that line.  The simulator records the
encryption counter as ground truth alongside each persisted line, so the
checker can decide decryptability exactly — and, in functional mode,
demonstrate it by actually decrypting with both counters and comparing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..crypto.counters import CounterStore
from ..crypto.otp import OTPCipher
from ..nvm.device import NVMDevice


@dataclass(frozen=True)
class AtomicityViolation:
    """One undecryptable line in a crash image."""

    address: int
    stored_counter: int
    encrypted_with: int

    def describe(self) -> str:
        return (
            "line 0x%x encrypted with counter %d but NVM holds counter %d "
            "(Eq. 4: decryption yields garbage)"
            % (self.address, self.encrypted_with, self.stored_counter)
        )


def check_counter_atomicity(
    device: NVMDevice,
    counter_store: CounterStore,
    addresses: Optional[List[int]] = None,
) -> List[AtomicityViolation]:
    """Find every data line whose counter is out of sync.

    ``addresses``: restrict to these line addresses; default scans every
    touched data line.  Returns an empty list iff the image satisfies
    counter-atomicity everywhere it was asked to look.
    """
    violations: List[AtomicityViolation] = []
    address_map = device.address_map
    if addresses is None:
        candidates = [
            a for a in device.touched_lines() if address_map.is_data_address(a)
        ]
    else:
        candidates = [address_map.line_base(a) for a in addresses]
    for line_address in candidates:
        stored = device.read_line(line_address)
        architectural = counter_store.read(line_address)
        if stored.encrypted_with != architectural:
            violations.append(
                AtomicityViolation(
                    address=line_address,
                    stored_counter=architectural,
                    encrypted_with=stored.encrypted_with,
                )
            )
    return violations


def demonstrate_garbage(
    cipher: OTPCipher,
    device: NVMDevice,
    counter_store: CounterStore,
    line_address: int,
) -> Dict[str, bytes]:
    """Decrypt one line with both the correct and the stored counter.

    ``device`` holds ciphertext, as a crash image's device does (the
    live controller's device holds plaintext).  Returns
    ``{"with_true_counter": ..., "with_stored_counter": ...}`` so
    callers (examples, tests) can show that a stale counter really
    produces different — garbage — plaintext, not a detectable error.
    """
    stored = device.read_line(line_address)
    true_plain = cipher.decrypt(line_address, stored.encrypted_with, stored.payload)
    arch_counter = counter_store.read(line_address)
    seen_plain = cipher.decrypt(line_address, arch_counter, stored.payload)
    return {"with_true_counter": true_plain, "with_stored_counter": seen_plain}
