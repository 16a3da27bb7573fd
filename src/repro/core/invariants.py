"""Counter-atomicity invariant checking (paper Eq. 4).

A post-crash NVM image is *decryptable* at a line if the counter stored
in the architectural counter region equals the counter that was used to
encrypt the ciphertext resident at that line.  The simulator records the
encryption counter as ground truth alongside each persisted line, so the
checker can decide decryptability exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..crypto.counters import CounterStore
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
