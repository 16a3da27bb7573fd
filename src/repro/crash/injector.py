"""Power-failure injection.

A crash at time T has these effects (paper Sections 2-5):

* All volatile state disappears: CPU caches, the counter cache, and any
  write-queue entry whose ready bit is still 0.
* The ADR logic drains every *ready* write-queue entry, so those writes
  persist even though they had not reached the NVM array.
* The NVM array keeps whatever had drained before T.

The persist journal encodes all three rules, so building a crash image
is a single reconstruction call.  The journal holds plaintext with each
line's counter; an image of an encrypted design holds the ciphertext
NVM would, enciphered in one batch as the image is built (each journal
record version at most once per run).  The injector also enumerates the
interesting crash instants of a finished run — every boundary where the
durable state can change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..config import CACHE_LINE_SIZE, SystemConfig
from ..crypto.counters import CounterStore
from ..crypto.integrity import IntegrityEngine
from ..crypto.otp import OTPCipher, make_block_cipher
from ..faults.base import FaultEvent, FaultModel, apply_fault_models
from ..nvm.address import AddressMap
from ..nvm.device import NVMDevice
from ..sim.machine import SimulationResult


@dataclass
class CrashImage:
    """The durable state visible after a failure at ``crash_ns``."""

    crash_ns: float
    device: NVMDevice
    counter_store: CounterStore
    design: str
    #: Entries that survived this crash only thanks to the ADR drain —
    #: the work an exhausted ADR reserve would have lost (fault models).
    adr_pending: int = 0
    #: Bonsai-tree secure register at the crash (integrity designs).
    #: Captured over everything the controller *persisted* — including
    #: ready entries a budget-limited ADR reserve then drops, which is
    #: exactly how the tree detects a dropped drain.
    secure_root: Optional[int] = None
    #: ECC-lane MACs of the persisted data lines, captured before any
    #: fault model mutates the image (tags ride atomically with data).
    line_tags: Optional[Dict[int, bytes]] = None

    @property
    def address_map(self) -> AddressMap:
        return self.device.address_map


class CrashInjector:
    """Builds crash images from a finished simulation."""

    def __init__(self, result: SimulationResult) -> None:
        self.result = result
        self._journal = result.controller.journal
        self._address_map = result.controller.address_map
        #: The ideal design's evaluation fiction: counters always
        #: persist, so its images are decryptable by construction.
        self._magic_counters = result.policy.magic_counter_persistence
        self._integrity = result.policy.integrity_tree
        self._config = result.config
        self._cipher = result.image_cipher()
        self._tag_engine: Optional[IntegrityEngine] = None
        self._tree_engine = None

    def crash_at(
        self,
        crash_ns: float,
        adr: bool = True,
        adr_budget: Optional[int] = None,
    ) -> CrashImage:
        """Reconstruct the durable state at ``crash_ns``.

        ``adr=False`` models a system without the ADR guarantee (only
        array-drained writes survive) — used by ablation benches.
        ``adr_budget`` limits how many ready-but-undrained entries the
        ADR reserve can fund (see ``PersistJournal.persisted_at``).
        Data lines of encrypted designs hold their ciphertext.
        """
        data_lines, counters = self._journal.reconstruct(
            crash_ns, adr=adr, adr_budget=adr_budget, cipher=self._cipher
        )
        device = NVMDevice(self._address_map, track_wear=False)
        device.install(data_lines)
        # Reconstruction inflates write counters; report reads instead.
        device.line_writes = 0
        store = CounterStore(
            counter_region_base=self._address_map.counter_region_base,
            memory_size_bytes=self._address_map.memory_size_bytes,
        )
        store.install(counters)
        image = CrashImage(
            crash_ns=crash_ns,
            device=device,
            counter_store=store,
            design=self.result.policy.name,
            adr_pending=self._journal.adr_pending(crash_ns) if adr else 0,
        )
        if self._integrity:
            self._capture_integrity(image, crash_ns, adr, adr_budget)
        return image

    def _capture_integrity(
        self, image: CrashImage, crash_ns: float, adr: bool, adr_budget: Optional[int]
    ) -> None:
        """Stamp the image with the secure root and the ECC-lane tags.

        The root is computed over the *unbudgeted* ADR reconstruction:
        the register is updated as the controller persists counters, so
        it covers ready entries even when a failing ADR reserve later
        drops them — the resulting root mismatch is the detection.
        Tags are captured from the (budgeted) image itself; fault
        models mutate the image only after this capture, so mutations
        surface as tag mismatches.
        """
        if self._tree_engine is None:
            # Deferred import: repro.integrity.verifier imports this
            # module, so a top-level import would cycle.
            from ..integrity.tree import IntegrityTreeEngine

            self._tree_engine = IntegrityTreeEngine(
                self._config.encryption,
                self._address_map,
                arity=self._config.integrity.arity,
            )
            self._tag_engine = IntegrityEngine(self._config.encryption)
        if adr and adr_budget is None:
            covered = image.counter_store.snapshot()
        else:
            _, covered = self._journal.persisted_at(crash_ns)
        image.secure_root = self._tree_engine.root_over(covered)
        image.line_tags = tag_data_lines(image.device, self._tag_engine)

    def crash_with_faults(
        self,
        crash_ns: float,
        faults: Sequence[FaultModel],
        seed: int,
        adr: bool = True,
    ) -> Tuple[CrashImage, List[FaultEvent]]:
        """Crash at ``crash_ns`` and apply ``faults`` to the image.

        Models that constrain the ADR drain (``adr_budget``) shape the
        reconstruction itself; the rest mutate the finished image with
        RNG streams derived from ``seed`` so the whole corrupted state
        is reproducible from (simulation, crash_ns, faults, seed).
        """
        budgets = [m.adr_budget for m in faults if m.adr_budget is not None]
        budget = min(budgets) if budgets else None
        image = self.crash_at(crash_ns, adr=adr, adr_budget=budget)
        events = apply_fault_models(image, faults, seed, scope=(crash_ns,))
        return image, events

    # -- crash-point enumeration ---------------------------------------------

    def interesting_times(self, limit: Optional[int] = None) -> List[float]:
        """Times just after each durability event (ready or drain).

        Crashing between two consecutive events is equivalent to
        crashing at the earlier one, so sweeping these covers every
        distinct durable state.  A small epsilon lands strictly after
        the event.
        """
        times = set()
        for record in self._journal.records:
            for stamp in (record.ready_ns, record.drain_ns):
                if stamp != float("inf"):
                    times.add(stamp)
            for amendment in record.amendments:
                times.add(amendment.effective_ns)
        ordered = uniform_sample(sorted(times), limit)
        epsilon = 1e-6
        return [t + epsilon for t in ordered]

    def midpoint_times(self, limit: Optional[int] = None) -> List[float]:
        """Times strictly *between* durability events.

        These catch in-flight states: e.g. a pair whose data entry is
        accepted but whose counter entry is not.
        """
        boundaries = sorted(
            {r.accept_ns for r in self._journal.records}
            | {r.ready_ns for r in self._journal.records if r.ready_ns != float("inf")}
            | {r.drain_ns for r in self._journal.records if r.drain_ns != float("inf")}
        )
        midpoints = [
            (a + b) / 2.0 for a, b in zip(boundaries, boundaries[1:]) if b > a
        ]
        return uniform_sample(midpoints, limit)


def tag_data_lines(device: NVMDevice, engine: IntegrityEngine) -> Dict[int, bytes]:
    """ECC-lane tags of every data line persisted in ``device``.

    Each tag covers the ciphertext as persisted and the counter it was
    really encrypted with: tags ride in the ECC lanes, atomic with each
    data write.  All lines are tagged in one
    :meth:`~repro.crypto.integrity.IntegrityEngine.tag_many` batch.
    """
    is_data = device.address_map.is_data_address
    items: List[Tuple[int, int, bytes]] = []
    for address in device.touched_lines():
        if is_data(address):
            stored = device.read_line(address)
            items.append((address, stored.encrypted_with, stored.payload))
    return dict(zip([address for address, _, _ in items], engine.tag_many(items)))


def nested_crash_image(
    image: CrashImage,
    persisted: Mapping[int, bytes],
    config: SystemConfig,
    encrypted: bool = True,
) -> CrashImage:
    """The durable state after a power failure *during* recovery.

    ``persisted`` maps line address -> plaintext for every recovery-side
    write that completed before the nested crash.  The controller
    persists recovery writes exactly like foreground writes — bump the
    line counter, re-encrypt under the new counter, refresh the ECC-lane
    tag, fold the counter into the integrity tree — so the second image
    is built the same way: base image plus the completed writes pushed
    through the full encrypt path.  Torn recovery writes arrive here
    already merged (new prefix + old tail) by the recovery context; the
    merge persists under a *consistent* counter, so it decrypts cleanly
    and only idempotent replay can fix it — detection machinery cannot.

    Counter mutations recovery made in place (Osiris search, tree
    repair) are carried over by snapshotting ``image.counter_store``,
    so a nested crash after a repaired counter keeps the repair.
    """
    address_map = image.address_map
    device = NVMDevice(address_map, track_wear=False)
    base = image.device.snapshot()
    device.install(
        {
            address: (base[address].payload, base[address].encrypted_with)
            for address in sorted(base)
        }
    )
    device.line_writes = 0
    store = CounterStore(
        counter_region_base=address_map.counter_region_base,
        memory_size_bytes=address_map.memory_size_bytes,
    )
    store.install(image.counter_store.snapshot())
    cipher = OTPCipher(make_block_cipher(config.encryption)) if encrypted else None
    tags: Optional[Dict[int, bytes]] = (
        dict(image.line_tags) if image.line_tags is not None else None
    )
    tag_engine = IntegrityEngine(config.encryption) if tags is not None else None
    for address in sorted(persisted):
        plaintext = persisted[address]
        if cipher is None:
            device.persist_line(address, plaintext, 0)
            if tags is not None and tag_engine is not None:
                tags[address] = tag_engine.tag(address, 0, plaintext)
            continue
        counter = store.read(address) + 1
        store.write(address, counter)
        ciphertext = cipher.encrypt(address, counter, plaintext)
        device.persist_line(address, ciphertext, counter)
        if tags is not None and tag_engine is not None:
            tags[address] = tag_engine.tag(address, counter, ciphertext)
    secure_root = image.secure_root
    if secure_root is not None:
        # Deferred import: repro.integrity.verifier imports this module.
        from ..integrity.tree import IntegrityTreeEngine

        tree_engine = IntegrityTreeEngine(
            config.encryption, address_map, arity=config.integrity.arity
        )
        secure_root = tree_engine.root_over(store.snapshot())
    return CrashImage(
        crash_ns=image.crash_ns,
        device=device,
        counter_store=store,
        design=image.design,
        adr_pending=image.adr_pending,
        secure_root=secure_root,
        line_tags=tags,
    )


def uniform_sample(ordered: List[float], limit: Optional[int]) -> List[float]:
    """Up to ``limit`` elements, uniformly spread, keeping first and last.

    ``limit=1`` keeps just the first element (the old step formula
    divided by zero there); ``limit<=0`` keeps nothing.
    """
    if limit is None or len(ordered) <= limit:
        return ordered
    if limit <= 0:
        return []
    if limit == 1:
        return ordered[:1]
    step = (len(ordered) - 1) / (limit - 1)
    return [ordered[round(i * step)] for i in range(limit)]
