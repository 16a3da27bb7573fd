"""Power-failure injection.

A crash at time T has these effects (paper Sections 2-5):

* All volatile state disappears: CPU caches, the counter cache, and any
  write-queue entry whose ready bit is still 0.
* The ADR logic drains every *ready* write-queue entry, so those writes
  persist even though they had not reached the NVM array.
* The NVM array keeps whatever had drained before T.

The persist journal encodes all three rules.  The injector keeps one
:class:`~repro.persist.journal.PersistCursor` per ADR mode, so images
at ascending instants come from one forward sweep of the journal, each
applying only what changed since the previous instant; an earlier
instant restarts the sweep.  On a sharded machine the ADR drain is per
controller, and a failure in which some shards lose their reserve
(:meth:`CrashInjector.crash_shards`) comes from one cursor per shard
journal and ADR mode.  Images under an ``adr_budget`` depend on a
drain count, not only on the instant, and keep the journal's one-pass
replay.  Every image is a fresh device and counter store, filled in
ascending address order.  The journal holds plaintext with each line's
counter; an image of an encrypted design holds the ciphertext NVM
would.  Each journal record version has one image line
(:func:`~repro.persist.journal.image_lines`), enciphered at most once
per run and shared by every image that holds the version, and one
ECC-lane tag, computed at most once per run.  The image records which
version each line came from, so recovery can take an untouched line's
plaintext from its version instead of decrypting it.  The injector also
enumerates the interesting crash instants of a finished run — every
boundary where the durable state can change.  A timing-only run
(``config.functional`` False) keeps no journal, so the injector refuses
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, cast

from ..config import EncryptionConfig, SystemConfig
from ..crypto.counters import CounterStore
from ..crypto.integrity import IntegrityEngine
from ..crypto.otp import OTPCipher, make_block_cipher
from ..errors import ConfigurationError, SimulationError
from ..faults.base import FaultEvent, FaultModel, apply_fault_models
from ..mem.sharded import ShardedMemorySystem
from ..nvm.address import AddressMap
from ..nvm.device import NVMDevice
from ..persist.journal import (
    LineVersion,
    PersistCursor,
    PersistJournal,
    ascending,
    image_lines,
)
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
    #: The journal version each line was built from (line address ->
    #: record or amendment, whose ``line`` the device holds), and the
    #: encryption config those lines are enciphered under (None: in the
    #: clear).  Recovery takes the plaintext of a line still holding its
    #: version's own object from the version.  Both are None on an image
    #: not built from the journal (a nested crash image).
    versions: Optional[Dict[int, LineVersion]] = None
    enciphered_with: Optional[EncryptionConfig] = None

    @property
    def address_map(self) -> AddressMap:
        return self.device.address_map


class CrashInjector:
    """Builds crash images from a finished simulation."""

    def __init__(self, result: SimulationResult) -> None:
        if not result.config.functional:
            raise ConfigurationError(
                "%s: a timing-only run (config.functional False) keeps no crash "
                "state; crash images need a functional config" % result.policy.name
            )
        self.result = result
        self._journal = result.controller.journal
        self._address_map = result.controller.address_map
        #: The ideal design's evaluation fiction: counters always
        #: persist, so its images are decryptable by construction.
        self._magic_counters = result.policy.magic_counter_persistence
        self._integrity = result.policy.integrity_tree
        self._config = result.config
        self._cipher = result.image_cipher()
        self._enciphered_with = result.config.encryption if self._cipher else None
        self._tag_engine: Optional[IntegrityEngine] = None
        self._tree_engine = None
        #: One forward sweep of the journal per ADR mode.
        self._cursors = {
            adr: PersistCursor(self._journal, adr) for adr in (True, False)
        }
        #: Each shard's journal and its sweep per ADR mode, made on the
        #: first shard-subset image (sharded runs only).
        self._shards: Optional[List[PersistJournal]] = None
        self._shard_cursors: List[Dict[bool, PersistCursor]] = []

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
        ADR reserve can fund (see ``PersistJournal.persisted_at``); such
        images come from that replay, every other from the cursor of
        its ADR mode.  Data lines of encrypted designs hold their
        ciphertext.
        """
        # Lines and counter slots come in ascending address order.
        if adr_budget is None:
            versions, counters, pending = self._cursors[adr].state_at(crash_ns)
        else:
            persisted, slots = self._journal.persisted_at(crash_ns, adr, adr_budget)
            versions, counters = ascending(persisted), ascending(slots)
            pending = self._cursors[True].state_at(crash_ns)[2] if adr else 0
        # The secure root covers the unbudgeted ADR counters (see _image).
        covered = counters
        if self._integrity and not (adr and adr_budget is None):
            covered = self._cursors[True].state_at(crash_ns)[1]
        return self._image(crash_ns, versions, counters, pending, covered)

    def shard_journals(self) -> List[PersistJournal]:
        """Every shard's journal in the global address space, fetched once.

        Raises :class:`~repro.errors.SimulationError` unless the run had
        a sharded memory system.
        """
        if self._shards is None:
            controller = self.result.controller
            if not isinstance(controller, ShardedMemorySystem):
                raise SimulationError(
                    "shard-subset crashes need a sharded memory system; "
                    "run with config.shards >= 2"
                )
            self._shards = [controller.shard_journal(s) for s in range(controller.shards)]
            self._shard_cursors = [
                {adr: PersistCursor(journal, adr) for adr in (True, False)}
                for journal in self._shards
            ]
        return self._shards

    def crash_shards(
        self,
        crash_ns: float,
        failed_shards: Iterable[int],
        adr_budget: Optional[int] = None,
    ) -> CrashImage:
        """The durable state when ``failed_shards`` die mid-drain at ``crash_ns``.

        On a sharded machine the ADR drain is per controller.  Healthy
        shards drain with the full ADR guarantee; failed shards keep
        only array-drained writes, plus at most ``adr_budget`` ready
        entries if their reserve died partway.  A healthy shard comes
        from its ADR cursor and a failed one from its no-ADR cursor;
        only a failed shard under a budget replays its journal.  Shard
        journals are in the global address space and share their
        records with the merged journal, so the image feeds the stock
        recovery stack and shares every version's line and tag.

        The secure root (``+bmt`` designs) covers every shard's
        unbudgeted ADR counters, as :meth:`crash_at`'s does: each
        shard's register acknowledged ready counters before power died,
        so counters a failed drain then dropped surface as a root
        mismatch.
        """
        journals = self.shard_journals()
        failed = frozenset(failed_shards)
        for shard in failed:
            if not 0 <= shard < len(journals):
                raise SimulationError("failed shard %d out of range" % shard)
        versions: Dict[int, LineVersion] = {}
        counters: Dict[int, int] = {}
        covered: Dict[int, int] = {}
        pending = 0
        for shard, cursors in enumerate(self._shard_cursors):
            if shard not in failed:
                shard_versions, shard_counters, shard_pending = cursors[True].state_at(
                    crash_ns
                )
                pending += shard_pending
            elif adr_budget is None:
                shard_versions, shard_counters, _ = cursors[False].state_at(crash_ns)
            else:
                shard_versions, shard_counters = journals[shard].persisted_at(
                    crash_ns, True, adr_budget
                )
            versions.update(shard_versions)
            counters.update(shard_counters)
            if self._integrity:
                covered.update(
                    cursors[True].state_at(crash_ns)[1] if shard in failed else shard_counters
                )
        return self._image(
            crash_ns, ascending(versions), ascending(counters), pending, covered
        )

    def _image(
        self,
        crash_ns: float,
        versions: Dict[int, LineVersion],
        counters: Dict[int, int],
        pending: int,
        covered: Mapping[int, int],
    ) -> CrashImage:
        """The image holding ``versions`` and ``counters`` (ascending order).

        Every image is a fresh device and counter store, filled in
        ascending address order.  On ``+bmt`` designs the image gets
        the secure root over ``covered``, the *unbudgeted* ADR counters:
        the register is updated as the controller persists counters, so
        it covers ready entries even when a failing ADR reserve later
        drops them — the resulting root mismatch is the detection.  Tags
        are those of the image's own lines, each from its version's memo
        (:func:`version_tags`); fault models mutate the image only after
        this, so mutations surface as tag mismatches.
        """
        device = NVMDevice(self._address_map, track_wear=False)
        device.restore(image_lines(versions, self._cipher))
        store = CounterStore(
            counter_region_base=self._address_map.counter_region_base,
            memory_size_bytes=self._address_map.memory_size_bytes,
        )
        store.restore(counters)
        image = CrashImage(
            crash_ns=crash_ns,
            device=device,
            counter_store=store,
            design=self.result.policy.name,
            adr_pending=pending,
            versions=versions,
            enciphered_with=self._enciphered_with,
        )
        if self._integrity:
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
            image.secure_root = self._tree_engine.root_over(covered)
            image.line_tags = version_tags(versions, self._address_map, self._tag_engine)
        return image

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
    lines = device.snapshot()
    is_data = device.address_map.is_data_address
    items = [
        (address, lines[address].encrypted_with, lines[address].payload)
        for address in sorted(lines)
        if is_data(address)
    ]
    return dict(zip([address for address, _, _ in items], engine.tag_many(items)))


def version_tags(
    versions: Mapping[int, LineVersion], address_map: AddressMap, engine: IntegrityEngine
) -> Dict[int, bytes]:
    """:func:`tag_data_lines` of an image whose lines are ``versions``' own.

    Until a fault model runs, an image's line is its version's ``line``
    object, so its tag depends on the version alone: each version keeps
    the tag the first image that needed it computed (one
    :meth:`~repro.crypto.integrity.IntegrityEngine.tag_many` batch over
    the untagged versions).  A tag belongs to the engine that first
    computed it: pass only an engine built from the run's own
    ``config.encryption``.
    """
    is_data = address_map.is_data_address
    data = [(address, version) for address, version in versions.items() if is_data(address)]
    fresh = [(address, version) for address, version in data if version.tag is None]
    if fresh:
        tags = engine.tag_many(
            [
                (address, version.encrypted_with, version.line.payload)  # type: ignore[union-attr]
                for address, version in fresh
            ]
        )
        for (_address, version), tag in zip(fresh, tags):
            version.tag = tag
    return cast(Dict[int, bytes], {address: version.tag for address, version in data})


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
    device.restore(ascending(image.device.snapshot()))
    store = CounterStore(
        counter_region_base=address_map.counter_region_base,
        memory_size_bytes=address_map.memory_size_bytes,
    )
    store.restore(image.counter_store.snapshot())
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
