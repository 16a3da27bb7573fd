"""N-way sharded memory system with a cross-shard persist barrier.

The scale-out encrypted NVMM of ROADMAP item 2(a): the physical address
space is interleaved across N :class:`MemoryController` instances at
counter-group granularity (:class:`repro.nvm.address.ShardMap`), so each
shard owns complete counter lines, counter-cache entries and BMT
subtrees — no security-metadata structure ever spans controllers.  Every
shard gets its own record log, data/counter/tree write queues, counter
cache (an iso-hardware slice of the configured capacity) and, on
``+bmt`` designs, a Bonsai subtree keyed by its own secure root.

:class:`ShardedMemorySystem` is a drop-in coordinator presenting the
``MemoryController`` surface to the cache hierarchy, the machine, the
snapshot layer and the crash tooling:

* **Addressing** — data addresses are translated global → shard-local
  on entry; shard-local results are translated back on exit.
* **Ciphertext is globally addressed** — shards keep plaintext, like
  the singleton controller, and ciphertext is made only from the
  journals translated to the global space, so crash images (always in
  the global space) carry pads seeded with the *global* line address
  and decrypt with the stock recovery/verification stack.
* **One logical journal** — ``.journal`` merges the per-shard persist
  journals back into the global address space (entry ids remapped
  injectively, records ordered by acceptance time), so
  :class:`repro.crash.injector.CrashInjector` works unchanged.  The
  translated records are cached and shared by ``.journal`` and
  ``shard_journal``, so each record version is enciphered once.
* **Cross-shard commits** — the coordinator tracks per-shard
  acceptance watermarks and runs the two-phase
  :class:`repro.txn.manager.CrossShardBarrier` at every transaction
  commit, appending a durable commit record for recovery's prefix
  reconciliation (``docs/sharding.md``).

``config.shards == 1`` never reaches this module: the machine keeps the
singleton :class:`MemoryController` path, bit-identical to the
pre-sharding simulator under the golden-equivalence fixtures.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import CACHE_LINE_SIZE, SystemConfig
from ..core.designs import DesignPolicy
from ..crypto.counter_cache import CounterCacheStats
from ..errors import ConfigurationError
from ..nvm.address import AddressMap, ShardMap
from ..persist.journal import JournalKind, JournalRecord, PersistJournal, _Amendment
from .atomicity import WriteTicket
from .controller import MemoryController
from .events import ControllerStats
from .layout import ReadResult
from .writequeue import WriteQueue

__all__ = ["ShardedMemorySystem"]

_LINE_MASK = ~(CACHE_LINE_SIZE - 1)


class _QueueView:
    """Read-only fold of one queue role across every shard."""

    def __init__(self, queues: Sequence[WriteQueue]) -> None:
        self._queues = list(queues)

    @property
    def peak_occupancy(self) -> int:
        return max((q.peak_occupancy for q in self._queues), default=0)

    @property
    def accepted(self) -> int:
        return sum(q.accepted for q in self._queues)

    @property
    def coalesced(self) -> int:
        return sum(q.coalesced for q in self._queues)

    @property
    def total_accept_wait_ns(self) -> float:
        return sum(q.total_accept_wait_ns for q in self._queues)


def _shard_cache_size(size_bytes: int, shards: int, ways: int) -> int:
    """Iso-hardware slice of a cache across shards.

    Divides the configured capacity by the shard count, then rounds the
    set count down to a power of two so the slice still satisfies the
    cache geometry constraints.  The floor is one full set.
    """
    set_bytes = ways * CACHE_LINE_SIZE
    sets = max((size_bytes // shards) // set_bytes, 1)
    sets = 1 << (sets.bit_length() - 1)
    return sets * set_bytes


class ShardedMemorySystem:
    """N memory controllers behind one ``MemoryController`` surface."""

    def __init__(self, config: SystemConfig, policy: DesignPolicy) -> None:
        if config.shards < 2:
            raise ConfigurationError(
                "ShardedMemorySystem requires shards >= 2; the singleton "
                "path must keep the stock MemoryController"
            )
        self.config = config
        self.policy = policy
        self.shards = config.shards
        self.shard_map = ShardMap(
            memory_size_bytes=config.memory_size_bytes,
            shards=config.shards,
            num_banks=config.nvm.num_banks,
        )
        #: The *global* address map — crash images, validators and the
        #: integrity verifier all reason in this space.
        self.address_map = AddressMap(
            memory_size_bytes=config.memory_size_bytes,
            num_banks=config.nvm.num_banks,
        )
        shard_config = dataclasses.replace(
            config,
            shards=1,
            memory_size_bytes=self.shard_map.shard_memory_bytes,
            counter_cache=dataclasses.replace(
                config.counter_cache,
                size_bytes=_shard_cache_size(
                    config.counter_cache.size_bytes,
                    config.shards,
                    config.counter_cache.ways,
                ),
            ),
        )
        self.controllers: List[MemoryController] = []
        for shard in range(config.shards):
            cfg = shard_config
            if shard_config.controller.event_trace_path:
                cfg = dataclasses.replace(
                    shard_config,
                    controller=dataclasses.replace(
                        shard_config.controller,
                        event_trace_path="%s.shard%d"
                        % (shard_config.controller.event_trace_path, shard),
                    ),
                )
            self.controllers.append(MemoryController(cfg, policy))
        #: Per-shard acceptance watermarks (latest queue-acceptance time
        #: each shard handed out) — phase one of the commit barrier.
        self._watermarks: Dict[int, float] = {s: 0.0 for s in range(self.shards)}
        #: Commit records live in their own journal so the merged view
        #: can adopt them without copying write records.
        self._commit_log = PersistJournal()
        if not config.functional:
            self._commit_log.enabled = False
        # Deferred import: repro.txn pulls in the crash package, which
        # imports the machine — importing it at module scope would close
        # an import cycle through repro.sim.machine.
        from ..txn.manager import CrossShardBarrier

        self._barrier = CrossShardBarrier(self._commit_log, self.shards)
        #: Each shard's journal translated to the global space, built on
        #: first use and extended as the shard's journal grows.
        self._translated: Optional[List[PersistJournal]] = None
        self._merged_journal: Optional[PersistJournal] = None
        self._merged_key: Tuple[int, ...] = ()

    # ------------------------------------------------------------------
    # Address routing
    # ------------------------------------------------------------------

    def _route(self, address: int) -> Tuple[MemoryController, int, int]:
        line = address & _LINE_MASK
        shard, local_line = self.shard_map.to_local(line)
        return self.controllers[shard], shard, local_line + (address - line)

    # ------------------------------------------------------------------
    # The MemoryController surface
    # ------------------------------------------------------------------

    def read_line(self, address: int, request_ns: float) -> ReadResult:
        controller, _shard, local = self._route(address)
        result = controller.read_line(local, request_ns)
        return dataclasses.replace(result, address=address & _LINE_MASK)

    def write_line(
        self,
        address: int,
        payload: Optional[bytes],
        request_ns: float,
        counter_atomic: bool = False,
    ) -> WriteTicket:
        controller, shard, local = self._route(address)
        ticket = controller.write_line(local, payload, request_ns, counter_atomic)
        if ticket.accept_ns > self._watermarks[shard]:
            self._watermarks[shard] = ticket.accept_ns
        return dataclasses.replace(ticket, address=address & _LINE_MASK)

    def counter_cache_writeback(
        self, address: int, request_ns: float
    ) -> Optional[WriteTicket]:
        controller, shard, local = self._route(address)
        ticket = controller.counter_cache_writeback(local, request_ns)
        if ticket is None:
            return None
        if ticket.accept_ns > self._watermarks[shard]:
            self._watermarks[shard] = ticket.accept_ns
        return ticket

    def peek_line(self, line_address: int) -> bytes:
        controller, _shard, local = self._route(line_address)
        return controller.peek_line(local)

    # ------------------------------------------------------------------
    # Cross-shard persist barrier
    # ------------------------------------------------------------------

    def note_txn_commit(self, core: int, now_ns: float) -> None:
        """Two-phase commit barrier hook, called by the machine at TXN_END."""
        self._barrier.commit(core, now_ns, dict(self._watermarks))

    @property
    def commit_log(self) -> PersistJournal:
        return self._commit_log

    # ------------------------------------------------------------------
    # Merged journal (global address space)
    # ------------------------------------------------------------------

    def shard_journal(self, shard: int) -> PersistJournal:
        """Shard ``shard``'s journal, translated to the global space."""
        return self._translated_journals()[shard]

    def _translate_id(self, entry_id: int, shard: int) -> int:
        # Injective across shards for both queue-entry ids (>= 0) and
        # journal auto ids (< 0).
        if entry_id >= 0:
            return entry_id * self.shards + shard
        return entry_id * self.shards - shard

    def _translate_amendment(self, amendment: _Amendment, shard: int) -> _Amendment:
        group_base = amendment.group_base
        return _Amendment(
            effective_ns=amendment.effective_ns,
            payload=amendment.payload,
            encrypted_with=amendment.encrypted_with,
            group_base=(
                self.shard_map.to_global(shard, group_base)
                if group_base is not None
                else None
            ),
            counters=amendment.counters,
        )

    def _translate_record(self, record: JournalRecord, shard: int) -> JournalRecord:
        to_global = self.shard_map.to_global
        if record.kind is JournalKind.DATA:
            address = to_global(shard, record.address)
            group_base = record.group_base
        else:
            group_base = to_global(shard, record.group_base or 0)
            address = self.address_map.counter_line_address_of(group_base)
        return JournalRecord(
            kind=record.kind,
            entry_id=self._translate_id(record.entry_id, shard),
            address=address,
            accept_ns=record.accept_ns,
            ready_ns=record.ready_ns,
            drain_ns=record.drain_ns,
            payload=record.payload,
            encrypted_with=record.encrypted_with,
            group_base=group_base,
            counters=record.counters,
            single_slot=record.single_slot,
            partner_id=(
                self._translate_id(record.partner_id, shard)
                if record.partner_id is not None
                else None
            ),
            amendments=[self._translate_amendment(a, shard) for a in record.amendments],
        )

    def _translated_journals(self) -> List[PersistJournal]:
        """Every shard's journal in the global space, brought up to date.

        A translated record is built once, the first time a call sees
        its source record; amendments the source gained since are
        translated onto it.  Callers therefore always get the same
        record objects, and the line and tag a crash image memoizes on a
        version (:func:`repro.persist.journal.image_lines`) serve every
        later image, merged or per shard.
        """
        journals = self._translated
        if journals is None:
            journals = self._translated = [PersistJournal() for _ in self.controllers]
        for shard, (controller, journal) in enumerate(zip(self.controllers, journals)):
            source = controller.journal
            journal.enabled = source.enabled
            translated = journal.records
            for record, copy in zip(source.records, translated):
                done = len(copy.amendments)
                if done != len(record.amendments):
                    copy.amendments.extend(
                        self._translate_amendment(a, shard) for a in record.amendments[done:]
                    )
            for record in source.records[len(translated):]:
                copy = self._translate_record(record, shard)
                translated.append(copy)
                journal._by_entry_id[copy.entry_id] = copy
        return journals

    @property
    def journal(self) -> PersistJournal:
        """One logical journal over all shards, in the global space.

        Records are merge-ordered by acceptance time (shard id, then
        per-shard order, break ties), matching the singleton journal's
        replay discipline: records touching the same address always come
        from one shard, so cross-shard order only fixes determinism.
        """
        journals = self._translated_journals()
        key = tuple(len(journal.records) for journal in journals) + (
            len(self._commit_log.commits),
        )
        if self._merged_journal is not None and key == self._merged_key:
            return self._merged_journal
        tagged: List[Tuple[float, int, int, JournalRecord]] = []
        for shard, journal in enumerate(journals):
            for index, record in enumerate(journal.records):
                tagged.append((record.accept_ns, shard, index, record))
        tagged.sort(key=lambda item: (item[0], item[1], item[2]))
        merged = PersistJournal()
        merged.enabled = all(journal.enabled for journal in journals)
        merged.records = [item[3] for item in tagged]
        merged._by_entry_id = {r.entry_id: r for r in merged.records}
        merged.commits = list(self._commit_log.commits)
        self._merged_journal = merged
        self._merged_key = key
        return merged

    # ------------------------------------------------------------------
    # Folded statistics
    # ------------------------------------------------------------------

    @property
    def stats(self) -> ControllerStats:
        merged = ControllerStats()
        for controller in self.controllers:
            stats = controller.stats  # folds the shard's record log
            for field in dataclasses.fields(ControllerStats):
                setattr(
                    merged,
                    field.name,
                    getattr(merged, field.name) + getattr(stats, field.name),
                )
        return merged

    @property
    def data_queue(self) -> _QueueView:
        return _QueueView([c.data_queue for c in self.controllers])

    @property
    def counter_queue(self) -> _QueueView:
        return _QueueView([c.counter_queue for c in self.controllers])

    @property
    def tree_queue(self) -> Optional[_QueueView]:
        queues = [c.tree_queue for c in self.controllers]
        if queues[0] is None:
            return None
        return _QueueView([q for q in queues if q is not None])

    @property
    def counter_cache_stats(self) -> Optional[CounterCacheStats]:
        per_shard = [c.counter_cache_stats for c in self.controllers]
        if per_shard[0] is None:
            return None
        merged = CounterCacheStats()
        for stats in per_shard:
            if stats is None:
                continue
            for field in dataclasses.fields(CounterCacheStats):
                setattr(
                    merged,
                    field.name,
                    getattr(merged, field.name) + getattr(stats, field.name),
                )
        return merged

    def write_traffic_bytes(self) -> int:
        return sum(c.write_traffic_bytes() for c in self.controllers)

    def read_traffic_bytes(self) -> int:
        return sum(c.read_traffic_bytes() for c in self.controllers)
