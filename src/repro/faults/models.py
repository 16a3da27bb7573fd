"""The concrete fault models.

Each model produces a post-crash state the clean power-cut injector
cannot: torn 64 B persists (SuperMem's torn security-metadata worry),
bit flips in data or counter regions (media errors), counter-line
corruption (the state Osiris-style recovery exists to fix), and an ADR
drain cut short by an exhausted energy reserve.

Stale content convention: the simulator's device reads unwritten lines
as zeroes, so "the old content of this word" is reconstructed as the
zero line when no earlier durable value is available — a torn tail
therefore reads as stale zeroes, and a torn counter slot reverts to the
previous counter value (one below the persisted one).
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..config import CACHE_LINE_SIZE
from ..crypto.counters import COUNTER_LIMIT
from .base import (
    FaultEvent,
    FaultModel,
    require,
    touched_counter_groups,
    touched_data_lines,
)

#: Torn writes happen at the NVM row-buffer word granularity.
TEAR_GRANULARITY = 8


class NoFault(FaultModel):
    """The clean power-cut baseline: every campaign's control row."""

    name = "none"

    def apply(self, image, rng: random.Random) -> List[FaultEvent]:
        return []


class TornDataLineWrite(FaultModel):
    """A 64 B data-line persist torn partway through.

    The first ``tear`` bytes of the chosen line persisted; the tail
    reverts to stale (zero) content.  The counter ground truth is left
    untouched: the line still *decrypts* with its architectural counter,
    so the corruption is invisible to the Eq.-4 counter check and only
    a content-level oracle (checksums, integrity tags, the campaign
    validator) can catch it — precisely the silent-corruption vector.
    """

    name = "torn-data"

    def __init__(self, lines: int = 1) -> None:
        require(lines >= 1, "torn-data needs at least one line to tear")
        self.lines = lines

    def params(self) -> Dict[str, object]:
        return {"lines": self.lines}

    def apply(self, image, rng: random.Random) -> List[FaultEvent]:
        candidates = touched_data_lines(image)
        if not candidates:
            return []
        events: List[FaultEvent] = []
        chosen = rng.sample(candidates, min(self.lines, len(candidates)))
        for line in sorted(chosen):
            stored = image.device.read_line(line)
            tear = rng.randrange(
                TEAR_GRANULARITY, CACHE_LINE_SIZE, TEAR_GRANULARITY
            )
            torn = stored.payload[:tear] + bytes(CACHE_LINE_SIZE - tear)
            if torn == stored.payload:
                continue
            image.device.persist_line(line, torn, stored.encrypted_with)
            events.append(
                FaultEvent(
                    model=self.name,
                    kind="torn-line",
                    address=line,
                    detail="persisted first %d of %d bytes" % (tear, CACHE_LINE_SIZE),
                )
            )
        return events


class TornCounterLineWrite(FaultModel):
    """A counter-line persist torn partway through its eight slots.

    Slots past the tear point revert to their previous value (one write
    back).  Data lines covered by the reverted slots become
    undecryptable — the security-metadata crash state SuperMem guards
    against with its counter write-through.
    """

    name = "torn-counter"

    def __init__(self, groups: int = 1) -> None:
        require(groups >= 1, "torn-counter needs at least one group to tear")
        self.groups = groups

    def params(self) -> Dict[str, object]:
        return {"groups": self.groups}

    def apply(self, image, rng: random.Random) -> List[FaultEvent]:
        candidates = touched_counter_groups(image)
        if not candidates:
            return []
        events: List[FaultEvent] = []
        chosen = rng.sample(candidates, min(self.groups, len(candidates)))
        for group in sorted(chosen):
            slots = image.counter_store.read_counter_line(group)
            tear = rng.randrange(1, len(slots))
            stale = []
            for slot, value in enumerate(slots):
                stale.append(value - 1 if slot >= tear and value > 0 else value)
            if tuple(stale) == slots:
                continue
            image.counter_store.write_counter_line(group, tuple(stale))
            events.append(
                FaultEvent(
                    model=self.name,
                    kind="torn-counter-line",
                    address=group,
                    detail="slots %d..%d reverted one write" % (tear, len(slots) - 1),
                )
            )
        return events


class BitFlip(FaultModel):
    """Random bit flips in the data or counter region (media errors)."""

    name = "bitflip"

    def __init__(self, region: str = "data", flips: int = 1) -> None:
        require(region in ("data", "counter"), "bitflip region is 'data' or 'counter'")
        require(flips >= 1, "bitflip needs at least one flip")
        self.region = region
        self.flips = flips
        self.name = "bitflip-%s" % region

    def params(self) -> Dict[str, object]:
        return {"region": self.region, "flips": self.flips}

    def apply(self, image, rng: random.Random) -> List[FaultEvent]:
        if self.region == "data":
            return self._flip_data(image, rng)
        return self._flip_counters(image, rng)

    def _flip_data(self, image, rng: random.Random) -> List[FaultEvent]:
        candidates = touched_data_lines(image)
        if not candidates:
            return []
        events: List[FaultEvent] = []
        for _ in range(self.flips):
            line = rng.choice(candidates)
            stored = image.device.read_line(line)
            bit = rng.randrange(CACHE_LINE_SIZE * 8)
            flipped = bytearray(stored.payload)
            flipped[bit // 8] ^= 1 << (bit % 8)
            image.device.persist_line(line, bytes(flipped), stored.encrypted_with)
            events.append(
                FaultEvent(
                    model=self.name,
                    kind="bit-flip",
                    address=line,
                    detail="bit %d of the stored line" % bit,
                )
            )
        return events

    def _flip_counters(self, image, rng: random.Random) -> List[FaultEvent]:
        candidates = sorted(image.counter_store.touched_lines())
        if not candidates:
            return []
        events: List[FaultEvent] = []
        for _ in range(self.flips):
            line = rng.choice(candidates)
            value = image.counter_store.read(line)
            bit = rng.randrange(COUNTER_LIMIT.bit_length() - 1)
            image.counter_store.write(line, value ^ (1 << bit))
            events.append(
                FaultEvent(
                    model=self.name,
                    kind="bit-flip",
                    address=line,
                    detail="bit %d of the architectural counter" % bit,
                )
            )
        return events


class CounterCorruption(FaultModel):
    """Whole counter values replaced with garbage.

    Unlike :class:`BitFlip` (which may land within a counter-recovery
    search window) the corrupted value is displaced far beyond any
    bounded lag, modeling lost counter blocks that only detection —
    never search — can handle.
    """

    name = "counter-corruption"

    #: Displacement floor; far above any counter-recovery search lag.
    MIN_DISPLACEMENT = 1 << 16

    def __init__(self, lines: int = 1) -> None:
        require(lines >= 1, "counter-corruption needs at least one line")
        self.lines = lines

    def params(self) -> Dict[str, object]:
        return {"lines": self.lines}

    def apply(self, image, rng: random.Random) -> List[FaultEvent]:
        candidates = sorted(image.counter_store.touched_lines())
        if not candidates:
            return []
        events: List[FaultEvent] = []
        chosen = rng.sample(candidates, min(self.lines, len(candidates)))
        for line in sorted(chosen):
            value = image.counter_store.read(line)
            displaced = value + rng.randrange(
                self.MIN_DISPLACEMENT, self.MIN_DISPLACEMENT * 4
            )
            image.counter_store.write(line, displaced % COUNTER_LIMIT)
            events.append(
                FaultEvent(
                    model=self.name,
                    kind="counter-corruption",
                    address=line,
                    detail="counter %d replaced by %d" % (value, displaced),
                )
            )
        return events


class DroppedADRDrain(FaultModel):
    """ADR energy reserve exhausted after draining ``budget`` entries.

    The effect happens while the crash image is *built*: the injector
    passes ``adr_budget`` to the journal reconstruction, which stops
    draining ready-but-undrained write-queue entries once the budget is
    spent.  Because the budget is an energy property, it can split a
    counter-atomic pair — the exact torn-pair state ready bits exist to
    prevent, now reachable for testing.

    ``apply`` only reports how much drain work went unfunded; the
    mutation itself already happened during reconstruction.
    """

    name = "dropped-adr"

    def __init__(self, budget: int = 0) -> None:
        require(budget >= 0, "ADR budget cannot be negative")
        self.budget = budget
        self.adr_budget = budget

    def params(self) -> Dict[str, object]:
        return {"budget": self.budget}

    def apply(self, image, rng: random.Random) -> List[FaultEvent]:
        pending = image.adr_pending
        dropped = max(0, pending - self.budget)
        if dropped == 0:
            return []
        return [
            FaultEvent(
                model=self.name,
                kind="dropped-drain",
                address=0,
                detail="%d of %d ready entries lost (budget %d)"
                % (dropped, pending, self.budget),
            )
        ]
