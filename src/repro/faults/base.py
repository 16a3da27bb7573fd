"""Fault-model substrate: what a fault is and how faults compose.

The paper's crash injector models one failure mode — a clean power cut
with a perfect ADR drain.  Related work assumes a much richer failure
space: Osiris-style counter recovery presumes counters can be lost or
corrupted, and SuperMem worries about torn persists of security
metadata.  A :class:`FaultModel` produces exactly such states by
mutating a reconstructed :class:`~repro.crash.injector.CrashImage`
after the clean power-cut semantics have been applied.

Design rules:

* **Seeded and reproducible** — a model never touches global RNG state;
  it receives a :class:`random.Random` derived deterministically from
  (campaign seed, crash point, model), so the same seed always yields
  the same corrupted image.
* **Composable** — models only mutate the image they are given and
  report what they did as :class:`FaultEvent` records, so several
  models can stack on one image.
* **Observable** — every mutation is reported; silent fault injection
  would make triage impossible.

The one fault that cannot be expressed as an image mutation — an ADR
energy reserve dying mid-drain — is expressed as an ``adr_budget``
constraint the injector honours while *building* the image (see
:meth:`repro.persist.journal.PersistJournal.reconstruct`).
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..config import CACHE_LINE_SIZE, COUNTERS_PER_LINE
from ..errors import FaultInjectionError
from ..utils.bitops import align_down

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (crash -> faults)
    from ..crash.injector import CrashImage

#: Data addresses covered by one 64 B counter line.
COUNTER_GROUP_BYTES = CACHE_LINE_SIZE * COUNTERS_PER_LINE


@dataclass(frozen=True)
class FaultEvent:
    """One concrete mutation a fault model performed on a crash image."""

    model: str
    kind: str
    address: int
    detail: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "model": self.model,
            "kind": self.kind,
            "address": self.address,
            "detail": self.detail,
        }


class FaultModel(abc.ABC):
    """A reproducible corruption applied to a crash image."""

    #: Registry name; concrete models override.
    name: str = "fault"

    #: ADR drain budget this model imposes while the image is built
    #: (``None`` = the paper's unlimited-ADR assumption).
    adr_budget: Optional[int] = None

    @abc.abstractmethod
    def apply(self, image: "CrashImage", rng: random.Random) -> List[FaultEvent]:
        """Mutate ``image`` in place; return every mutation performed.

        Models must tolerate images with nothing to corrupt (e.g. a
        crash before any write persisted) by returning an empty list.

        A model that changes a line replaces it through
        :meth:`~repro.nvm.device.NVMDevice.persist_line` and never
        mutates a :class:`~repro.nvm.device.PersistedLine` in place:
        images share each journal version's line object, and recovery
        takes an untouched line's plaintext from its version.
        """

    def params(self) -> Dict[str, object]:
        """The model's configuration knobs (for journals and reports)."""
        return {}

    def spec(self) -> Dict[str, object]:
        """JSON-ready description: registry name plus parameters."""
        document: Dict[str, object] = {"model": self.name}
        document.update(self.params())
        return document

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        knobs = ", ".join("%s=%r" % kv for kv in sorted(self.params().items()))
        return "%s(%s)" % (type(self).__name__, knobs)


def derive_rng(seed: int, *scope: object) -> random.Random:
    """Deterministic RNG for one (seed, scope...) combination.

    Seeding with the repr of the full scope tuple keeps streams
    independent across crash points and models without relying on
    Python's randomized ``hash()``.
    """
    return random.Random(repr((int(seed),) + scope))


def touched_data_lines(image: "CrashImage") -> List[int]:
    """Sorted data-line addresses materialized in the image."""
    address_map = image.address_map
    return [
        line
        for line in image.device.touched_lines()
        if address_map.is_data_address(line)
    ]


def touched_counter_groups(image: "CrashImage") -> List[int]:
    """Sorted base data addresses of counter groups with written slots."""
    groups = {
        align_down(line, COUNTER_GROUP_BYTES)
        for line in image.counter_store.touched_lines()
    }
    return sorted(groups)


def apply_fault_models(
    image: "CrashImage",
    models: Sequence[FaultModel],
    seed: int,
    scope: Tuple[object, ...] = (),
) -> List[FaultEvent]:
    """Apply ``models`` in order with independent derived RNG streams."""
    events: List[FaultEvent] = []
    for index, model in enumerate(models):
        rng = derive_rng(seed, scope, index, model.name)
        events.extend(model.apply(image, rng))
    return events


def require(condition: bool, message: str) -> None:
    """Parameter validation helper for model constructors."""
    if not condition:
        raise FaultInjectionError(message)
