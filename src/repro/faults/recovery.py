"""Recovery-phase fault points: crashes *during* recovery.

The image-mutating models in :mod:`repro.faults.models` corrupt the
durable state a crash leaves behind; the fault points here corrupt the
*recovery* that runs afterwards.  Phoenix (arxiv 1911.01922) and the
fast-recovery metadata line of work treat recoverability of the
recovery path as the hard part of the problem: a second power failure
mid-replay, a torn persist of a recovery-side write, a reset during
the Osiris counter search — all leave a partially-recovered durable
state that the next boot must recover from.

A :class:`RecoveryFaultPlan` is a seeded schedule of such points.  Each
point names a recovery phase (``txn-replay``, ``counter-search``,
``tree-repair``), a step index within that phase, and a kind:

``crash``
    Power fails immediately after the Nth recovery step of the phase
    completes (and its write, if any, persists).
``torn-write``
    Power fails *during* the Nth recovery-side line write: a prefix of
    the new content persists, the tail keeps the pre-write content —
    the recovery-side twin of :class:`~repro.faults.models.TornDataLineWrite`.

Delivery is one-shot: every point fires exactly once per plan, so a
recovery procedure that is restartable always terminates — re-running
it after the nested crash proceeds past the fired point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import CACHE_LINE_SIZE
from .base import require

#: Recovery phases a fault point can name, in escalation-ladder order.
RECOVERY_PHASES: Tuple[str, ...] = ("txn-replay", "counter-search", "tree-repair")

#: Fault kinds; torn writes only make sense for phases that perform
#: recovery-side line writes (txn replay).
RECOVERY_FAULT_KINDS: Tuple[str, ...] = ("crash", "torn-write")

#: Torn recovery writes tear at the same word granularity as the NVM
#: row buffer (see repro.faults.models.TEAR_GRANULARITY).
TEAR_GRANULARITY = 8


@dataclass(frozen=True)
class RecoveryFaultPoint:
    """One scheduled fault inside a recovery phase."""

    phase: str
    step: int
    kind: str = "crash"

    def __post_init__(self) -> None:
        require(
            self.phase in RECOVERY_PHASES,
            "unknown recovery phase %r; known: %s"
            % (self.phase, ", ".join(RECOVERY_PHASES)),
        )
        require(
            self.kind in RECOVERY_FAULT_KINDS,
            "unknown recovery fault kind %r; known: %s"
            % (self.kind, ", ".join(RECOVERY_FAULT_KINDS)),
        )
        require(self.step >= 0, "recovery fault step cannot be negative")
        require(
            self.kind != "torn-write" or self.phase == "txn-replay",
            "torn-write faults apply only to the txn-replay phase "
            "(the other phases write counters, not lines)",
        )

    def as_dict(self) -> Dict[str, object]:
        return {"phase": self.phase, "step": self.step, "kind": self.kind}


class RecoveryFaultPlan:
    """A one-shot schedule of recovery-phase fault points.

    The plan is consulted by the :class:`~repro.crash.session.RecoveryContext`
    at every recovery step; each point fires exactly once, after which
    the plan is inert for that point — retries run past it.  A plan
    with several points produces nested-nested crashes: the second
    point can fire during the recovery *of* the first nested crash.
    """

    def __init__(self, points: Sequence[RecoveryFaultPoint], seed: int = 0) -> None:
        self.points = tuple(points)
        self.seed = seed
        self._fired: List[RecoveryFaultPoint] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "RecoveryFaultPlan(%r, seed=%d)" % (list(self.points), self.seed)

    def _fire(self, phase: str, step: int, kind: str) -> Optional[RecoveryFaultPoint]:
        for point in self.points:
            if (
                point.phase == phase
                and point.step == step
                and point.kind == kind
                and point not in self._fired
            ):
                self._fired.append(point)
                return point
        return None

    def crash_after(self, phase: str, step: int) -> Optional[RecoveryFaultPoint]:
        """The ``crash`` point firing just after ``step``, if armed."""
        return self._fire(phase, step, "crash")

    def tear_write(self, phase: str, step: int) -> Optional[RecoveryFaultPoint]:
        """The ``torn-write`` point firing at write ``step``, if armed."""
        return self._fire(phase, step, "torn-write")

    def tear_length(self, point: RecoveryFaultPoint) -> int:
        """How many bytes of the torn write persist (seeded, stable)."""
        rng = random.Random(repr((self.seed, point.phase, point.step)))
        return rng.randrange(TEAR_GRANULARITY, CACHE_LINE_SIZE, TEAR_GRANULARITY)

    @property
    def injected(self) -> int:
        """How many points have fired so far."""
        return len(self._fired)

    def fired_points(self) -> List[Dict[str, object]]:
        """JSON-ready record of every point that fired, in order."""
        return [point.as_dict() for point in self._fired]

    @classmethod
    def generate(
        cls,
        seed: int,
        *scope: object,
        points: int = 1,
        phases: Sequence[str] = RECOVERY_PHASES,
        max_step: int = 4,
        torn: bool = True,
    ) -> "RecoveryFaultPlan":
        """A seeded random plan for one (seed, scope...) combination.

        Mirrors :func:`repro.faults.base.derive_rng`: the same seed and
        scope always produce the same schedule, so any nested-crash
        finding is replayable from its seed.
        """
        require(points >= 1, "a generated plan needs at least one point")
        require(max_step >= 1, "max_step must be positive")
        rng = random.Random(repr((int(seed),) + scope))
        chosen: List[RecoveryFaultPoint] = []
        seen = set()
        for _ in range(points):
            for _attempt in range(16):
                phase = rng.choice(tuple(phases))
                kind = (
                    "torn-write"
                    if torn and phase == "txn-replay" and rng.random() < 0.25
                    else "crash"
                )
                point = RecoveryFaultPoint(phase, rng.randrange(max_step), kind)
                if point not in seen:
                    seen.add(point)
                    chosen.append(point)
                    break
        return cls(chosen, seed=seed)


def nested_point_grid(
    max_step: int,
    counter_search: bool = False,
    tree_repair: bool = False,
    torn: bool = True,
    double: bool = True,
) -> List[Tuple[RecoveryFaultPoint, ...]]:
    """The campaign's crash-point x recovery-step sweep grid.

    One schedule per (phase, step) cell, enumerated deterministically:
    crashes after steps ``0..max_step-1`` of every *reachable* phase
    (``counter_search`` / ``tree_repair`` gate the phases the design
    can actually enter — an unreachable point would sweep a no-op),
    plus torn recovery writes in the replay phase and one double-crash
    schedule (a crash during the recovery of a nested crash).
    """
    require(max_step >= 1, "the nested-crash grid needs max_step >= 1")
    schedules: List[Tuple[RecoveryFaultPoint, ...]] = []
    phases = ["txn-replay"]
    if counter_search:
        phases.append("counter-search")
    if tree_repair:
        phases.append("tree-repair")
    for phase in phases:
        for step in range(max_step):
            schedules.append((RecoveryFaultPoint(phase, step, "crash"),))
    if torn:
        for step in range(max_step):
            schedules.append((RecoveryFaultPoint("txn-replay", step, "torn-write"),))
    if double:
        schedules.append(
            (
                RecoveryFaultPoint("txn-replay", 0, "crash"),
                RecoveryFaultPoint("txn-replay", 1, "crash"),
            )
        )
    return schedules
