"""Workload infrastructure: line models, recording, crash validation.

A workload maintains a *plaintext model* of its persistent structure
(the authoritative intended memory contents), emits the corresponding
trace operations through a transaction mechanism, and records each
transaction's pre/post line images.  After a crash, the recorded
history lets the validator decide whether the recovered memory equals a
*consistent prefix* of the transaction sequence — the paper's
definition of crash consistency.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..config import CACHE_LINE_SIZE
from ..crash.recovery import RecoveredMemory
from ..crash.session import RecoveryContext
from ..errors import DecryptionFailure, TransactionError, WorkloadError
from ..sim.trace import TraceBuilder
from ..txn.heap import CoreArena
from ..txn.manager import MECHANISMS
from ..txn.undolog import LogTransactions
from ..utils.bitops import align_down, bytes_to_u64, u64_to_bytes

_ZERO_LINE = bytes(CACHE_LINE_SIZE)


class LineModel:
    """Sparse plaintext model of persistent memory at line granularity."""

    def __init__(self) -> None:
        self._lines: Dict[int, bytearray] = {}

    def line(self, line_address: int) -> bytes:
        stored = self._lines.get(line_address)
        return bytes(stored) if stored is not None else _ZERO_LINE

    def _mutable_line(self, line_address: int) -> bytearray:
        stored = self._lines.get(line_address)
        if stored is None:
            stored = bytearray(CACHE_LINE_SIZE)
            self._lines[line_address] = stored
        return stored

    def read_u64(self, address: int) -> int:
        line = align_down(address, CACHE_LINE_SIZE)
        return bytes_to_u64(self.line(line), address - line)

    def write_u64(self, address: int, value: int) -> int:
        """Update the model; returns the affected line address."""
        line = align_down(address, CACHE_LINE_SIZE)
        stored = self._mutable_line(line)
        stored[address - line : address - line + 8] = u64_to_bytes(value)
        return line

    def write_bytes(self, address: int, data: bytes) -> List[int]:
        """Write bytes (may span lines); returns affected line addresses."""
        touched: List[int] = []
        offset = 0
        while offset < len(data):
            position = address + offset
            line = align_down(position, CACHE_LINE_SIZE)
            start = position - line
            take = min(len(data) - offset, CACHE_LINE_SIZE - start)
            stored = self._mutable_line(line)
            stored[start : start + take] = data[offset : offset + take]
            if not touched or touched[-1] != line:
                touched.append(line)
            offset += take
        return touched

    def touched_lines(self) -> List[int]:
        return sorted(self._lines)

    def snapshot(self) -> Dict[int, bytes]:
        return {address: bytes(data) for address, data in self._lines.items()}


@dataclass
class RecordedTxn:
    """Pre/post images of one committed transaction."""

    index: int
    writes: List[Tuple[int, bytes, bytes]]  # (line, old, new)


@dataclass
class WorkloadRun:
    """Everything one generated workload trace exposes to experiments."""

    name: str
    arena: CoreArena
    initial_image: Dict[int, bytes]
    history: List[RecordedTxn]
    final_model: LineModel
    mechanism: str
    operations: int

    def tracked_lines(self) -> Set[int]:
        lines: Set[int] = set(self.initial_image)
        for txn in self.history:
            for line, _old, _new in txn.writes:
                lines.add(line)
        return lines


class TxnRecorder:
    """Bridges a workload's model mutations into recorded transactions.

    Usage::

        recorder.begin()
        recorder.read_u64(addr)          # emits a LOAD, returns model value
        recorder.write_u64(addr, value)  # stages a model + memory update
        recorder.commit()                # emits the full txn protocol
    """

    def __init__(
        self,
        builder: TraceBuilder,
        txns: LogTransactions,
        model: LineModel,
    ) -> None:
        self.builder = builder
        self.txns = txns
        self.model = model
        self.history: List[RecordedTxn] = []
        self._staged: Optional[Dict[int, bytes]] = None  # line -> pre-image

    # -- reads ------------------------------------------------------------

    #: Non-memory work modeled per structure-level read (pointer
    #: chasing, comparisons); see the rationale in repro.txn.undolog.
    READ_COMPUTE_NS = 14.0

    def read_u64(self, address: int) -> int:
        """Model read that also emits the timing LOAD."""
        self.builder.compute(self.READ_COMPUTE_NS)
        self.builder.load(address, 8)
        return self.model.read_u64(address)

    def read_line(self, line_address: int) -> bytes:
        self.builder.compute(self.READ_COMPUTE_NS)
        self.builder.load(line_address, CACHE_LINE_SIZE)
        return self.model.line(line_address)

    # -- transactional writes -----------------------------------------------

    def begin(self) -> None:
        if self._staged is not None:
            raise TransactionError("recorder transaction already open")
        self._staged = {}

    def _stage_line(self, line_address: int) -> None:
        assert self._staged is not None
        if line_address not in self._staged:
            self._staged[line_address] = self.model.line(line_address)

    def write_u64(self, address: int, value: int) -> None:
        if self._staged is None:
            raise TransactionError("write outside a recorder transaction")
        line = align_down(address, CACHE_LINE_SIZE)
        self._stage_line(line)
        self.model.write_u64(address, value)

    def write_bytes(self, address: int, data: bytes) -> None:
        if self._staged is None:
            raise TransactionError("write outside a recorder transaction")
        first = align_down(address, CACHE_LINE_SIZE)
        last = align_down(address + len(data) - 1, CACHE_LINE_SIZE)
        for line in range(first, last + CACHE_LINE_SIZE, CACHE_LINE_SIZE):
            self._stage_line(line)
        self.model.write_bytes(address, data)

    def commit(self) -> RecordedTxn:
        if self._staged is None:
            raise TransactionError("no open recorder transaction")
        writes = [
            (line, old, self.model.line(line))
            for line, old in sorted(self._staged.items())
        ]
        # Drop no-op writes (value unchanged): they would still be
        # logged by a naive implementation, but the workloads only
        # stage lines they actually modify.
        writes = [(line, old, new) for line, old, new in writes if old != new]
        self.txns.run(writes)
        recorded = RecordedTxn(index=len(self.history), writes=writes)
        self.history.append(recorded)
        self._staged = None
        return recorded

    def abort(self) -> None:
        """Discard a staged transaction (model must be untouched)."""
        if self._staged:
            raise TransactionError("cannot abort after model mutations")
        self._staged = None


@dataclass
class ValidationVerdict:
    """Structured outcome of one post-crash validation.

    Separates what a real system could *observe* from what only the
    simulator's oracle knows: ``detected`` problems were reported
    through a detection channel (decryption failures, corrupt-record
    checks), while ``silent`` problems are states recovery accepted
    without complaint that nonetheless fail the prefix oracle — the
    dangerous bucket a fault campaign exists to find.
    """

    consistent: bool
    detected: List[str] = field(default_factory=list)
    silent: List[str] = field(default_factory=list)
    #: Largest history prefix the recovered state matches (None = none).
    matched_prefix: Optional[int] = None
    #: Smallest prefix commit durability requires at this crash time.
    required_prefix: int = 0

    @property
    def problems(self) -> List[str]:
        return self.detected + self.silent

    @property
    def durability_lost(self) -> bool:
        """Consistent-looking state that dropped an acknowledged commit."""
        return (
            self.matched_prefix is not None
            and self.matched_prefix < self.required_prefix
        )


def index_prefixes(
    tracked: Sequence[int],
    initial: Dict[int, bytes],
    history: Sequence[RecordedTxn],
) -> Dict[Tuple[bytes, ...], int]:
    """Each reachable tuple of tracked-line values -> its largest prefix.

    ``tracked`` is the sorted list of every line the history writes (and
    any the initial image holds); a line missing from ``initial`` reads
    as zeros.  The history is walked once; a state the run returns to
    keeps the later (larger) prefix index, as a descending scan would.
    """
    position = {line: index for index, line in enumerate(tracked)}
    state = [initial.get(line, _ZERO_LINE) for line in tracked]
    prefix_of = {tuple(state): 0}
    for index, txn in enumerate(history, 1):
        for line, _old, new in txn.writes:
            state[position[line]] = new
        prefix_of[tuple(state)] = index
    return prefix_of


class PrefixValidator:
    """Checks a recovered memory against the transaction history.

    Consistency criterion: after running the mechanism's recovery
    procedure, every tracked line must equal its value in the state
    reached by applying some prefix ``txns[0..j]`` to the initial
    image.  Additionally, any transaction whose commit completed before
    the crash (its ``txn_end`` trace time is known) must be included in
    that prefix — durability of acknowledged commits.
    """

    def __init__(
        self,
        run: WorkloadRun,
        txn_end_times: Optional[Sequence[float]] = None,
    ) -> None:
        self.run = run
        self.txn_end_times = list(txn_end_times) if txn_end_times is not None else None
        self._tracked = sorted(run.tracked_lines())
        self._prefix_of = index_prefixes(self._tracked, run.initial_image, run.history)

    def _min_required_prefix(self, crash_ns: float) -> int:
        if self.txn_end_times is None:
            return 0
        required = 0
        for index, end_ns in enumerate(self.txn_end_times):
            if end_ns <= crash_ns:
                required = index + 1
        return required

    def __call__(self, recovered: RecoveredMemory) -> List[str]:
        return self.classify(recovered).problems

    def classify(
        self,
        recovered: RecoveredMemory,
        context: Optional[RecoveryContext] = None,
    ) -> ValidationVerdict:
        """Full verdict: detected vs silent problems, prefix bookkeeping.

        Exceptions other than the mechanism's own detection channels
        (:class:`DecryptionFailure`, :class:`TransactionError`)
        propagate to the caller — a recovery procedure that crashes on
        a corrupt image is itself a finding, not a verdict.  That
        includes :class:`~repro.errors.NestedCrash` from an armed
        ``context``: an injected mid-recovery power failure is the
        session's to handle, never a verdict.
        """
        run = self.run
        minimum = self._min_required_prefix(recovered.image.crash_ns)
        verdict = ValidationVerdict(consistent=False, required_prefix=minimum)
        if run.mechanism not in MECHANISMS:
            raise WorkloadError("unknown mechanism %r" % run.mechanism)
        _generator, recover = MECHANISMS[run.mechanism]
        try:
            recover(recovered, run.arena, context)
        except DecryptionFailure as failure:
            verdict.detected.append("recovery hit undecryptable line: %s" % failure)
            return verdict
        except TransactionError as failure:
            verdict.detected.append("recovery failed: %s" % failure)
            return verdict

        # Tracked lines are line-aligned, so each is one plaintext line.
        tracked = self._tracked
        garbage = recovered.garbage_lines
        if not garbage.isdisjoint(tracked):
            verdict.detected.extend(
                "tracked line 0x%x undecryptable after recovery" % line
                for line in tracked
                if line in garbage
            )
            return verdict
        plaintext = recovered.plaintext_lines
        verdict.matched_prefix = self._prefix_of.get(
            tuple(map(plaintext.get, tracked, repeat(_ZERO_LINE)))
        )
        if verdict.matched_prefix is not None and verdict.matched_prefix >= minimum:
            verdict.consistent = True
            return verdict
        if verdict.matched_prefix is not None:
            verdict.silent.append(
                "recovered state matches no transaction prefix >= %d (crash at "
                "%.1f ns); best match is prefix %d — an acknowledged commit "
                "was lost" % (minimum, recovered.image.crash_ns, verdict.matched_prefix)
            )
        else:
            verdict.silent.append(
                "recovered state matches no transaction prefix >= %d (crash at %.1f ns)"
                % (minimum, recovered.image.crash_ns)
            )
        return verdict


@dataclass(frozen=True)
class WorkloadParams:
    """Common workload knobs (paper Section 6.2 defaults)."""

    operations: int = 50
    seed: int = 42
    #: Approximate structure footprint in bytes (Figure 15 sweeps this).
    footprint_bytes: int = 64 * 1024
    #: Batch size: operations grouped into one transaction (Figure 16
    #: grows transactions by batching more lines per commit).
    ops_per_txn: int = 1
    #: Value payload size in bytes for item-bearing structures.
    value_bytes: int = 8
    #: Access-skew exponent for index-choosing workloads (array, queue
    #: slots, hash keys): 0 = uniform random; larger values concentrate
    #: accesses on a hot subset, as real key distributions do.  The
    #: Figure 15 sweeps use a mild skew so the counter cache sees
    #: realistic reuse.
    zipf_alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.operations <= 0:
            raise WorkloadError("workloads need at least one operation")
        if self.ops_per_txn <= 0:
            raise WorkloadError("ops_per_txn must be positive")
        if self.footprint_bytes < 4 * CACHE_LINE_SIZE:
            raise WorkloadError("footprint too small")
        if self.zipf_alpha < 0:
            raise WorkloadError("zipf_alpha cannot be negative")


def zipf_index(rng: random.Random, population: int, alpha: float) -> int:
    """Sample an index in [0, population) with Zipf-like skew.

    ``alpha = 0`` degenerates to uniform.  Uses the inverse-power
    transform ``floor(population * u**(1/(1-alpha')))`` shape, which is
    cheap and close enough for cache-behaviour studies.
    """
    if population <= 1:
        return 0
    if alpha <= 0:
        return rng.randrange(population)
    # Map alpha in (0, inf) to an exponent > 1 for the inverse transform;
    # the factor 2 makes alpha ~1-2 produce the strong head
    # concentration real key-popularity distributions show.
    exponent = 1.0 + 2.0 * alpha
    u = rng.random()
    index = int(population * (u ** exponent))
    return min(index, population - 1)


class Workload(abc.ABC):
    """Base class: generate a trace + history for one core."""

    name: str = "workload"

    def __init__(self, params: Optional[WorkloadParams] = None) -> None:
        self.params = params or WorkloadParams()

    @abc.abstractmethod
    def populate(self, recorder: TxnRecorder, rng: random.Random) -> None:
        """Build the initial structure (inside transactions)."""

    @abc.abstractmethod
    def run_operations(self, recorder: TxnRecorder, rng: random.Random) -> int:
        """Perform the measured operations; returns the count done."""

    def generate(
        self,
        builder: TraceBuilder,
        txns: LogTransactions,
        arena: CoreArena,
        mechanism: str = "undo",
    ) -> WorkloadRun:
        """Produce the full trace and bookkeeping for one core."""
        rng = random.Random(self.params.seed + arena.core_id * 7919)
        model = LineModel()
        recorder = TxnRecorder(builder, txns, model)
        self.populate(recorder, rng)
        operations = self.run_operations(recorder, rng)
        # Populate transactions stay in the history: a crash can land
        # inside them too, and the prefix check covers the whole run
        # starting from all-zero memory.
        return WorkloadRun(
            name=self.name,
            arena=arena,
            initial_image={},
            history=recorder.history,
            final_model=model,
            mechanism=mechanism,
            operations=operations,
        )
