"""Per-core operation traces and the builder used to author them.

A trace is the unit of work a simulated core executes.  Workloads and
the transactional layer *generate* traces; the machine *replays* them.
Keeping programs as data decouples workload logic from the simulator
and lets the same trace run unchanged under every design point, which
is exactly how the paper compares designs.

A :class:`Trace` holds its operations as parallel columns, one list per
field: :class:`TraceBuilder` appends to them and the machine's event
loop reads them by index, so no run builds a per-op object.  :class:`Op`
is the value type of the read-only :attr:`Trace.ops` view and of
``Trace(ops=...)``.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from itertools import zip_longest
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..config import CACHE_LINE_SIZE
from ..errors import TraceError
from ..core.primitives import PersistentVar
from ..utils.bitops import u64_to_bytes


class OpKind(enum.Enum):
    LOAD = "load"
    STORE = "store"
    CLWB = "clwb"
    CCWB = "ccwb"  # counter_cache_writeback()
    SFENCE = "sfence"
    COMPUTE = "compute"
    TXN_BEGIN = "txn-begin"
    TXN_END = "txn-end"
    LABEL = "label"


#: Every kind in declaration order: a kind's position is its op code,
#: the value :attr:`Trace.codes` holds and the machine's loop dispatches
#: on (LOAD 0, STORE 1, CLWB 2, CCWB 3, SFENCE 4, COMPUTE 5, TXN_BEGIN 6,
#: TXN_END 7, LABEL 8).
KINDS: Tuple[OpKind, ...] = tuple(OpKind)
#: Each kind's op code, the inverse of :data:`KINDS`.
CODES: Dict[OpKind, int] = {kind: code for code, kind in enumerate(KINDS)}

_LOAD = CODES[OpKind.LOAD]
_STORE = CODES[OpKind.STORE]
_CLWB = CODES[OpKind.CLWB]
_CCWB = CODES[OpKind.CCWB]
_SFENCE = CODES[OpKind.SFENCE]
_COMPUTE = CODES[OpKind.COMPUTE]
_TXN_BEGIN = CODES[OpKind.TXN_BEGIN]
_TXN_END = CODES[OpKind.TXN_END]
_LABEL = CODES[OpKind.LABEL]


def _check_length(length: int) -> None:
    """Raise unless a load or store of ``length`` bytes fits a cache line."""
    if length <= 0 or length > CACHE_LINE_SIZE:
        raise TraceError("memory op length %d out of range" % length)


def _check_duration(duration_ns: float) -> None:
    """Raise if a compute duration is negative."""
    if duration_ns < 0:
        raise TraceError("compute duration cannot be negative")


@dataclass(frozen=True)
class Op:
    """One trace operation.

    * LOAD/STORE: ``address``/``length`` (and ``data`` when functional);
      STORE carries ``counter_atomic``.
    * CLWB/CCWB: ``address`` names the target line / counter group.
    * COMPUTE: ``duration_ns`` of non-memory work.
    * TXN_BEGIN/TXN_END/LABEL: markers for statistics and crash tooling.
    """

    kind: OpKind
    address: int = 0
    length: int = 8
    data: Optional[bytes] = None
    counter_atomic: bool = False
    duration_ns: float = 0.0
    note: str = ""

    def __post_init__(self) -> None:
        if self.kind in (OpKind.LOAD, OpKind.STORE):
            _check_length(self.length)
            if self.data is not None and len(self.data) != self.length:
                raise TraceError("op data length disagrees with length field")
        if self.kind is OpKind.COMPUTE:
            _check_duration(self.duration_ns)


#: The column attributes of a :class:`Trace`, in :class:`Op` field order.
_COLUMNS = (
    "codes",
    "addresses",
    "lengths",
    "payloads",
    "counter_atomic",
    "durations",
    "notes",
)


class Trace:
    """An ordered list of operations for one core, held as columns.

    Operation ``i`` is ``KINDS[codes[i]]`` with ``addresses[i]``,
    ``lengths[i]``, ``payloads[i]``, ``counter_atomic[i]``,
    ``durations[i]`` and ``notes[i]``; a field an op's kind does not use
    holds the :class:`Op` default.  ``Trace(ops=...)`` appends the
    fields of ready-made :class:`Op` values.
    """

    def __init__(self, ops: Iterable[Op] = (), name: str = "") -> None:
        self.name = name
        self.codes: List[int] = []
        self.addresses: List[int] = []
        self.lengths: List[int] = []
        self.payloads: List[Optional[bytes]] = []
        self.counter_atomic: List[bool] = []
        self.durations: List[float] = []
        self.notes: List[str] = []
        for op in ops:
            self._append(
                CODES[op.kind],
                op.address,
                op.length,
                op.data,
                op.counter_atomic,
                op.duration_ns,
                op.note,
            )

    def _append(
        self,
        code: int,
        address: int,
        length: int,
        payload: Optional[bytes],
        counter_atomic: bool,
        duration_ns: float,
        note: str,
    ) -> None:
        """Append one operation's fields, already validated."""
        self.codes.append(code)
        self.addresses.append(address)
        self.lengths.append(length)
        self.payloads.append(payload)
        self.counter_atomic.append(counter_atomic)
        self.durations.append(duration_ns)
        self.notes.append(note)

    @property
    def ops(self) -> Tuple[Op, ...]:
        """The operations as :class:`Op` values, built on every call.

        A read-only view for tests and tools; no run path reads it.
        """
        return tuple(
            Op(KINDS[code], address, length, payload, counter_atomic, duration_ns, note)
            for code, address, length, payload, counter_atomic, duration_ns, note in zip(
                self.codes,
                self.addresses,
                self.lengths,
                self.payloads,
                self.counter_atomic,
                self.durations,
                self.notes,
            )
        )

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.name == other.name and all(
            getattr(self, column) == getattr(other, column) for column in _COLUMNS
        )

    def __repr__(self) -> str:
        return "Trace(name=%r, %d ops)" % (self.name, len(self))

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the name and the columns only.

        What a run derives from the trace and keeps on it (the
        machine's recorded cache passes) is rebuilt on demand, so a
        checkpoint carrying the trace stays the size of its ops.
        """
        state: Dict[str, object] = {"name": self.name}
        for column in _COLUMNS:
            state[column] = getattr(self, column)
        return state

    def counts(self) -> dict:
        """Operation histogram (diagnostics and tests)."""
        return {KINDS[code]: count for code, count in Counter(self.codes).items()}

    def transactions(self) -> int:
        return self.codes.count(_TXN_END)


class TraceBuilder:
    """Fluent builder for traces, mirroring the paper's primitives.

    Each method validates its operation and appends one value to every
    column of :attr:`trace`.  :meth:`shadow_bytes` answers what the
    program meant memory to hold, so tests can compare the simulated NVM
    image against the intended contents.
    """

    def __init__(self, name: str = "", functional: bool = True) -> None:
        self.trace = Trace(name=name)
        self.functional = functional
        self._append = self.trace._append

    # -- raw memory ops --------------------------------------------------

    def load(self, address: int, length: int = 8) -> "TraceBuilder":
        _check_length(length)
        self._append(_LOAD, address, length, None, False, 0.0, "")
        return self

    def store(
        self,
        address: int,
        data: Optional[bytes] = None,
        length: int = 8,
        counter_atomic: bool = False,
    ) -> "TraceBuilder":
        if data is not None:
            length = len(data)
            if not self.functional:
                data = None
        _check_length(length)
        self._append(_STORE, address, length, data, counter_atomic, 0.0, "")
        return self

    def store_u64(
        self, address: int, value: int, counter_atomic: bool = False
    ) -> "TraceBuilder":
        return self.store(address, u64_to_bytes(value), counter_atomic=counter_atomic)

    def store_var(self, var: PersistentVar, value: int) -> "TraceBuilder":
        """Store through a :class:`PersistentVar` descriptor.

        The variable's ``CounterAtomic`` annotation travels with the
        store, exactly as the paper's type qualifier would.
        """
        return self.store_u64(var.address, value, counter_atomic=var.counter_atomic)

    def load_var(self, var: PersistentVar) -> "TraceBuilder":
        return self.load(var.address, 8)

    # -- persistency primitives ---------------------------------------------

    def clwb(self, address: int) -> "TraceBuilder":
        self._append(_CLWB, address, 8, None, False, 0.0, "")
        return self

    def clwb_span(self, address: int, length: int) -> "TraceBuilder":
        """clwb every line overlapped by [address, address+length)."""
        first = address - (address % CACHE_LINE_SIZE)
        last = (address + length - 1) - ((address + length - 1) % CACHE_LINE_SIZE)
        for line in range(first, last + 1, CACHE_LINE_SIZE):
            self.clwb(line)
        return self

    def ccwb(self, address: int) -> "TraceBuilder":
        """counter_cache_writeback() for the counter line covering ``address``."""
        self._append(_CCWB, address, 8, None, False, 0.0, "")
        return self

    def ccwb_span(self, address: int, length: int) -> "TraceBuilder":
        """ccwb every counter group overlapped by the byte range."""
        group_span = CACHE_LINE_SIZE * 8
        first = address - (address % group_span)
        last = (address + length - 1) - ((address + length - 1) % group_span)
        for group in range(first, last + 1, group_span):
            self.ccwb(group)
        return self

    def sfence(self) -> "TraceBuilder":
        self._append(_SFENCE, 0, 8, None, False, 0.0, "")
        return self

    def persist_barrier(self) -> "TraceBuilder":
        """The paper's persist_barrier: order all prior writebacks."""
        return self.sfence()

    # -- structure markers -------------------------------------------------------

    def compute(self, duration_ns: float) -> "TraceBuilder":
        _check_duration(duration_ns)
        self._append(_COMPUTE, 0, 8, None, False, duration_ns, "")
        return self

    def txn_begin(self, note: str = "") -> "TraceBuilder":
        self._append(_TXN_BEGIN, 0, 8, None, False, 0.0, note)
        return self

    def txn_end(self, note: str = "") -> "TraceBuilder":
        self._append(_TXN_END, 0, 8, None, False, 0.0, note)
        return self

    def label(self, note: str) -> "TraceBuilder":
        self._append(_LABEL, 0, 8, None, False, 0.0, note)
        return self

    # -- results ---------------------------------------------------------------------

    def build(self) -> Trace:
        return self.trace

    def shadow_bytes(self, address: int, length: int) -> bytes:
        """The program's intended memory contents for a byte range.

        Replays the STOREs that carry data, in trace order, so the last
        write to a byte wins; bytes no such store wrote read as zero,
        and so does every byte of a non-functional builder's trace.
        """
        out = bytearray(length)
        end = address + length
        trace = self.trace
        # Only a functional store carries a payload.
        for op_address, op_length, data in zip(
            trace.addresses, trace.lengths, trace.payloads
        ):
            if data is not None:
                start = max(op_address, address)
                stop = min(op_address + op_length, end)
                if start < stop:
                    out[start - address : stop - address] = data[
                        start - op_address : stop - op_address
                    ]
        return bytes(out)


def persist_barrier(builder: TraceBuilder) -> TraceBuilder:
    """Free-function alias matching the paper's pseudocode style."""
    return builder.persist_barrier()


def merge_round_robin(traces: Sequence[Trace]) -> Trace:
    """Interleave several traces op-by-op (diagnostic tool)."""
    ops = [
        op
        for round_ops in zip_longest(*(trace.ops for trace in traces))
        for op in round_ops
        if op is not None
    ]
    return Trace(ops=ops, name="+".join(trace.name for trace in traces))
