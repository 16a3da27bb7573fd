"""Per-core operation traces and the builder used to author them.

A trace is the unit of work a simulated core executes.  Workloads and
the transactional layer *generate* traces; the machine *replays* them.
Keeping programs as data decouples workload logic from the simulator
and lets the same trace run unchanged under every design point, which
is exactly how the paper compares designs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence

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
            if self.length <= 0 or self.length > CACHE_LINE_SIZE:
                raise TraceError("memory op length %d out of range" % self.length)
            if self.data is not None and len(self.data) != self.length:
                raise TraceError("op data length disagrees with length field")
        if self.kind is OpKind.COMPUTE and self.duration_ns < 0:
            raise TraceError("compute duration cannot be negative")


@dataclass
class Trace:
    """An ordered list of operations for one core."""

    ops: List[Op] = field(default_factory=list)
    name: str = ""

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def counts(self) -> dict:
        """Operation histogram (diagnostics and tests)."""
        histogram: dict = {}
        for op in self.ops:
            histogram[op.kind] = histogram.get(op.kind, 0) + 1
        return histogram

    def transactions(self) -> int:
        return sum(1 for op in self.ops if op.kind is OpKind.TXN_END)


class TraceBuilder:
    """Fluent builder for traces, mirroring the paper's primitives.

    :meth:`shadow_bytes` answers what the program meant memory to hold,
    so tests can compare the simulated NVM image against the intended
    contents.
    """

    def __init__(self, name: str = "", functional: bool = True) -> None:
        self.trace = Trace(name=name)
        self.functional = functional

    # -- raw memory ops --------------------------------------------------

    def load(self, address: int, length: int = 8) -> "TraceBuilder":
        self.trace.ops.append(Op(kind=OpKind.LOAD, address=address, length=length))
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
        self.trace.ops.append(
            Op(
                kind=OpKind.STORE,
                address=address,
                length=length,
                data=data,
                counter_atomic=counter_atomic,
            )
        )
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
        self.trace.ops.append(Op(kind=OpKind.CLWB, address=address))
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
        self.trace.ops.append(Op(kind=OpKind.CCWB, address=address))
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
        self.trace.ops.append(Op(kind=OpKind.SFENCE))
        return self

    def persist_barrier(self) -> "TraceBuilder":
        """The paper's persist_barrier: order all prior writebacks."""
        return self.sfence()

    # -- structure markers -------------------------------------------------------

    def compute(self, duration_ns: float) -> "TraceBuilder":
        self.trace.ops.append(Op(kind=OpKind.COMPUTE, duration_ns=duration_ns))
        return self

    def txn_begin(self, note: str = "") -> "TraceBuilder":
        self.trace.ops.append(Op(kind=OpKind.TXN_BEGIN, note=note))
        return self

    def txn_end(self, note: str = "") -> "TraceBuilder":
        self.trace.ops.append(Op(kind=OpKind.TXN_END, note=note))
        return self

    def label(self, note: str) -> "TraceBuilder":
        self.trace.ops.append(Op(kind=OpKind.LABEL, note=note))
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
        for op in self.trace.ops:
            if op.kind is OpKind.STORE and op.data is not None:
                start = max(op.address, address)
                stop = min(op.address + op.length, end)
                if start < stop:
                    out[start - address : stop - address] = op.data[
                        start - op.address : stop - op.address
                    ]
        return bytes(out)


def persist_barrier(builder: TraceBuilder) -> TraceBuilder:
    """Free-function alias matching the paper's pseudocode style."""
    return builder.persist_barrier()


def merge_round_robin(traces: Sequence[Trace]) -> Trace:
    """Interleave several traces op-by-op (diagnostic tool)."""
    merged = Trace(name="+".join(t.name for t in traces))
    iterators = [iter(t.ops) for t in traces]
    active = list(iterators)
    while active:
        still_active = []
        for iterator in active:
            try:
                merged.ops.append(next(iterator))
                still_active.append(iterator)
            except StopIteration:
                pass
        active = still_active
    return merged
