"""Volatile memory hierarchy and the memory controller.

* :mod:`repro.mem.cache` — set-associative write-back caches (L1, L2),
* :mod:`repro.mem.hierarchy` — the per-core L1 / shared L2 stack,
* :mod:`repro.mem.writequeue` — the data and counter write queues with
  the paper's ready-bit pairing protocol,
* :mod:`repro.mem.controller` — the slim memory controller coordinating
  the composed policy layers and owning the record log,
* :mod:`repro.mem.layout` — the encryption layout paths (plain /
  co-located 72 B / split counter region),
* :mod:`repro.mem.atomicity` — the counter-atomicity disciplines
  (unpaired / FCA / SCA ready-bit pairing),
* :mod:`repro.mem.integrity_policy` — the integrity-tree persistence
  modes (none / eager / lazy),
* :mod:`repro.mem.events` — the controller's event records, their
  stats fold, and the JSONL trace tap.
"""

from .atomicity import (
    FullCounterAtomicity,
    SelectiveCounterAtomicity,
    UnpairedAtomicity,
    WriteTicket,
)
from .cache import Cache, CacheStats, EvictedLine
from .cacheline import CacheLine
from .controller import ControllerStats, MemoryController
from .events import TRACE_FIELDS, JsonlTrace, fold
from .hierarchy import CacheHierarchy, HierarchyAccess
from .integrity_policy import (
    EagerTreePersistence,
    LazyTreePersistence,
    NoIntegrity,
)
from .layout import ColocatedLayout, PlainLayout, ReadResult, SplitCounterLayout
from .writequeue import WriteQueue, WriteQueueEntry

__all__ = [
    "Cache",
    "CacheStats",
    "EvictedLine",
    "CacheLine",
    "CacheHierarchy",
    "HierarchyAccess",
    "ColocatedLayout",
    "ControllerStats",
    "EagerTreePersistence",
    "FullCounterAtomicity",
    "JsonlTrace",
    "LazyTreePersistence",
    "MemoryController",
    "NoIntegrity",
    "PlainLayout",
    "ReadResult",
    "SelectiveCounterAtomicity",
    "SplitCounterLayout",
    "TRACE_FIELDS",
    "UnpairedAtomicity",
    "WriteQueue",
    "WriteQueueEntry",
    "WriteTicket",
    "fold",
]
