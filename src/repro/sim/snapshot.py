"""Crash-consistent simulation checkpoints.

The simulator studies crash consistency; its own campaigns must survive
crashes too.  A checkpoint is the running
:class:`repro.sim.machine.Machine` itself, pickled whole at an event
boundary.  This module keeps such pickles in generation-numbered
snapshot files using the same discipline the paper demands of NVM
software:

* **Atomicity** — a snapshot is published through
  :func:`repro.utils.store.publish` (temporary file, fsync, atomic
  rename, directory fsync); a crash mid-write leaves the
  previous generation untouched and at worst an orphan temporary file.
* **Detection** — the header carries a CRC-32 of the body, so a torn or
  bit-flipped snapshot is detected on load and quarantined (renamed to
  ``*.corrupt`` by :func:`repro.utils.store.quarantine`) rather than
  trusted.
* **Versioning** — the header records the repository code hash
  (``repro.utils.versioning.code_version``); a snapshot written by
  different sources is invalidated instead of restored, because resumed
  timing would silently diverge from a fresh run.
* **Recovery** — :meth:`SnapshotStore.load_latest` falls back
  generation by generation past damaged or stale files before giving
  up, as result stores fall back to re-running a damaged result.

Resume is deterministic: everything a running machine reads is
reachable from it, so a machine unpickled at event N continues to a
:class:`SimulationResult` bit-identical to the uninterrupted run's
(asserted by ``result_fingerprint`` in the test suite).
:func:`run_with_checkpoints` resumes only a snapshot of the run it was
asked for: the same config, design and traces.
"""

from __future__ import annotations

import binascii
import hashlib
import json
import os
import pickle
import struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import SnapshotCorruptError, SnapshotError, SnapshotVersionError
from ..utils.store import publish, quarantine
from .machine import Machine, SimulationResult
from .trace import Trace

#: File magic: identifies a repro checkpoint and its container revision.
MAGIC = b"REPROCKPT1\n"
#: Header format revision inside the container.  Format 2: the body is
#: a pickled :class:`Machine`.
FORMAT_VERSION = 2
#: Pickle protocol 4 is available on every supported interpreter.
PICKLE_PROTOCOL = 4
#: Events per ``run_events`` call while an ``on_event`` observer
#: watches a checkpointed run: how often the observer hears from it.
EVENT_CHUNK = 1024

_HEADER_LEN = struct.Struct(">I")


# ---------------------------------------------------------------------------
# Single-file read/write
# ---------------------------------------------------------------------------


def write_snapshot(
    path: str,
    machine: Machine,
    code: str = "",
    meta: Optional[Dict[str, object]] = None,
) -> str:
    """Atomically publish ``machine``, pickled, as a snapshot file at ``path``.

    ``code`` is the code-version hash stamped into the header (empty
    disables version checking on load).  Returns ``path``.
    """
    body = pickle.dumps(machine, protocol=PICKLE_PROTOCOL)
    header = {
        "format": FORMAT_VERSION,
        "code": code,
        "crc": binascii.crc32(body) & 0xFFFFFFFF,
        "body_bytes": len(body),
        "meta": meta or {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    publish(path, MAGIC + _HEADER_LEN.pack(len(header_bytes)) + header_bytes + body)
    return path


def read_snapshot(
    path: str, expected_code: Optional[str] = None
) -> Tuple[Machine, Dict[str, object]]:
    """Load and validate one snapshot file; returns ``(machine, header)``.

    Raises :class:`SnapshotCorruptError` for torn/garbled/checksum-
    failing files and bodies that are not a pickled :class:`Machine`,
    and :class:`SnapshotVersionError` when the container format or the
    recorded code hash does not match ``expected_code``.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise SnapshotError("cannot read snapshot %s: %s" % (path, exc)) from exc
    if not blob.startswith(MAGIC):
        raise SnapshotCorruptError("%s: bad magic (not a snapshot?)" % path)
    offset = len(MAGIC)
    if len(blob) < offset + _HEADER_LEN.size:
        raise SnapshotCorruptError("%s: truncated before header length" % path)
    (header_len,) = _HEADER_LEN.unpack_from(blob, offset)
    offset += _HEADER_LEN.size
    if len(blob) < offset + header_len:
        raise SnapshotCorruptError("%s: truncated header" % path)
    try:
        header = json.loads(blob[offset : offset + header_len].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SnapshotCorruptError("%s: unparseable header" % path) from exc
    offset += header_len
    if header.get("format") != FORMAT_VERSION:
        raise SnapshotVersionError(
            "%s: format %r, this build reads %d"
            % (path, header.get("format"), FORMAT_VERSION)
        )
    body = blob[offset:]
    if len(body) != header.get("body_bytes"):
        raise SnapshotCorruptError(
            "%s: body is %d bytes, header promised %s"
            % (path, len(body), header.get("body_bytes"))
        )
    if (binascii.crc32(body) & 0xFFFFFFFF) != header.get("crc"):
        raise SnapshotCorruptError("%s: body checksum mismatch" % path)
    if expected_code and header.get("code") != expected_code:
        raise SnapshotVersionError(
            "%s: written by code %s, current code is %s"
            % (path, header.get("code"), expected_code)
        )
    try:
        machine = pickle.loads(body)
    except Exception as exc:  # pickle raises a zoo of types on garbage
        raise SnapshotCorruptError("%s: body does not unpickle" % path) from exc
    if not isinstance(machine, Machine):
        raise SnapshotCorruptError("%s: body is not a pickled Machine" % path)
    return machine, header


# ---------------------------------------------------------------------------
# Generational store
# ---------------------------------------------------------------------------

_SNAPSHOT_PATTERN = "snapshot-%08d.ckpt"
_SNAPSHOT_PREFIX = "snapshot-"
_SNAPSHOT_SUFFIX = ".ckpt"


class SnapshotStore:
    """Generation-numbered snapshots in one directory, newest wins.

    Damaged generations are quarantined (``*.corrupt``), stale-code
    generations deleted; ``load_latest`` walks backwards until a valid
    snapshot is found.  ``keep`` bounds how many generations are kept
    on disk (the quarantine files are never pruned — they are evidence).
    """

    def __init__(self, directory: str, code: str = "", keep: int = 3) -> None:
        if keep < 1:
            raise SnapshotError("a snapshot store must keep at least one generation")
        self.directory = directory
        self.code = code
        self.keep = keep
        self.saved = 0
        self.quarantined = 0
        self.invalidated = 0
        os.makedirs(directory, exist_ok=True)

    # -- naming ------------------------------------------------------------

    def _path(self, generation: int) -> str:
        return os.path.join(self.directory, _SNAPSHOT_PATTERN % generation)

    def generations(self) -> List[int]:
        """Sorted generation numbers currently on disk."""
        found = []
        for name in os.listdir(self.directory):
            if not (name.startswith(_SNAPSHOT_PREFIX) and name.endswith(_SNAPSHOT_SUFFIX)):
                continue
            stem = name[len(_SNAPSHOT_PREFIX) : -len(_SNAPSHOT_SUFFIX)]
            try:
                found.append(int(stem))
            except ValueError:
                continue
        return sorted(found)

    # -- save / load --------------------------------------------------------

    def save(self, machine: Machine, meta: Optional[Dict[str, object]] = None) -> str:
        """Write ``machine`` as the next generation and prune old ones."""
        existing = self.generations()
        generation = (existing[-1] + 1) if existing else 0
        path = write_snapshot(self._path(generation), machine, code=self.code, meta=meta)
        self.saved += 1
        self._prune()
        return path

    def _prune(self) -> None:
        generations = self.generations()
        for stale in generations[: -self.keep]:
            try:
                os.unlink(self._path(stale))
            except OSError:
                pass

    def _quarantine(self, generation: int, exc: SnapshotCorruptError) -> None:
        quarantine(self._path(generation), str(exc))
        self.quarantined += 1

    def _invalidate(self, generation: int) -> None:
        try:
            os.unlink(self._path(generation))
        except OSError:
            pass
        self.invalidated += 1

    def load_latest(self) -> Optional[Tuple[Machine, Dict[str, object]]]:
        """Newest restorable snapshot, falling back past damaged ones.

        Returns ``(machine, header)`` or None when no generation (or no
        undamaged, same-code generation) exists.
        """
        for generation in reversed(self.generations()):
            path = self._path(generation)
            try:
                return read_snapshot(path, expected_code=self.code or None)
            except SnapshotCorruptError as exc:
                self._quarantine(generation, exc)
            except SnapshotVersionError:
                self._invalidate(generation)
        return None

    def stats(self) -> Dict[str, int]:
        return {
            "saved": self.saved,
            "quarantined": self.quarantined,
            "invalidated": self.invalidated,
        }


# ---------------------------------------------------------------------------
# Checkpointed execution
# ---------------------------------------------------------------------------


def run_with_checkpoints(
    machine: Machine,
    traces: Sequence[Trace],
    store: Optional[SnapshotStore] = None,
    every_events: Optional[int] = None,
    resume: bool = True,
    on_event: Optional[Callable[[int], None]] = None,
) -> Tuple[SimulationResult, Dict[str, int]]:
    """Run ``machine`` over ``traces``, checkpointing to ``store`` every
    ``every_events`` simulated events (never when either is None).

    With ``resume`` and an existing valid snapshot in ``store``, the
    snapshot's machine continues from its checkpointed event in place of
    ``machine``, and the produced :class:`SimulationResult` is
    bit-identical either way.  A snapshot whose config, design or traces
    differ from ``machine``'s and ``traces`` raises :class:`SnapshotError`
    rather than resuming another run.  ``on_event`` (if given) is called
    with the running event count after every ``run_events`` call of at
    most :data:`EVENT_CHUNK` events; the resilience layer hooks worker
    heartbeats through it.

    Returns ``(result, stats)`` with ``stats`` covering saves,
    restores, quarantines and invalidations.
    """
    if every_events is not None and every_events < 1:
        raise SnapshotError("checkpoint cadence must be at least one event")
    restored_events = 0
    restored = 0
    if store is not None and resume:
        loaded = store.load_latest()
        if loaded is not None:
            snapshot, _header = loaded
            _check_same_run(snapshot, machine, traces)
            machine = snapshot
            restored = 1
            restored_events = machine.events_executed
    if not restored:
        machine.begin(traces)

    every = every_events if store is not None else None
    next_mark = machine.events_executed + every if every is not None else None
    more = True
    while more:
        # One call runs to the next checkpoint, the observer's next
        # chunk, or the end.  A call lands on exactly the event boundary
        # that as many step() calls would, so the checkpoints and the
        # result do not depend on the chunking.
        budget = None if on_event is None else EVENT_CHUNK
        if next_mark is not None:
            to_mark = next_mark - machine.events_executed
            budget = to_mark if budget is None else min(budget, to_mark)
        more = machine.run_events(budget)
        if on_event is not None:
            on_event(machine.events_executed)
        if more and next_mark is not None and machine.events_executed >= next_mark:
            store.save(machine, meta={"events": machine.events_executed})
            next_mark = machine.events_executed + every

    result = machine.finish()
    stats = {"restored": restored, "restored_events": restored_events}
    if store is not None:
        stats.update(store.stats())
    return result, stats


def _check_same_run(
    snapshot: Machine, machine: Machine, traces: Sequence[Trace]
) -> None:
    """Raise :class:`SnapshotError` unless ``snapshot`` continues this run."""
    differs = [
        name
        for name, same in (
            ("config", snapshot.config == machine.config),
            ("design", snapshot.policy == machine.policy),
            (
                "traces",
                [core.trace for core in snapshot._cores or ()] == list(traces),
            ),
        )
        if not same
    ]
    if differs:
        raise SnapshotError(
            "snapshot holds a run of design %r at event %d, the request is "
            "for design %r; they differ in %s"
            % (
                snapshot.policy.name,
                snapshot.events_executed,
                machine.policy.name,
                ", ".join(differs),
            )
        )


# ---------------------------------------------------------------------------
# Bit-identity fingerprint
# ---------------------------------------------------------------------------


def result_fingerprint(result: SimulationResult) -> str:
    """Canonical digest of everything a simulation result exposes.

    Two runs with equal fingerprints agree on timing (exact float
    values, not approximations), traffic, per-core accounting, the
    persist journal's final image (as ciphertext, for encrypted
    designs) and the transaction commit times — the definition of
    "bit-identical" used by the resume guarantees.
    """
    journal = result.controller.journal
    data_lines, counter_lines = journal.final_image(result.image_cipher())
    canonical = (
        result.stats.design,
        result.stats.num_cores,
        result.stats.runtime_ns,
        result.stats.bytes_written,
        result.stats.bytes_read,
        result.stats.transactions,
        result.stats.counter_cache_miss_rate,
        result.stats.data_wq_peak,
        result.stats.counter_wq_peak,
        result.stats.coalesced_data_writes,
        result.stats.coalesced_counter_writes,
        result.stats.paired_writes,
        result.stats.mean_read_latency_ns,
        tuple(tuple(sorted(core.as_dict().items())) for core in result.stats.per_core),
        tuple(tuple(times) for times in result.txn_end_times),
        len(journal),
        tuple(sorted(data_lines.items())),
        tuple(sorted(counter_lines.items())),
    )
    return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()
