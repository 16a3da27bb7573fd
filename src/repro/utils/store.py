"""Durable on-disk results: one key, one publish, one quarantine.

The paper asks NVM software to publish a write whole or not at all and
to detect a torn one rather than trust it.  Everything the simulator
keeps across runs follows the same rule, through this module:

* :func:`content_key` names a job's result by a hash of the job's
  document and :func:`~repro.utils.versioning.code_version`, so a result
  is reused only by the sources that produced it.
* :func:`publish` writes to a pid-suffixed temporary file beside the
  target, fsyncs it, renames it over the target with ``os.replace`` and
  fsyncs the directory: a crash leaves the old file or the new one, at
  worst next to an orphan temporary file.
* :func:`quarantine` renames a damaged file to ``<name>.corrupt`` and
  logs it; the evidence stays on disk and out of the next run's way.
* :class:`JsonStore` keeps one ``<key>.json`` per finished result.

Sweep results, campaign and service job results live in
:class:`JsonStore` directories; machine checkpoints
(:mod:`repro.sim.snapshot`) keep their own container format but publish
and quarantine through the same two functions.  This lives in
``repro.utils`` because the sim and crash layers must not import bench.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
from typing import Callable, Mapping, Optional, TypeVar

from .versioning import code_version

__all__ = ["content_key", "publish", "quarantine", "JsonStore"]

logger = logging.getLogger(__name__)

T = TypeVar("T")

#: Suffix a damaged file is renamed to.
CORRUPT_SUFFIX = ".corrupt"

#: What :meth:`JsonStore.clear` may delete: results and their quarantined
#: copies, named by :func:`content_key`, and nothing else a user keeps
#: in the same directory.
_STORE_FILE = re.compile(r"[0-9a-f]{64}\.json(%s)?" % re.escape(CORRUPT_SUFFIX))


def content_key(document: Mapping[str, object]) -> str:
    """SHA-256 of a job's document and the current code version.

    ``document`` is JSON data, except that ``bytes`` values (a config's
    key material) are hashed as hex.
    """
    blob = json.dumps(
        {"code": code_version(), "job": document},
        sort_keys=True,
        separators=(",", ":"),
        default=_hex_bytes,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _hex_bytes(value: object) -> str:
    if isinstance(value, bytes):
        return value.hex()
    raise TypeError("%s is not JSON data" % type(value).__name__)


def publish(path: str, data: bytes) -> None:
    """Atomically and durably replace the file at ``path`` with ``data``."""
    tmp_path = "%s.tmp.%d" % (path, os.getpid())
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except OSError:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    # The rename is durable only once the directory entry is.
    try:
        fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def quarantine(path: str, reason: str) -> None:
    """Move a damaged file aside to ``<path>.corrupt`` and log why."""
    target = path + CORRUPT_SUFFIX
    try:
        os.replace(path, target)
        where = "quarantined to %s" % target
    except OSError:
        where = "could not be quarantined"
    logger.warning("corrupt file %s (%s); %s", path, reason, where)


class JsonStore:
    """One ``<key>.json`` document per finished result under ``directory``.

    A missing or unreadable file is a miss.  A file that does not parse,
    or whose document the caller's ``load`` rejects, is damage: it is
    quarantined, counted in :attr:`quarantined` and logged, and its job
    runs again.  The directory is created by the first :meth:`put`.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        #: Damaged result files this store moved aside.
        self.quarantined = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")

    def get(self, key: str, load: Callable[[dict], Optional[T]]) -> Optional[T]:
        """``load(document)`` for the stored result of ``key``, or None.

        ``load`` rejects a malformed document by raising ``KeyError``,
        ``TypeError`` or ``ValueError``, and may return None to have a
        sound result run again.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as stream:
                text = stream.read()
        except OSError:
            return None
        try:
            return load(json.loads(text))
        except (KeyError, TypeError, ValueError) as exc:
            self.quarantined += 1
            quarantine(path, "%s: %s" % (type(exc).__name__, exc))
            return None

    def put(self, key: str, document: Mapping[str, object]) -> None:
        """Publish ``document`` as the result of ``key``.

        A store that cannot be written (read-only, full) logs a warning
        and carries on: the caller still has the result, and only a rerun
        loses it.
        """
        data = json.dumps(document, sort_keys=True).encode("utf-8")
        try:
            os.makedirs(self.directory, exist_ok=True)
            publish(self._path(key), data)
        except OSError as exc:
            logger.warning(
                "could not store result %s in %s: %s", key, self.directory, exc
            )

    def clear(self) -> int:
        """Delete every stored and quarantined result; returns the count."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return 0
        removed = 0
        for name in names:
            if _STORE_FILE.fullmatch(name):
                try:
                    os.unlink(os.path.join(self.directory, name))
                    removed += 1
                except OSError:
                    pass
        return removed
