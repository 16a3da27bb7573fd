"""One state walker for every state comparison in the suite.

:func:`walk` turns a live object graph (a machine, a controller, one
cache level) into a detached plain value that compares with ``==``
and shares nothing with the graph:

* an object becomes ``("<object>", class name, fields)``, its fields
  the ``(name, value)`` pairs of its attributes, from ``__dict__`` and
  every ``__slots__`` of its class and bases, sorted by name and
  walked recursively (dataclasses included);
* an object whose class defines its own ``__getstate__`` (``Trace``,
  ``JsonlTrace``) is walked through it, so the walk sees what a pickle
  carries: a trace's name and columns but not its recorded cache
  passes, and a trace file's path but not its open stream;
* a dict becomes the list of its ``(key, value)`` items in insertion
  order, because LRU tie-breaking iterates dicts in that order;
* a set is sorted, a bytearray becomes bytes and a numpy array a list;
* an enum member becomes its name, and a bound method (a cipher's
  kernel, say) its qualified name;
* an object already on the path being walked becomes a back-reference
  marker, which breaks cycles such as a controller layer's ``ctrl``.

:func:`first_difference` names the first path at which two walked
values differ, so a failing comparison names the field.
"""

from __future__ import annotations

import enum
import types
from typing import Dict, Iterator, List, Optional, Tuple

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is optional
    _np = None

_SCALARS = (type(None), bool, int, float, str, bytes)
_DEFAULT_GETSTATE = getattr(object, "__getstate__", None)


def walk(obj: object) -> object:
    """``obj``'s reachable state as nested tuples, lists and scalars."""
    return _Walker().walk(obj)


def first_difference(left: object, right: object, path: str = "") -> Optional[str]:
    """The path of the first place two walked values differ, or None."""
    where = path or "<root>"
    if type(left) is not type(right):
        return "%s: %s vs %s" % (where, type(left).__name__, type(right).__name__)
    if _is_object(left) and _is_object(right):
        assert isinstance(left, tuple) and isinstance(right, tuple)
        if left[1] != right[1]:
            return "%s: %s vs %s" % (where, left[1], right[1])
        left_fields, right_fields = dict(left[2]), dict(right[2])
        if list(left_fields) != list(right_fields):
            return "%s: fields %s vs %s" % (where, list(left_fields), list(right_fields))
        for name, value in left_fields.items():
            found = first_difference(value, right_fields[name], "%s.%s" % (path, name))
            if found:
                return found
        return None
    if isinstance(left, (list, tuple)):
        assert isinstance(right, (list, tuple))
        if len(left) != len(right):
            return "%s: length %d vs %d" % (where, len(left), len(right))
        for index, (lvalue, rvalue) in enumerate(zip(left, right)):
            found = first_difference(lvalue, rvalue, "%s[%d]" % (path, index))
            if found:
                return found
        return None
    if left != right:
        return "%s: %r vs %r" % (where, left, right)
    return None


def assert_same_state(left: object, right: object) -> None:
    """Assert two objects walk to equal values, naming the first difference."""
    walked_left, walked_right = walk(left), walk(right)
    if walked_left != walked_right:
        raise AssertionError(
            "states differ at %s" % first_difference(walked_left, walked_right)
        )


def _is_object(value: object) -> bool:
    """True for a walked object, ``("<object>", class, fields)``."""
    return isinstance(value, tuple) and len(value) == 3 and value[0] == "<object>"


class _Walker:
    def __init__(self) -> None:
        self._path: set = set()
        # A shared object walks to the same value wherever it is met;
        # walking it once keeps the walk linear in the graph.
        self._done: Dict[int, object] = {}
        self._keep: List[object] = []

    def walk(self, obj: object) -> object:
        if isinstance(obj, _SCALARS):
            return obj
        if isinstance(obj, enum.Enum):
            return ("<enum>", type(obj).__qualname__, obj.name)
        if isinstance(obj, types.MethodType):
            return ("<method>", obj.__qualname__)
        if isinstance(obj, bytearray):
            return bytes(obj)
        if _np is not None and isinstance(obj, _np.ndarray):
            return ("<ndarray>", str(obj.dtype), obj.tolist())
        key = id(obj)
        if key in self._path:
            return ("<back-reference>", type(obj).__qualname__)
        if key in self._done:
            return self._done[key]
        self._path.add(key)
        try:
            value = self._walk_compound(obj)
        finally:
            self._path.discard(key)
        self._done[key] = value
        self._keep.append(obj)  # ids stay unique while the walk runs
        return value

    def _walk_compound(self, obj: object) -> object:
        walk = self.walk
        if isinstance(obj, list):
            return [walk(item) for item in obj]
        if isinstance(obj, tuple):
            return tuple(walk(item) for item in obj)
        if isinstance(obj, dict):
            return [(walk(k), walk(v)) for k, v in obj.items()]
        if isinstance(obj, (set, frozenset)):
            return ("<set>",) + tuple(sorted((walk(item) for item in obj), key=repr))
        getstate = getattr(type(obj), "__getstate__", None)
        if getstate is not None and getstate is not _DEFAULT_GETSTATE:
            attributes = dict(obj.__getstate__())  # type: ignore[attr-defined]
        else:
            attributes = dict(_attributes(obj))
            if not attributes and not hasattr(obj, "__dict__"):
                raise TypeError("cannot walk a %s" % type(obj).__qualname__)
        return (
            "<object>",
            type(obj).__qualname__,
            tuple((name, walk(attributes[name])) for name in sorted(attributes)),
        )


_MISSING = object()


def _attributes(obj: object) -> Iterator[Tuple[str, object]]:
    yield from getattr(obj, "__dict__", {}).items()
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if name in ("__dict__", "__weakref__"):
                continue
            value = getattr(obj, name, _MISSING)
            yield name, ("<unset>" if value is _MISSING else value)
