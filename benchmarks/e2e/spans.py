"""Layer spans wrapped from outside around the public entry points of ``repro``.

Nothing under ``src/`` knows about these spans: :meth:`Tracer.install`
replaces each declared callable with a timing wrapper and
:meth:`Tracer.uninstall` puts the originals back.  Every layer is named
after the ``repro`` module that defines the callables it wraps, so the
layer ``mem.layout`` is ``repro.mem.layout``.

All wrappers share one stack of ``[layer, child_ns]`` frames timed with
``perf_counter_ns``.  A layer's self time is the duration of its spans
minus the time of the spans they called.  The calibrated cost of one
span (``span_ns``) is charged to the wrapped call, not to its caller, so
the self times of nested spans still add up to the traced wall time.

Installing fails loudly, naming the culprit, when a declared callable no
longer exists or when a class overrides a wrapped method without being
declared itself: an unwrapped override would silently move its time into
the caller's layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import statistics
import sys
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: layer -> {class name, or None for module-level functions: wrapped names}.
#: Module-level functions are also rebound in every ``repro`` namespace
#: that imported them by name (``bench.resilience``, ``service.scenario``,
#: ``crash.injector`` and the package re-exports).
LAYERS: Dict[str, Dict[Optional[str], Tuple[str, ...]]] = {
    "bench.harness": {None: ("build_traces",)},
    "sim.machine": {"Machine": ("run", "fast_forward", "run_events", "step", "finish")},
    "mem.hierarchy": {
        "CacheHierarchy": (
            "load_complete",
            "store_complete",
            "load",
            "store",
            "clwb",
            "flush_all_dirty",
        )
    },
    "mem.controller": {
        "MemoryController": (
            "read_line",
            "write_line",
            "drain_write",
            "counter_cache_writeback",
        )
    },
    "mem.layout": {
        "PlainLayout": ("complete_read", "write_line"),
        "ColocatedLayout": ("complete_read", "write_line"),
        "SplitCounterLayout": ("complete_read", "write_line", "fetch_counter_line"),
    },
    "mem.atomicity": {
        "UnpairedAtomicity": (
            "accept_write",
            "write_unpaired",
            "write_paired",
            "writeback_counter_line",
        )
    },
    "mem.integrity_policy": {
        "NoIntegrity": ("note_counter_persist", "verify_counter_fetch", "on_ccwb"),
        "TreePersistence": ("persist_tree_node", "verify_counter_fetch"),
        "EagerTreePersistence": ("note_counter_persist",),
        "LazyTreePersistence": ("note_counter_persist", "on_ccwb"),
    },
    "mem.sharded": {
        "ShardedMemorySystem": (
            "read_line",
            "write_line",
            "counter_cache_writeback",
            "note_txn_commit",
        )
    },
    "crypto.engine": {
        "EncryptionEngine": (
            "encrypt_for_write",
            "decrypt_for_read",
            "fill_counter_line",
            "persist_counter_line",
        )
    },
    "crypto.otp": {
        "OTPCipher": ("encrypt", "decrypt", "encrypt_lines", "decrypt_lines", "pads_many")
    },
    "persist.journal": {
        "PersistJournal": (
            "record_data",
            "record_counter",
            "record_commit",
            "amend_data",
            "amend_counter",
            "reconstruct",
            "adr_pending",
            "final_image",
        )
    },
    "crash.injector": {
        "CrashInjector": (
            "crash_at",
            "crash_with_faults",
            "interesting_times",
            "midpoint_times",
        )
    },
    "faults.base": {None: ("apply_fault_models",)},
    "crash.recovery": {"RecoveryManager": ("recover",)},
    "workloads.base": {"PrefixValidator": ("classify",)},
    "crash.counter_recovery": {"CounterRecoverer": ("recover_image",)},
    "integrity.verifier": {None: ("verify_image", "repair_image")},
    "service.traffic": {None: ("generate_operations",)},
    "service.kv": {
        "ServiceWorkload": ("execute", "build_run"),
        "ServiceValidator": ("classify",),
    },
    "service.slo": {None: ("attribute_latencies", "summarize_tenants")},
    "crash.session": {"RecoverySession": ("run",)},
    "service.scenario": {None: ("run_service_job",)},
}


class SpanError(RuntimeError):
    """The declared spans no longer match the code they wrap."""


def _count_simulation(tracer: "Tracer", result) -> None:
    """Fold one ``Machine.finish`` result into the work counters."""
    stats = result.stats
    counters = tracer.counters
    counters["sim.ops"] += sum(core.ops_executed for core in stats.per_core)
    counters["mem.atomicity.paired_writes"] += stats.paired_writes
    counters["mem.atomicity.coalesced_writes"] += (
        stats.coalesced_data_writes + stats.coalesced_counter_writes
    )
    counters["mem.controller.bytes_written"] += stats.bytes_written
    if stats.counter_cache_miss_rate is not None:
        tracer.miss_rates.append(stats.counter_cache_miss_rate)


def _count_session(tracer: "Tracer", result) -> None:
    """Fold one ``RecoverySession.run`` result into the work counters."""
    if result.ledger.attempts.get("counter-search", 0):
        tracer.counters["crash.session.searched"] += 1
        if result.status == "consistent" and result.via_search:
            tracer.counters["crash.session.search_recovered"] += 1


#: Simulated work counters, read from the results of two wrapped calls.
OBSERVERS: Dict[Tuple[str, str], Callable] = {
    ("Machine", "finish"): _count_simulation,
    ("RecoverySession", "run"): _count_session,
}

#: Layers whose every span duration is kept, for latency percentiles.
SAMPLED = ("crash.session",)


def _import_all() -> List[types.ModuleType]:
    """Import every ``repro`` module so by-name bindings can be found."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found


class Tracer:
    """Per-layer self time, call counts and simulated work counters."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        #: Calibrated cost of one span, charged to the wrapped call.
        self.span_ns = 0
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Time in a layer's outermost spans, its wrapped children included.
        self.inclusive_ns: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, int] = defaultdict(int)
        self.miss_rates: List[float] = []
        #: Charged duration of every span of the :data:`SAMPLED` layers.
        self.durations_ns: Dict[str, List[int]] = {layer: [] for layer in SAMPLED}
        self._stack: List[list] = []
        self._installed: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop every total, keeping the calibration."""
        for totals in (self.self_ns, self.calls, self.inclusive_ns, self.counters):
            totals.clear()
        self.miss_rates.clear()
        for durations in self.durations_ns.values():
            durations.clear()

    def span(
        self, layer: str, fn: Callable, observe: Optional[Callable] = None
    ) -> Callable:
        """``fn`` wrapped so each call is charged to ``layer``."""
        stack = self._stack
        clock = self.clock
        self_ns = self.self_ns
        calls = self.calls
        inclusive_ns = self.inclusive_ns
        durations = self.durations_ns.get(layer)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                charged = clock() - start + tracer.span_ns
                stack.pop()
                self_ns[layer] += charged - frame[1]
                calls[layer] += 1
                if durations is not None:
                    durations.append(charged)
                if stack:
                    parent = stack[-1]
                    parent[1] += charged
                    if parent[0] != layer:
                        inclusive_ns[layer] += charged
                else:
                    inclusive_ns[layer] += charged
            if observe is not None:
                observe(tracer, result)
            return result

        return wrapper

    def calibrate(self, calls: int = 20000, rounds: int = 5) -> int:
        """Measure ``span_ns``: the time a span adds outside its own window.

        Times ``calls`` wrapped no-op calls, subtracts the durations the
        spans measured themselves and the cost of calling the no-op
        directly, and keeps the median over ``rounds``.
        """

        def noop() -> None:
            return None

        clock = self.clock
        self.span_ns = 0
        wrapped = self.span("trace.calibration", noop)
        estimates = []
        for _ in range(rounds):
            self.self_ns.pop("trace.calibration", None)
            start = clock()
            for _ in range(calls):
                wrapped()
            total = clock() - start
            start = clock()
            for _ in range(calls):
                noop()
            bare = clock() - start
            measured = self.self_ns.pop("trace.calibration")
            estimates.append((total - measured - bare) / calls)
        for totals in (self.calls, self.inclusive_ns):
            totals.pop("trace.calibration", None)
        self.span_ns = max(0, round(statistics.median(estimates)))
        return self.span_ns

    # -- installation -------------------------------------------------------

    def install(
        self, layers: Dict[str, Dict[Optional[str], Tuple[str, ...]]] = LAYERS
    ) -> None:
        """Wrap every declared callable, or raise :class:`SpanError`.

        Validation runs before anything is patched, so a failed install
        leaves the code untouched.
        """
        modules = _import_all()
        methods: List[Tuple[str, type, str, Callable]] = []
        functions: List[Tuple[str, types.ModuleType, str, Callable]] = []
        declared: Dict[type, set] = defaultdict(set)
        for layer, owners in layers.items():
            module_name = "repro." + layer
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                raise SpanError("layer %s: module %s no longer exists" % (layer, module_name)) from None
            for owner, names in owners.items():
                for name in names:
                    where = "%s.%s" % (module_name, name if owner is None else owner + "." + name)
                    if owner is None:
                        fn = vars(module).get(name)
                    else:
                        cls = vars(module).get(owner)
                        if not isinstance(cls, type):
                            raise SpanError("declared class %s.%s no longer exists" % (module_name, owner))
                        fn = vars(cls).get(name)
                    if not isinstance(fn, types.FunctionType):
                        raise SpanError("declared callable %s no longer exists" % where)
                    if owner is None:
                        functions.append((layer, module, name, fn))
                    else:
                        methods.append((layer, cls, name, fn))
                        declared[cls].add(name)
        for cls, names in declared.items():
            module = sys.modules[cls.__module__]
            candidates = set(_subclasses(cls))
            candidates.update(
                member
                for _, member in inspect.getmembers(module, inspect.isclass)
                if member.__module__ == module.__name__
            )
            for other in sorted(candidates, key=lambda c: (c.__module__, c.__qualname__)):
                for name in sorted(names):
                    if name in vars(other) and name not in declared.get(other, ()):
                        raise SpanError(
                            "%s.%s overrides wrapped method %s but is not declared "
                            "in spans.LAYERS" % (other.__module__, other.__qualname__, name)
                        )
        for layer, cls, name, fn in methods:
            observe = OBSERVERS.get((cls.__name__, name))
            self._patch(cls, name, self.span(layer, fn, observe))
        for layer, module, name, fn in functions:
            wrapper = self.span(layer, fn)
            for namespace in modules:
                for attr, value in list(vars(namespace).items()):
                    if value is fn:
                        self._patch(namespace, attr, wrapper)

    def _patch(self, namespace: object, attr: str, wrapper: Callable) -> None:
        self._installed.append((namespace, attr, vars(namespace)[attr]))
        setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original callable."""
        while self._installed:
            namespace, attr, original = self._installed.pop()
            setattr(namespace, attr, original)
