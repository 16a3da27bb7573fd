"""System configuration (paper Table 2).

Every experiment is parameterized by a :class:`SystemConfig`, a frozen
dataclass tree mirroring the evaluated system:

* out-of-order x86 cores at 4 GHz (we model the memory-op stream),
* private L1, shared L2,
* a shared 1 MB/core, 16-way counter cache,
* a memory controller with a 32-entry read queue, 64-entry data write
  queue and 16-entry counter write queue,
* an 8 GB PCM main memory behind a DDR3-533 interface, and
* a 40 ns AES en/decryption latency.

All times are in nanoseconds (floats); sizes are in bytes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional

from .errors import ConfigurationError

#: Bytes per cache line / memory access, fixed by the paper (64 B data,
#: 8 B counter, eight counters per counter line).
CACHE_LINE_SIZE = 64
COUNTER_SIZE = 8
COUNTERS_PER_LINE = CACHE_LINE_SIZE // COUNTER_SIZE

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CoreConfig:
    """Processor core parameters."""

    frequency_ghz: float = 4.0
    #: Fixed cost charged per trace operation for non-memory work; models
    #: the instructions between persistent-memory accesses.
    op_overhead_ns: float = 1.0

    def __post_init__(self) -> None:
        _require(self.frequency_ghz > 0, "core frequency must be positive")
        _require(self.op_overhead_ns >= 0, "op overhead cannot be negative")

    @property
    def cycle_ns(self) -> float:
        """Duration of one core clock cycle in nanoseconds."""
        return 1.0 / self.frequency_ghz


@dataclass(frozen=True)
class CacheConfig:
    """One set-associative cache level."""

    size_bytes: int
    ways: int
    hit_latency_ns: float
    line_size: int = CACHE_LINE_SIZE

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "cache size must be positive")
        _require(self.ways > 0, "cache associativity must be positive")
        _require(self.hit_latency_ns >= 0, "hit latency cannot be negative")
        _require(
            self.size_bytes % (self.ways * self.line_size) == 0,
            "cache size must be a multiple of ways * line size",
        )
        _require(_is_power_of_two(self.num_sets), "number of sets must be a power of two")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways


@dataclass(frozen=True)
class CounterCacheConfig(CacheConfig):
    """The on-chip counter cache (1 MB per core, 16-way in Table 2)."""

    size_bytes: int = 1 * MB
    ways: int = 16
    hit_latency_ns: float = 1.0


@dataclass(frozen=True)
class NVMTimingConfig:
    """PCM timing parameters (Table 2, from Lee et al. / Xu et al.).

    ``tRCD/tCL/tCWD/tFAW/tWTR/tWR = 48/15/13/50/7.5/300 ns``.
    """

    t_rcd_ns: float = 48.0
    t_cl_ns: float = 15.0
    t_cwd_ns: float = 13.0
    t_faw_ns: float = 50.0
    t_wtr_ns: float = 7.5
    t_wr_ns: float = 300.0
    #: DDR3 interface clock; 533 MHz, double data rate.
    bus_mhz: float = 533.0
    bus_width_bits: int = 64
    #: Concurrent array-access units (banks x per-bank partitions).
    #: Table 2 does not fix a bank count; PCM parts expose substantial
    #: intra-bank write parallelism (Lee et al., Xu et al.), and the
    #: long 300 ns write recovery only meets the paper's observed
    #: multicore scaling with a few tens of concurrent write units.
    num_banks: int = 32
    #: Multipliers for the Figure 17 latency sweeps.
    read_latency_scale: float = 1.0
    write_latency_scale: float = 1.0

    def __post_init__(self) -> None:
        for name in ("t_rcd_ns", "t_cl_ns", "t_cwd_ns", "t_faw_ns", "t_wtr_ns", "t_wr_ns"):
            _require(getattr(self, name) >= 0, "%s cannot be negative" % name)
        _require(self.bus_mhz > 0, "bus frequency must be positive")
        _require(self.bus_width_bits in (64, 72), "bus width must be 64 or 72 bits")
        _require(_is_power_of_two(self.num_banks), "bank count must be a power of two")
        _require(self.read_latency_scale > 0, "read latency scale must be positive")
        _require(self.write_latency_scale > 0, "write latency scale must be positive")

    @property
    def read_access_ns(self) -> float:
        """Array read time for one line (row activate + column read)."""
        return (self.t_rcd_ns + self.t_cl_ns) * self.read_latency_scale

    @property
    def write_access_ns(self) -> float:
        """Array write time for one line (column write + write recovery)."""
        return (self.t_cwd_ns + self.t_wr_ns) * self.write_latency_scale

    @property
    def beat_ns(self) -> float:
        """Duration of one bus beat (double data rate)."""
        return 1.0e3 / (2.0 * self.bus_mhz)

    def burst_ns(self, payload_bytes: int) -> float:
        """Bus occupancy to transfer ``payload_bytes``.

        A 64-bit bus moves 8 B per beat; the 72-bit co-located bus moves
        9 B per beat, so a 72 B data+counter line still takes 8 beats.
        """
        bytes_per_beat = self.bus_width_bits // 8
        beats = -(-payload_bytes // bytes_per_beat)  # ceil division
        return beats * self.beat_ns


@dataclass(frozen=True)
class MemoryControllerConfig:
    """Queue geometry of the memory controller (Table 2)."""

    read_queue_entries: int = 32
    data_write_queue_entries: int = 64
    counter_write_queue_entries: int = 16
    #: Merge repeated writes to the same line while queued.
    coalesce_writes: bool = True
    #: Drain policy: ``"ready-first"`` lets ready entries bypass unready
    #: ones (the paper's design); ``"fifo"`` models strict head-of-line
    #: blocking (ablation).
    drain_policy: str = "ready-first"
    #: How long the controller holds a counter-line entry in the counter
    #: write queue before draining it (opportunistic writeback).  Hot
    #: counter lines — the transaction record's line, the log area's
    #: lines — are rewritten every transaction; deferring their drain
    #: lets those updates coalesce in the queue, which is where the
    #: paper's counter-traffic savings come from (§6.3.3).  0 disables
    #: (the default): deferring drains lengthens counter-queue slot
    #: waits for paired writes, which costs more than the coalescing
    #: saves — kept as an ablation knob (benchmarks/test_ablations.py).
    counter_drain_hold_ns: float = 0.0
    #: Latency of the ready-bit handshake for a counter-atomic pair:
    #: both queues are CAM-searched for the partner entry and both
    #: ready bits updated under ADR protection (paper Section 5.2.2
    #: steps 5-7).  Charged on the pair's acceptance, i.e. on the
    #: commit barrier's critical path — this is the per-transaction
    #: cost that Figure 16 shows amortizing with transaction size.
    pair_ready_latency_ns: float = 30.0
    #: When set, the controller appends every event record as a JSON
    #: line to this path (see :mod:`repro.mem.events`) — the
    #: observability tap for campaign debugging and perf analysis.  The
    #: file is flushed once per controller request, so a killed run
    #: loses at most the request in flight.  The trace is diagnostic
    #: output, not simulation state: it is not checkpointed and replays
    #: from a restored snapshot re-append.
    event_trace_path: Optional[str] = None
    #: Record crash-reconstruction state (persist journal, device line
    #: images, wear map).  Timing-only figure sweeps that never inject
    #: crashes turn this off to skip the per-write bookkeeping; crash
    #: campaigns and checkpointing must leave it on.
    crash_bookkeeping: bool = True

    def __post_init__(self) -> None:
        _require(self.read_queue_entries > 0, "read queue must have entries")
        _require(self.data_write_queue_entries > 0, "data write queue must have entries")
        _require(self.counter_write_queue_entries > 0, "counter write queue must have entries")
        _require(
            self.drain_policy in ("ready-first", "fifo"),
            "drain policy must be 'ready-first' or 'fifo'",
        )


@dataclass(frozen=True)
class EncryptionConfig:
    """Encryption-engine parameters."""

    #: AES latency from Table 2 (Shi et al.).
    latency_ns: float = 40.0
    #: ``"prf"`` (fast keyed PRF) or ``"aes"`` (FIPS-197 AES-128); both
    #: are real OTP generators, AES is ~100x slower in pure Python.
    cipher: str = "prf"
    key: bytes = b"repro-hpca18-counter-mode-key!!!"[:16]

    def __post_init__(self) -> None:
        _require(self.latency_ns >= 0, "encryption latency cannot be negative")
        _require(self.cipher in ("prf", "aes"), "cipher must be 'prf' or 'aes'")
        _require(len(self.key) == 16, "key must be 16 bytes (AES-128)")


@dataclass(frozen=True)
class IntegrityConfig:
    """Bonsai Merkle Tree parameters (integrity-verified designs).

    The tree covers the counter region: leaves are 64 B counter lines
    (eight 8 B counters), interior nodes are 64 B blocks of ``arity``
    child digests, and the root lives in a crash-safe on-chip secure
    register.  See ``docs/integrity_tree.md``.
    """

    #: Children per interior node.  8 keeps a node exactly one 64 B
    #: line of 8 B digests, so tree writes look like counter writes.
    arity: int = 8
    #: On-chip tree-node cache capacity, in 64 B nodes.
    node_cache_entries: int = 64
    #: Tree write queue depth (same ADR/ready-bit semantics as the
    #: counter write queue).
    tree_write_queue_entries: int = 16
    #: Default persistence mode when the design does not pin one:
    #: ``"eager"`` persists the leaf-to-root path at every counter
    #: persist (Freij-style strict ordering); ``"lazy"`` coalesces
    #: dirty tree nodes until counter_cache_writeback()/eviction.
    mode: str = "eager"
    #: Osiris bound: when a write's (global) encryption counter outruns
    #: the line's persisted counter by more than this, the write is
    #: escalated to a counter-atomic pair, so the post-crash counter
    #: search (same window) can always re-authenticate an in-flight
    #: line against its ECC-lane tag.
    max_counter_lag: int = 64

    def __post_init__(self) -> None:
        _require(_is_power_of_two(self.arity), "tree arity must be a power of two")
        _require(self.arity >= 2, "tree arity must be at least 2")
        _require(
            self.arity <= CACHE_LINE_SIZE // COUNTER_SIZE,
            "a tree node's digests must fit one %d B line" % CACHE_LINE_SIZE,
        )
        _require(self.node_cache_entries >= 1, "tree node cache needs entries")
        _require(self.tree_write_queue_entries >= 1, "tree write queue needs entries")
        _require(self.mode in ("eager", "lazy"), "integrity mode is 'eager' or 'lazy'")
        _require(self.max_counter_lag >= 1, "counter lag bound must be positive")


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration tying the whole machine together."""

    num_cores: int = 1
    core: CoreConfig = field(default_factory=CoreConfig)
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=64 * KB, ways=8, hit_latency_ns=1.0)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=2 * MB, ways=8, hit_latency_ns=5.0)
    )
    counter_cache: CounterCacheConfig = field(default_factory=CounterCacheConfig)
    controller: MemoryControllerConfig = field(default_factory=MemoryControllerConfig)
    nvm: NVMTimingConfig = field(default_factory=NVMTimingConfig)
    encryption: EncryptionConfig = field(default_factory=EncryptionConfig)
    integrity: IntegrityConfig = field(default_factory=IntegrityConfig)
    memory_size_bytes: int = 8 * GB
    #: When True the simulator moves and encrypts real bytes; when False
    #: it tracks only addresses and timing (for large sweeps).
    functional: bool = True
    #: Memory controllers the physical address space is interleaved
    #: across (:class:`repro.nvm.address.ShardMap`).  1 keeps the
    #: singleton-controller pipeline bit-identical to the pre-sharding
    #: simulator; N > 1 builds one controller per shard, each with its
    #: own record log, write queues, counter cache and BMT subtree, tied
    #: together by the cross-shard persist barrier
    #: (:mod:`repro.mem.sharded`, ``docs/sharding.md``).
    shards: int = 1

    def __post_init__(self) -> None:
        _require(self.num_cores >= 1, "need at least one core")
        _require(self.memory_size_bytes >= MB, "memory must be at least 1 MB")
        _require(
            self.memory_size_bytes % CACHE_LINE_SIZE == 0,
            "memory size must be line-aligned",
        )
        _require(self.shards >= 1, "need at least one memory-controller shard")
        _require(
            self.memory_size_bytes % (self.shards * CACHE_LINE_SIZE) == 0,
            "memory size must divide evenly across shards",
        )
        _require(
            self.memory_size_bytes // self.shards
            >= CACHE_LINE_SIZE * (COUNTERS_PER_LINE + 1) * COUNTERS_PER_LINE,
            "per-shard memory too small to host data and counter regions",
        )

    def scaled(self, **overrides: Any) -> "SystemConfig":
        """Return a copy with top-level fields replaced."""
        return replace(self, **overrides)

    def with_nvm(self, **overrides: Any) -> "SystemConfig":
        """Return a copy with NVM timing fields replaced."""
        return replace(self, nvm=replace(self.nvm, **overrides))

    def with_controller(self, **overrides: Any) -> "SystemConfig":
        """Return a copy with memory-controller fields replaced."""
        return replace(self, controller=replace(self.controller, **overrides))

    def with_counter_cache(self, size_bytes: int) -> "SystemConfig":
        """Return a copy with a resized counter cache."""
        return replace(
            self,
            counter_cache=replace(self.counter_cache, size_bytes=size_bytes),
        )

    def with_integrity(self, **overrides: Any) -> "SystemConfig":
        """Return a copy with integrity-tree fields replaced."""
        return replace(self, integrity=replace(self.integrity, **overrides))

    def describe(self) -> Dict[str, str]:
        """Human-readable parameter table (used by the Table 2 bench)."""
        nvm = self.nvm
        return {
            "Processor": "trace-driven cores, %.1f GHz" % self.core.frequency_ghz,
            "Cores": str(self.num_cores),
            "L1 cache": "%d KB per core, %d-way" % (self.l1.size_bytes // KB, self.l1.ways),
            "L2 cache": "%d MB shared, %d-way" % (self.l2.size_bytes // MB, self.l2.ways),
            "Counter cache": "%d KB, %d-way"
            % (self.counter_cache.size_bytes // KB, self.counter_cache.ways),
            "Read queue": "%d entries" % self.controller.read_queue_entries,
            "Data write queue": "%d entries" % self.controller.data_write_queue_entries,
            "Counter write queue": "%d entries" % self.controller.counter_write_queue_entries,
            "Memory": "%d GB PCM, %.0f MHz DDR"
            % (self.memory_size_bytes // GB, nvm.bus_mhz),
            "PCM timing": "tRCD/tCL/tCWD/tFAW/tWTR/tWR = %.0f/%.0f/%.0f/%.0f/%.1f/%.0f ns"
            % (nvm.t_rcd_ns, nvm.t_cl_ns, nvm.t_cwd_ns, nvm.t_faw_ns, nvm.t_wtr_ns, nvm.t_wr_ns),
            "En/decryption": "%.0f ns latency" % self.encryption.latency_ns,
        }


def default_config(num_cores: int = 1, **overrides: Any) -> SystemConfig:
    """The paper's Table 2 configuration, optionally overridden."""
    return SystemConfig(num_cores=num_cores, **overrides)


def fast_config(
    num_cores: int = 1, functional: bool = True, shards: int = 1
) -> SystemConfig:
    """A scaled-down configuration for unit tests.

    Small caches make eviction paths reachable with tiny footprints; the
    timing parameters are unchanged so behaviour stays representative.
    """
    return SystemConfig(
        num_cores=num_cores,
        l1=CacheConfig(size_bytes=4 * KB, ways=4, hit_latency_ns=1.0),
        l2=CacheConfig(size_bytes=16 * KB, ways=4, hit_latency_ns=5.0),
        counter_cache=CounterCacheConfig(size_bytes=4 * KB, ways=4),
        memory_size_bytes=64 * MB,
        functional=functional,
        shards=shards,
    )


def bench_config(
    num_cores: int = 1, functional: bool = True, shards: int = 1
) -> SystemConfig:
    """The benchmark configuration used to regenerate the figures.

    The absolute sizes are scaled down from Table 2 so that pure-Python
    trace simulation stays tractable, but the *ratios* that drive the
    paper's effects are preserved:

    * workload footprints (set per experiment) are 8-32x the L2, so
      reads regularly miss on-chip caches and reach the PCM — this is
      what exposes the co-located design's serialized decryption;
    * the counter cache covers 8x its own size in data (one 8 B counter
      per 64 B line), the same coverage ratio as Table 2's 1 MB cache;
    * the shared L2 and the shared counter cache scale with the core
      count, exactly as Table 2 specifies ("2 MB per core" L2, "1 MB
      per core" counter cache);
    * queue depths, PCM timing and the 40 ns crypto latency are the
      paper's values, unscaled.
    """
    return SystemConfig(
        num_cores=num_cores,
        l1=CacheConfig(size_bytes=2 * KB, ways=4, hit_latency_ns=1.0),
        l2=CacheConfig(size_bytes=8 * KB * num_cores, ways=4, hit_latency_ns=5.0),
        counter_cache=CounterCacheConfig(size_bytes=8 * KB * num_cores, ways=8),
        memory_size_bytes=128 * MB,
        functional=functional,
        shards=shards,
    )


def config_from_mapping(values: Mapping[str, Any]) -> SystemConfig:
    """Build a :class:`SystemConfig` from a flat mapping.

    Recognized keys are the field names of :class:`SystemConfig` plus
    dotted names for nested fields, e.g. ``{"nvm.t_wr_ns": 150.0}``.
    Unknown keys raise :class:`ConfigurationError`.
    """
    config = SystemConfig()
    top: Dict[str, Any] = {}
    nested: Dict[str, Dict[str, Any]] = {}
    valid_top = {f.name for f in dataclasses.fields(SystemConfig)}
    for key, value in values.items():
        if "." in key:
            group, _, leaf = key.partition(".")
            if group not in valid_top:
                raise ConfigurationError("unknown config group %r" % group)
            nested.setdefault(group, {})[leaf] = value
        elif key in valid_top:
            top[key] = value
        else:
            raise ConfigurationError("unknown config key %r" % key)
    for group, fields in nested.items():
        current = getattr(config, group)
        try:
            top[group] = replace(current, **fields)
        except TypeError as exc:
            raise ConfigurationError(str(exc)) from exc
    return replace(config, **top)
