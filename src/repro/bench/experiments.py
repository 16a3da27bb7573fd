"""One experiment class per paper artifact (Figures 12-17, Tables 1-2).

Every experiment exposes ``run(scale, executor=None)`` returning an
:class:`repro.bench.report.ExperimentResult` whose series mirror the
paper's plotted series.  ``scale`` trades fidelity for wall-clock time:

* ``"quick"``  — small footprints/op counts (CI and pytest-benchmark),
* ``"full"``   — larger runs closer to the paper's working sets.

Each sweep-style experiment decomposes into independent
:class:`~repro.bench.parallel.SweepJob` design points and hands them to
a :class:`~repro.bench.parallel.SweepExecutor`, which may run them in a
process pool (``--workers N``) and/or serve them from the on-disk
result cache.  ``executor=None`` means serial, uncached, in-process —
bit-identical to the pre-engine behaviour.  A job yields only
:class:`~repro.sim.stats.MachineStats`, so it runs timing-only whatever
its config says (:func:`~repro.bench.harness.run_workload_stats`).
Experiments that inspect live simulation state (Table 1's crash
sweeps) always run in-process.

Absolute numbers differ from the gem5 testbed; the *shape* claims the
paper makes are re-checked programmatically and reported per experiment
(see ``ExperimentResult.claims``).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple, Type

from ..config import KB, MB, bench_config
from ..core.atomicity import TABLE1, required_counter_atomic_fraction
from ..crash.checker import sweep_crash_points
from ..errors import ConfigurationError
from ..workloads.base import WorkloadParams
from ..workloads.registry import list_workloads
from .harness import run_workload
from .parallel import SweepExecutor, SweepJob
from .report import ExperimentResult, Series

#: Designs shown in Figures 12 and 14, in plot order.
FIG12_DESIGNS = ("sca", "fca", "co-located", "co-located-cc")
#: Designs shown in Figure 13, in plot order.
FIG13_DESIGNS = ("no-encryption", "ideal", "sca", "fca", "co-located", "co-located-cc")

_SCALES = ("quick", "full")


def _check_scale(scale: str) -> None:
    if scale not in _SCALES:
        raise ConfigurationError("scale must be one of %s" % (_SCALES,))


def _quick_params(scale: str, operations_quick: int = 40, operations_full: int = 200) -> WorkloadParams:
    if scale == "quick":
        return WorkloadParams(operations=operations_quick, footprint_bytes=64 * KB)
    return WorkloadParams(operations=operations_full, footprint_bytes=256 * KB)


class Experiment:
    """Base class for paper artifacts."""

    name: str = "experiment"
    title: str = ""

    def run(
        self, scale: str = "quick", executor: Optional[SweepExecutor] = None
    ) -> ExperimentResult:
        raise NotImplementedError

    @staticmethod
    def _executor(executor: Optional[SweepExecutor]) -> SweepExecutor:
        """Default: serial, uncached, in-process execution."""
        return executor if executor is not None else SweepExecutor()


class Fig12SingleCore(Experiment):
    """Figure 12: single-core runtime normalized to no-encryption.

    Paper claims re-checked here: SCA beats FCA on average; plain
    co-located is by far the slowest; co-located + counter cache is
    close to SCA.
    """

    name = "fig12"
    title = "Figure 12 — normalized runtime, single core (lower is better)"

    def run(
        self, scale: str = "quick", executor: Optional[SweepExecutor] = None
    ) -> ExperimentResult:
        _check_scale(scale)
        executor = self._executor(executor)
        params = _quick_params(scale)
        config = bench_config()
        workloads = list_workloads()
        designs = ("no-encryption",) + FIG12_DESIGNS
        jobs = [
            SweepJob(design, workload, config=config, params=params)
            for workload in workloads
            for design in designs
        ]
        stats = executor.map_stats(jobs)
        by_point = {(job.workload, job.design): s for job, s in zip(jobs, stats)}
        series = [Series(design) for design in FIG12_DESIGNS]
        for workload in workloads:
            baseline_ns = by_point[(workload, "no-encryption")].runtime_ns
            for design_series in series:
                design_series.add(
                    workload,
                    by_point[(workload, design_series.name)].runtime_ns / baseline_ns,
                )
        for design_series in series:
            design_series.add(
                "average", statistics.fmean(design_series.points[w] for w in workloads)
            )
        by_name = {s.name: s for s in series}
        claims = {
            "SCA not slower than FCA on average": by_name["sca"].points["average"]
            <= by_name["fca"].points["average"] + 1e-6,
            "co-located (no C$) slowest on average": by_name["co-located"].points["average"]
            == max(s.points["average"] for s in series),
            "co-located w/ C$ within 15% of SCA": abs(
                by_name["co-located-cc"].points["average"]
                - by_name["sca"].points["average"]
            )
            / by_name["sca"].points["average"]
            < 0.15,
        }
        return ExperimentResult(
            experiment=self.name, title=self.title, series=series, claims=claims
        )


class Fig13MultiCore(Experiment):
    """Figure 13: throughput vs cores, normalized to 1-core no-encryption.

    Claims: SCA's advantage over FCA grows with core count; SCA stays
    close to ideal.

    The sharding extension rides along: at the highest core count the
    sweep re-runs SCA and FCA on machines with 2, 4, ... memory
    controllers (:mod:`repro.mem.sharded`), checking that SCA's
    advantage survives when controller bandwidth scales out — FCA's
    counter-write serialization is per controller, so sharding narrows
    but must not erase the gap.
    """

    name = "fig13"
    title = "Figure 13 — normalized throughput vs cores (higher is better)"

    def __init__(
        self,
        core_counts: Optional[Sequence[int]] = None,
        workloads: Optional[Sequence[str]] = None,
        shard_counts: Optional[Sequence[int]] = None,
    ) -> None:
        self.core_counts = tuple(core_counts) if core_counts is not None else None
        self.workloads = list(workloads) if workloads is not None else None
        self.shard_counts = tuple(shard_counts) if shard_counts is not None else None

    def _cores_for(self, scale: str) -> Tuple[int, ...]:
        if self.core_counts is not None:
            return self.core_counts
        return (1, 2, 4) if scale == "quick" else (1, 2, 4, 8)

    def _shards_for(self, scale: str) -> Tuple[int, ...]:
        if self.shard_counts is not None:
            return self.shard_counts
        return (1, 2) if scale == "quick" else (1, 2, 4)

    def run(
        self, scale: str = "quick", executor: Optional[SweepExecutor] = None
    ) -> ExperimentResult:
        _check_scale(scale)
        executor = self._executor(executor)
        core_counts = self._cores_for(scale)
        params = _quick_params(scale, operations_quick=30, operations_full=150)
        workloads = self.workloads if self.workloads is not None else list_workloads()
        # Deduplicated job map: the 1-core no-encryption baseline is the
        # same design point the FIG13_DESIGNS sweep visits when 1 is in
        # ``core_counts``.
        job_map: Dict[Tuple[str, str, int], SweepJob] = {}
        for workload in workloads:
            job_map[(workload, "no-encryption", 1)] = SweepJob(
                "no-encryption", workload, config=bench_config(1), params=params
            )
            for design in FIG13_DESIGNS:
                for cores in core_counts:
                    job_map[(workload, design, cores)] = SweepJob(
                        design, workload, config=bench_config(cores), params=params
                    )
        shard_counts = self._shards_for(scale)
        max_cores = max(core_counts)
        shard_map: Dict[Tuple[str, str, int], SweepJob] = {}
        for workload in workloads:
            for design in ("sca", "fca"):
                for shards in shard_counts:
                    if shards == 1:
                        continue  # the core sweep already covers x1
                    shard_map[(workload, design, shards)] = SweepJob(
                        design,
                        workload,
                        config=bench_config(max_cores, shards=shards),
                        params=params,
                    )
        keys = list(job_map)
        shard_keys = list(shard_map)
        stats = executor.map_stats(
            [job_map[key] for key in keys] + [shard_map[key] for key in shard_keys]
        )
        lookup = dict(zip(keys, stats[: len(keys)]))
        shard_lookup = dict(zip(shard_keys, stats[len(keys):]))
        series: List[Series] = []
        sca_over_fca: Dict[int, List[float]] = {c: [] for c in core_counts}
        sca_vs_ideal: List[float] = []
        for workload in workloads:
            base_tput = lookup[(workload, "no-encryption", 1)].throughput_txn_per_s
            per_design: Dict[str, Dict[int, float]] = {}
            for design in FIG13_DESIGNS:
                design_series = Series("%s/%s" % (workload, design))
                per_design[design] = {}
                for cores in core_counts:
                    normalized = (
                        lookup[(workload, design, cores)].throughput_txn_per_s / base_tput
                    )
                    design_series.add("%dc" % cores, normalized)
                    per_design[design][cores] = normalized
                series.append(design_series)
            for cores in core_counts:
                sca_over_fca[cores].append(
                    per_design["sca"][cores] / per_design["fca"][cores]
                )
                if cores == max(core_counts):
                    sca_vs_ideal.append(
                        per_design["sca"][cores] / per_design["ideal"][cores]
                    )
        shard_norm: Dict[Tuple[str, int], List[float]] = {}
        for workload in workloads:
            base_tput = lookup[(workload, "no-encryption", 1)].throughput_txn_per_s
            for design in ("sca", "fca"):
                for shards in shard_counts:
                    if shards == 1:
                        point = lookup[(workload, design, max_cores)]
                    else:
                        point = shard_lookup[(workload, design, shards)]
                    shard_norm.setdefault((design, shards), []).append(
                        point.throughput_txn_per_s / base_tput
                    )
        for design in ("sca", "fca"):
            shard_series = Series("shards/%s@%dc" % (design, max_cores))
            for shards in shard_counts:
                shard_series.add(
                    "x%d" % shards, statistics.fmean(shard_norm[(design, shards)])
                )
            series.append(shard_series)
        shard_gains = {
            shards: statistics.fmean(shard_norm[("sca", shards)])
            / statistics.fmean(shard_norm[("fca", shards)])
            for shards in shard_counts
        }
        gains = {c: statistics.fmean(v) for c, v in sca_over_fca.items()}
        ordered = [gains[c] for c in core_counts]
        claims = {
            "SCA throughput >= 0.95x FCA at every core count (mean)": all(
                g >= 0.95 for g in ordered
            ),
            "SCA advantage over FCA does not shrink with cores": ordered[-1]
            >= ordered[0] - 0.02,
            "SCA delivers >= 60% of ideal throughput at max cores": statistics.fmean(
                sca_vs_ideal
            )
            > 0.60,
        }
        if len(shard_counts) > 1:
            top = max(shard_counts)
            claims["SCA throughput >= 0.95x FCA at every shard count (mean)"] = all(
                shard_gains[s] >= 0.95 for s in shard_counts if s > 1
            )
            claims["sharding the controllers raises SCA throughput at max cores"] = (
                statistics.fmean(shard_norm[("sca", top)])
                > statistics.fmean(shard_norm[("sca", 1)])
            )
        notes = [
            "mean SCA/FCA throughput ratio: "
            + ", ".join("%dc=%.3f" % (c, gains[c]) for c in core_counts),
            "mean SCA/FCA at %dc by controller shards: " % max_cores
            + ", ".join("x%d=%.3f" % (s, shard_gains[s]) for s in shard_counts),
            "paper: SCA beats FCA by 6/11/22/40%% at 1/2/4/8 cores and stays "
            "within 4.7%% of ideal; this simulator reproduces the ordering "
            "and the growth trend, with compressed magnitudes (see "
            "EXPERIMENTS.md).",
        ]
        return ExperimentResult(
            experiment=self.name, title=self.title, series=series, claims=claims, notes=notes
        )


class Fig14WriteTraffic(Experiment):
    """Figure 14: NVMM write traffic normalized to no-encryption.

    Claims: SCA writes fewer bytes than FCA (counter coalescing) and
    fewer than the co-located designs (which ship 72 B per write).
    """

    name = "fig14"
    title = "Figure 14 — normalized write traffic (lower is better)"

    def run(
        self, scale: str = "quick", executor: Optional[SweepExecutor] = None
    ) -> ExperimentResult:
        _check_scale(scale)
        executor = self._executor(executor)
        params = _quick_params(scale)
        config = bench_config()
        workloads = list_workloads()
        designs = ("no-encryption",) + FIG12_DESIGNS
        jobs = [
            SweepJob(design, workload, config=config, params=params)
            for workload in workloads
            for design in designs
        ]
        stats = executor.map_stats(jobs)
        by_point = {(job.workload, job.design): s for job, s in zip(jobs, stats)}
        series = [Series(design) for design in FIG12_DESIGNS]
        for workload in workloads:
            baseline_bytes = by_point[(workload, "no-encryption")].bytes_written
            for design_series in series:
                design_series.add(
                    workload,
                    by_point[(workload, design_series.name)].bytes_written
                    / baseline_bytes,
                )
        for design_series in series:
            design_series.add(
                "average", statistics.fmean(design_series.points[w] for w in workloads)
            )
        by_name = {s.name: s for s in series}
        claims = {
            "SCA writes less than FCA": by_name["sca"].points["average"]
            < by_name["fca"].points["average"],
            # Paper: SCA writes 6.6% less than co-located.  At this
            # scale the two are nearly tied (coalesced counter
            # writebacks vs the 8 B-per-write co-location tax), so the
            # claim carries a 2% tolerance.
            "SCA write traffic <= co-located + 2%": by_name["sca"].points["average"]
            <= by_name["co-located"].points["average"] * 1.02,
        }
        return ExperimentResult(
            experiment=self.name, title=self.title, series=series, claims=claims
        )


class Fig15CounterCache(Experiment):
    """Figure 15: SCA sensitivity to counter cache size and footprint.

    Claims: larger counter caches improve speedup and miss rate, and
    larger footprints blunt the benefit.
    """

    name = "fig15"
    title = "Figure 15 — counter cache size sensitivity (SCA)"

    #: (cache sizes, footprints) per scale.  The paper sweeps 128 KB-8 MB
    #: against 100-1000 MB; a pure-Python trace simulator cannot touch
    #: hundreds of MB in reasonable time, so the quick scale shrinks
    #: both axes by the same ratio, preserving the cache/footprint
    #: coverage relationship that drives the figure.
    SWEEPS = {
        "quick": ((2 * KB, 4 * KB, 8 * KB, 16 * KB), (64 * KB, 128 * KB, 256 * KB)),
        "full": ((16 * KB, 64 * KB, 256 * KB, 1 * MB), (1 * MB, 4 * MB, 8 * MB)),
    }

    def run(
        self, scale: str = "quick", executor: Optional[SweepExecutor] = None
    ) -> ExperimentResult:
        _check_scale(scale)
        executor = self._executor(executor)
        cache_sizes, footprints = self.SWEEPS[scale]
        operations = 200 if scale == "quick" else 1000
        jobs: List[SweepJob] = []
        job_keys: List[Tuple[int, int]] = []
        for footprint in footprints:
            params = WorkloadParams(operations=operations, footprint_bytes=footprint)
            for cache_size in cache_sizes:
                config = bench_config().with_counter_cache(cache_size)
                jobs.append(SweepJob("sca", "hash", config=config, params=params))
                job_keys.append((footprint, cache_size))
        lookup = dict(zip(job_keys, executor.map_stats(jobs)))
        series: List[Series] = []
        claims: Dict[str, bool] = {}
        speedup_small_fp: List[float] = []
        speedup_large_fp: List[float] = []
        for footprint in footprints:
            runtime_series = Series("speedup@%dKB-footprint" % (footprint // KB))
            miss_series = Series("missrate@%dKB-footprint" % (footprint // KB))
            runtimes: Dict[int, float] = {}
            for cache_size in cache_sizes:
                point = lookup[(footprint, cache_size)]
                runtimes[cache_size] = point.runtime_ns
                miss_series.add(
                    "%dKB" % (cache_size // KB),
                    point.counter_cache_miss_rate or 0.0,
                )
            smallest = runtimes[cache_sizes[0]]
            for cache_size in cache_sizes:
                runtime_series.add(
                    "%dKB" % (cache_size // KB), smallest / runtimes[cache_size]
                )
            series.extend([runtime_series, miss_series])
            largest_speedup = runtime_series.points["%dKB" % (cache_sizes[-1] // KB)]
            if footprint == footprints[0]:
                speedup_small_fp.append(largest_speedup)
            if footprint == footprints[-1]:
                speedup_large_fp.append(largest_speedup)
            claims["speedup >= 1 at max cache (%dKB footprint)" % (footprint // KB)] = (
                largest_speedup >= 0.999
            )
        claims["larger footprint blunts the cache benefit"] = (
            statistics.fmean(speedup_large_fp) <= statistics.fmean(speedup_small_fp) + 0.02
        )
        return ExperimentResult(
            experiment=self.name, title=self.title, series=series, claims=claims
        )


class Fig16TxnSize(Experiment):
    """Figure 16: SCA overhead vs ideal as transactions grow.

    Claims: the overhead shrinks monotonically-ish with transaction
    size and becomes small for page-sized transactions, because the
    counter-atomic fraction of writes shrinks (Section 6.3.5).
    """

    name = "fig16"
    title = "Figure 16 — SCA runtime normalized to ideal vs txn size"

    SIZES = {
        "quick": (1, 4, 16, 64),
        "full": (1, 2, 4, 8, 16, 32, 64),
    }

    def run(
        self, scale: str = "quick", executor: Optional[SweepExecutor] = None
    ) -> ExperimentResult:
        _check_scale(scale)
        executor = self._executor(executor)
        sizes = self.SIZES[scale]
        workloads = list_workloads()
        config = bench_config()
        jobs: List[SweepJob] = []
        job_keys: List[Tuple[str, int, str]] = []
        for workload in workloads:
            for lines in sizes:
                operations = max(lines * 6, 24)
                params = WorkloadParams(
                    operations=operations,
                    footprint_bytes=64 * KB,
                    ops_per_txn=lines,
                )
                for design in ("ideal", "sca"):
                    jobs.append(SweepJob(design, workload, config=config, params=params))
                    job_keys.append((workload, lines, design))
        lookup = dict(zip(job_keys, executor.map_stats(jobs)))
        series: List[Series] = []
        first_last: List[Tuple[float, float]] = []
        for workload in workloads:
            workload_series = Series(workload)
            for lines in sizes:
                workload_series.add(
                    "%d-lines" % lines,
                    lookup[(workload, lines, "sca")].runtime_ns
                    / lookup[(workload, lines, "ideal")].runtime_ns,
                )
            series.append(workload_series)
            points = [workload_series.points["%d-lines" % s] for s in sizes]
            first_last.append((points[0], points[-1]))
        claims = {
            "overhead shrinks from smallest to largest txn (avg)": statistics.fmean(
                last for _first, last in first_last
            )
            <= statistics.fmean(first for first, _last in first_last),
            "overhead < 5% at the largest txn size (avg)": statistics.fmean(
                last for _first, last in first_last
            )
            < 1.05,
        }
        notes = [
            "counter-atomic write fraction: "
            + ", ".join(
                "%d lines -> %.3f" % (s, required_counter_atomic_fraction(s))
                for s in sizes
            )
        ]
        return ExperimentResult(
            experiment=self.name, title=self.title, series=series, claims=claims, notes=notes
        )


class Fig17NvmLatency(Experiment):
    """Figure 17: SCA speedup over co-located across NVM latencies.

    Claims: SCA beats the plain co-located design at every latency
    point, and the read-latency sweep shows a larger SCA advantage at
    *lower* read latency (the serialized decrypt dominates there).
    """

    name = "fig17"
    title = "Figure 17 — SCA speedup over co-located vs NVM latency"

    SCALES = (10.0, 5.0, 3.0, 1.0, 0.5, 0.25)
    LABELS = ("10x-slower", "5x-slower", "3x-slower", "pcm", "2x-faster", "4x-faster")

    def __init__(self, workloads: Optional[Sequence[str]] = None) -> None:
        self.workloads = list(workloads) if workloads is not None else None

    def run(
        self, scale: str = "quick", executor: Optional[SweepExecutor] = None
    ) -> ExperimentResult:
        _check_scale(scale)
        executor = self._executor(executor)
        params = _quick_params(scale)
        workloads = self.workloads if self.workloads is not None else list_workloads()
        jobs: List[SweepJob] = []
        job_keys: List[Tuple[str, str, str, str]] = []
        for axis in ("read", "write"):
            for factor, label in zip(self.SCALES, self.LABELS):
                if axis == "read":
                    config = bench_config().with_nvm(read_latency_scale=factor)
                else:
                    config = bench_config().with_nvm(write_latency_scale=factor)
                for workload in workloads:
                    for design in ("co-located", "sca"):
                        jobs.append(
                            SweepJob(design, workload, config=config, params=params)
                        )
                        job_keys.append((axis, label, workload, design))
        lookup = dict(zip(job_keys, executor.map_stats(jobs)))
        read_series = Series("read-latency-sweep")
        write_series = Series("write-latency-sweep")
        for axis, series in (("read", read_series), ("write", write_series)):
            for _factor, label in zip(self.SCALES, self.LABELS):
                speedups = [
                    lookup[(axis, label, workload, "co-located")].runtime_ns
                    / lookup[(axis, label, workload, "sca")].runtime_ns
                    for workload in workloads
                ]
                series.add(label, statistics.fmean(speedups))
        claims = {
            "SCA faster than co-located at every read latency": all(
                v > 1.0 for v in read_series.points.values()
            ),
            "SCA read advantage larger at 4x-faster than at 10x-slower": read_series.points[
                "4x-faster"
            ]
            > read_series.points["10x-slower"],
        }
        return ExperimentResult(
            experiment=self.name,
            title=self.title,
            series=[read_series, write_series],
            claims=claims,
        )


class FigIntegrity(Experiment):
    """Integrity extension: the cost of a crash-consistent Bonsai tree.

    Not a figure from the paper — it quantifies the tree the paper's
    threat model omits (see docs/integrity_tree.md).  Four variants run
    against their tree-less bases: ``fca+bmt`` / ``sca+bmt-eager``
    drain every root path before the write is architecturally persistent
    (Freij-style strict persistence, no ADR cover for metadata), while
    ``sca+bmt`` / ``fca+bmt-lazy`` coalesce dirty tree nodes in the
    on-chip node cache and rebuild interior levels after a crash
    (Phoenix-style).

    Claims: eager persistence costs real runtime; lazy is near-free;
    SCA+lazy keeps a clear runtime *and* write-traffic advantage over
    FCA+eager, mirroring the paper's SCA-vs-FCA argument at the
    metadata level.
    """

    name = "integrity"
    title = "Integrity tree — runtime/traffic vs the tree-less base designs"

    #: (variant, its tree-less baseline) in plot order.
    VARIANTS = (
        ("fca+bmt", "fca"),
        ("fca+bmt-lazy", "fca"),
        ("sca+bmt-eager", "sca"),
        ("sca+bmt", "sca"),
    )

    def __init__(self, workloads: Optional[Sequence[str]] = None) -> None:
        self.workloads = list(workloads) if workloads is not None else None

    def _workloads_for(self, scale: str) -> List[str]:
        if self.workloads is not None:
            return self.workloads
        return ["array", "hash", "btree"] if scale == "quick" else list_workloads()

    def run(
        self, scale: str = "quick", executor: Optional[SweepExecutor] = None
    ) -> ExperimentResult:
        _check_scale(scale)
        executor = self._executor(executor)
        params = _quick_params(scale)
        config = bench_config()
        workloads = self._workloads_for(scale)
        designs = sorted({name for pair in self.VARIANTS for name in pair})
        jobs = [
            SweepJob(design, workload, config=config, params=params)
            for workload in workloads
            for design in designs
        ]
        stats = executor.map_stats(jobs)
        by_point = {(job.workload, job.design): s for job, s in zip(jobs, stats)}

        def ratios(metric: str, variant: str, base: str) -> List[float]:
            return [
                getattr(by_point[(w, variant)], metric)
                / getattr(by_point[(w, base)], metric)
                for w in workloads
            ]

        series: List[Series] = []
        averages: Dict[Tuple[str, str], float] = {}
        for metric, prefix in (("runtime_ns", "runtime"), ("bytes_written", "traffic")):
            for variant, base in self.VARIANTS:
                variant_series = Series("%s/%s" % (prefix, variant))
                values = ratios(metric, variant, base)
                for workload, value in zip(workloads, values):
                    variant_series.add(workload, value)
                average = statistics.fmean(values)
                variant_series.add("average", average)
                averages[(prefix, variant)] = average
                series.append(variant_series)
        sca_vs_fca_runtime = statistics.fmean(
            ratios("runtime_ns", "sca+bmt", "fca+bmt")
        )
        sca_vs_fca_traffic = statistics.fmean(
            ratios("bytes_written", "sca+bmt", "fca+bmt")
        )
        tree_writes = {
            variant: sum(by_point[(w, variant)].tree_node_writes for w in workloads)
            for variant, _base in self.VARIANTS
        }
        claims = {
            "eager tree persistence costs runtime (fca+bmt > 1.05x fca)": averages[
                ("runtime", "fca+bmt")
            ]
            > 1.05,
            "lazy tree persistence is near-free (sca+bmt <= 1.10x sca)": averages[
                ("runtime", "sca+bmt")
            ]
            <= 1.10,
            "SCA+lazy runtime beats FCA+eager (mean ratio < 0.9)": sca_vs_fca_runtime
            < 0.9,
            "SCA+lazy write traffic beats FCA+eager (mean ratio < 0.9)": sca_vs_fca_traffic
            < 0.9,
            "lazy coalescing writes fewer tree nodes than eager (both bases)": (
                tree_writes["fca+bmt-lazy"] < tree_writes["fca+bmt"]
                and tree_writes["sca+bmt"] < tree_writes["sca+bmt-eager"]
            ),
        }
        notes = [
            "mean sca+bmt/fca+bmt: runtime %.3f, write traffic %.3f"
            % (sca_vs_fca_runtime, sca_vs_fca_traffic),
            "tree node writes: "
            + ", ".join(
                "%s=%d" % (variant, tree_writes[variant])
                for variant, _base in self.VARIANTS
            ),
        ]
        return ExperimentResult(
            experiment=self.name, title=self.title, series=series, claims=claims, notes=notes
        )


class Table1Stages(Experiment):
    """Table 1: which transaction stages need counter-atomicity.

    Verified two ways: (a) the static per-stage rules, and (b) crash
    sweeps — SCA (which pairs only the commit-record writes) recovers
    consistently from every crash point, while the unsafe design (no
    pairing anywhere) does not.

    Always runs in-process: the crash sweeps walk the live write-queue
    history and journal, which worker processes cannot ship back.
    """

    name = "table1"
    title = "Table 1 — per-stage counter-atomicity requirements"

    def run(
        self, scale: str = "quick", executor: Optional[SweepExecutor] = None
    ) -> ExperimentResult:
        _check_scale(scale)
        params = WorkloadParams(operations=6, footprint_bytes=8 * KB)
        rule_series = Series("counter-atomicity-required")
        for rule in TABLE1:
            rule_series.add(rule.stage.value, 1.0 if rule.counter_atomicity_required else 0.0)
        series = [rule_series]
        claims: Dict[str, bool] = {}
        max_points = 120 if scale == "quick" else 400
        for design, expect_consistent in (("sca", True), ("fca", True), ("unsafe", False)):
            outcome = run_workload(design, "array", params=params)
            report = sweep_crash_points(
                outcome.result, outcome.validator(0), max_points=max_points
            )
            crash_series = Series("crash-sweep/%s" % design)
            crash_series.add("points", float(report.total))
            crash_series.add("consistent", float(report.consistent))
            crash_series.add("inconsistent", float(report.inconsistent))
            series.append(crash_series)
            if expect_consistent:
                claims["%s recovers at every crash point" % design] = report.all_consistent
            else:
                claims["%s fails at some crash point" % design] = not report.all_consistent
        return ExperimentResult(
            experiment=self.name, title=self.title, series=series, claims=claims
        )


class Table2Config(Experiment):
    """Table 2: the evaluated system configuration."""

    name = "table2"
    title = "Table 2 — system configuration"

    def run(
        self, scale: str = "quick", executor: Optional[SweepExecutor] = None
    ) -> ExperimentResult:
        _check_scale(scale)
        from ..config import default_config

        config = default_config()
        series = [Series("parameter")]
        notes = ["%s: %s" % (k, v) for k, v in config.describe().items()]
        series[0].add("parameters", float(len(notes)))
        claims = {
            "data write queue has 64 entries": config.controller.data_write_queue_entries == 64,
            "counter write queue has 16 entries": config.controller.counter_write_queue_entries
            == 16,
            "counter cache is 1MB 16-way": config.counter_cache.size_bytes == MB
            and config.counter_cache.ways == 16,
            "encryption latency is 40ns": config.encryption.latency_ns == 40.0,
            "tWR is 300ns": config.nvm.t_wr_ns == 300.0,
        }
        return ExperimentResult(
            experiment=self.name, title=self.title, series=series, claims=claims, notes=notes
        )


EXPERIMENTS: Dict[str, Type[Experiment]] = {
    cls.name: cls  # type: ignore[misc]
    for cls in (
        Fig12SingleCore,
        Fig13MultiCore,
        Fig14WriteTraffic,
        Fig15CounterCache,
        Fig16TxnSize,
        Fig17NvmLatency,
        FigIntegrity,
        Table1Stages,
        Table2Config,
    )
}


def get_experiment(name: str) -> Experiment:
    try:
        cls = EXPERIMENTS[name]
    except KeyError:
        raise ConfigurationError(
            "unknown experiment %r; available: %s" % (name, ", ".join(EXPERIMENTS))
        ) from None
    return cls()
