"""Command-line entry point: ``repro-bench``.

One subcommand per experiment, plus ``all``, ``perf``, ``campaign``,
``serve`` and ``designs``, each with a parser of its own::

    repro-bench --list
    repro-bench fig12
    repro-bench all --scale full --workers 4
    repro-bench perf --json BENCH_PR1.json
    repro-bench campaign --designs sca,fca --crash-points 8

With no command (or only options), ``repro-bench`` runs ``all``.  Sweeps
fan out over ``--workers`` processes and store each finished design
point in an on-disk cache (see ``repro.bench.parallel``), so repeated
invocations are incremental; ``--no-cache`` forces fresh runs.  A
``campaign`` or ``serve`` flag that is not given leaves its
:class:`CampaignSpec`, :class:`TrafficSpec` or :class:`ServiceJob` field
at the dataclass default, and those dataclasses check every value.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.designs import get_design, integrity_variant, list_designs
from ..crash.campaign import CampaignRunner, CampaignSpec
from ..errors import CampaignError, ReproError
from ..service.scenario import ServiceJob, ServiceRunner
from ..service.traffic import ARRIVAL_MODELS, MODES, TrafficSpec
from ..utils.store import JsonStore
from .experiments import EXPERIMENTS, get_experiment
from .parallel import SweepExecutor, default_cache_dir

#: The commands that are not experiments, with their --list summaries.
TOOLS = {
    "perf": "Kernel and sweep regression benchmarks (BENCH_*.json)",
    "campaign": "Fault-injection crash campaign with triage report",
    "serve": "Multi-tenant KV service traffic with per-tenant SLO report",
    "designs": "Print the composed design matrix (valid --designs values)",
}


def _summary(name: str) -> str:
    return TOOLS.get(name) or (EXPERIMENTS[name].__doc__ or "").strip().splitlines()[0]


# ---------------------------------------------------------------------------
# Parsers


def _names(text: str) -> Tuple[str, ...]:
    return tuple(text.split(","))


def _one_mechanism(text: str) -> str:
    if "," in text:
        raise argparse.ArgumentTypeError("serve runs one mechanism, got %r" % text)
    return text


def _field_flag(
    parser: argparse.ArgumentParser,
    flag: str,
    spec: Any,
    name: str,
    text: str,
    **kwargs: Any,
) -> None:
    """A flag that sets field ``name`` of ``spec``.

    Unset, the field keeps its default, which the help text shows; the
    default's type also gives the flag's (a bool field is a switch, a
    tuple field a comma-separated list).
    """
    default = {f.name: f.default for f in dataclasses.fields(spec)}[name]
    if isinstance(default, bool):
        kwargs["action"] = "store_true"
    elif isinstance(default, tuple):
        kwargs.setdefault("metavar", "A,B")
        kwargs.setdefault("type", _names)
        text += " (default: %s)" % ",".join(default)
    else:
        if isinstance(default, int):
            kwargs.setdefault("metavar", "N")
        kwargs.setdefault("type", str if default is None else type(default))
        text += " (default: %s)" % default
    parser.add_argument(flag, dest=name, default=argparse.SUPPRESS, help=text, **kwargs)


def _given(args: argparse.Namespace, spec: Any) -> Dict[str, Any]:
    """The fields of ``spec`` the command line set."""
    fields = dataclasses.fields(spec)
    return {f.name: getattr(args, f.name) for f in fields if hasattr(args, f.name)}


def _add_json(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the results as a JSON document to PATH ('-' = stdout)",
    )


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", choices=("quick", "full"), default="quick",
        help="quick = small CI-sized runs; full = closer to paper working sets",
    )


def _add_workers(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="fan %s out over N worker processes (default 1 = in-process "
        "serial execution)" % what,
    )


def _add_job_flags(parser: argparse.ArgumentParser, spec: Any, what: str) -> None:
    """The flags campaigns and service jobs share: recovery and execution."""
    _field_flag(
        parser, "--with-counter-recovery", spec, "with_counter_recovery",
        "retry detected failures with the Osiris-style counter search; "
        "repaired points count as 'recovered-by-search'",
    )
    _field_flag(
        parser, "--nested-crash", spec, "nested_crash",
        "inject a second power failure (or torn recovery write) mid-recovery; "
        "the resumed recovery must converge ('recovered-after-nested-crash') "
        "or stay loud ('detected-after-nested-crash')",
    )
    _field_flag(
        parser, "--nested-steps", spec, "nested_steps",
        "recovery steps per phase covered by the nested-crash grid",
    )
    _add_workers(parser, what)
    parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="kill and retry any job exceeding this wall time (jobs then run "
        "in worker processes, even at --workers 1)",
    )
    parser.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="retry a failed or hung job up to N times",
    )
    _add_json(parser)


def _figure_parser(parser: argparse.ArgumentParser) -> None:
    _add_scale(parser)
    parser.add_argument(
        "--chart", action="store_true",
        help="render each result as an ASCII chart in addition to the table",
    )
    _add_json(parser)
    _add_workers(parser, "sweep design points")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache (every design point reruns)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=default_cache_dir(),
        help="result cache location (default: $REPRO_CACHE_DIR or %(default)s)",
    )
    parser.add_argument(
        "--clear-cache", action="store_true",
        help="remove all cached sweep results, then proceed",
    )
    parser.set_defaults(run=_run_figures)


def _perf_parser(parser: argparse.ArgumentParser) -> None:
    _add_scale(parser)
    _add_json(parser)
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes of the parallel sweep timing (at least 4)",
    )
    parser.add_argument(
        "--compare", metavar="BASELINE.json", default=None,
        help="compare the fresh perf run against a recorded BENCH_*.json "
        "document, printing per-kernel ns/op deltas; exits nonzero if any "
        "kernel regresses beyond --regression-threshold",
    )
    parser.add_argument(
        "--regression-threshold", type=float, default=3.0, metavar="RATIO",
        help="ns/op ratio vs the --compare baseline above which a kernel "
        "counts as a hard regression (default 3.0; absolute timings are "
        "machine-dependent, so keep this generous)",
    )
    parser.set_defaults(run=_run_perf)


def _campaign_parser(parser: argparse.ArgumentParser) -> None:
    spec = CampaignSpec
    _field_flag(parser, "--workloads", spec, "workloads", "comma-separated")
    _field_flag(parser, "--designs", spec, "designs", "comma-separated")
    _field_flag(parser, "--mechanisms", spec, "mechanisms", "comma-separated")
    _field_flag(parser, "--faults", spec, "faults", "comma-separated fault models")
    _field_flag(
        parser, "--crash-points", spec, "crash_points",
        "crash points swept per (workload, design, mechanism, fault) cell",
    )
    _field_flag(parser, "--seed", spec, "seed", "workload seed")
    _field_flag(parser, "--operations", spec, "operations", "operations per run")
    _field_flag(
        parser, "--shards", spec, "shards",
        "memory-controller shards per simulated machine; above 1 each job "
        "also sweeps shard-subset ADR failures and reconciles the cross-shard "
        "commit log (--strict then also fails on any lost durable commit)",
    )
    parser.add_argument(
        "--integrity", action="store_true",
        help="run every encrypted design with its Bonsai-Merkle-tree variant "
        "(fca -> fca+bmt, ...); post-crash tree verification reclassifies "
        "silent corruption as 'detected-by-tree'",
    )
    parser.add_argument(
        "--integrity-mode", choices=("eager", "lazy"), default=None, metavar="MODE",
        help="tree persistence mode for --integrity: 'eager' drains the whole "
        "root path at every counter persist (strict, Freij-style), 'lazy' "
        "coalesces dirty nodes in the tree cache (Phoenix-style); default: "
        "each design's own default",
    )
    parser.add_argument(
        "--campaign-dir", metavar="DIR", default=None,
        help="result directory; a rerun pointed here resumes instead of "
        "re-executing finished jobs (default: no store, no resume)",
    )
    parser.add_argument(
        "--resume-from", metavar="DIR", default=None,
        help="resume the campaign stored in DIR (shorthand for --campaign-dir "
        "DIR that insists the directory already exists)",
    )
    parser.add_argument(
        "--fresh", action="store_true",
        help="discard the results stored in --campaign-dir and rerun everything",
    )
    parser.add_argument(
        "--retry-crashed", action="store_true",
        help="re-run stored jobs that recorded recovery-crashed cells instead "
        "of resuming them; the fresh result replaces the old one",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="EVENTS",
        help="checkpoint each job's simulation every N simulated events; a "
        "killed run resumes from its newest valid snapshot",
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="where per-job snapshots live (default: <campaign-dir>/checkpoints "
        "when checkpointing is on)",
    )
    parser.add_argument(
        "--heartbeat-timeout", type=float, default=None, metavar="SECONDS",
        help="declare a worker stalled (and retry its job) when its heartbeat "
        "file goes this stale; needs --checkpoint-every with --campaign-dir, "
        "or --checkpoint-dir",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="also exit nonzero when any crash point is silent corruption",
    )
    _add_job_flags(parser, spec, "campaign jobs")
    parser.set_defaults(run=_run_campaign)


def _serve_parser(parser: argparse.ArgumentParser) -> None:
    job, traffic = ServiceJob, TrafficSpec
    parser.add_argument(
        "--designs", type=_names, default=("sca", "unsafe"), metavar="A,B",
        help="comma-separated; one service job per design (default: sca,unsafe)",
    )
    _field_flag(
        parser, "--mechanisms", job, "mechanism",
        "the transaction mechanism, exactly one", type=_one_mechanism, metavar="M",
    )
    parser.add_argument(
        "--crash-mid-traffic", dest="crash", action="store_true",
        help="cut power mid-traffic, recover every tenant arena, and add the "
        "durability triage (acked-but-lost vs recovered) to the SLO report; "
        "without it the report is the crash-free latency baseline",
    )
    _field_flag(
        parser, "--crash-fraction", job, "crash_fraction",
        "where in the run the crash lands, as a fraction of the simulated "
        "runtime, snapped to the nearest durability-interesting instant",
        metavar="F",
    )
    _field_flag(
        parser, "--fault", job, "fault",
        "also corrupt the crash image with this fault model (see the campaign "
        "fault registry) before recovery",
        metavar="MODEL",
    )
    _field_flag(
        parser, "--tenants", traffic, "tenants",
        "tenant namespaces, each with an isolated arena",
    )
    _field_flag(
        parser, "--ops", traffic, "operations",
        "operations in the generated traffic stream",
    )
    _field_flag(parser, "--seed", traffic, "seed", "traffic seed")
    _field_flag(
        parser, "--traffic-mode", traffic, "mode",
        "open = rate-driven arrivals (internet-facing traffic); closed = fixed "
        "client pool with think time",
        choices=MODES,
    )
    _field_flag(
        parser, "--arrival", traffic, "arrival",
        "open-loop arrival process (bursty = ON/OFF-modulated Poisson)",
        choices=ARRIVAL_MODELS,
    )
    _field_flag(
        parser, "--rate", traffic, "rate_ops_per_us",
        "open-loop mean arrival rate in ops per modeled microsecond",
        metavar="OPS_PER_US",
    )
    _field_flag(parser, "--clients", traffic, "clients", "closed-loop clients")
    _field_flag(
        parser, "--think-ns", traffic, "think_ns",
        "closed-loop per-client think time", metavar="NS",
    )
    _field_flag(
        parser, "--zipf", traffic, "zipf_alpha",
        "key-popularity skew (0 = uniform)", metavar="ALPHA",
    )
    _field_flag(
        parser, "--keyspace", traffic, "keyspace", "distinct keys per tenant namespace"
    )
    parser.add_argument(
        "--serve-dir", metavar="DIR", default=None,
        help="result directory; a rerun pointed here resumes finished design "
        "reports instead of re-running them",
    )
    _add_job_flags(parser, job, "service jobs")
    parser.set_defaults(run=_run_serve)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Regenerate the tables and figures of 'Crash Consistency in "
            "Encrypted Non-Volatile Main Memory Systems' (HPCA 2018)."
        ),
    )
    parser.add_argument("--list", action="store_true", help="list commands and exit")
    commands = parser.add_subparsers(
        dest="command", metavar="COMMAND", help="what to run (default: all)"
    )
    for name in EXPERIMENTS:
        _figure_parser(commands.add_parser(name, help=_summary(name)))
    _figure_parser(commands.add_parser("all", help="every experiment above"))
    _perf_parser(commands.add_parser("perf", help=_summary("perf")))
    _campaign_parser(commands.add_parser("campaign", help=_summary("campaign")))
    _serve_parser(commands.add_parser("serve", help=_summary("serve")))
    designs = commands.add_parser("designs", help=_summary("designs"))
    _add_json(designs)
    designs.set_defaults(run=_run_designs)
    return parser


# ---------------------------------------------------------------------------
# Commands


def _write_json(path: str, document: object) -> None:
    payload = json.dumps(document, indent=2, sort_keys=True)
    if path == "-":
        print(payload)
        return
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(payload + "\n")
    print("wrote %s" % path)


def _run_figures(args: argparse.Namespace) -> int:
    if args.clear_cache:
        removed = JsonStore(args.cache_dir).clear()
        print("cleared %d cached result(s) from %s" % (removed, args.cache_dir))
    cache = None if args.no_cache else JsonStore(args.cache_dir)
    executor = SweepExecutor(workers=args.workers, cache=cache)
    names = list(EXPERIMENTS) if args.command == "all" else [args.command]
    failed_claims = 0
    documents = []
    for name in names:
        experiment = get_experiment(name)
        started = time.time()
        result = experiment.run(scale=args.scale, executor=executor)
        elapsed = time.time() - started
        print(result.render())
        if args.chart:
            from .charts import render_chart

            print()
            print(render_chart(result))
        print("  (%.1f s)" % elapsed)
        print()
        document = result.as_dict()
        document["elapsed_s"] = round(elapsed, 3)
        document["scale"] = args.scale
        documents.append(document)
        failed_claims += sum(1 for ok in result.claims.values() if not ok)
    if cache is not None and (executor.cache_hits or executor.cache_misses):
        print(
            "result cache: %d hit(s), %d miss(es) (%s)"
            % (executor.cache_hits, executor.cache_misses, cache.directory)
        )
    if args.json is not None:
        _write_json(args.json, {"results": documents})
    if failed_claims:
        print("%d claim(s) did not hold" % failed_claims, file=sys.stderr)
        return 1
    return 0


def _run_perf(args: argparse.Namespace) -> int:
    from .perf import (
        compare_documents,
        render_comparison,
        render_perf_report,
        run_perf,
    )

    document = run_perf(scale=args.scale, workers=max(args.workers, 4))
    print(render_perf_report(document))
    if args.json is not None:
        _write_json(args.json, document)
    if args.compare is not None:
        with open(args.compare, "r", encoding="utf-8") as stream:
            baseline = json.load(stream)
        comparison = compare_documents(
            document, baseline, regression_threshold=args.regression_threshold
        )
        print(render_comparison(comparison))
        if comparison["regressions"]:
            return 1
    return 0


def _refuse(command: str, message: object) -> int:
    print("repro-bench %s: %s" % (command, message), file=sys.stderr)
    return 2


def _run_campaign(args: argparse.Namespace) -> int:
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        cadence = "--checkpoint-every must be at least 1, got %d" % args.checkpoint_every
        return _refuse("campaign", cadence)
    if args.resume_from is not None:
        if not os.path.isdir(args.resume_from):
            missing = "--resume-from %s: no such directory" % args.resume_from
            return _refuse("campaign", missing)
        if args.campaign_dir is not None and args.campaign_dir != args.resume_from:
            return _refuse("campaign", "--resume-from and --campaign-dir disagree")
        args.campaign_dir = args.resume_from
    checkpoint_dir = args.checkpoint_dir
    if (
        checkpoint_dir is None
        and args.checkpoint_every is not None
        and args.campaign_dir is not None
    ):
        checkpoint_dir = os.path.join(args.campaign_dir, "checkpoints")
    if args.heartbeat_timeout is not None and checkpoint_dir is None:
        # Jobs beat their heartbeat file only under checkpointing.
        return _refuse(
            "campaign",
            "--heartbeat-timeout needs --checkpoint-every with --campaign-dir, "
            "or --checkpoint-dir",
        )
    if args.integrity_mode is not None and not args.integrity:
        return _refuse("campaign", "--integrity-mode needs --integrity")
    try:
        spec = CampaignSpec(**_given(args, CampaignSpec))
        if args.integrity:
            # Map each encrypted design onto its +bmt variant; designs
            # with nothing to hash (no counters) pass through unchanged.
            spec = dataclasses.replace(
                spec,
                designs=tuple(
                    integrity_variant(name, args.integrity_mode)
                    if get_design(name).encrypts
                    else name
                    for name in spec.designs
                ),
            )
    except ReproError as exc:
        return _refuse("campaign", exc)
    if args.fresh and args.campaign_dir is not None:
        JsonStore(args.campaign_dir).clear()
        if checkpoint_dir is not None:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
    executor = SweepExecutor(
        workers=args.workers,
        job_timeout_s=args.job_timeout,
        max_retries=args.retries,
        heartbeat_timeout_s=args.heartbeat_timeout,
    )
    runner = CampaignRunner(
        spec,
        executor=executor,
        store_dir=args.campaign_dir,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        retry_crashed=args.retry_crashed,
    )
    try:
        report = runner.run()
    except CampaignError as exc:
        return _refuse("campaign", exc)
    print(report.render())
    stats = executor.stats()
    print(
        "executor[%s]: %d job(s) run, %d retried, %d timed out, %d stalled, "
        "%d pool fallback(s)"
        % (
            stats["backend"],
            stats["jobs_executed"],
            stats["retries"],
            stats["timeouts"],
            stats["stalls"],
            stats["pool_fallbacks"],
        )
    )
    if args.json is not None:
        _write_json(args.json, report.as_dict())
    if report.crashed:
        print(
            "%d crash point(s) made recovery itself crash" % report.crashed,
            file=sys.stderr,
        )
        return 1
    if args.strict and report.silent:
        print(
            "%d crash point(s) were silent corruption (--strict)" % report.silent,
            file=sys.stderr,
        )
        return 1
    if args.strict:
        acked_lost = sum(
            int(section.get("acked_commit_lost", 0))  # type: ignore[call-overload]
            for result in report.results
            for section in (result.get("shard_failures"),)
            if isinstance(section, Mapping)
        )
        if acked_lost:
            print(
                "%d shard-subset failure(s) lost a durable commit (--strict)"
                % acked_lost,
                file=sys.stderr,
            )
            return 1
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """The KV service scenario: traffic -> (crash ->) recover -> SLO report."""
    try:
        traffic = TrafficSpec(**_given(args, TrafficSpec))
        jobs = [
            ServiceJob(design=design, traffic=traffic, **_given(args, ServiceJob))
            for design in args.designs
        ]
        executor = SweepExecutor(
            workers=args.workers,
            job_timeout_s=args.job_timeout,
            max_retries=args.retries,
        )
        report = ServiceRunner(jobs, executor=executor, store_dir=args.serve_dir).run()
    except ReproError as exc:
        return _refuse("serve", exc)
    print(report.render())
    if args.json is not None:
        _write_json(args.json, report.as_dict())
    if report.crashed:
        print(
            "%d design(s): recovery itself crashed" % report.crashed,
            file=sys.stderr,
        )
        return 1
    violations = report.durability_violations
    if violations:
        print(
            "%d crash-consistent design(s) violated the durability SLO "
            "(acknowledged writes lost or silent corruption)" % violations,
            file=sys.stderr,
        )
        return 1
    return 0


def _run_designs(args: argparse.Namespace) -> int:
    """Print the composed design matrix (the valid ``--designs`` values).

    One row per registered design, with the three policy axes it is
    composed from, the bus width the layout implies, and the
    crash-consistency verdict — so campaign/sweep users don't have to
    read ``designs.py`` to find valid names.
    """
    names = list_designs(include_unsafe=True, include_integrity=True)
    rows = []
    for name in names:
        design = get_design(name)
        rows.append(
            {
                "name": design.name,
                "layout": design.layout.kind
                + ("+cc" if design.has_counter_cache else ""),
                "atomicity": design.atomicity.kind,
                "integrity": design.integrity_mode or "-",
                "bus_bits": design.bus_width_bits,
                "crash_consistent": design.crash_consistent,
                "description": design.description,
            }
        )
    if args.json is not None:
        _write_json(args.json, {"designs": rows})
        return 0
    header = ("design", "layout", "atomicity", "integrity", "bus", "crash-consistent")
    widths = [len(column) for column in header]
    table = []
    for row in rows:
        cells = (
            row["name"],
            row["layout"],
            row["atomicity"],
            row["integrity"],
            "%db" % row["bus_bits"],
            "yes" if row["crash_consistent"] else "NO",
        )
        widths = [max(width, len(cell)) for width, cell in zip(widths, cells)]
        table.append(cells)
    fmt = "  ".join("%%-%ds" % width for width in widths)
    print(fmt % header)
    print(fmt % tuple("-" * width for width in widths))
    for cells in table:
        print(fmt % cells)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    first = argv[0] if argv else "-"
    if first.startswith("-") and first not in ("--list", "-h", "--help"):
        argv.insert(0, "all")  # no command, only options: every experiment
    commands = list(EXPERIMENTS) + ["all"] + list(TOOLS)
    if not argv[0].startswith("-") and argv[0] not in commands:
        print(
            "repro-bench: unknown experiment %r; available: %s"
            % (argv[0], ", ".join(commands)),
            file=sys.stderr,
        )
        return 2
    args = build_parser().parse_args(argv)
    if args.list:
        for name in list(EXPERIMENTS) + list(TOOLS):
            print("%-8s %s" % (name, _summary(name)))
        return 0
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
