"""The one table of transaction mechanisms, and every entry point that reads it.

:data:`repro.txn.manager.MECHANISMS` maps each mechanism name to its
trace generator and recovery procedure.  Each entry point accepts
exactly its names and refuses any other with its own error, and the KV
service recovers consistent under each of them.
"""

import dataclasses

import pytest

from repro.bench.harness import run_workload
from repro.config import KB, fast_config
from repro.crash.campaign import CampaignSpec
from repro.crash.injector import CrashInjector
from repro.crash.recovery import RecoveryManager
from repro.errors import CampaignError, ServiceError, TransactionError, WorkloadError
from repro.service import (
    ServiceJob,
    ServiceValidator,
    ServiceWorkload,
    TrafficSpec,
    generate_operations,
)
from repro.sim.machine import Machine
from repro.sim.trace import TraceBuilder
from repro.txn.heap import MemoryLayout
from repro.txn.manager import MECHANISMS, make_transactions
from repro.workloads.base import PrefixValidator, WorkloadParams

UNKNOWN = "no-such-log"


@pytest.fixture(scope="module")
def array_crash():
    """A finished undo-logged array run and its recovered image at 0 ns."""
    params = WorkloadParams(operations=2, footprint_bytes=4 * KB)
    outcome = run_workload("sca", "array", mechanism="undo", params=params)
    image = CrashInjector(outcome.result).crash_at(0.0)
    recovered = RecoveryManager(outcome.result.config.encryption).recover(image)
    return outcome.runs[0], recovered


@pytest.mark.parametrize("mechanism", [*MECHANISMS, UNKNOWN])
def test_every_entry_point_reads_the_table(mechanism, array_crash):
    known = mechanism in MECHANISMS

    def check(error, build):
        if known:
            return build()
        with pytest.raises(error):
            build()

    config = fast_config()
    arena = MemoryLayout.build(config, log_capacity=4).arena(0)
    txns = check(
        TransactionError, lambda: make_transactions(mechanism, TraceBuilder(), arena)
    )
    check(ServiceError, lambda: ServiceWorkload(config, tenants=2, mechanism=mechanism))
    check(ServiceError, lambda: ServiceJob(design="sca", mechanism=mechanism))
    check(CampaignError, lambda: CampaignSpec(mechanisms=(mechanism,)))
    run, recovered = array_crash
    run = dataclasses.replace(run, mechanism=mechanism)
    verdict = check(WorkloadError, lambda: PrefixValidator(run).classify(recovered))
    if known:
        assert type(txns) is MECHANISMS[mechanism][0]
        assert verdict.consistent


@pytest.mark.parametrize("mechanism", list(MECHANISMS))
def test_service_recovers_at_sampled_crash_points(mechanism):
    operations = generate_operations(TrafficSpec(tenants=2, operations=40, seed=3))
    workload = ServiceWorkload(fast_config(), tenants=2, mechanism=mechanism)
    workload.execute(operations)
    run = workload.build_run(operations)
    result = Machine(workload.config, "sca").run([run.trace])
    injector = CrashInjector(result)
    manager = RecoveryManager(result.config.encryption)
    validator = ServiceValidator(run, txn_end_times=result.txn_end_times[0])
    instants = sorted(
        injector.interesting_times(limit=60) + injector.midpoint_times(limit=20)
    )
    for crash_ns in instants:
        verdict = validator.classify(manager.recover(injector.crash_at(crash_ns)))
        assert verdict.consistent, "%s at %.1f ns: %s" % (
            mechanism,
            crash_ns,
            verdict.problems[:1],
        )
