"""Golden-fingerprint equivalence harness for controller refactors.

The memory controller is periodically restructured (most recently:
decomposition into layout / atomicity / integrity policy layers).  A
refactor of the controller must not change anything observable: the
paper's numbers are simulation output, so "equivalent" means
*bit-identical* — exact float timings, exact traffic counts, exact
journal images, exact checkpoint-resume behaviour.

This module pins that bar.  ``capture()`` runs every registered design
over seed workloads and records, per scenario:

* ``fingerprint`` — :func:`repro.sim.snapshot.result_fingerprint` of an
  uninterrupted run (covers timing, traffic, the journal's final image
  and transaction commit times),
* ``resume_fingerprint`` — the fingerprint of a run checkpointed at the
  midpoint event: the machine pickled, unpickled and run to completion
  (covers everything a checkpoint must carry),
* ``stats`` — the full :class:`ControllerStats` field dict,
* ``events`` — the machine's total event count.

``python -m tests.equivalence_harness --capture`` (from the repo root,
with ``PYTHONPATH=src:.``) refreshes ``tests/fixtures/
golden_equivalence.json``.  The committed fixture was captured from the
pre-refactor monolithic controller; ``tests/test_refactor_equivalence.py``
replays it against whatever the controller is now.

Those cells all run the default controller configuration, so they never
take the ablation branches: FIFO drain, a counter-line drain hold,
coalescing off, and the timing-only mode every figure sweep job runs
in (no functional payloads, no persist journal).  ``--capture-ablations`` records each of those
configurations under five designs on one scenario into
``tests/fixtures/golden_ablations.json``, replayed by
``tests/test_ablation_equivalence.py``.

Every cell above runs two cores.  ``--capture-single-core`` records
fig12's configuration on one core (timing-only, as its jobs run)
under every design on both scenarios into
``tests/fixtures/golden_single_core.json``, replayed by
``tests/test_single_core_equivalence.py``.  Each scenario's traces are
built once and every design runs on the same ``Trace`` objects, as a
figure sweep runs them.

``--capture-traces`` records, for each of :data:`TRACE_SCENARIOS`, every
built trace's op count and the SHA-256 of its ``dumps_trace`` text into
``tests/fixtures/golden_traces.json``, replayed by
``tests/test_sim_trace_columns.py``: the trace builder and the trace
file format must not change a byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from typing import Dict, List, Optional, Tuple

from repro.bench.harness import build_traces
from repro.config import SystemConfig, bench_config, fast_config
from repro.sim.machine import Machine, SimulationResult
from repro.sim.snapshot import result_fingerprint
from repro.sim.trace import Trace
from repro.sim.tracefile import dumps_trace
from repro.workloads.base import WorkloadParams

FIXTURE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "golden_equivalence.json"
)
ABLATION_FIXTURE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "golden_ablations.json"
)
SINGLE_CORE_FIXTURE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "golden_single_core.json"
)
TRACE_FIXTURE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "golden_traces.json"
)

#: Fixture schema version (bump when scenarios change).
SCHEMA = 1

#: Every design registered at capture time: the seven base designs and
#: the four Bonsai-Merkle-tree variants (both native modes and both
#: mode ablations).
ALL_DESIGN_NAMES: Tuple[str, ...] = (
    "no-encryption",
    "ideal",
    "unsafe",
    "co-located",
    "co-located-cc",
    "fca",
    "sca",
    "fca+bmt",
    "sca+bmt",
    "fca+bmt-lazy",
    "sca+bmt-eager",
)

#: (workload, mechanism, operations, seed) seed scenarios.  ``hash``
#: under undo logging exercises counter-cache evictions, ccwb flushes
#: and paired commits; ``array`` under redo logging covers the other
#: mechanism family and a different access pattern.
SCENARIOS: Tuple[Tuple[str, str, int, int], ...] = (
    ("hash", "undo", 5, 11),
    ("array", "redo", 6, 23),
)


#: Controller ablations: name -> (controller overrides, functional).
#: ``timing-only`` is how every figure sweep job runs.
ABLATIONS: Dict[str, Tuple[Dict[str, object], bool]] = {
    "fifo": ({"drain_policy": "fifo"}, True),
    "counter-hold": ({"counter_drain_hold_ns": 50.0}, True),
    "no-coalesce": ({"coalesce_writes": False}, True),
    "timing-only": ({}, False),
}

#: One design per write path: SCA (unpaired + annotated pairs), FCA
#: (every write paired), co-located (72 B unpaired writes), and both
#: tree persistence modes.
ABLATION_DESIGNS: Tuple[str, ...] = ("sca", "fca", "co-located-cc", "fca+bmt", "sca+bmt")

ABLATION_SCENARIO: Tuple[str, str, int, int] = SCENARIOS[0]

#: (workload, mechanism, operations, seed, config) trace scenarios: a
#: functional single-core trace, fig12's timing-only geometry (stores
#: without payloads) and two functional cores of the checksummed log.
TRACE_SCENARIOS: Tuple[Tuple[str, str, int, int, SystemConfig], ...] = (
    ("hash", "undo", 12, 11, fast_config()),
    ("array", "redo", 12, 23, bench_config().scaled(functional=False)),
    ("btree", "checksum-undo", 12, 5, fast_config(num_cores=2)),
)


def single_core_config() -> SystemConfig:
    """fig12's configuration as its jobs run: one core, timing-only."""
    return bench_config(functional=False)


def scenario_key(design: str, workload: str, mechanism: str, operations: int, seed: int) -> str:
    return "%s/%s/%s/ops%d/seed%d" % (design, workload, mechanism, operations, seed)


def ablation_config(ablation: str) -> SystemConfig:
    overrides, functional = ABLATIONS[ablation]
    return fast_config(num_cores=2, functional=functional).with_controller(**overrides)


def run_scenario(
    design: str,
    workload: str,
    mechanism: str,
    operations: int,
    seed: int,
    config: Optional[SystemConfig] = None,
) -> Dict[str, object]:
    """Run one (design, workload) cell and digest everything observable."""
    if config is None:
        config = fast_config(num_cores=2, functional=True)
    traces, _runs, _layout = build_traces(
        workload, config, mechanism, WorkloadParams(operations=operations, seed=seed)
    )
    machine = Machine(config, design)
    result = machine.run(traces)
    fingerprint = result_fingerprint(result)
    stats = dataclasses.asdict(result.controller.stats)

    # Checkpoint at the midpoint event: pickle the machine as a snapshot
    # does, unpickle it, finish, and fingerprint the resumed result.
    total = machine.events_executed
    cut = max(1, total // 2)
    partial = Machine(config, design)
    partial.begin(traces)
    for _ in range(cut):
        partial.step()
    blob = pickle.dumps(partial, protocol=4)
    resumed = pickle.loads(blob)
    while resumed.step():
        pass
    resume_fingerprint = result_fingerprint(resumed.finish())

    return {
        "fingerprint": fingerprint,
        "resume_fingerprint": resume_fingerprint,
        "events": total,
        "stats": stats,
    }


def capture() -> Dict[str, object]:
    """Run every (design, scenario) cell and return the fixture document."""
    cells: Dict[str, Dict[str, object]] = {}
    for design in ALL_DESIGN_NAMES:
        for workload, mechanism, operations, seed in SCENARIOS:
            key = scenario_key(design, workload, mechanism, operations, seed)
            cells[key] = run_scenario(design, workload, mechanism, operations, seed)
    return {"schema": SCHEMA, "designs": list(ALL_DESIGN_NAMES), "cells": cells}


def capture_ablations() -> Dict[str, object]:
    """Run every (ablation, design) cell on :data:`ABLATION_SCENARIO`."""
    cells: Dict[str, Dict[str, object]] = {}
    for ablation in ABLATIONS:
        config = ablation_config(ablation)
        for design in ABLATION_DESIGNS:
            key = ablation + "/" + scenario_key(design, *ABLATION_SCENARIO)
            cells[key] = run_scenario(design, *ABLATION_SCENARIO, config=config)
    return {"schema": SCHEMA, "designs": list(ABLATION_DESIGNS), "cells": cells}


def single_core_traces(
    workload: str, mechanism: str, operations: int, seed: int
) -> List[Trace]:
    """One scenario's traces under :func:`single_core_config`."""
    traces, _runs, _layout = build_traces(
        workload,
        single_core_config(),
        mechanism,
        WorkloadParams(operations=operations, seed=seed),
    )
    return traces


def single_core_cell(result: SimulationResult) -> Dict[str, object]:
    """The observables a single-core cell pins."""
    return {
        "fingerprint": result_fingerprint(result),
        "stats": dataclasses.asdict(result.controller.stats),
        "machine": dataclasses.asdict(result.stats),
    }


def capture_single_core() -> Dict[str, object]:
    """Run every design on each scenario's shared single-core traces."""
    config = single_core_config()
    cells: Dict[str, Dict[str, object]] = {}
    for scenario in SCENARIOS:
        traces = single_core_traces(*scenario)
        for design in ALL_DESIGN_NAMES:
            result = Machine(config, design).run(traces)
            cells[scenario_key(design, *scenario)] = single_core_cell(result)
    return {"schema": SCHEMA, "designs": list(ALL_DESIGN_NAMES), "cells": cells}


def trace_scenario_traces(
    workload: str, mechanism: str, operations: int, seed: int, config: SystemConfig
) -> List[Trace]:
    """One trace scenario's traces, one per core."""
    traces, _runs, _layout = build_traces(
        workload, config, mechanism, WorkloadParams(operations=operations, seed=seed)
    )
    return traces


def trace_scenario_key(workload: str, mechanism: str, operations: int, seed: int) -> str:
    return "%s/%s/ops%d/seed%d" % (workload, mechanism, operations, seed)


def trace_cell(trace: Trace) -> Dict[str, object]:
    """What the trace fixture pins of one trace."""
    text = dumps_trace(trace)
    return {"ops": len(trace), "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def capture_traces() -> Dict[str, object]:
    """Digest every trace of every :data:`TRACE_SCENARIOS` entry."""
    cells: Dict[str, List[Dict[str, object]]] = {}
    for *scenario, config in TRACE_SCENARIOS:
        traces = trace_scenario_traces(*scenario, config)
        cells[trace_scenario_key(*scenario)] = [trace_cell(trace) for trace in traces]
    return {"schema": SCHEMA, "cells": cells}


def load_fixture(path: str = FIXTURE_PATH) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as stream:
        return json.load(stream)


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--capture",
        action="store_true",
        help="re-capture %s from the current controller" % FIXTURE_PATH,
    )
    parser.add_argument(
        "--capture-ablations",
        action="store_true",
        help="re-capture %s from the current controller" % ABLATION_FIXTURE_PATH,
    )
    parser.add_argument(
        "--capture-single-core",
        action="store_true",
        help="re-capture %s from the current machine" % SINGLE_CORE_FIXTURE_PATH,
    )
    parser.add_argument(
        "--capture-traces",
        action="store_true",
        help="re-capture %s from the current trace builder" % TRACE_FIXTURE_PATH,
    )
    args = parser.parse_args()
    if not (
        args.capture
        or args.capture_ablations
        or args.capture_single_core
        or args.capture_traces
    ):
        parser.error(
            "nothing to do (pass --capture, --capture-ablations, "
            "--capture-single-core or --capture-traces)"
        )
    targets = []
    if args.capture:
        targets.append((FIXTURE_PATH, capture))
    if args.capture_ablations:
        targets.append((ABLATION_FIXTURE_PATH, capture_ablations))
    if args.capture_single_core:
        targets.append((SINGLE_CORE_FIXTURE_PATH, capture_single_core))
    if args.capture_traces:
        targets.append((TRACE_FIXTURE_PATH, capture_traces))
    for path, capture_document in targets:
        document = capture_document()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(document, stream, indent=1, sort_keys=True)
            stream.write("\n")
        print("captured %d cells -> %s" % (len(document["cells"]), path))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
