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
  midpoint event, serialized, restored into a fresh machine and run to
  completion (covers per-layer ``get_state``/``set_state``),
* ``stats`` — the full :class:`ControllerStats` field dict,
* ``events`` — the machine's total event count.

``python -m tests.equivalence_harness --capture`` (from the repo root,
with ``PYTHONPATH=src:.``) refreshes ``tests/fixtures/
golden_equivalence.json``.  The committed fixture was captured from the
pre-refactor monolithic controller; ``tests/test_refactor_equivalence.py``
replays it against whatever the controller is now.

Those cells all run the default controller configuration, so they never
take the ablation branches: FIFO drain, a counter-line drain hold,
coalescing off, and fig12's timing-only mode (no functional payloads,
no persist journal).  ``--capture-ablations`` records each of those
configurations under five designs on one scenario into
``tests/fixtures/golden_ablations.json``, replayed by
``tests/test_ablation_equivalence.py``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
from typing import Dict, List, Optional, Tuple

from repro.bench.harness import build_traces
from repro.config import SystemConfig, fast_config
from repro.sim.machine import Machine
from repro.sim.snapshot import result_fingerprint
from repro.workloads.base import WorkloadParams

FIXTURE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "golden_equivalence.json"
)
ABLATION_FIXTURE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "golden_ablations.json"
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
#: ``timing-only`` is fig12's setting.
ABLATIONS: Dict[str, Tuple[Dict[str, object], bool]] = {
    "fifo": ({"drain_policy": "fifo"}, True),
    "counter-hold": ({"counter_drain_hold_ns": 50.0}, True),
    "no-coalesce": ({"coalesce_writes": False}, True),
    "timing-only": ({"crash_bookkeeping": False}, False),
}

#: One design per write path: SCA (unpaired + annotated pairs), FCA
#: (every write paired), co-located (72 B unpaired writes), and both
#: tree persistence modes.
ABLATION_DESIGNS: Tuple[str, ...] = ("sca", "fca", "co-located-cc", "fca+bmt", "sca+bmt")

ABLATION_SCENARIO: Tuple[str, str, int, int] = SCENARIOS[0]


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

    # Checkpoint at the midpoint event, round-trip the state through
    # real serialization, restore into a *fresh* machine, finish, and
    # fingerprint the resumed result.
    total = machine.events_executed
    cut = max(1, total // 2)
    partial = Machine(config, design)
    partial.begin(traces)
    for _ in range(cut):
        partial.step()
    blob = pickle.dumps(partial.get_state(), protocol=4)
    resumed = Machine.from_state(pickle.loads(blob))
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
    args = parser.parse_args()
    if not (args.capture or args.capture_ablations):
        parser.error("nothing to do (pass --capture or --capture-ablations)")
    targets = []
    if args.capture:
        targets.append((FIXTURE_PATH, capture))
    if args.capture_ablations:
        targets.append((ABLATION_FIXTURE_PATH, capture_ablations))
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
