"""Golden-fingerprint equivalence for single-core timing-only runs.

``tests/fixtures/golden_single_core.json`` (see
``tests/equivalence_harness.py``) records fig12's configuration on one
core — timing-only, no crash bookkeeping — under every registered
design on both seed scenarios.  Each scenario's traces are built once
and every design runs on the same ``Trace`` objects, the way a figure
sweep replays them, so every design after the first reuses the caches'
recorded pass.  Every cell must replay with a bit-identical
fingerprint, ControllerStats and MachineStats.

A failure here means a change altered a single-core simulated output;
fix the change, do not re-capture the fixture.
"""

from __future__ import annotations

import pytest

from repro.sim.machine import Machine
from tests.equivalence_harness import (
    ALL_DESIGN_NAMES,
    SCENARIOS,
    SINGLE_CORE_FIXTURE_PATH,
    load_fixture,
    scenario_key,
    single_core_cell,
    single_core_config,
    single_core_traces,
)

_FIXTURE = load_fixture(SINGLE_CORE_FIXTURE_PATH)


def test_fixture_covers_every_cell():
    assert set(_FIXTURE["cells"]) == {
        scenario_key(design, *scenario)
        for scenario in SCENARIOS
        for design in ALL_DESIGN_NAMES
    }


@pytest.mark.parametrize("scenario", SCENARIOS, ids=["/".join(map(str, s)) for s in SCENARIOS])
def test_bit_identical_to_golden_single_core(scenario):
    config = single_core_config()
    traces = single_core_traces(*scenario)
    for design in ALL_DESIGN_NAMES:
        golden = _FIXTURE["cells"][scenario_key(design, *scenario)]
        actual = single_core_cell(Machine(config, design).run(traces))
        assert actual["fingerprint"] == golden["fingerprint"], design
        assert actual["stats"] == golden["stats"], design
        assert actual["machine"] == golden["machine"], design
