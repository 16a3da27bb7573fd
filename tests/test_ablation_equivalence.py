"""Golden-fingerprint equivalence for the controller ablation configs.

``tests/fixtures/golden_ablations.json`` (see
``tests/equivalence_harness.py``) records the branches the default-config
golden cells never take — FIFO drain, a counter-line drain hold,
coalescing off, and the timing-only mode — under five designs.  Each
cell must replay with bit-identical fingerprints and ControllerStats.

A failure here means a change altered an ablation's simulated output;
fix the change, do not re-capture the fixture.
"""

from __future__ import annotations

import pytest

from tests.equivalence_harness import (
    ABLATION_DESIGNS,
    ABLATION_FIXTURE_PATH,
    ABLATION_SCENARIO,
    ABLATIONS,
    ablation_config,
    load_fixture,
    run_scenario,
    scenario_key,
)

_FIXTURE = load_fixture(ABLATION_FIXTURE_PATH)

_CELLS = [(ablation, design) for ablation in ABLATIONS for design in ABLATION_DESIGNS]


def _key(ablation: str, design: str) -> str:
    return ablation + "/" + scenario_key(design, *ABLATION_SCENARIO)


def test_fixture_covers_every_ablation_cell():
    assert set(_FIXTURE["cells"]) == {_key(*cell) for cell in _CELLS}


@pytest.mark.parametrize("ablation,design", _CELLS, ids=[_key(*cell) for cell in _CELLS])
def test_bit_identical_to_golden_ablation(ablation, design):
    golden = _FIXTURE["cells"][_key(ablation, design)]
    actual = run_scenario(design, *ABLATION_SCENARIO, config=ablation_config(ablation))
    assert actual["fingerprint"] == golden["fingerprint"]
    assert actual["resume_fingerprint"] == golden["resume_fingerprint"]
    assert actual["events"] == golden["events"]
    assert actual["stats"] == golden["stats"]
