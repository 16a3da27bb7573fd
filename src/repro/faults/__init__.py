"""Composable, seeded fault models over post-crash NVM images.

See :mod:`repro.faults.base` for the model contract and
:mod:`repro.faults.models` for the concrete failure modes; campaigns
(:mod:`repro.crash.campaign`) sweep these across workloads, designs and
crash points.
"""

from .base import (
    FaultEvent,
    FaultModel,
    apply_fault_models,
    derive_rng,
    touched_counter_groups,
    touched_data_lines,
)
from .models import (
    BitFlip,
    CounterCorruption,
    DroppedADRDrain,
    NoFault,
    TornCounterLineWrite,
    TornDataLineWrite,
)
from .recovery import (
    RECOVERY_PHASES,
    RecoveryFaultPlan,
    RecoveryFaultPoint,
    nested_point_grid,
)
from .registry import (
    DEFAULT_SUITE,
    default_fault_suite,
    list_fault_models,
    make_fault_model,
    model_from_spec,
)

__all__ = [
    "RECOVERY_PHASES",
    "RecoveryFaultPlan",
    "RecoveryFaultPoint",
    "nested_point_grid",
    "FaultEvent",
    "FaultModel",
    "apply_fault_models",
    "derive_rng",
    "touched_counter_groups",
    "touched_data_lines",
    "BitFlip",
    "CounterCorruption",
    "DroppedADRDrain",
    "NoFault",
    "TornCounterLineWrite",
    "TornDataLineWrite",
    "DEFAULT_SUITE",
    "default_fault_suite",
    "list_fault_models",
    "make_fault_model",
    "model_from_spec",
]
