"""Name -> fault-model registry and the default campaign suite."""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping

from ..errors import FaultInjectionError
from .base import FaultModel
from .models import (
    BitFlip,
    CounterCorruption,
    DroppedADRDrain,
    NoFault,
    TornCounterLineWrite,
    TornDataLineWrite,
)

_FACTORIES: Dict[str, Callable[..., FaultModel]] = {
    "none": NoFault,
    "torn-data": TornDataLineWrite,
    "torn-counter": TornCounterLineWrite,
    "bitflip-data": lambda **kw: BitFlip(region="data", **kw),
    "bitflip-counter": lambda **kw: BitFlip(region="counter", **kw),
    "counter-corruption": CounterCorruption,
    "dropped-adr": DroppedADRDrain,
}

#: The suite a campaign runs when none is specified: the clean-crash
#: control plus every fault model at its default severity.
DEFAULT_SUITE = (
    "none",
    "torn-data",
    "torn-counter",
    "bitflip-data",
    "bitflip-counter",
    "counter-corruption",
    "dropped-adr",
)


def list_fault_models() -> List[str]:
    """All registered model names, control first."""
    return list(DEFAULT_SUITE)


def make_fault_model(name: str, **params: object) -> FaultModel:
    """Instantiate a registered fault model by name."""
    factory = _FACTORIES.get(name)
    if factory is None:
        raise FaultInjectionError(
            "unknown fault model %r; available: %s"
            % (name, ", ".join(sorted(_FACTORIES)))
        )
    try:
        return factory(**params)
    except TypeError as exc:
        raise FaultInjectionError(
            "bad parameters for fault model %r: %s" % (name, exc)
        ) from None


def model_from_spec(spec: Mapping[str, object]) -> FaultModel:
    """Inverse of :meth:`FaultModel.spec`."""
    document = dict(spec)
    name = document.pop("model", None)
    if not isinstance(name, str):
        raise FaultInjectionError("fault spec needs a 'model' name: %r" % (spec,))
    document.pop("region", None)  # encoded in the bitflip-* names
    return make_fault_model(name, **document)


def default_fault_suite() -> List[FaultModel]:
    """One instance of every model in :data:`DEFAULT_SUITE`."""
    return [make_fault_model(name) for name in DEFAULT_SUITE]
