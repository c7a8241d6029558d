"""The predictor zoo: competing branch predictors behind one contract.

Every registered predictor implements
:class:`~repro.engine.predictor.Predictor` (re-exported here).  The
paper's two-level bulk-preload stack is
:class:`~repro.engine.simulator.Simulator` itself, registered as
``"paper"`` beside the zoo members (TAGE-like, LDBP-style,
Bullseye-style).  The package also carries the shared verification
machinery: the conformance battery, the per-predictor differential
references, and the per-predictor golden gate.  See docs/ARCHITECTURE.md
("Predictor zoo").
"""

from repro.engine.predictor import Predictor
from repro.predictors.base import (
    SetAssociativeTable,
    ZooPrediction,
    ZooPredictor,
)
from repro.predictors.registry import (
    DEFAULT_PREDICTOR,
    PredictorInfo,
    create_predictor,
    predictor_info,
    predictor_names,
    register_predictor,
)

__all__ = [
    "DEFAULT_PREDICTOR",
    "Predictor",
    "PredictorInfo",
    "SetAssociativeTable",
    "ZooPrediction",
    "ZooPredictor",
    "create_predictor",
    "predictor_info",
    "predictor_names",
    "register_predictor",
]
