"""Core of the paper's contribution: configs, hierarchy wiring, lookahead search."""

from repro.core.config import (
    ExclusivityMode,
    FilterMode,
    PredictorConfig,
    TABLE3_CONFIGS,
    ZEC12_CONFIG_1,
    ZEC12_CONFIG_2,
    ZEC12_CONFIG_3,
)
from repro.core.events import MissReport, OutcomeKind, Prediction, PredictionLevel
from repro.core.hierarchy import FirstLevelPredictor, RowHit
from repro.core.search import (
    BROADCAST_LATENCY,
    LookaheadSearch,
    MISS_DETECT_LATENCY,
    SEQUENTIAL_CYCLES_PER_ROW,
    SearchOutcome,
)

__all__ = [
    "BROADCAST_LATENCY",
    "ExclusivityMode",
    "FilterMode",
    "FirstLevelPredictor",
    "LookaheadSearch",
    "MISS_DETECT_LATENCY",
    "MissReport",
    "OutcomeKind",
    "Prediction",
    "PredictionLevel",
    "PredictorConfig",
    "RowHit",
    "SEQUENTIAL_CYCLES_PER_ROW",
    "SearchOutcome",
    "TABLE3_CONFIGS",
    "ZEC12_CONFIG_1",
    "ZEC12_CONFIG_2",
    "ZEC12_CONFIG_3",
]
