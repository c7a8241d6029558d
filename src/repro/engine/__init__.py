"""Timing engine: penalty-model core simulator and multi-core proxy."""

from repro.engine.multicore import (
    MulticoreResult,
    hardware_timing,
    run_multicore,
    system_performance_gain,
)
from repro.engine.params import DEFAULT_TIMING, TimingParams, ZEC12_CHIP_CONFIG
from repro.engine.simulator import SimulationResult, Simulator, simulate

__all__ = [
    "DEFAULT_TIMING",
    "MulticoreResult",
    "SimulationResult",
    "Simulator",
    "TimingParams",
    "ZEC12_CHIP_CONFIG",
    "hardware_timing",
    "run_multicore",
    "simulate",
    "system_performance_gain",
]
