"""Simulation driving: system configs, simulator, runner, results."""

from .results import RunResult
from .runner import (
    DEFAULT_REFS,
    benchmarks_builder,
    duplicate_builder,
    mix_builder,
    multithreaded_builder,
    normalized,
    run_matrix,
    run_policies,
)
from .simulator import Simulator, simulate
from .system import SystemConfig

__all__ = [
    "SystemConfig",
    "Simulator",
    "simulate",
    "RunResult",
    "run_policies",
    "run_matrix",
    "normalized",
    "duplicate_builder",
    "mix_builder",
    "benchmarks_builder",
    "multithreaded_builder",
    "DEFAULT_REFS",
]
