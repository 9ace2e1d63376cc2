"""repro — reproduction of "LAP: Loop-Block Aware Inclusion Properties
for Energy-Efficient Asymmetric Last Level Caches" (ISCA 2016).

Public API tour
---------------
- :mod:`repro.core` — the paper's contribution: :class:`LAPPolicy`,
  :class:`LhybridPolicy`, the loop-block tracker, and the policy
  registry (:func:`make_policy`).
- :mod:`repro.inclusion` — the inclusion-property framework and the
  baselines (non-inclusive, exclusive, inclusive, FLEXclusion, Dswitch).
- :mod:`repro.cache` / :mod:`repro.hierarchy` — the cache and
  three-level hierarchy substrate (with MOESI snooping and timing).
- :mod:`repro.energy` — Table I technology parameters and the EPI model.
- :mod:`repro.workloads` — synthetic SPEC/PARSEC-like workloads and the
  Table III mixes.
- :mod:`repro.sim` — :class:`SystemConfig`, :class:`Simulator`, and the
  experiment runner.
- :mod:`repro.analysis` — figure/table assembly used by the benchmark
  harness.

Quickstart
----------
>>> from repro import SystemConfig, simulate, make_workload
>>> system = SystemConfig.scaled()
>>> wl = make_workload("WH1", system)
>>> result = simulate(system, "lap", wl, refs_per_core=20_000)
>>> result.epi > 0
True
"""

from .core import LAPPolicy, LhybridPolicy, make_policy, policy_names
from .energy import LLCEnergyModel, SRAM, STT_RAM
from .errors import (
    AnalysisError,
    ConfigurationError,
    ExecutionError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from .exec import JobSpec, ResultCache, WorkloadSpec, execute_jobs
from .sim import RunResult, Simulator, SystemConfig, simulate
from .workloads import (
    ScaleContext,
    Workload,
    benchmark_names,
    make_duplicate,
    make_multiprogrammed,
    make_multithreaded,
    make_table3_mix,
)

__version__ = "1.0.0"


def make_workload(name: str, system: SystemConfig, seed: int = 0) -> Workload:
    """Build a workload by name against a system's geometry.

    ``name`` may be a Table III mix (``"WL1"``..``"WH5"``), a SPEC-like
    benchmark (run as duplicate copies on every core), or a PARSEC-like
    benchmark (run multithreaded).
    """
    return WorkloadSpec.named(name, system.hierarchy.ncores, seed).build(
        system.scale_context()
    )


__all__ = [
    "__version__",
    "LAPPolicy",
    "LhybridPolicy",
    "make_policy",
    "policy_names",
    "SystemConfig",
    "Simulator",
    "simulate",
    "RunResult",
    "LLCEnergyModel",
    "SRAM",
    "STT_RAM",
    "ScaleContext",
    "Workload",
    "make_workload",
    "make_multiprogrammed",
    "make_duplicate",
    "make_table3_mix",
    "make_multithreaded",
    "benchmark_names",
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "WorkloadError",
    "AnalysisError",
    "ExecutionError",
    "JobSpec",
    "WorkloadSpec",
    "ResultCache",
    "execute_jobs",
]
