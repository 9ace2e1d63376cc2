"""Experiment runner: policy grids through the exec engine.

Trace generators are stateful streams, so comparing policies fairly
requires rebuilding the workload (same seed → bit-identical trace) for
every run. The runner owns that discipline: callers pass declarative
:class:`~repro.exec.jobs.WorkloadSpec` builders and a list of policy
names, and get back one :class:`~repro.sim.results.RunResult` per
(workload, policy) pair.

Every grid is lowered to one :class:`~repro.exec.jobs.JobSpec` batch
and run by :func:`repro.exec.pool.execute_jobs` against the
process-wide result cache (see :func:`repro.exec.set_active_cache`), so
a run already in the cache is served from it, whichever caller asked.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from ..errors import AnalysisError
from ..exec.jobs import JobSpec, WorkloadSpec
from .results import RunResult
from .system import SystemConfig

# Default reference count per core for harness runs; large enough for
# working sets to cycle through the scaled hierarchy several times.
DEFAULT_REFS = 120_000


def duplicate_builder(benchmark: str, ncores: int = 4, seed: int = 0) -> WorkloadSpec:
    """Builder for N duplicate copies of one benchmark (Figs. 2/4/6)."""
    return WorkloadSpec.duplicate(benchmark, ncores=ncores, seed=seed)


def mix_builder(mix_name: str, seed: int = 0) -> WorkloadSpec:
    """Builder for a Table III mix (WL1..WH5)."""
    return WorkloadSpec.mix(mix_name, seed=seed)


def benchmarks_builder(
    benchmarks: Sequence[str], seed: int = 0, name: str | None = None
) -> WorkloadSpec:
    """Builder for an arbitrary multiprogrammed combination."""
    return WorkloadSpec.multiprogrammed(benchmarks, seed=seed, name=name)


def multithreaded_builder(benchmark: str, nthreads: int = 4, seed: int = 0) -> WorkloadSpec:
    """Builder for a PARSEC-like multithreaded workload (Fig. 20)."""
    return WorkloadSpec.multithreaded(benchmark, nthreads=nthreads, seed=seed)


def run_matrix(
    system: SystemConfig,
    policies: Sequence[str],
    builders: Dict[str, WorkloadSpec],
    refs_per_core: int = DEFAULT_REFS,
) -> Dict[str, Dict[str, RunResult]]:
    """Full workload × policy grid as one batch: ``{workload: {policy: result}}``.

    The probe list (instrumentation) is derived from
    ``system.instrumentation`` by the simulator — run a
    ``system.probe_free()`` config for uninstrumented grids. The field
    is part of the content-addressed cache key, so instrumented and
    probe-free runs never alias in the result cache.
    """
    # exec.cache imports sim.results: import the engine lazily.
    from ..exec.cache import get_active_cache
    from ..exec.pool import execute_jobs

    policies = list(policies)
    cells = [(wname, policy) for wname in builders for policy in policies]
    jobs = [
        JobSpec(system=system, workload=builders[wname], policy=policy,
                refs_per_core=refs_per_core)
        for wname, policy in cells
    ]
    results = execute_jobs(jobs, cache=get_active_cache())
    if results.interrupted:  # a partial grid is not a result
        raise KeyboardInterrupt
    out: Dict[str, Dict[str, RunResult]] = {wname: {} for wname in builders}
    for (wname, policy), result in zip(cells, results):
        out[wname][policy] = result
    return out


def run_policies(
    system: SystemConfig,
    policies: Iterable[str],
    builder: WorkloadSpec,
    refs_per_core: int = DEFAULT_REFS,
) -> Dict[str, RunResult]:
    """Run several policies against bit-identical copies of a workload."""
    return run_matrix(system, list(policies), {"": builder}, refs_per_core)[""]


def normalized(
    results: Dict[str, RunResult],
    metric: str,
    baseline: str = "non-inclusive",
) -> Dict[str, float]:
    """Normalise a metric across policies to a baseline policy.

    ``metric`` names a :class:`RunResult` property (``"epi"``,
    ``"mpki"``, ``"throughput"``, ``"llc_writes"``, ...).
    """
    if baseline not in results:
        raise AnalysisError(
            f"baseline policy {baseline!r} missing from results "
            f"(have: {sorted(results)})"
        )
    base = getattr(results[baseline], metric)
    if base == 0:
        raise AnalysisError(
            f"cannot normalise {metric!r}: baseline {baseline!r} has zero {metric!r}"
        )
    return {name: getattr(r, metric) / base for name, r in results.items()}
