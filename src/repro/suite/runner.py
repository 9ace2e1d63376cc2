"""Suite execution: fan a named benchmark set through the exec pool.

The whole set becomes one :class:`~repro.exec.jobs.JobSpec` batch
(member-major, one job per member and policy, bit-identical traces
within a member) executed by one :func:`repro.exec.pool.execute_jobs`
call — so suites inherit the pool's parallelism with no per-member
barrier, the content-addressed result cache (a cache-warm rerun
simulates nothing), retry policy, and per-job profiling.
Failures are surfaced *per benchmark* (instrumentation-infra style):
one broken member records its error string and the rest of the suite
still runs, instead of one exception killing a thousand-job night run.

The aggregate is the paper's own summary statistic: per-policy
geometric means over the per-benchmark metric ratios, normalised to
the suite's baseline policy (the first one).
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import AnalysisError, ReproError
from ..exec.cache import ResultCache
from ..exec.jobs import JobSpec, WorkloadSpec
from ..exec.pool import execute_jobs
from ..obs.profiling import JobProfile, RunManifest
from ..sim.results import RunResult
from ..sim.system import SystemConfig
from ..utils import geometric_mean
from ..workloads.corpus import TraceCorpus, active_corpus, set_active_corpus
from .registry import TRACE, BenchmarkSet, resolve

DEFAULT_POLICIES = ("non-inclusive", "exclusive", "lap")

#: Metrics aggregated into the geomean summary (ratios vs baseline).
SUMMARY_METRICS = ("epi", "dynamic_epi", "llc_writes", "mpki", "throughput")


def workload_spec_for(
    member: str, bset: BenchmarkSet, ncores: int, seed: int = 0
) -> WorkloadSpec:
    """The declarative spec for one set member on an ``ncores`` system."""
    if bset.kind == TRACE:
        return WorkloadSpec.trace((member,), ncores=ncores)
    return WorkloadSpec.named(member, ncores, seed)


@dataclass
class BenchmarkOutcome:
    """One set member's runs across every suite policy (or its error)."""

    benchmark: str
    results: Dict[str, RunResult] = field(default_factory=dict)
    error: Optional[str] = None
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SuiteReport:
    """Everything one ``repro suite run`` produced."""

    set_name: str
    system: str
    policies: Tuple[str, ...]
    refs_per_core: int
    outcomes: List[BenchmarkOutcome]
    profiles: List[JobProfile] = field(default_factory=list)
    max_workers: int = 1
    wall_s: float = 0.0

    # ------------------------------------------------------------------
    # roll-ups
    # ------------------------------------------------------------------
    @property
    def baseline(self) -> str:
        return self.policies[0]

    @property
    def failures(self) -> List[BenchmarkOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def succeeded(self) -> List[BenchmarkOutcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def cache_hits(self) -> int:
        return sum(1 for p in self.profiles if p.source == "cache")

    @property
    def simulated(self) -> int:
        """Jobs that actually ran (pool or serial, not cache)."""
        return sum(1 for p in self.profiles if p.source != "cache")

    def manifest(self) -> RunManifest:
        return RunManifest(
            jobs=list(self.profiles), max_workers=self.max_workers, wall_s=self.wall_s
        )

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def ratios(self, metric: str) -> Dict[str, Dict[str, float]]:
        """benchmark -> policy -> metric ratio vs the baseline policy."""
        rows: Dict[str, Dict[str, float]] = {}
        for outcome in self.succeeded:
            base = getattr(outcome.results[self.baseline], metric)
            base = float(base) if float(base) > 0 else 1e-30
            rows[outcome.benchmark] = {
                policy: max(1e-30, float(getattr(outcome.results[policy], metric)))
                / base
                for policy in self.policies
            }
        return rows

    def geomean_summary(self) -> Dict[str, Dict[str, float]]:
        """policy -> metric -> geomean ratio across succeeded benchmarks."""
        if not self.succeeded:
            raise AnalysisError(
                f"suite {self.set_name!r} has no successful benchmarks to aggregate"
            )
        summary: Dict[str, Dict[str, float]] = {p: {} for p in self.policies}
        for metric in SUMMARY_METRICS:
            per_bench = self.ratios(metric)
            for policy in self.policies:
                summary[policy][metric] = geometric_mean(
                    [per_bench[b][policy] for b in per_bench]
                )
        return summary


def run_suite(
    bset: Union[str, BenchmarkSet],
    system: SystemConfig,
    policies: Sequence[str] = DEFAULT_POLICIES,
    refs_per_core: int = 10_000,
    seed: int = 0,
    max_workers: int = 1,
    cache: Optional[ResultCache] = None,
    corpus: Optional[TraceCorpus] = None,
    progress: Optional[Callable[[str], None]] = None,
    heartbeat_interval: Optional[float] = None,
) -> SuiteReport:
    """Run every member of a benchmark set under every policy.

    ``bset`` is a set name (``resolve``-d, so ``"corpus"`` works when a
    corpus is given) or a :class:`BenchmarkSet` instance. A member whose
    workload spec cannot be built records its error up front; every
    other member's jobs go to one :func:`execute_jobs` call, inheriting
    pool fan-out and the result cache. If that batch raises, each
    member runs again in its own call and records its own error, and
    the suite continues. ``progress`` gets one line per member, in
    member order, after the batch. When a cache is present the merged
    manifest (every member's job profiles) is written next to the
    cached results, so ``repro report`` picks suite runs up like any
    sweep.
    """
    from ..arena import registry as arena_registry

    if corpus is None:
        corpus = active_corpus()  # the $REPRO_CORPUS_DIR channel
    if isinstance(bset, str):
        bset = resolve(bset, corpus=corpus)
    policies = tuple(arena_registry.validate_names(policies))
    if not policies:
        raise AnalysisError("a suite run needs at least one policy")
    if refs_per_core <= 0:
        raise AnalysisError(f"refs_per_core must be positive, got {refs_per_core}")

    previous_corpus = set_active_corpus(corpus) if corpus is not None else None
    start = time.perf_counter()
    outcomes = [BenchmarkOutcome(benchmark=label) for label in bset.member_labels()]
    profiles: List[JobProfile] = []
    ncores = system.hierarchy.ncores

    def run(jobs: List[JobSpec]):
        outcome = execute_jobs(
            jobs, max_workers=max_workers, cache=cache,
            heartbeat_interval=heartbeat_interval,
        )
        if outcome.interrupted:  # a partial suite is not a result
            raise KeyboardInterrupt
        return outcome

    try:
        jobs_of: Dict[int, List[JobSpec]] = {}  # member index -> its jobs
        for i, member in enumerate(bset.members):
            try:
                spec = workload_spec_for(member, bset, ncores, seed=seed)
                jobs_of[i] = [
                    JobSpec(system=system, workload=spec, policy=policy,
                            refs_per_core=refs_per_core)
                    for policy in policies
                ]
            except ReproError as exc:
                outcomes[i].error = str(exc)
        try:
            batch = run([job for jobs in jobs_of.values() for job in jobs])
        except ReproError as batch_error:
            # A job failed at run time. Find its member by running each
            # member on its own; a failure that does not recur is still
            # a failure, so then the batch's error stands.
            for i, jobs in jobs_of.items():
                member_start = time.perf_counter()
                try:
                    alone = run(jobs)
                    outcomes[i].results = dict(zip(policies, alone))
                    profiles.extend(alone.profiles)
                except ReproError as exc:
                    outcomes[i].error = str(exc)
                outcomes[i].wall_s = time.perf_counter() - member_start
            if all(outcomes[i].ok for i in jobs_of):
                raise batch_error
        else:
            # Split the batch back into members; each member's wall is
            # its share of the batch wall, weighted by its jobs' time.
            profiles = batch.profiles
            total = sum(p.wall_s for p in profiles)
            k = len(policies)
            for n, i in enumerate(jobs_of):
                own = slice(n * k, (n + 1) * k)
                outcomes[i].results = dict(zip(policies, batch[own]))
                weight = sum(p.wall_s for p in profiles[own])
                outcomes[i].wall_s = batch.wall_s * (
                    weight / total if total > 0 else 1 / len(jobs_of)
                )
    finally:
        if corpus is not None:
            set_active_corpus(previous_corpus)
    if progress is not None:
        for outcome in outcomes:
            status = "ok" if outcome.ok else f"FAILED: {outcome.error}"
            progress(f"{outcome.benchmark}: {status} ({outcome.wall_s:.1f}s)")

    report = SuiteReport(
        set_name=bset.name,
        system=system.label,
        policies=policies,
        refs_per_core=refs_per_core,
        outcomes=outcomes,
        profiles=profiles,
        max_workers=max_workers,
        wall_s=time.perf_counter() - start,
    )
    if cache is not None and profiles:
        report.manifest().write(pathlib.Path(cache.root))
    return report
