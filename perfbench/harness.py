"""Workloads, measurement and correctness checks for the repo benchmark.

The benchmark drives the simulator only through its public functions:
``repro.suite.run_suite``, ``repro.exec.execute_jobs`` / ``JobSpec`` /
``ResultCache``, ``repro.sim.Simulator``, ``repro.exec.serialize`` and
the workload generators. It imports ``repro`` from the ``src/`` tree of
the checkout it lives in, never from an installed copy, so it always
measures the code next to it.

Every run is a fixed-length loop of *iterations*; one iteration is the
workload's whole command with every cache empty (simulated caches start
empty in each job; the suite path also starts from an empty result
cache). The host-speed reference (``hostspeed``) runs between the
members of an iteration, and host times are reported normalised by it.
See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import os
import pathlib
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy

import hostspeed
from common import (
    ROOT,
    SRC,
    WORK,
    WORKLOADS,
    Workload,
    fresh_dir,
    jobs_for,
)
from repro import (
    JobSpec,
    ResultCache,
    RunResult,
    Simulator,
    execute_jobs,
)
from repro.errors import ReproError
from repro.exec.serialize import result_from_dict, result_to_dict
from repro.kernel import batch as kernel_batch
from repro.obs.spans import (
    SpanRecorder,
    install_recorder,
    span,
    uninstall_recorder,
)
from repro.sim.simulator import DEFAULT_BATCH
from repro.suite.runner import run_suite

DIGESTS = pathlib.Path(__file__).resolve().parent / "digests.json"

#: A ``--trace 0`` run always completes at least this many iterations,
#: however short ``--seconds`` is, so every job has repeated samples.
MIN_ITERATIONS = 3


# ----------------------------------------------------------------------
# one iteration
# ----------------------------------------------------------------------
class ReferenceRuns:
    """Host-speed reference runs that bracket the members of an iteration.

    The reference runs once before the first member and once after each
    member; a member's host time is normalised by the mean of the two
    runs around it. The shared host's speed phases last seconds to
    minutes, and a member takes about a second, so the pair brackets the
    member closely. Disabled, every segment counts at nominal speed, so
    normalised times equal raw ones (the traced iteration uses that:
    references inside it would show up in its profile).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.refs_ms: List[float] = []
        #: host seconds spent in reference runs after the first
        self.spent_s = 0.0
        if enabled:
            self.refs_ms.append(hostspeed.reference_ms(REFERENCE_REPEATS))

    def mark(self) -> None:
        """Run the reference at a member boundary."""
        if self.enabled:
            start = time.perf_counter()
            self.refs_ms.append(hostspeed.reference_ms(REFERENCE_REPEATS))
            self.spent_s += time.perf_counter() - start

    def around(self, member: int) -> float:
        """Reference ms around member ``member`` (0-based)."""
        if not self.enabled:
            return hostspeed.NOMINAL_MS
        before = self.refs_ms[min(member, len(self.refs_ms) - 1)]
        after = self.refs_ms[min(member + 1, len(self.refs_ms) - 1)]
        return (before + after) / 2


#: reference runs per member boundary (each one ~6-10 ms)
REFERENCE_REPEATS = 3


@dataclass
class Iteration:
    """What one run of the workload's command produced."""

    #: host wall time of the command, without the reference runs
    wall_s: float
    #: one entry per job in canonical order; None marks a failed job
    results: List[Optional[RunResult]]
    #: wall time and accesses of each job that actually ran, by job key,
    #: from ``ExecutionOutcome.profiles``
    job_walls: Dict[str, float] = field(default_factory=dict)
    job_accesses: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    #: (batch wall, workers used, pooled?) per ``execute_jobs`` call
    batches: List[Tuple[float, int, bool]] = field(default_factory=list)
    #: jobs that failed a correctness check (beyond ``results`` Nones)
    check_failures: int = 0
    warm_s: float = 0.0
    warm_hits: int = 0
    #: ``wall_s`` and ``job_wall_s`` normalised member by member
    norm_wall_s: float = 0.0
    norm_job_wall_s: float = 0.0
    #: every host-speed reference run of the iteration, ms
    refs_ms: List[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return min(self.attempted, self.results.count(None) + self.check_failures)

    @property
    def digest(self) -> str:
        return results_digest(self.results)

    @property
    def job_wall_s(self) -> float:
        return sum(self.job_walls.values())

    @property
    def norm_us_per_access(self) -> float:
        accesses = sum(self.job_accesses.values())
        return self.norm_job_wall_s / accesses * 1e6 if accesses else 0.0

    @property
    def pool_util(self) -> float:
        capacity = sum(wall * workers for wall, workers, _ in self.batches)
        return self.job_wall_s / capacity if capacity else 0.0

    def add_batch(self, profiles, wall_s: float, max_workers: int) -> float:
        """Record one ``execute_jobs`` call; returns its summed job wall."""
        simulated = [p for p in profiles if p.source != "cache"]
        if not simulated:
            return 0.0
        for p in simulated:
            self.job_walls[p.key] = p.wall_s
            self.job_accesses[p.key] = p.accesses
            self.retries += p.retries
        pooled = any(p.source == "pool" for p in simulated)
        workers = min(max_workers, len(simulated)) if pooled else 1
        self.batches.append((wall_s, workers, pooled))
        return sum(p.wall_s for p in simulated)

    def add_host_time(self, wall_s: float, job_wall_s: float, ref_ms: float) -> None:
        """Add normalised host time measured at reference speed ``ref_ms``."""
        self.norm_wall_s += hostspeed.normalise(wall_s, ref_ms)
        self.norm_job_wall_s += hostspeed.normalise(job_wall_s, ref_ms)


def canonical_json(result: RunResult) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True, separators=(",", ":"))


def results_digest(results: Sequence[Optional[RunResult]]) -> str:
    """SHA-256 over every job's canonical result JSON, in job order."""
    sha = hashlib.sha256()
    for result in results:
        sha.update(b"FAILED" if result is None else canonical_json(result).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def run_iteration(
    wl: Workload, seed: int, max_workers: Optional[int] = None,
    log: Callable[[str], None] = lambda line: None, host_speed: bool = True,
) -> Iteration:
    """Run the workload's command once; never raises on a job failure.

    Both paths run the set member by member: ``run_suite`` makes one
    ``execute_jobs`` call per member, and the uncached workloads make
    the same calls serially. The host-speed reference runs between
    members (outside the timed calls) unless ``host_speed`` is off.
    """
    workers = wl.max_workers if max_workers is None else max_workers
    speed = ReferenceRuns(host_speed)
    if wl.suite:
        iteration = _suite_iteration(wl, seed, workers, speed, log)
    else:
        iteration = _serial_iteration(wl, seed, workers, speed, log)
    iteration.refs_ms = speed.refs_ms
    return iteration


def _serial_iteration(
    wl: Workload, seed: int, workers: int, speed: ReferenceRuns, log: Callable[[str], None]
) -> Iteration:
    jobs = jobs_for(wl, seed)
    per_member = len(wl.policies)
    iteration = Iteration(0.0, [])
    for member, first in enumerate(range(0, len(jobs), per_member)):
        member_jobs = jobs[first:first + per_member]
        start = time.perf_counter()
        job_wall = 0.0
        try:
            outcome = execute_jobs(member_jobs, max_workers=workers)
        except ReproError as exc:
            log(f"{wl.name}: member {member} failed: {exc}")
            iteration.results.extend([None] * len(member_jobs))
        else:
            iteration.results.extend(outcome)
            job_wall = iteration.add_batch(outcome.profiles, outcome.wall_s, workers)
        wall = time.perf_counter() - start
        speed.mark()
        iteration.wall_s += wall
        iteration.add_host_time(wall, job_wall, speed.around(member))
    return iteration


def _suite_iteration(
    wl: Workload, seed: int, workers: int, speed: ReferenceRuns, log: Callable[[str], None]
) -> Iteration:
    """A cold ``run_suite`` on an empty result cache, then a warm rerun.

    The warm rerun must simulate nothing and return the same dicts as
    the cold run; every job where it does not counts as failed. The
    reference runs from ``run_suite``'s per-member progress callback.
    """
    bset = wl.benchmark_set()
    cache_dir = fresh_dir("suite-cache")
    try:
        cache = ResultCache(cache_dir)

        def suite(progress=None):
            return run_suite(
                bset, wl.system, policies=wl.policies,
                refs_per_core=wl.refs_per_core, seed=seed,
                max_workers=workers, cache=cache, corpus=wl.corpus,
                progress=progress,
            )

        start = time.perf_counter()
        cold = suite(progress=lambda line: speed.mark())
        cold_s = time.perf_counter() - start - speed.spent_s
        start = time.perf_counter()
        warm = suite()
        warm_s = time.perf_counter() - start
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    results: List[Optional[RunResult]] = []
    iteration = Iteration(cold_s + warm_s, results, warm_s=warm_s)
    profiles = iter(cold.profiles)
    for member, outcome in enumerate(cold.outcomes):
        job_wall = 0.0
        if not outcome.ok:
            log(f"{wl.name}: member {outcome.benchmark} failed: {outcome.error}")
            results.extend([None] * len(wl.policies))
        else:
            results.extend(outcome.results[p] for p in wl.policies)
            member_profiles = [next(profiles) for _ in wl.policies]
            job_wall = iteration.add_batch(member_profiles, outcome.wall_s, workers)
        iteration.add_host_time(outcome.wall_s, job_wall, speed.around(member))
    # set resolution, the manifest write and the warm rerun, at the speed
    # of the last reference run
    rest_s = iteration.wall_s - sum(o.wall_s for o in cold.outcomes)
    iteration.add_host_time(rest_s, 0.0, speed.around(len(cold.outcomes)))

    iteration.warm_hits = warm.cache_hits
    warm_results = [
        o.results.get(p) if o.ok else None for o in warm.outcomes for p in wl.policies
    ]
    mismatched = sum(
        1 for c, w in zip(results, warm_results)
        if c is not None and (w is None or result_to_dict(w) != result_to_dict(c))
    )
    if warm.simulated or mismatched:
        log(f"{wl.name}: warm rerun simulated {warm.simulated}, {mismatched} differ")
    iteration.check_failures = max(warm.simulated, mismatched)
    return iteration


# ----------------------------------------------------------------------
# correctness checks
# ----------------------------------------------------------------------
def load_digests() -> Dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def recorded_digest(wl: Workload, seed: int) -> Optional[str]:
    """The digest recorded for this workload, size and seed, if any."""
    entry = load_digests().get(wl.name, {})
    if entry.get("refs_per_core") != wl.refs_per_core:
        return None
    return entry.get("digests", {}).get(str(seed))


def record_digest(wl: Workload, seed: int) -> str:
    """Run one iteration and store its digest for ``seed``."""
    iteration = run_iteration(wl, seed)
    if iteration.failed:
        raise RuntimeError(f"{wl.name}: {iteration.failed} jobs failed; nothing recorded")
    data = load_digests()
    entry = data.setdefault(wl.name, {})
    if entry.get("refs_per_core") != wl.refs_per_core:
        entry.clear()
        entry["refs_per_core"] = wl.refs_per_core
    entry.setdefault("digests", {})[str(seed)] = iteration.digest
    entry["digests"] = dict(sorted(entry["digests"].items(), key=lambda kv: int(kv[0])))
    DIGESTS.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return iteration.digest


def digest_failures(iterations: Sequence[Iteration], expected: Optional[str]) -> int:
    """Jobs in iterations whose digest differs from the recorded one (or,
    with none recorded for this seed, from the first iteration's)."""
    reference = expected if expected is not None else iterations[0].digest
    return sum(
        it.attempted - it.failed for it in iterations if it.digest != reference
    )


def kernel_spot_check(wl: Workload, seed: int, results: Sequence[Optional[RunResult]]) -> bool:
    """Re-run one cell with the batched kernel disabled; it must match.

    The cell is picked from the seed, so different seeds check
    different cells. The check also fails when the cell would not take
    the kernel at all (the comparison would then prove nothing).
    """
    jobs = jobs_for(wl, seed)
    index = seed % len(jobs)
    job = jobs[index]
    sim = Simulator(job.system, job.policy, job.workload.build(job.system.scale_context()))
    if not kernel_batch.eligible(sim.hierarchy) or results[index] is None:
        return False
    sim.enable_batch_kernel = False
    return canonical_json(sim.run(job.refs_per_core)) == canonical_json(results[index])


# ----------------------------------------------------------------------
# layer measurements (traced runs only)
# ----------------------------------------------------------------------
#: top-level ``repro`` package -> self-time metric suffix
LAYER_OF = {
    "cache": "cache",
    "hierarchy": "hierarchy",
    "inclusion": "inclusion",
    "core": "inclusion",
    "instr": "instr",
    "kernel": "kernel",
    "workloads": "workloads",
    "sim": "sim",
    "energy": "sim",
}
SELF_LAYERS = ("cache", "hierarchy", "inclusion", "instr", "kernel", "workloads", "sim",
               "builtin", "other")


def self_times(profiler: cProfile.Profile) -> Dict[str, float]:
    """cProfile self time grouped by top-level ``repro.<package>``.

    C functions (``~`` entries) are ``builtin``; everything else outside
    the grouped packages (exec, suite, obs, telemetry, the standard
    library, numpy's Python code) is ``other``.
    """
    package_root = str(SRC / "repro") + os.sep
    totals = dict.fromkeys(SELF_LAYERS, 0.0)
    for (filename, _line, _func), (_cc, _nc, self_s, _cum, _callers) in (
        pstats.Stats(profiler).stats.items()  # type: ignore[attr-defined]
    ):
        if filename == "~":
            layer = "builtin"
        elif filename.startswith(package_root):
            top = filename[len(package_root):].split(os.sep, 1)[0]
            layer = LAYER_OF.get(top, "other")
        else:
            layer = "other"
        totals[layer] += self_s
    return totals


def job_build_s(spans: Sequence[Dict]) -> float:
    """Time inside ``exec.job`` spans outside their ``simulate`` child:
    workload construction plus ``Simulator`` construction."""
    simulate: Dict[int, float] = {}
    for s in spans:
        if s["name"] == "simulate" and s["parent"] is not None:
            simulate[s["parent"]] = simulate.get(s["parent"], 0.0) + s["wall_s"]
    return sum(s["wall_s"] - simulate.get(s["id"], 0.0) for s in spans if s["name"] == "exec.job")


def traced_iteration(wl: Workload, seed: int) -> Tuple[Iteration, Dict[str, float], float]:
    """One in-process iteration under cProfile with a span recorder.

    Returns the iteration, the grouped self times and the span-derived
    job build time; the span dump is written to the work directory.
    """
    recorder = SpanRecorder()
    previous = install_recorder(recorder)
    profiler = cProfile.Profile()
    ref_before = hostspeed.reference_ms()
    try:
        with span("perfbench.traced_iteration", workload=wl.name, seed=seed):
            profiler.enable()
            try:
                iteration = run_iteration(wl, seed, max_workers=1, host_speed=False)
            finally:
                profiler.disable()
    finally:
        if previous is None:
            uninstall_recorder()
        else:
            install_recorder(previous)
    iteration.refs_ms = [ref_before, hostspeed.reference_ms()]
    WORK.mkdir(exist_ok=True)
    recorder.dump(WORK / f"spans-{wl.name}-seed{seed}.jsonl")
    return iteration, self_times(profiler), job_build_s(recorder.spans())


def _build(spec, ctx):
    """The spec's workload, or None for a member that cannot be built
    (already counted as failed by the iterations)."""
    try:
        return spec.build(ctx)
    except ReproError:
        return None


def kernel_fraction(wl: Workload, seed: int) -> float:
    """Share of jobs whose hierarchy passes ``repro.kernel.batch.eligible``."""
    jobs = jobs_for(wl, seed)
    eligible = 0
    for job in jobs:
        workload = _build(job.workload, job.system.scale_context())
        if workload is not None:
            sim = Simulator(job.system, job.policy, workload)
            eligible += kernel_batch.eligible(sim.hierarchy)
    return eligible / len(jobs)


def generation_us_per_ref(wl: Workload, seed: int, repeats: int = 3) -> float:
    """Host µs per reference of ``generator.batch`` alone, on the same
    specs and in the same chunk size as the simulator; median of
    ``repeats`` fresh builds."""
    specs = list(dict.fromkeys(job.workload for job in jobs_for(wl, seed)))
    ctx = wl.system.scale_context()
    samples = []
    for _ in range(repeats):
        elapsed, refs = 0.0, 0
        for spec in specs:
            workload = _build(spec, ctx)
            if workload is None:
                continue
            generators = workload.generators
            start = time.perf_counter()
            for gen in generators:
                remaining = wl.refs_per_core
                while remaining > 0:
                    take = min(DEFAULT_BATCH, remaining)
                    gen.batch(take)
                    remaining -= take
            elapsed += time.perf_counter() - start
            refs += len(generators) * wl.refs_per_core
        samples.append(elapsed / refs * 1e6 if refs else 0.0)
    return statistics.median(samples)


def serialize_cost(results: Sequence[RunResult]) -> Tuple[float, int]:
    """µs per result for ``result_to_dict`` + JSON out and back, and the
    number of results that do not survive the round trip."""
    start = time.perf_counter()
    back = [result_from_dict(json.loads(json.dumps(result_to_dict(r)))) for r in results]
    elapsed = time.perf_counter() - start
    broken = sum(1 for a, b in zip(results, back) if canonical_json(a) != canonical_json(b))
    return elapsed / max(1, len(results)) * 1e6, broken


def cache_cost(jobs: Sequence[JobSpec], results: Sequence[RunResult]) -> Tuple[float, float, int]:
    """Mean ms per ``ResultCache.put`` and ``get`` on an empty cache, and
    the number of entries that do not come back identical."""
    root = fresh_dir("cache-cost")
    try:
        cache = ResultCache(root)
        start = time.perf_counter()
        for job, result in zip(jobs, results):
            cache.put(job, result)
        put_s = time.perf_counter() - start
        start = time.perf_counter()
        got = [cache.get(job) for job in jobs]
        get_s = time.perf_counter() - start
    finally:
        shutil.rmtree(root, ignore_errors=True)
    broken = sum(
        1 for a, b in zip(results, got) if b is None or canonical_json(a) != canonical_json(b)
    )
    n = max(1, len(jobs))
    return put_s / n * 1e3, get_s / n * 1e3, broken


def model_counts(results: Sequence[Optional[RunResult]]) -> Dict[str, float]:
    """Exact simulated counts summed over the successful jobs."""
    ok = [r for r in results if r is not None]
    return {
        "model.accesses": sum(r.hier.accesses for r in ok),
        "model.llc_writes": sum(r.llc_writes for r in ok),
        "model.mem_writes": sum(r.hier.mem_writes for r in ok),
        "model.cycles": sum(r.cycles for r in ok),
        "model.snoops": sum(r.snoop_traffic for r in ok),
    }


def peak_rss_mb() -> float:
    """Max RSS of this process or any waited-for child (pool workers,
    set-up probes), in MiB."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


# ----------------------------------------------------------------------
# a whole run
# ----------------------------------------------------------------------
@dataclass
class Measurement:
    attempted: int
    failed: int
    metrics: Dict[str, float]
    digest: str
    iterations: int

    @property
    def correct(self) -> bool:
        return self.failed == 0


def measure(
    wl: Workload, seed: int, seconds: float, trace: bool,
    log: Callable[[str], None] = lambda line: None,
) -> Measurement:
    """Run ``wl`` for ``seconds`` and return its metrics and check tally.

    Untraced iterations give every end-to-end metric: the median over
    iterations of each one's host time normalised by the host-speed
    reference run just before and just after it. With ``trace``, one
    untraced iteration gives the pool and model numbers, then one
    in-process iteration runs under cProfile and the standalone layer
    timings run after it; the traced iteration alone can take longer
    than ``seconds`` (over a minute on ``suite-paper``). ``setup_s`` is
    measured by the caller in fresh interpreters.
    """
    iterations: List[Iteration] = []
    deadline = time.perf_counter() + seconds
    min_iterations = 1 if trace else MIN_ITERATIONS
    while len(iterations) < min_iterations or (not trace and time.perf_counter() < deadline):
        iteration = run_iteration(wl, seed, log=log)
        iterations.append(iteration)
        log(f"{wl.name}: iteration {len(iterations)}: {iteration.wall_s:.3f}s, "
            f"normalised {iteration.norm_wall_s:.3f}s, "
            f"reference median {statistics.median(iteration.refs_ms):.2f} ms")

    first = iterations[0]
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    expected = recorded_digest(wl, seed)
    bad_digest = digest_failures(iterations, expected)
    if bad_digest:
        log(f"{wl.name}: {bad_digest} jobs in iterations with a wrong results digest")
    failed += bad_digest
    if wl.kernel_spot_check:
        attempted += 1
        if not kernel_spot_check(wl, seed, first.results):
            log(f"{wl.name}: kernel result differs from the generic loop")
            failed += 1

    if not trace:
        metrics = {
            "norm_wall_s": statistics.median(it.norm_wall_s for it in iterations),
            "norm_us_per_access": statistics.median(it.norm_us_per_access for it in iterations),
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": 1.0 - failed / attempted,
        }
        return Measurement(attempted, failed, metrics, first.digest, len(iterations))

    traced, self_s, build_s = traced_iteration(wl, seed)
    attempted += traced.attempted
    failed += traced.failed
    if traced.digest != first.digest:
        failed += traced.attempted - traced.failed
    ok_pairs = [(j, r) for j, r in zip(jobs_for(wl, seed), first.results) if r is not None]
    ok_jobs = [j for j, _ in ok_pairs]
    ok_results = [r for _, r in ok_pairs]
    serialize_us, broken_serialize = serialize_cost(ok_results)
    put_ms, get_ms, broken_cache = cache_cost(ok_jobs, ok_results)
    attempted += 2 * len(ok_results)
    failed += broken_serialize + broken_cache
    traced_job_wall = hostspeed.normalise(traced.job_wall_s, statistics.mean(traced.refs_ms))

    metrics = {f"self.{layer}_s": self_s[layer] for layer in SELF_LAYERS}
    metrics.update({
        "host.wall_s": first.wall_s,
        "host.ref_ms": statistics.median(first.refs_ms),
        "sim.build_s": build_s,
        "workloads.us_per_ref": generation_us_per_ref(wl, seed),
        "sim.kernel_frac": kernel_fraction(wl, seed),
        "exec.batches": sum(1 for *_, pooled in first.batches if pooled),
        "exec.pool_util": statistics.median(it.pool_util for it in iterations),
        "exec.retries": sum(it.retries for it in iterations) + traced.retries,
        "exec.serialize_us": serialize_us,
        "exec.cache.put_ms": put_ms,
        "exec.cache.get_ms": get_ms,
        "exec.cache.hits": first.warm_hits,
        "exec.warm_s": statistics.median(it.warm_s for it in iterations),
        **model_counts(first.results),
        "traced.overhead": (
            traced_job_wall / first.norm_job_wall_s if first.norm_job_wall_s else 0.0
        ),
    })
    return Measurement(attempted, failed, metrics, first.digest, len(iterations))


def git_sha() -> str:
    """HEAD of the checkout; ``unknown`` outside a git checkout.

    The ceiling stops git from finding a repository above the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def host_facts() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }
