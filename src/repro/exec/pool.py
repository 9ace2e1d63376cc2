"""Parallel job execution over a process pool, with caching and retry.

:func:`execute_jobs` is the engine behind every multi-run caller
(``sim.runner.run_policies``/``run_matrix`` and ``run_suite``, which
``repro sweep`` and ``repro suite run`` drive) and the CLI's
``--jobs``: it resolves cache hits first, fans the misses out over a
:class:`~concurrent.futures.ProcessPoolExecutor`, and returns results
in the *input* order regardless of completion order, so parallel runs
are record-for-record identical to serial ones.

The return value is an :class:`ExecutionOutcome` — a list of
:class:`RunResult` (so every existing caller keeps working) that also
carries one :class:`~repro.obs.profiling.JobProfile` per job
(wall time, throughput, retries, provenance, peak RSS) plus cache
hit/miss totals (``run_suite`` rolls the profiles up into the
:class:`~repro.obs.profiling.RunManifest` it writes as
``manifest.json`` next to the cached results). Pass ``heartbeat_interval`` to get rate-limited progress
lines on stderr during long batches.

Failure policy: only failures of the worker or process — a broken pool
(a worker killed by the OS), a pickling error, an ``OSError`` — are
treated as transient and retried once, in-process; a second failure
raises :class:`~repro.errors.ExecutionError`. There is no per-job
timeout: a process pool cannot preempt a running simulation, so a slow
job is waited for (with heartbeat lines while it runs) and a hung one
is stopped with Ctrl-C or SIGTERM (below). Library errors
(:class:`~repro.errors.ReproError`) propagate unchanged, and any other
exception (an ``AssertionError`` or ``IndexError`` from the simulator)
is a deterministic bug that a retry would only hide: it fails the job
on its first attempt as an :class:`~repro.errors.ExecutionError`.

Interruption policy: SIGINT (Ctrl-C) and SIGTERM (a supervisor's stop)
during a batch shut the batch down gracefully instead of unwinding
with a raw traceback — pending work is cancelled, every *collected*
job is still cached and profiled, and the caller receives a partial
:class:`ExecutionOutcome` with ``interrupted=True`` (SIGTERM is bridged to ``KeyboardInterrupt``
while the batch runs, main thread only — a library caller that runs
a batch in a worker thread keeps its host's signal handling untouched).

Workers serialise results with :mod:`repro.exec.serialize` rather than
pickling :class:`RunResult` objects, so the parallel path returns
byte-identical data to the cache path.

Stream groups: the pool gets one task per *stream group*, not per job.
A group is the cache misses that would read the same batched-kernel
pass 1 (same ``WorkloadSpec`` and build scale, refs per core, core
count, L1/L2 geometry and instrumentation), in first-appearance order;
its worker runs them one after another under one ``STREAM_SHARE``
holder, as the serial loop runs the whole batch, so a workload's
policies pay for its private levels once across the pool. When there
are fewer groups than workers, the largest are halved until every
worker has a task. A worker catches each job's exception and returns
it in that job's place, so failures keep their per-job meaning: a
library error or a bug fails the call when that job is collected, and
a task that fails transiently (a lost worker) retries each of its
jobs in-process. Results, profiles and per-job wall time and peak RSS
are as with one task per job; the grouping never changes a result
(the kernel's own key decides what is shared). An interrupt abandons
every in-flight group whole, including its jobs that finished in the
worker but were not yet collected.
"""

from __future__ import annotations

import concurrent.futures as cf
import contextlib
import pickle
import signal
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ExecutionError, ReproError
from ..obs.profiling import (
    SOURCE_CACHE,
    SOURCE_POOL,
    SOURCE_SERIAL,
    Heartbeat,
    JobProfile,
    peak_rss_kb,
)
from ..obs.spans import span
from ..sim.results import RunResult
from .cache import ResultCache
from .jobs import STREAM_SHARE, JobSpec
from .serialize import result_from_dict, result_to_dict


class ExecutionOutcome(List[RunResult]):
    """Ordered results plus per-job execution telemetry.

    Behaves exactly like the plain ``List[RunResult]`` this function
    used to return; the telemetry rides along as attributes. An
    interrupted batch (``interrupted=True``) holds only the jobs that
    completed, in input order, with ``total_jobs`` recording how many
    were requested. They need not be a prefix of the input: cache hits
    are collected before any miss runs, so a caller that needs every
    job must treat a partial outcome as no result.
    """

    def __init__(
        self,
        results: Sequence[RunResult],
        profiles: Sequence[JobProfile],
        max_workers: int,
        wall_s: float,
        interrupted: bool = False,
        total_jobs: Optional[int] = None,
    ) -> None:
        super().__init__(results)
        self.profiles: List[JobProfile] = list(profiles)
        self.max_workers = max_workers
        self.wall_s = wall_s
        self.interrupted = interrupted
        self.total_jobs = len(self) if total_jobs is None else total_jobs

    @property
    def cache_hits(self) -> int:
        return sum(1 for p in self.profiles if p.source == SOURCE_CACHE)

    @property
    def cache_misses(self) -> int:
        return sum(1 for p in self.profiles if p.source != SOURCE_CACHE)


#: failures of the worker or process rather than of the job itself; only
#: these are retried, at most ``_RETRIES`` times per job.
_TRANSIENT_ERRORS = (cf.BrokenExecutor, pickle.PicklingError, OSError)
_RETRIES = 1


def _job_failed(index: int, job: JobSpec, exc: BaseException, where: str) -> ExecutionError:
    return ExecutionError(
        f"job {index} ({job.workload.label} / {job.policy}) failed{where}: "
        f"{type(exc).__name__}: {exc}"
    )


def _stream_groups(jobs: Sequence[JobSpec], misses: Sequence[int], tasks: int) -> List[List[int]]:
    """``misses`` grouped by what their pass 1 reads (the facts of the
    built hierarchy ``kernel.batch._private_stream`` keys on), in
    first-appearance order, the largest halved until there are at least
    ``tasks`` groups."""
    groups: Dict[tuple, List[int]] = {}
    for i in misses:
        job = jobs[i]
        system, h = job.system, job.system.hierarchy
        key = (job.stream_source(), job.refs_per_core, h.ncores, h.block_size, h.l1, h.l2,
               system.instrumentation, system.occupancy_sample_interval)
        groups.setdefault(key, []).append(i)
    chunks = list(groups.values())
    while len(chunks) < tasks:
        k = max(range(len(chunks)), key=lambda n: len(chunks[n]))
        half = (len(chunks[k]) + 1) // 2
        chunks[k:k + 1] = [chunks[k][:half], chunks[k][half:]]
    return chunks


def _run_group(group: Sequence[JobSpec]) -> List[Any]:
    """Worker entry point: run a stream group's jobs in order under a
    fresh ``STREAM_SHARE`` holder; per job its ``_run_job_dict`` payload,
    or the exception it raised (carrying the worker's traceback as its
    cause, as the executor sends a task's own exception)."""
    STREAM_SHARE.set({})
    out: List[Any] = []
    for job in group:
        try:
            out.append(_run_job_dict(job))
        except Exception as exc:
            out.append(cf.process._ExceptionWithTraceback(exc, exc.__traceback__))
    return out


def _run_job_dict(job: JobSpec) -> Dict[str, Any]:
    """Worker entry point: run one job, return its serialised result
    plus the worker-side profile facts (wall time, peak RSS)."""
    start = time.perf_counter()
    result = job.run()
    return {
        "result": result_to_dict(result),
        "wall_s": time.perf_counter() - start,
        "peak_rss_kb": peak_rss_kb(),
    }


def _run_with_retry(
    job: JobSpec, index: int, retries: int
) -> Tuple[RunResult, int]:
    """In-process execution with the same retry policy as the pool path.

    Returns ``(result, retries_used)``.
    """
    attempts = retries + 1
    last: Optional[BaseException] = None
    for attempt in range(attempts):
        try:
            return job.run(), attempt
        except ReproError:
            raise
        except _TRANSIENT_ERRORS as exc:
            last = exc
        except Exception as exc:  # a deterministic bug: no retry
            raise _job_failed(index, job, exc, "") from exc
    raise ExecutionError(
        f"job {index} ({job.workload.label} / {job.policy}) failed after "
        f"{attempts} attempts: {last}"
    ) from last


@contextlib.contextmanager
def _sigterm_as_interrupt() -> Iterator[None]:
    """Bridge SIGTERM to ``KeyboardInterrupt`` for the enclosed batch.

    Lets a supervisor's ``kill`` trigger the same graceful partial
    shutdown as Ctrl-C. Signal handlers are a main-thread-only,
    process-global resource, so this is a no-op off the main thread
    (e.g. ``execute_jobs`` called from a library caller's worker
    thread) and on platforms that refuse the handler.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    def _raise(signum, frame):  # noqa: ARG001
        raise KeyboardInterrupt
    try:
        previous = signal.signal(signal.SIGTERM, _raise)
    except (ValueError, OSError, AttributeError):  # no SIGTERM / exotic host
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _profile_for(
    index: int, job: JobSpec, source: str, result: RunResult
) -> JobProfile:
    return JobProfile(
        index=index,
        key=job.key(),
        workload=job.workload.label,
        policy=job.policy,
        system=job.system.label,
        source=source,
        accesses=result.hier.accesses,
    )


def execute_jobs(
    jobs: Sequence[JobSpec],
    max_workers: int = 1,
    cache: Optional[ResultCache] = None,
    heartbeat_interval: Optional[float] = None,
) -> ExecutionOutcome:
    """Execute ``jobs`` and return one :class:`RunResult` per job, in order.

    ``max_workers <= 1`` (or a pool that fails to start) runs serially
    in-process; ``cache`` short-circuits jobs whose content address is
    already stored and records fresh results on the way out. A job that
    fails transiently is retried once. ``heartbeat_interval`` emits
    progress lines at most that many seconds apart on stderr.

    SIGINT/SIGTERM mid-batch returns a *partial* outcome instead of
    raising: collected jobs are cached and profiled as usual, pending
    work is cancelled, and the returned outcome has
    ``interrupted=True`` with ``total_jobs`` = the requested count. A
    job that raises fails the call, but the results collected before
    it are stored in ``cache`` first.
    """
    start = time.perf_counter()
    jobs = list(jobs)
    for i, job in enumerate(jobs):
        if not isinstance(job, JobSpec):
            raise ExecutionError(f"jobs[{i}] is not a JobSpec: {type(job).__name__}")
    results: List[Optional[RunResult]] = [None] * len(jobs)
    profiles: List[Optional[JobProfile]] = [None] * len(jobs)
    pulse = Heartbeat(len(jobs), heartbeat_interval)

    batch_span = span("exec.batch", jobs=len(jobs), max_workers=max_workers)
    misses: List[int] = []
    if cache is not None:
        with span("exec.cache_probe", jobs=len(jobs)) as probe_span:
            for i, job in enumerate(jobs):
                lookup_start = time.perf_counter()
                hit = cache.get(job)
                if hit is not None:
                    results[i] = hit
                    profile = _profile_for(i, job, SOURCE_CACHE, hit)
                    profile.wall_s = time.perf_counter() - lookup_start
                    profiles[i] = profile
                else:
                    misses.append(i)
            probe_span.set(hits=len(jobs) - len(misses), misses=len(misses))
    else:
        misses = list(range(len(jobs)))
    cached_count = len(jobs) - len(misses)

    interrupted = False
    try:
        if misses:
            try:
                with _sigterm_as_interrupt():
                    try:
                        if max_workers > 1 and len(misses) > 1:
                            _execute_pooled(
                                jobs, misses, results, profiles, max_workers, pulse,
                                cached_count,
                            )
                        else:
                            _execute_in_process(
                                jobs, misses, results, profiles, pulse, cached_count
                            )
                    except KeyboardInterrupt:
                        # Graceful shutdown: keep everything that finished.
                        # (_execute_pooled has already cancelled its futures.)
                        interrupted = True
            finally:
                # Also when a job failed: the jobs collected before it
                # are results, and a rerun should not simulate them again.
                if cache is not None:
                    for i in misses:
                        if results[i] is not None:
                            cache.put(jobs[i], results[i])
    except BaseException:
        batch_span.finish("error")
        raise

    completed = [
        i for i in range(len(jobs))
        if results[i] is not None and profiles[i] is not None
    ]
    wall_s = time.perf_counter() - start
    outcome = ExecutionOutcome(
        [results[i] for i in completed],  # type: ignore[misc]
        [profiles[i] for i in completed],  # type: ignore[misc]
        max_workers=max_workers,
        wall_s=wall_s,
        interrupted=interrupted,
        total_jobs=len(jobs),
    )
    batch_span.set(
        completed=len(completed), cache_hits=cached_count, interrupted=interrupted
    )
    batch_span.finish()
    if jobs:
        pulse.final(len(completed), cached_count)
    return outcome


def _run_in_process(
    job: JobSpec, index: int, retries: int = _RETRIES, prior_retries: int = 0
) -> Tuple[RunResult, JobProfile]:
    """Run one job in this process under an ``exec.job`` span.

    The one in-process job path: the serial loop, the pool-cannot-start
    fallback and the pool's in-process retry all come through here.
    ``prior_retries`` counts attempts already spent elsewhere (a failed
    worker) so the profile reports the job's total.
    """
    start = time.perf_counter()
    with span(
        "exec.job", index=index, policy=job.policy, workload=job.workload.label
    ):
        result, used = _run_with_retry(job, index, retries)
    profile = _profile_for(index, job, SOURCE_SERIAL, result)
    profile.wall_s = time.perf_counter() - start
    profile.retries = prior_retries + used
    profile.peak_rss_kb = peak_rss_kb()
    return result, profile


def _execute_in_process(
    jobs: Sequence[JobSpec],
    misses: Sequence[int],
    results: List[Optional[RunResult]],
    profiles: List[Optional[JobProfile]],
    pulse: Heartbeat,
    cached_count: int,
) -> None:
    """Run ``misses`` one after another in this process, filling
    ``results`` and ``profiles`` in place; they share streams
    (``STREAM_SHARE``)."""
    token = STREAM_SHARE.set({})
    try:
        for n, i in enumerate(misses):
            results[i], profiles[i] = _run_in_process(jobs[i], i)
            pulse.beat(cached_count + n + 1, cached_count)
    finally:
        STREAM_SHARE.reset(token)


def _execute_pooled(
    jobs: Sequence[JobSpec],
    misses: Sequence[int],
    results: List[Optional[RunResult]],
    profiles: List[Optional[JobProfile]],
    max_workers: int,
    pulse: Heartbeat,
    cached_count: int,
) -> None:
    """Fan ``misses`` out over a process pool, one task per stream
    group, filling ``results`` and ``profiles`` in place."""
    workers = min(max_workers, len(misses))
    groups = _stream_groups(jobs, misses, workers)
    try:
        pool = cf.ProcessPoolExecutor(max_workers=workers)
    except (OSError, ValueError, RuntimeError):
        # Pool cannot start (sandboxed environment, missing semaphores,
        # spawn failure): degrade gracefully to serial execution.
        _execute_in_process(jobs, misses, results, profiles, pulse, cached_count)
        return

    try:
        futures = [pool.submit(_run_group, [jobs[i] for i in g]) for g in groups]
        task = {i: (f, at) for f, g in zip(futures, groups) for at, i in enumerate(g)}
        for n, i in enumerate(misses):
            future, at = task[i]
            try:
                payload = _wait_with_heartbeat(
                    future, pulse, cached_count + n, cached_count
                )[at]
                if isinstance(payload, BaseException):
                    raise payload
                results[i] = result_from_dict(payload["result"])
                profile = _profile_for(i, jobs[i], SOURCE_POOL, results[i])
                profile.wall_s = payload.get("wall_s", 0.0)
                profile.peak_rss_kb = payload.get("peak_rss_kb")
                profiles[i] = profile
            except ReproError:
                raise  # deterministic library failure: retrying is pointless
            except _TRANSIENT_ERRORS:
                # A crashed worker may have broken the whole pool (then
                # each job of its group lands here); the retries run
                # in-process, which also covers unpicklable-job failures.
                results[i], profiles[i] = _run_in_process(
                    jobs[i], i, retries=_RETRIES - 1, prior_retries=1
                )
            except Exception as exc:  # a deterministic bug: no retry
                raise _job_failed(i, jobs[i], exc, " in worker") from exc
            pulse.beat(cached_count + n + 1, cached_count)
    except KeyboardInterrupt:
        # Graceful shutdown: drop work that has not started, abandon
        # the in-flight groups (a process pool cannot preempt them),
        # their finished but uncollected jobs included, and keep every
        # result already collected. The caller turns this into a
        # partial ExecutionOutcome.
        for future in futures:
            future.cancel()
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    except BaseException:
        pool.shutdown(wait=True, cancel_futures=True)
        raise
    else:
        pool.shutdown(wait=True)


def _wait_with_heartbeat(
    future: "cf.Future", pulse: Heartbeat, done: int, cached: int
) -> List[Any]:
    """``future.result()`` that keeps the heartbeat alive.

    Waits in slices no longer than the heartbeat interval so progress
    lines keep flowing while a slow job blocks the ordered collection
    loop.
    """
    while True:
        try:
            return future.result(timeout=pulse.interval or None)
        except cf.TimeoutError:
            if future.done():  # the task itself raised a TimeoutError
                raise
            pulse.beat(done, cached)
