"""Parallel job execution over a process pool, with caching and retry.

:func:`execute_jobs` is the engine behind every multi-run caller
(``sim.runner.run_policies``/``run_matrix``, ``Sweep.run``,
``run_suite``) and the CLI's ``--jobs``: it resolves cache hits first, fans the misses
out over a :class:`~concurrent.futures.ProcessPoolExecutor`, and returns
results in the *input* order regardless of completion order, so parallel
sweeps are record-for-record identical to serial ones.

The return value is an :class:`ExecutionOutcome` — a list of
:class:`RunResult` (so every existing caller keeps working) that also
carries one :class:`~repro.obs.profiling.JobProfile` per job
(wall time, throughput, retries, provenance, peak RSS) plus cache
hit/miss totals, and can roll them up into a
:class:`~repro.obs.profiling.RunManifest`. Pass ``manifest_dir``
to have the manifest written as ``manifest.json`` (a sweep run with a
cache does this automatically, next to the cached results), and
``heartbeat_interval`` to get rate-limited progress lines on stderr
during long sweeps.

Failure policy: only failures of the worker or process — a broken pool
(a worker killed by the OS), a pickling error, an ``OSError`` — are
treated as transient and retried once, in-process; a second failure
raises :class:`~repro.errors.ExecutionError`. Library errors
(:class:`~repro.errors.ReproError`) propagate unchanged, and any other
exception (an ``AssertionError`` or ``IndexError`` from the simulator)
is a deterministic bug that a retry would only hide: it fails the job
on its first attempt as an :class:`~repro.errors.ExecutionError`.

Interruption policy: SIGINT (Ctrl-C) and SIGTERM (a supervisor's stop)
during a batch shut the batch down gracefully instead of unwinding
with a raw traceback — pending work is cancelled, every *completed*
job is still cached and profiled, the manifest is still written, and
the caller receives a partial :class:`ExecutionOutcome` with
``interrupted=True`` (SIGTERM is bridged to ``KeyboardInterrupt``
while the batch runs, main thread only — a library caller that runs
a batch in a worker thread keeps its host's signal handling untouched).

Workers serialise results with :mod:`repro.exec.serialize` rather than
pickling :class:`RunResult` objects, so the parallel path returns
byte-identical data to the cache path.
"""

from __future__ import annotations

import concurrent.futures as cf
import contextlib
import pathlib
import pickle
import signal
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import ExecutionError, ReproError
from ..obs.profiling import (
    SOURCE_CACHE,
    SOURCE_POOL,
    SOURCE_SERIAL,
    Heartbeat,
    JobProfile,
    RunManifest,
    peak_rss_kb,
)
from ..obs.spans import current_recorder, span, tracing_enabled
from ..sim.results import RunResult
from .cache import ResultCache
from .jobs import JobSpec
from .serialize import result_from_dict, result_to_dict


class ExecutionOutcome(List[RunResult]):
    """Ordered results plus per-job execution telemetry.

    Behaves exactly like the plain ``List[RunResult]`` this function
    used to return; the telemetry rides along as attributes. An
    interrupted batch (``interrupted=True``) holds only the jobs that
    completed — still in input order — with ``total_jobs`` recording
    how many were requested.
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

    def manifest(self) -> RunManifest:
        return RunManifest(
            jobs=list(self.profiles), max_workers=self.max_workers, wall_s=self.wall_s
        )

    def write_manifest(self, target: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write ``manifest.json`` (``target`` may be a directory)."""
        return self.manifest().write(target)


#: failures of the worker or process rather than of the job itself; only
#: these are retried (``cf.TimeoutError`` is handled before them).
_TRANSIENT_ERRORS = (cf.BrokenExecutor, pickle.PicklingError, OSError)


def _job_failed(index: int, job: JobSpec, exc: BaseException, where: str) -> ExecutionError:
    return ExecutionError(
        f"job {index} ({job.workload.label} / {job.policy}) failed{where}: "
        f"{type(exc).__name__}: {exc}"
    )


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
    timeout: Optional[float] = None,
    retries: int = 1,
    manifest_dir: Optional[Union[str, pathlib.Path]] = None,
    heartbeat_interval: Optional[float] = None,
) -> ExecutionOutcome:
    """Execute ``jobs`` and return one :class:`RunResult` per job, in order.

    ``max_workers <= 1`` (or a pool that fails to start) runs serially
    in-process; ``cache`` short-circuits jobs whose content address is
    already stored and records fresh results on the way out. ``timeout``
    bounds each job's wall-clock wait in seconds (parallel path only —
    a serial job cannot be preempted). ``retries`` bounds re-execution
    of transiently-failed jobs (default: one retry). ``manifest_dir``
    writes the run manifest there (``manifest.json``);
    ``heartbeat_interval`` emits progress lines at most that many
    seconds apart on stderr.

    SIGINT/SIGTERM mid-batch returns a *partial* outcome instead of
    raising: completed jobs are cached, profiled, and manifest-logged
    as usual, pending work is cancelled, and the returned outcome has
    ``interrupted=True`` with ``total_jobs`` = the requested count. A
    job that raises fails the call, but the results collected before
    it are stored in ``cache`` first.
    """
    start = time.perf_counter()
    jobs = list(jobs)
    for i, job in enumerate(jobs):
        if not isinstance(job, JobSpec):
            raise ExecutionError(f"jobs[{i}] is not a JobSpec: {type(job).__name__}")
    if retries < 0:
        raise ExecutionError(f"retries must be >= 0, got {retries}")
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
                                jobs, misses, results, profiles, max_workers, timeout,
                                retries, pulse, cached_count,
                            )
                        else:
                            _execute_in_process(
                                jobs, misses, results, profiles, retries, pulse,
                                cached_count,
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
    if manifest_dir is not None:
        outcome.write_manifest(manifest_dir)
        if tracing_enabled():
            # The span dump rides next to the manifest so the ledger
            # scanner finds both in one pass. Dumping the whole
            # recorder (not a drained slice) means later batches in
            # the same process supersede the file with a superset.
            recorder = current_recorder()
            if recorder is not None and len(recorder):
                recorder.dump(pathlib.Path(manifest_dir))
    return outcome


def _run_in_process(
    job: JobSpec, index: int, retries: int, prior_retries: int = 0
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
    retries: int,
    pulse: Heartbeat,
    cached_count: int,
) -> None:
    """Run ``misses`` one after another in this process, filling
    ``results`` and ``profiles`` in place."""
    for n, i in enumerate(misses):
        results[i], profiles[i] = _run_in_process(jobs[i], i, retries)
        pulse.beat(cached_count + n + 1, cached_count)


def _execute_pooled(
    jobs: Sequence[JobSpec],
    misses: Sequence[int],
    results: List[Optional[RunResult]],
    profiles: List[Optional[JobProfile]],
    max_workers: int,
    timeout: Optional[float],
    retries: int,
    pulse: Heartbeat,
    cached_count: int,
) -> None:
    """Fan ``misses`` out over a process pool, filling ``results`` and
    ``profiles`` in place."""
    workers = min(max_workers, len(misses))
    try:
        pool = cf.ProcessPoolExecutor(max_workers=workers)
    except (OSError, ValueError, RuntimeError):
        # Pool cannot start (sandboxed environment, missing semaphores,
        # spawn failure): degrade gracefully to serial execution.
        _execute_in_process(
            jobs, misses, results, profiles, retries, pulse, cached_count
        )
        return

    try:
        futures = {i: pool.submit(_run_job_dict, jobs[i]) for i in misses}
        retry_budget = {i: retries for i in misses}
        pending = list(misses)
        done = 0
        while pending:
            i = pending.pop(0)
            try:
                payload = _wait_with_heartbeat(
                    futures[i], timeout, pulse, cached_count + done, cached_count
                )
                results[i] = result_from_dict(payload["result"])
                profile = _profile_for(i, jobs[i], SOURCE_POOL, results[i])
                profile.wall_s = payload.get("wall_s", 0.0)
                profile.retries = retries - retry_budget[i]
                profile.peak_rss_kb = payload.get("peak_rss_kb")
                profiles[i] = profile
            except ReproError:
                raise  # deterministic library failure: retrying is pointless
            except cf.TimeoutError:
                futures[i].cancel()
                raise ExecutionError(
                    f"job {i} ({jobs[i].workload.label} / {jobs[i].policy}) "
                    f"exceeded its {timeout:g}s timeout"
                ) from None
            except _TRANSIENT_ERRORS as exc:
                if retry_budget[i] > 0:
                    retry_budget[i] -= 1
                    # A crashed worker may have broken the whole pool;
                    # the retry runs in-process, which also covers
                    # unpicklable-job failures.
                    results[i], profiles[i] = _run_in_process(
                        jobs[i], i, retries=0, prior_retries=retries - retry_budget[i]
                    )
                else:
                    raise _job_failed(i, jobs[i], exc, " in worker") from exc
            except Exception as exc:  # a deterministic bug: no retry
                raise _job_failed(i, jobs[i], exc, " in worker") from exc
            done += 1
            pulse.beat(cached_count + done, cached_count)
    except KeyboardInterrupt:
        # Graceful shutdown: drop work that has not started, abandon
        # the in-flight job (a process pool cannot preempt it), keep
        # every result already collected. The caller turns this into a
        # partial ExecutionOutcome.
        for future in futures.values():
            future.cancel()
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    except BaseException:
        pool.shutdown(wait=True, cancel_futures=True)
        raise
    else:
        pool.shutdown(wait=True)


def _wait_with_heartbeat(
    future: "cf.Future",
    timeout: Optional[float],
    pulse: Heartbeat,
    done: int,
    cached: int,
) -> Dict[str, Any]:
    """``future.result(timeout=...)`` that keeps the heartbeat alive.

    Waits in slices no longer than the heartbeat interval so progress
    lines keep flowing while a slow job blocks the ordered collection
    loop; the per-job ``timeout`` semantics are unchanged (measured
    from when collection reaches this job).
    """
    if pulse.interval is None or pulse.interval <= 0:
        return future.result(timeout=timeout)
    deadline = None if timeout is None else time.perf_counter() + timeout
    while True:
        remaining = None if deadline is None else deadline - time.perf_counter()
        if remaining is not None and remaining <= 0:
            raise cf.TimeoutError()
        wait = pulse.interval if remaining is None else min(pulse.interval, remaining)
        try:
            return future.result(timeout=wait)
        except cf.TimeoutError:
            if deadline is not None and time.perf_counter() >= deadline:
                raise
            pulse.beat(done, cached)
