"""Graceful-shutdown semantics of execute_jobs: SIGINT/SIGTERM
mid-batch yields a partial ExecutionOutcome with completed work cached
and manifest-logged, not a raw traceback; off the main thread the
batch leaves the process's signal handling alone."""

import os
import signal
import threading
from dataclasses import asdict

import pytest

from repro.exec import JobSpec, ResultCache, WorkloadSpec, execute_jobs
from repro.sim import SystemConfig
from repro.obs.profiling import RunManifest


def jobs(n=3, refs=400):
    return [
        JobSpec(
            system=SystemConfig.scaled(ncores=2, llc_kb=32, l2_kb=4),
            workload=WorkloadSpec.duplicate("mcf", ncores=2, seed=seed),
            policy="lap",
            refs_per_core=refs,
        )
        for seed in range(n)
    ]


def interrupt_on_call(monkeypatch, n_before_interrupt, exc=KeyboardInterrupt):
    """Let ``n_before_interrupt`` jobs run, then raise in the next one."""
    calls = {"n": 0}
    real_run = JobSpec.run

    def run(self):
        calls["n"] += 1
        if calls["n"] > n_before_interrupt:
            raise exc
        return real_run(self)

    monkeypatch.setattr(JobSpec, "run", run)
    return calls


class TestGracefulInterrupt:
    def test_partial_outcome_instead_of_traceback(self, monkeypatch):
        batch = jobs(3)
        interrupt_on_call(monkeypatch, 1)
        outcome = execute_jobs(batch)  # must NOT raise
        assert outcome.interrupted
        assert outcome.total_jobs == 3
        assert len(outcome) == 1
        assert len(outcome.profiles) == 1
        assert outcome[0].epi > 0

    def test_completed_jobs_are_cached_and_manifested(self, monkeypatch, tmp_path):
        batch = jobs(3)
        cache = ResultCache(tmp_path / "cache")
        interrupt_on_call(monkeypatch, 2)
        outcome = execute_jobs(batch, cache=cache, manifest_dir=tmp_path)
        assert outcome.interrupted and len(outcome) == 2
        # the two finished jobs are in the shared cache...
        monkeypatch.undo()
        assert cache.get(batch[0]) is not None
        assert cache.get(batch[1]) is not None
        assert cache.get(batch[2]) is None
        # ...and the manifest records exactly the completed jobs
        manifest = RunManifest.load(tmp_path)
        assert len(manifest.jobs) == 2

    def test_interrupted_results_match_uninterrupted_prefix(self, monkeypatch):
        batch = jobs(3)
        clean = execute_jobs(batch)
        interrupt_on_call(monkeypatch, 2)
        partial = execute_jobs(batch)
        assert partial.interrupted
        assert [r.to_dict() for r in partial] == [r.to_dict() for r in clean[:2]]

    def test_sigterm_is_bridged_to_graceful_shutdown(self, monkeypatch):
        """A supervisor's SIGTERM mid-batch behaves exactly like Ctrl-C:
        partial outcome, no process death."""
        if not hasattr(signal, "SIGTERM") or os.name == "nt":
            pytest.skip("POSIX-only")
        calls = {"n": 0}
        real_run = JobSpec.run

        def run(self):
            calls["n"] += 1
            if calls["n"] == 2:
                os.kill(os.getpid(), signal.SIGTERM)
                # give the signal time to be delivered at a bytecode
                # boundary inside this (interruptible) loop
                for _ in range(10_000_000):
                    pass
                pytest.fail("SIGTERM was not bridged to KeyboardInterrupt")
            return real_run(self)

        monkeypatch.setattr(JobSpec, "run", run)
        outcome = execute_jobs(jobs(3))
        assert outcome.interrupted
        assert len(outcome) == 1

    def test_clean_run_is_unflagged(self):
        outcome = execute_jobs(jobs(2))
        assert not outcome.interrupted
        assert outcome.total_jobs == len(outcome) == 2

    def test_interrupt_counted_in_metrics(self, monkeypatch):
        from repro.obs.spans import SpanRecorder, install_recorder, uninstall_recorder

        recorder = SpanRecorder()
        install_recorder(recorder)
        try:
            interrupt_on_call(monkeypatch, 1)
            execute_jobs(jobs(2))
        finally:
            uninstall_recorder()
        (batch,) = [s for s in recorder.spans() if s["name"] == "exec.batch"]
        assert batch["attrs"]["interrupted"] is True
        assert batch["attrs"]["completed"] == 1


def test_execute_jobs_off_the_main_thread(tmp_path):
    """A worker thread cannot install signal handlers, so the SIGTERM
    bridge must be a no-op there: the batch completes, its results match
    a main-thread run, and the process's SIGTERM handler is untouched."""
    batch = jobs(2, refs=200)
    handler_before = signal.getsignal(signal.SIGTERM)
    box = {}

    def run():
        try:
            box["outcome"] = execute_jobs(batch, cache=ResultCache(tmp_path / "cache"))
        except BaseException as exc:  # surfaced after join
            box["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert "error" not in box, box.get("error")
    assert signal.getsignal(signal.SIGTERM) is handler_before
    threaded = box["outcome"]
    assert not threaded.interrupted
    main = execute_jobs(batch)
    assert [asdict(r) for r in threaded] == [asdict(r) for r in main]
