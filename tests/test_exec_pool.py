"""Tests for the parallel execution engine (repro.exec.pool)."""

import pytest

from repro.errors import AnalysisError, ExecutionError, ReproError, SimulationError
from repro.exec import JobSpec, ResultCache, WorkloadSpec, execute_jobs, result_to_dict
from repro.sim import SystemConfig
from repro.suite import BenchmarkSet, run_suite, suite_records


def small_system(**kwargs) -> SystemConfig:
    return SystemConfig.scaled(**{"ncores": 2, "llc_kb": 32, "l2_kb": 4, **kwargs})


def small_grid(refs=600):
    """A 2-system x 2-workload x 2-policy determinism grid, as jobs."""
    return [
        JobSpec(system=system, workload=spec, policy=policy, refs_per_core=refs)
        for system in (small_system(), small_system(llc_kb=64, label="big"))
        for spec in (WorkloadSpec.duplicate("mcf", ncores=2),
                     WorkloadSpec.duplicate("lbm", ncores=2, seed=3))
        for policy in ("non-inclusive", "lap")
    ]


def _worker_lost(job):
    """Pool entry point that fails the way a lost worker does."""
    raise OSError("worker lost")


def _worker_timed_out(job):
    """Pool entry point whose job raises ``TimeoutError`` itself."""
    raise TimeoutError("job-internal timeout")


class TestDeterminism:
    def test_parallel_records_equal_serial(self):
        grid = small_grid()
        serial = execute_jobs(grid)
        parallel = execute_jobs(grid, max_workers=4)
        assert len(serial) == len(grid) == 8
        # same order, bit-identical results
        assert [p.index for p in parallel.profiles] == list(range(8))
        assert [result_to_dict(r) for r in parallel] == [result_to_dict(r) for r in serial]

    def test_progress_fires_in_serial_order(self):
        members = ("mcf", "lbm", "bzip2")
        kwargs = dict(policies=("non-inclusive", "lap"), refs_per_core=400)
        bset = BenchmarkSet(name="three", description="", members=members)
        expected = suite_records(run_suite(bset, small_system(), **kwargs))
        seen = []
        pooled = run_suite(bset, small_system(), max_workers=4,
                           progress=seen.append, **kwargs)
        assert [line.split(":")[0] for line in seen] == list(members)
        assert suite_records(pooled) == expected


class TestExecuteJobs:
    def jobs(self, n=3):
        return [
            JobSpec(
                system=small_system(),
                workload=WorkloadSpec.duplicate("mcf", ncores=2, seed=seed),
                policy="lap",
                refs_per_core=400,
            )
            for seed in range(n)
        ]

    def test_results_in_input_order(self):
        jobs = self.jobs()
        serial = execute_jobs(jobs, max_workers=1)
        parallel = execute_jobs(jobs, max_workers=3)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]
        assert [r.workload for r in serial] == [j.workload.label for j in jobs]

    def test_rejects_non_jobs(self):
        with pytest.raises(ExecutionError):
            execute_jobs(["not a job"])

    def test_transient_failure_retried_once(self, monkeypatch):
        calls = {"n": 0}
        real_run = JobSpec.run

        def flaky_run(self):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("simulated transient worker failure")
            return real_run(self)

        monkeypatch.setattr(JobSpec, "run", flaky_run)
        [result] = execute_jobs(self.jobs(1))
        assert calls["n"] == 2
        assert result.epi > 0

    def test_persistent_failure_raises_execution_error(self, monkeypatch):
        def broken_run(self):
            raise OSError("always broken")

        monkeypatch.setattr(JobSpec, "run", broken_run)
        with pytest.raises(ExecutionError, match="after 2 attempts"):
            execute_jobs(self.jobs(1))

    @staticmethod
    def job_spans(jobs, max_workers):
        from repro.obs.spans import SpanRecorder, install_recorder, uninstall_recorder

        recorder = SpanRecorder()
        install_recorder(recorder)
        try:
            outcome = execute_jobs(jobs, max_workers=max_workers)
        finally:
            uninstall_recorder()
        spans = [s for s in recorder.spans() if s["name"] == "exec.job"]
        return outcome, spans

    def test_pool_fallback_records_job_spans(self, monkeypatch):
        """A pool that cannot start runs the batch in-process through
        the same job path as the serial loop, spans included."""
        import concurrent.futures as cf

        def no_pool(*args, **kwargs):
            raise OSError("no semaphores here")

        monkeypatch.setattr(cf, "ProcessPoolExecutor", no_pool)
        outcome, spans = self.job_spans(self.jobs(2), max_workers=2)
        assert sorted(s["attrs"]["index"] for s in spans) == [0, 1]
        assert [p.source for p in outcome.profiles] == ["serial", "serial"]

    def test_in_process_retry_records_job_spans(self, monkeypatch):
        """A job whose worker fails transiently is retried in-process,
        under an exec.job span, and its profile counts the failed
        attempt."""
        import multiprocessing

        from repro.exec import pool

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers see the patched entry point only under fork")
        monkeypatch.setattr(pool, "_run_job_dict", _worker_lost)
        outcome, spans = self.job_spans(self.jobs(2), max_workers=2)
        assert sorted(s["attrs"]["index"] for s in spans) == [0, 1]
        assert [p.retries for p in outcome.profiles] == [1, 1]
        assert [p.source for p in outcome.profiles] == ["serial", "serial"]

    def test_job_timeout_error_ends_the_heartbeat_wait(self, monkeypatch):
        """A ``TimeoutError`` raised by the job is its failure (an
        ``OSError``, retried in-process), not another heartbeat slice to
        wait out again."""
        import multiprocessing

        from repro.exec import pool

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers see the patched entry point only under fork")
        monkeypatch.setattr(pool, "_run_job_dict", _worker_timed_out)
        outcome = execute_jobs(self.jobs(2), max_workers=2, heartbeat_interval=0.05)
        assert [p.retries for p in outcome.profiles] == [1, 1]

    def test_library_errors_propagate_without_retry(self, monkeypatch):
        calls = {"n": 0}

        def doomed_run(self):
            calls["n"] += 1
            raise SimulationError("deterministic failure")

        monkeypatch.setattr(JobSpec, "run", doomed_run)
        with pytest.raises(SimulationError):
            execute_jobs(self.jobs(1))
        assert calls["n"] == 1, "ReproErrors are permanent: no retry"

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_simulator_bug_runs_exactly_once(self, monkeypatch, tmp_path, max_workers):
        """An AssertionError from the simulator is a deterministic bug:
        it fails the job on its first attempt instead of being retried
        (serially, or in-process after a pool worker raised it). The
        attempts are counted through a file, which forked pool workers
        append to as well."""
        import multiprocessing

        from repro.sim.simulator import Simulator

        if max_workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers see the patched simulator only under fork")
        attempts = tmp_path / "attempts"
        real = Simulator._run_references

        def buggy(self, refs_per_core, batch):
            if self.policy.name == "exclusive":
                with open(attempts, "a") as fh:
                    fh.write("x\n")
                raise AssertionError("simulated simulator bug")
            return real(self, refs_per_core, batch)

        monkeypatch.setattr(Simulator, "_run_references", buggy)
        jobs = self.jobs(2)
        jobs[0] = JobSpec(
            system=jobs[0].system, workload=jobs[0].workload,
            policy="exclusive", refs_per_core=400,
        )
        with pytest.raises(ExecutionError) as info:
            execute_jobs(jobs, max_workers=max_workers)
        assert attempts.read_text().count("x") == 1
        assert "AssertionError" in str(info.value)


    def test_bug_mid_stream_group_keeps_the_earlier_job_cached(self, monkeypatch, tmp_path):
        """The middle job of a 3-job stream group raises a simulator
        bug: the call fails when that job is collected, once, and the
        group's first job, collected before it, is cached; nothing
        collected after it is."""
        import multiprocessing

        from repro.sim.simulator import Simulator

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers see the patched simulator only under fork")
        attempts = tmp_path / "attempts"
        real = Simulator._run_references

        def buggy(self, refs_per_core, batch):
            if self.policy.name == "exclusive":
                with open(attempts, "a") as fh:
                    fh.write("x\n")
                raise AssertionError("simulated simulator bug")
            return real(self, refs_per_core, batch)

        monkeypatch.setattr(Simulator, "_run_references", buggy)
        first, other = self.jobs(2)
        group = [JobSpec(system=first.system, workload=first.workload, policy=policy,
                         refs_per_core=400) for policy in ("lap", "exclusive", "non-inclusive")]
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ExecutionError, match="job 1 .*AssertionError"):
            execute_jobs(group + [other], max_workers=2, cache=cache)
        assert attempts.read_text().count("x") == 1
        assert cache.get(group[0]) is not None
        assert [cache.get(job) for job in group[1:] + [other]] == [None, None, None]

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_failed_job_keeps_earlier_results_cached(self, tmp_path, max_workers):
        """A job that fails at run time fails the call, but the job
        collected before it is stored in the cache first, so a rerun
        serves it instead of simulating it again."""
        good = self.jobs(1)[0]
        bad = JobSpec(
            system=small_system(), workload=WorkloadSpec.named("WL1", 2),
            policy="lap", refs_per_core=400,
        )
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ReproError, match="4 generators"):
            execute_jobs([good, bad], max_workers=max_workers, cache=cache)
        cached = cache.get(good)
        assert cached is not None
        assert cached.to_dict() == good.run().to_dict()
        assert cache.get(bad) is None


class TestSweepSpecRequirement:
    def test_closure_builders_rejected_in_parallel_mode(self):
        closure = lambda ctx: WorkloadSpec.duplicate("mcf", ncores=2).build(ctx)  # noqa: E731
        # Serial and pooled batches take the same JobSpecs, and a JobSpec
        # refuses a closure (it has no content address), so neither runs
        # one.
        with pytest.raises(ExecutionError, match="WorkloadSpec"):
            JobSpec(system=small_system(), workload=closure, policy="lap",
                    refs_per_core=400)


class TestBuilderSpecs:
    def test_builders_are_picklable_specs(self):
        import pickle

        for spec in (
            WorkloadSpec.duplicate("mcf", ncores=2),
            WorkloadSpec.mix("WH1", seed=2),
            WorkloadSpec.mix("WH1", scale=small_system().scale_context()),
        ):
            assert isinstance(spec, WorkloadSpec)
            assert pickle.loads(pickle.dumps(spec)) == spec

    def test_spec_is_callable_on_a_scale_context(self):
        system = small_system()
        wl = WorkloadSpec.duplicate("mcf", ncores=2)(system.scale_context())
        assert wl.ncores == 2
        assert wl.name == "mcfx2"

    def test_normalized_raises_analysis_error(self):
        from repro.sim.runner import normalized, run_policies

        results = run_policies(
            small_system(), ("non-inclusive", "lap"), WorkloadSpec.duplicate("mcf", ncores=2), 400
        )
        norm = normalized(results, "llc_writes")
        assert norm["non-inclusive"] == 1.0
        with pytest.raises(AnalysisError, match="missing"):
            normalized(results, "epi", baseline="nonexistent")
        with pytest.raises(AnalysisError, match="zero"):
            normalized(results, "snoop_traffic")  # zero for multiprogrammed


class TestOneRunPath:
    def test_every_grid_caller_agrees(self):
        """run_policies, execute_jobs, and serial and pooled suite runs
        (the path behind ``repro sweep``) all lower to the same
        JobSpecs, so they must return identical results."""
        from repro.sim.runner import run_policies
        from repro.suite import RECORD_METRICS

        system = small_system()
        policies = ("non-inclusive", "lap")
        spec = WorkloadSpec.named("mcf", ncores=2)
        direct = run_policies(system, policies, spec, 500)

        report = run_suite(
            BenchmarkSet(name="one", description="one member", members=("mcf",)),
            system, policies=policies, refs_per_core=500, max_workers=2,
        )
        assert report.ok
        suite = report.outcomes[0].results
        for policy in policies:
            assert result_to_dict(suite[policy]) == result_to_dict(direct[policy])

        jobs = [JobSpec(system=system, workload=spec, policy=p, refs_per_core=500)
                for p in policies]
        for max_workers in (1, 2):
            outcome = execute_jobs(jobs, max_workers=max_workers)
            assert [result_to_dict(r) for r in outcome] == [
                result_to_dict(direct[p]) for p in policies
            ]

        expected = [
            {m: float(getattr(direct[p], m)) for m in RECORD_METRICS} for p in policies
        ]
        for max_workers in (1, 2):
            records = suite_records(run_suite(
                BenchmarkSet(name="one", description="one member", members=("mcf",)),
                system, policies=policies, refs_per_core=500, max_workers=max_workers,
            ))
            assert [r.metrics for r in records] == expected
