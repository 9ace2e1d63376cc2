"""Tests for the parallel execution engine (repro.exec.pool)."""

import pytest

from repro.errors import AnalysisError, ExecutionError, ReproError, SimulationError
from repro.exec import JobSpec, ResultCache, WorkloadSpec, execute_jobs
from repro.sim import SystemConfig
from repro.sim.runner import duplicate_builder, mix_builder
from repro.sim.sweeps import Sweep


def small_system(**kwargs) -> SystemConfig:
    return SystemConfig.scaled(**{"ncores": 2, "llc_kb": 32, "l2_kb": 4, **kwargs})


def small_grid(refs=600) -> Sweep:
    """The satellite's 2-system x 2-workload x 2-policy determinism grid."""
    return Sweep(
        systems={
            "base": small_system(),
            "big": small_system(llc_kb=64, label="big"),
        },
        workloads={
            "mcf": duplicate_builder("mcf", ncores=2),
            "lbm": duplicate_builder("lbm", ncores=2, seed=3),
        },
        policies=("non-inclusive", "lap"),
        refs_per_core=refs,
    )


def _worker_lost(job):
    """Pool entry point that fails the way a lost worker does."""
    raise OSError("worker lost")


class TestDeterminism:
    def test_parallel_records_equal_serial(self):
        sweep = small_grid()
        serial = sweep.run()
        parallel = sweep.run(max_workers=4)
        assert len(serial) == sweep.size() == 8
        # same order, same labels, bit-identical metric values
        assert parallel == serial

    def test_progress_fires_in_serial_order(self):
        sweep = small_grid(refs=400)
        expected = sweep.run()
        seen = []
        sweep.run(progress=seen.append, max_workers=4)
        assert seen == expected


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
        with pytest.raises(ExecutionError):
            execute_jobs(self.jobs(1), retries=-1)

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
        closure = lambda ctx: duplicate_builder("mcf", ncores=2).build(ctx)  # noqa: E731
        sweep = Sweep(
            systems={"base": small_system()},
            workloads={"mcf": closure},
            policies=("lap",),
            refs_per_core=400,
        )
        # Serial and parallel sweeps share one engine: neither runs closures.
        for max_workers in (1, 2):
            with pytest.raises(ExecutionError, match="WorkloadSpec"):
                sweep.run(max_workers=max_workers)


class TestBuilderSpecs:
    def test_builders_are_picklable_specs(self):
        import pickle

        for spec in (
            duplicate_builder("mcf", ncores=2),
            mix_builder("WH1", seed=2),
        ):
            assert isinstance(spec, WorkloadSpec)
            assert pickle.loads(pickle.dumps(spec)) == spec

    def test_spec_is_a_workload_builder(self):
        system = small_system()
        wl = duplicate_builder("mcf", ncores=2)(system.scale_context())
        assert wl.ncores == 2
        assert wl.name == "mcfx2"

    def test_normalized_raises_analysis_error(self):
        from repro.sim.runner import normalized, run_policies

        results = run_policies(
            small_system(), ("non-inclusive", "lap"), duplicate_builder("mcf", ncores=2), 400
        )
        norm = normalized(results, "llc_writes")
        assert norm["non-inclusive"] == 1.0
        with pytest.raises(AnalysisError, match="missing"):
            normalized(results, "epi", baseline="nonexistent")
        with pytest.raises(AnalysisError, match="zero"):
            normalized(results, "snoop_traffic")  # zero for multiprogrammed


class TestOneRunPath:
    def test_every_grid_caller_agrees(self):
        """run_policies, serial and pooled Sweeps, and run_suite all lower
        to the same JobSpecs, so they must return identical results."""
        from repro.exec import result_to_dict
        from repro.sim.runner import run_policies
        from repro.sim.sweeps import RECORD_METRICS
        from repro.suite import BenchmarkSet, run_suite

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

        sweep = Sweep(systems={"s": system}, workloads={"mcf": spec},
                      policies=policies, refs_per_core=500)
        expected = [
            {m: float(getattr(direct[p], m)) for m in RECORD_METRICS} for p in policies
        ]
        for max_workers in (1, 2):
            records = sweep.run(max_workers=max_workers)
            assert [r.metrics for r in records] == expected
