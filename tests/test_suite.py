"""Tests for the benchmark-suite layer (repro.suite)."""

import pytest

from repro.errors import AnalysisError, WorkloadError
from repro.exec.cache import ResultCache
from repro.suite import (
    BenchmarkSet,
    corpus_set,
    get_set,
    resolve,
    result_text,
    run_suite,
    set_names,
    sets,
    suite_records,
    write_result_file,
)
from repro.suite.registry import SPEC_FP, SPEC_INT
from repro.workloads import TABLE3_ORDER, TraceCorpus, benchmark_names
from repro.workloads.spec import build_benchmark


class TestRegistry:
    def test_paper_set_is_table3(self):
        assert get_set("paper").members == TABLE3_ORDER

    def test_aliases_resolve(self):
        assert get_set("table3") is get_set("paper")
        assert get_set("specint") is get_set("int")
        assert get_set("all") is get_set("spec")

    def test_int_fp_partition_the_thirteen(self):
        assert not set(SPEC_INT) & set(SPEC_FP)
        assert set(SPEC_INT) | set(SPEC_FP) == set(benchmark_names())

    def test_every_builtin_is_wellformed(self):
        for bset in sets():
            assert bset.members
            assert len(bset.member_labels()) == len(bset.members)

    def test_unknown_set_suggests_nearest(self):
        with pytest.raises(WorkloadError, match="did you mean 'paper'"):
            get_set("papr")

    def test_unknown_set_lists_valid_names(self):
        with pytest.raises(WorkloadError, match="valid sets"):
            get_set("definitely-not-a-set")

    def test_set_names_covers_builtins(self):
        names = set_names()
        for expected in ("paper", "spec", "int", "fp", "parsec"):
            assert expected in names

    def test_empty_set_rejected(self):
        with pytest.raises(WorkloadError):
            BenchmarkSet(name="empty", description="", members=())

    def test_label_member_mismatch_rejected(self):
        with pytest.raises(WorkloadError):
            BenchmarkSet(
                name="bad", description="", members=("a", "b"), labels=("only",)
            )

    def test_corpus_pseudo_set_needs_corpus(self):
        with pytest.raises(WorkloadError, match="REPRO_CORPUS_DIR"):
            resolve("corpus", corpus=None)


class TestRunSuite:
    def _tiny(self, *members, labels=None):
        return BenchmarkSet(
            name="tiny", description="test set", members=members, labels=labels
        )

    def test_run_produces_geomean_summary(self, small_system, tmp_path):
        report = run_suite(
            self._tiny("bzip2", "astar"),
            small_system,
            policies=("non-inclusive", "lap"),
            refs_per_core=1500,
        )
        assert report.ok
        summary = report.geomean_summary()
        assert summary["non-inclusive"]["epi"] == pytest.approx(1.0)
        assert 0 < summary["lap"]["epi"] < 2.0

    def test_error_surfacing_keeps_suite_alive(self, small_system):
        report = run_suite(
            self._tiny("bzip2", "no-such-benchmark"),
            small_system,
            policies=("lap",),
            refs_per_core=1000,
        )
        assert not report.ok
        assert len(report.failures) == 1
        assert report.failures[0].benchmark == "no-such-benchmark"
        assert "unknown benchmark" in report.failures[0].error
        assert len(report.succeeded) == 1  # bzip2 still ran

    def test_cache_warm_rerun_simulates_nothing(self, small_system, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        kwargs = dict(
            policies=("non-inclusive", "lap"), refs_per_core=1000, cache=cache
        )
        cold = run_suite(self._tiny("bzip2", "mcf"), small_system, **kwargs)
        assert cold.cache_hits == 0 and cold.simulated == 4
        warm = run_suite(self._tiny("bzip2", "mcf"), small_system, **kwargs)
        assert warm.cache_hits == 4 and warm.simulated == 0
        # identical results either way
        assert (
            warm.outcomes[0].results["lap"].llc_writes
            == cold.outcomes[0].results["lap"].llc_writes
        )
        assert (tmp_path / "cache" / "manifest.json").exists()

    def test_invalid_policy_rejected_up_front(self, small_system):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown policy"):
            run_suite(
                self._tiny("bzip2"), small_system, policies=("not-a-policy",)
            )

    def test_no_policies_rejected(self, small_system):
        with pytest.raises(AnalysisError):
            run_suite(self._tiny("bzip2"), small_system, policies=())

    def test_all_failed_geomean_raises(self, small_system):
        report = run_suite(
            self._tiny("nope1", "nope2"), small_system, policies=("lap",)
        )
        with pytest.raises(AnalysisError):
            report.geomean_summary()

    def test_whole_set_runs_as_one_batch(self, small_system):
        from repro.exec import result_to_dict
        from repro.exec.jobs import WorkloadSpec
        from repro.obs.spans import SpanRecorder, install_recorder, uninstall_recorder
        from repro.sim.runner import run_policies

        members, policies = ("bzip2", "mcf", "astar"), ("non-inclusive", "lap")
        recorder = SpanRecorder()
        install_recorder(recorder)
        try:
            report = run_suite(
                self._tiny(*members), small_system, policies=policies,
                refs_per_core=500, max_workers=2,
            )
        finally:
            uninstall_recorder()
        batches = [s for s in recorder.spans() if s["name"] == "exec.batch"]
        assert len(batches) == 1 and batches[0]["attrs"]["jobs"] == 6
        assert report.ok
        assert [(p.workload, p.policy) for p in report.profiles] == [
            (f"{m}x2", p) for m in members for p in policies
        ]
        for member, outcome in zip(members, report.outcomes):
            direct = run_policies(
                small_system, policies, WorkloadSpec.named(member, 2), 500
            )
            for policy in policies:
                assert result_to_dict(outcome.results[policy]) == result_to_dict(
                    direct[policy]
                )
        assert sum(o.wall_s for o in report.outcomes) <= report.wall_s

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_runtime_failure_is_attributed_to_its_member(
        self, small_system, max_workers
    ):
        from repro.exec import result_to_dict
        from repro.exec.jobs import WorkloadSpec
        from repro.sim.runner import run_policies

        policies = ("non-inclusive", "lap")
        lines = []
        report = run_suite(
            self._tiny("bzip2", "WL1"), small_system, policies=policies,
            refs_per_core=500, max_workers=max_workers, progress=lines.append,
        )
        bzip2, wl1 = report.outcomes
        assert not wl1.ok
        assert "workload has 4 generators but the system has 2 cores" in wl1.error
        assert bzip2.ok
        direct = run_policies(small_system, policies, WorkloadSpec.named("bzip2", 2), 500)
        for policy in policies:
            assert result_to_dict(bzip2.results[policy]) == result_to_dict(direct[policy])
        assert [p.workload for p in report.profiles] == ["bzip2x2", "bzip2x2"]
        assert [line.split(":")[0] for line in lines] == ["bzip2", "WL1"]
        assert "FAILED" in lines[1]

    def test_runtime_failure_simulates_healthy_jobs_once(self, small_system, tmp_path):
        """The failed batch caches the jobs it finished, so the
        per-member rerun serves the healthy member from the cache:
        each of its jobs runs under exactly one ``exec.job`` span."""
        from repro.obs.spans import SpanRecorder, install_recorder, uninstall_recorder

        recorder = SpanRecorder()
        install_recorder(recorder)
        try:
            report = run_suite(
                self._tiny("bzip2", "WL1"), small_system,
                policies=("non-inclusive", "lap"), refs_per_core=500,
                cache=ResultCache(tmp_path / "cache"),
            )
        finally:
            uninstall_recorder()
        bzip2, wl1 = report.outcomes
        assert bzip2.ok and not wl1.ok
        runs = [
            s["attrs"]["policy"] for s in recorder.spans()
            if s["name"] == "exec.job" and s["attrs"]["workload"] == "bzip2x2"
        ]
        assert sorted(runs) == ["lap", "non-inclusive"]

    def test_batch_failure_that_does_not_recur_is_raised(
        self, small_system, monkeypatch
    ):
        """A failed batch whose members all pass alone is never a success."""
        from repro.errors import ExecutionError
        from repro.suite import runner

        calls, real = [], runner.execute_jobs

        def flaky(jobs, **kwargs):
            calls.append(len(jobs))
            if len(calls) == 1:
                raise ExecutionError("batch broke")
            return real(jobs, **kwargs)

        monkeypatch.setattr(runner, "execute_jobs", flaky)
        with pytest.raises(ExecutionError, match="batch broke"):
            run_suite(
                self._tiny("bzip2", "mcf"), small_system, policies=("lap",),
                refs_per_core=500,
            )
        assert calls == [2, 1, 1]  # the batch, then each member alone

    def test_unknown_set_name_from_runner(self, small_system):
        with pytest.raises(WorkloadError, match="valid sets"):
            run_suite("no-such-set", small_system)


class TestTraceSuite:
    @pytest.fixture
    def stocked_corpus(self, tmp_path, small_system):
        corpus = TraceCorpus(tmp_path / "corpus", create=True)
        ctx = small_system.scale_context()
        for bench in ("bzip2", "mcf"):
            corpus.capture(
                build_benchmark(bench, ctx, seed=1), 2048, name=bench
            )
        return corpus

    def test_corpus_set_runs_through_exec(self, small_system, stocked_corpus):
        report = run_suite(
            "corpus",
            small_system,
            policies=("non-inclusive", "lap"),
            refs_per_core=1024,
            corpus=stocked_corpus,
        )
        assert report.ok
        assert [o.benchmark for o in report.outcomes] == ["bzip2", "mcf"]

    def test_corpus_set_cache_keys_by_digest(
        self, small_system, stocked_corpus, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        kwargs = dict(policies=("lap",), refs_per_core=1024, cache=cache)
        cold = run_suite(
            corpus_set(stocked_corpus), small_system,
            corpus=stocked_corpus, **kwargs,
        )
        warm = run_suite(
            corpus_set(stocked_corpus), small_system,
            corpus=stocked_corpus, **kwargs,
        )
        assert cold.simulated == 2
        assert warm.cache_hits == 2 and warm.simulated == 0

    def test_corpus_set_labels_are_names(self, stocked_corpus):
        cs = corpus_set(stocked_corpus)
        assert cs.member_labels() == ("bzip2", "mcf")
        assert all(len(m) == 64 for m in cs.members)  # digests underneath


class TestReporting:
    @pytest.fixture
    def report(self, small_system):
        return run_suite(
            BenchmarkSet(
                name="tiny", description="", members=("bzip2", "nope")
            ),
            small_system,
            policies=("non-inclusive", "lap"),
            refs_per_core=1000,
        )

    def test_result_text_includes_summary_and_failures(self, report):
        text = result_text(report)
        assert "geomean ratios" in text
        assert "FAILED nope" in text
        assert "job(s)" in text

    def test_suite_records_skip_failures(self, report):
        records = suite_records(report)
        assert len(records) == 2  # bzip2 x two policies
        assert {r.policy for r in records} == {"non-inclusive", "lap"}
        assert all(r.workload == "bzip2" for r in records)

    def test_write_result_file(self, report, tmp_path):
        path = write_result_file(report, tmp_path / "results")
        assert path.name == "suite_geomean.txt"
        assert "geomean ratios" in path.read_text()
