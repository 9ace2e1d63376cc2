"""Tests for the experiment-report assembler and workload validation."""

import pytest

from repro.analysis.report import EXPERIMENT_INDEX, assemble_report
from repro.errors import AnalysisError
from repro.workloads.validation import (
    TraitReport,
    measure_benchmark,
    validate_all,
    violations,
)


class TestReportAssembly:
    def test_index_covers_every_paper_artifact(self):
        ids = {e.experiment_id for e in EXPERIMENT_INDEX}
        for table in ("Table I", "Table II", "Table III", "Table IV"):
            assert table in ids
        for fig in (2, 4, 6, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25):
            assert f"Fig. {fig}" in ids

    def test_index_entries_unique(self):
        files = [e.result_file for e in EXPERIMENT_INDEX]
        assert len(files) == len(set(files))

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(AnalysisError):
            assemble_report(tmp_path / "nope")

    def test_partial_results_marked(self, tmp_path):
        (tmp_path / "fig18_mpki.txt").write_text("mpki table here")
        report = assemble_report(tmp_path)
        assert "mpki table here" in report
        assert "Not yet regenerated" in report

    def test_paper_claims_always_present(self, tmp_path):
        report = assemble_report(tmp_path_with_nothing(tmp_path))
        assert report.count("**Paper:**") == len(EXPERIMENT_INDEX)

    def test_preamble_included(self, tmp_path):
        report = assemble_report(tmp_path_with_nothing(tmp_path), preamble="HELLO")
        assert "HELLO" in report


def tmp_path_with_nothing(tmp_path):
    tmp_path.mkdir(exist_ok=True)
    return tmp_path


class TestWorkloadValidation:
    @pytest.fixture(scope="class")
    def reports(self):
        from repro.sim import SystemConfig

        system = SystemConfig.scaled()
        return validate_all(system, refs=4000)

    def test_every_benchmark_measured(self, reports):
        assert len(reports) == 13

    def test_no_trait_violations(self, reports):
        assert violations(reports) == {}

    def test_report_fields_sane(self, reports):
        for r in reports.values():
            assert 0 <= r.loop_fraction <= 1
            assert 0 <= r.redundant_fill_fraction <= 1
            assert r.mrel > 0 and r.wrel > 0

    def test_loop_heavy_benchmarks_measure_loopy(self, reports):
        assert reports["omnetpp"].loop_fraction > reports["lbm"].loop_fraction

    def test_single_measurement(self):
        report = measure_benchmark("libquantum", refs=3000)
        assert isinstance(report, TraitReport)
        assert report.redundant_fill_fraction > 0.5
        assert report.ok

    def test_violation_detection_mechanism(self):
        # Construct a report with a violation directly and check `ok`.
        bad = TraitReport(
            benchmark="x",
            loop_fraction=0.0,
            redundant_fill_fraction=0.0,
            mrel=1.0,
            wrel=1.0,
            declared_traits=frozenset(),
            violations=("declared loop-heavy but measured loop fraction 0.00",),
        )
        assert not bad.ok
        assert violations({"x": bad}) == {"x": bad.violations}


class TestIndexHarnessConsistency:
    """Every harness benchmark's emitted artefact must be indexed in the
    experiment record, and every indexed artefact must have a producer."""

    def _emitted_names(self):
        import pathlib
        import re

        bench_dir = pathlib.Path(__file__).parent.parent / "benchmarks"
        names = set()
        for path in bench_dir.glob("test_*.py"):
            names |= set(re.findall(r'emit\(\s*"([a-z0-9_]+)"', path.read_text()))
        return names

    def test_every_emitted_artifact_is_indexed(self):
        indexed = {e.result_file for e in EXPERIMENT_INDEX}
        missing = self._emitted_names() - indexed
        assert not missing, f"benchmarks emit unindexed artefacts: {missing}"

    def test_every_indexed_artifact_has_a_producer(self):
        emitted = self._emitted_names()
        orphans = {e.result_file for e in EXPERIMENT_INDEX} - emitted
        assert not orphans, f"index entries without benchmarks: {orphans}"
