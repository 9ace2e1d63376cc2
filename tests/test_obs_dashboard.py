"""Tests for the HTML dashboard, bench trend, and the report CLI."""

import json

import pytest

from repro.errors import TelemetryError
from repro.obs.ledger import scan_dirs
from repro.obs.trend import Series, bench_trend, regressions, trend_rows


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    """One tiny real sweep shared by the rendering tests."""
    from repro.exec import JobSpec, ResultCache, WorkloadSpec, execute_jobs
    from repro.sim import SystemConfig

    root = tmp_path_factory.mktemp("sweep")
    jobs = [
        JobSpec(
            system=SystemConfig.scaled(ncores=2, llc_kb=32, l2_kb=4),
            workload=WorkloadSpec.duplicate("mcf", ncores=2, seed=0),
            policy=policy,
            refs_per_core=300,
        )
        for policy in ("non-inclusive", "lap")
    ]
    execute_jobs(jobs, cache=ResultCache(root), manifest_dir=root)
    return root


def hotpath_entry(stamp, rate, ref=1.0, policy="lap", path="kernel", spec="none"):
    """One path-keyed BENCH_hotpath.json entry with a single cell."""
    return {"timestamp": stamp, "paths": [path], "instrumentation": [spec],
            "accesses_per_sec": {spec: {policy: {path: rate}}},
            "host_ref_ms": {spec: {policy: {path: ref}}}}


def bench_doc(latest=900.0, prior=(1000.0, 800.0)):
    """A hot-path document with one (lap, kernel, none) series."""
    rates = [*prior, latest]
    return {"entries": [hotpath_entry(f"2026-08-0{i + 1}T00:00:00Z", rate)
                        for i, rate in enumerate(rates)]}


def e2e_record(workload, wall, seed=0, trace=0, correct=True, sha="a" * 40):
    """One BENCH_e2e.json record; ``seed=None`` leaves the key out."""
    record = {"sha": sha, "dirty": False, "workload": workload, "trace": trace,
              "seconds": 20, "host": {},
              "result": {"correct": correct, "attempted": 1, "failed": 0,
                         "metrics": {"norm_wall_s": {"value": wall, "unit": "s"}}}}
    if seed is not None:
        record["seed"] = seed
    return record


class TestTrend:
    def test_best_prior_is_max_not_previous(self):
        cells = bench_trend(bench_doc(latest=900.0, prior=(1000.0, 800.0)))
        (cell,) = cells
        assert cell.key == ("lap", "kernel", "none")
        assert cell.latest == 900.0
        assert cell.best_prior == 1000.0, "a slow middle entry must not reset it"
        assert cell.delta_pct == pytest.approx(-10.0)

    def test_regression_threshold_semantics(self):
        cell = Series(("lap", "kernel", "none"), "higher",
                      points=[("t0", 1000.0), ("t1", 900.0)])
        assert not cell.regressed(10.0), "-10% is within a 10% tolerance"
        assert cell.regressed(5.0)
        assert regressions([cell], 5.0) == [cell]
        assert regressions([cell], 15.0) == []
        slower = Series(("kernel-grid", "seed 0"), "lower",
                        points=[("t0", 100.0), ("t1", 110.0)])
        assert not slower.regressed(10.0), "+10% is within a 10% tolerance"
        assert slower.regressed(5.0)

    def test_single_entry_has_no_baseline(self):
        cell = Series(("lap", "kernel", "none"), "higher",
                      points=[("t0", 1000.0)])
        assert cell.best_prior is None
        assert cell.delta_pct is None
        assert not cell.regressed(0.0)

    def test_host_readings_normalise_comparisons_between_entries(self):
        """Points compare by rate x reading: a slower raw rate taken
        while the host ran at half speed is no regression, and a faster
        raw rate taken at a faster host speed can still be one."""
        (cell,) = bench_trend({"entries": [
            hotpath_entry("t0", 1000.0, 5.0), hotpath_entry("t1", 520.0, 10.0)]})
        assert cell.points == [("t0", 5000.0), ("t1", 5200.0)]
        assert cell.delta_pct == pytest.approx(4.0)
        assert regressions([cell], 15.0) == []

        (cell,) = bench_trend({"entries": [
            hotpath_entry("t0", 1000.0, 10.0), hotpath_entry("t1", 1100.0, 5.0)]})
        assert cell.delta_pct == pytest.approx(-45.0)
        assert regressions([cell], 15.0) == [cell]
        assert trend_rows([cell], 15.0)[0][-1] == "-45.0% REGRESSION"

    def test_hotpath_series_per_policy_path_and_instrumentation(self):
        entry = {"timestamp": "t0", "paths": ["kernel", "generic"],
                 "instrumentation": ["default", "none"],
                 "accesses_per_sec": {s: {"lap": {"kernel": 300.0, "generic": 100.0}}
                                      for s in ("default", "none")},
                 "host_ref_ms": {s: {"lap": {"kernel": 2.0, "generic": 3.0}}
                                 for s in ("default", "none")}}
        cells = {c.label: c for c in bench_trend({"entries": [entry]})}
        assert set(cells) == {"lap/generic/default", "lap/generic/none",
                              "lap/kernel/default", "lap/kernel/none"}
        assert cells["lap/generic/none"].points == [("t0", 300.0)]
        assert {c.better for c in cells.values()} == {"higher"}

    def test_frozen_history_is_not_read(self):
        """The legacy record and entries from before the path axis are
        history the trend leaves alone: only path-keyed entries count."""
        doc = {
            "schema": 2,
            "legacy": {"accesses_per_sec": {"lap": 500.0}},
            "entries": [
                {"timestamp": "old", "backends": ["object", "soa"],
                 "accesses_per_sec": {"lap": {"object": 1e6, "soa": 1e6}}},
                {"timestamp": "mid", "backends": ["object"],
                 "instrumentation": ["none"],
                 "accesses_per_sec": {"none": {"lap": {"object": 1e6}}},
                 "host_ref_ms": {"none": {"lap": {"object": 9.0}}}},
                hotpath_entry("new", 600.0, 2.0),
            ],
        }
        (cell,) = bench_trend(doc)
        assert cell.points == [("new", 1200.0)]
        assert regressions([cell], 0.0) == []

    def test_e2e_series_regresses_when_norm_wall_rises_beyond_pct(self):
        doc = {"entries": [e2e_record("kernel-grid", 2.0, sha="1" * 40),
                           e2e_record("kernel-grid", 1.8, sha="2" * 40),
                           e2e_record("kernel-grid", 2.1, sha="3" * 40)]}
        (cell,) = bench_trend(doc)
        assert cell.key == ("kernel-grid", "seed 0")
        assert cell.better == "lower"
        assert cell.points == [("1111111", 2.0), ("2222222", 1.8), ("3333333", 2.1)]
        assert cell.best_prior == 1.8, "lower is better: the best prior is the min"
        assert cell.delta_pct == pytest.approx(16.667, abs=1e-3)
        assert regressions([cell], 15.0) == [cell]
        assert regressions([cell], 20.0) == []

    def test_e2e_seedless_records_join_seed_zero(self):
        doc = {"entries": [e2e_record("suite-paper", 1.0, seed=None),
                           e2e_record("suite-paper", 1.1, seed=0),
                           e2e_record("suite-paper", 5.0, seed=7919)]}
        cells = {c.label: c for c in bench_trend(doc)}
        assert set(cells) == {"suite-paper/seed 0", "suite-paper/seed 7919"}
        assert [v for _, v in cells["suite-paper/seed 0"].points] == [1.0, 1.1]

    def test_e2e_traced_records_are_ignored(self):
        doc = {"entries": [e2e_record("parsec-coherent", 1.0),
                           e2e_record("parsec-coherent", 9.0, trace=1),
                           e2e_record("parsec-coherent", 1.05)]}
        (cell,) = bench_trend(doc)
        assert [v for _, v in cell.points] == [1.0, 1.05]
        assert regressions([cell], 15.0) == []

    def test_e2e_incorrect_latest_record_fails_the_gate(self):
        doc = {"entries": [e2e_record("kernel-grid", 2.0),
                           e2e_record("kernel-grid", 1.0, correct=False)]}
        (cell,) = bench_trend(doc)
        assert not cell.ok
        assert [v for _, v in cell.points] == [2.0], "an incorrect run adds no point"
        assert regressions([cell], 15.0) == [cell]
        assert trend_rows([cell], 15.0)[0][-1] == "- INCORRECT"
        doc["entries"].append(e2e_record("kernel-grid", 2.1))
        (cell,) = bench_trend(doc)
        assert cell.ok and regressions([cell], 15.0) == []

    def test_trend_rows_flag_regressions(self):
        cells = bench_trend(bench_doc(latest=500.0, prior=(1000.0,)))
        rows = trend_rows(cells, 10.0)
        assert rows[0][-1] == "-50.0% REGRESSION"
        rows = trend_rows(cells, None)
        assert rows[0][-1] == "-50.0%"

    def test_rejects_non_dict(self):
        with pytest.raises(TelemetryError):
            bench_trend(["not", "a", "doc"])


class TestBenchEntry:
    def test_entry_records_a_host_reading_per_cell(self):
        import os

        from repro.bench import run_hotpath_bench

        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        entry = run_hotpath_bench(("lap",), refs_per_core=200, reps=1)
        assert entry["paths"] == ["kernel", "generic"]
        refs = entry["host_ref_ms"]
        assert set(refs) == set(entry["accesses_per_sec"]) == {"default", "none"}
        for spec in refs:
            assert set(refs[spec]) == {"lap"}
            assert set(refs[spec]["lap"]) == {"kernel", "generic"}
            assert set(entry["accesses_per_sec"][spec]["lap"]) == {"kernel", "generic"}
            assert min(refs[spec]["lap"].values()) > 0
        if cpus is not None:
            assert os.sched_getaffinity(0) == cpus, "CPU set must be restored"
        cells = {c.label: c for c in bench_trend({"entries": [entry]})}
        assert len(cells) == 4
        rate = entry["accesses_per_sec"]["default"]["lap"]["generic"]
        assert cells["lap/generic/default"].points[0][1] == pytest.approx(
            rate * refs["default"]["lap"]["generic"])


class TestRenderDashboard:
    def test_self_contained_html_with_all_sections(self, sweep_dir):
        from repro.obs.dashboard import render_dashboard

        html = render_dashboard(
            scan_dirs([sweep_dir]),
            bench_doc=bench_doc(),
            check_rows=[("inclusion", True, "ok"), ("dirty", True, "ok")],
        )
        assert html.startswith("<!DOCTYPE html>")
        for marker in (
            'class="viz-root"',
            "prefers-color-scheme: dark",
            "Policy grids",
            "Execution performance",
            "Result provenance",
            "Bench trend",
            "Energy per instruction",
        ):
            assert marker in html, marker
        # Self-contained: no external fetches of any kind.
        for banned in ("http://", "https://", "<script src", "<link "):
            assert banned not in html, banned

    def test_check_badges_render_pass_and_fail(self, sweep_dir):
        from repro.obs.dashboard import render_dashboard

        html = render_dashboard(
            scan_dirs([sweep_dir]),
            check_rows=[("inclusion", True, "ok"),
                        ("dirty<loss>", False, "bad & wrong")],
        )
        assert "✓" in html and "✗" in html
        assert "FAIL" in html
        # attrs reach the page escaped, never raw
        assert "dirty<loss>" not in html
        assert "dirty&lt;loss&gt;" in html

    def test_renders_without_bench_or_checks(self, sweep_dir):
        from repro.obs.dashboard import render_dashboard

        html = render_dashboard(scan_dirs([sweep_dir]))
        assert "<!DOCTYPE html>" in html
        assert "Policy grids" in html

    def test_renders_empty_ledger(self):
        from repro.obs.dashboard import render_dashboard
        from repro.obs.ledger import RunLedger

        html = render_dashboard(RunLedger())
        assert "<!DOCTYPE html>" in html

    def test_bench_regression_is_highlighted(self, sweep_dir):
        from repro.obs.dashboard import render_dashboard

        html = render_dashboard(
            scan_dirs([sweep_dir]),
            bench_doc=bench_doc(latest=500.0, prior=(1000.0,)),
            regression_pct=10.0,
        )
        assert "-50.0%" in html


class TestReportCli:
    def test_report_html_end_to_end(self, sweep_dir, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.html"
        rc = main([
            "report", "--cache-dir", str(sweep_dir),
            "--out", str(out), "--no-check",
        ])
        assert rc == 0
        html = out.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "Policy grids" in html
        assert "lap" in html

    def test_report_writes_ledger_json(self, sweep_dir, tmp_path):
        from repro.cli import main

        out = tmp_path / "report.html"
        ledger_path = tmp_path / "ledger.json"
        rc = main([
            "report", "--cache-dir", str(sweep_dir),
            "--out", str(out), "--no-check",
            "--ledger", str(ledger_path),
        ])
        assert rc == 0
        doc = json.loads(ledger_path.read_text())
        assert doc["kind"] == "repro-ledger"
        assert doc["totals"]["rows"] == 2

    def test_report_without_dirs_or_cache_errors(self, monkeypatch, tmp_path):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        rc = main(["report", "--out", str(tmp_path / "r.html")])
        assert rc != 0

    def test_report_markdown_mode_untouched(self, tmp_path, capsys):
        """The legacy `repro report` (no --out/--cache-dir) still builds
        the markdown experiment record."""
        from repro.cli import main

        results = tmp_path / "results"
        results.mkdir()
        rc = main(["report", "--results-dir", str(results)])
        assert rc == 0
        assert "#" in capsys.readouterr().out


class TestBenchTrendCli:
    def _write(self, tmp_path, doc, name="BENCH_hotpath.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return path

    def test_trend_table_exit_zero(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write(tmp_path, bench_doc())
        rc = main(["bench", "trend", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lap/kernel/none" in out

    def test_trend_fail_on_regression_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write(tmp_path, bench_doc(latest=500.0, prior=(1000.0,)))
        rc = main(["bench", "trend", str(path), "--fail-on-regression", "10"])
        assert rc == 1
        assert "regressed" in capsys.readouterr().err

    def test_trend_within_tolerance_exits_zero(self, tmp_path):
        from repro.cli import main

        path = self._write(tmp_path, bench_doc(latest=950.0, prior=(1000.0,)))
        rc = main(["bench", "trend", str(path), "--fail-on-regression", "10"])
        assert rc == 0

    def test_trend_json_mode(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write(tmp_path, bench_doc())
        rc = main(["bench", "trend", str(path), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["series"][0]["key"] == ["lap", "kernel", "none"]
        assert doc["series"][0]["latest"] == 900.0

    def test_trend_missing_file_errors(self, tmp_path):
        from repro.cli import main

        rc = main(["bench", "trend", str(tmp_path / "absent.json")])
        assert rc != 0

    def test_e2e_record_gate(self, tmp_path, capsys):
        from repro.cli import main

        doc = {"entries": [e2e_record("kernel-grid", 2.0), e2e_record("kernel-grid", 2.2)]}
        path = self._write(tmp_path, doc, "BENCH_e2e.json")
        assert main(["bench", "trend", str(path), "--fail-on-regression", "15"]) == 0
        assert "kernel-grid/seed 0" in capsys.readouterr().out
        doc["entries"][-1]["result"]["metrics"]["norm_wall_s"]["value"] = 2.4
        self._write(tmp_path, doc, "BENCH_e2e.json")
        assert main(["bench", "trend", str(path), "--fail-on-regression", "15"]) == 1
        assert main(["bench", "trend", str(path), "--json"]) == 0

    def test_committed_records_pass_the_ci_gate(self, tmp_path, capsys):
        """Both committed records pass at CI's 15%; the e2e one fails
        once its latest kernel-grid seed-7919 run is 20% slower."""
        import pathlib

        from repro.cli import main

        root = pathlib.Path(__file__).resolve().parent.parent
        for name in ("BENCH_hotpath.json", "BENCH_e2e.json"):
            assert main(["bench", "trend", str(root / name),
                         "--fail-on-regression", "15"]) == 0, name
        doc = json.loads((root / "BENCH_e2e.json").read_text())
        latest = [r for r in doc["entries"] if r["workload"] == "kernel-grid"
                  and r.get("seed") == 7919 and r["trace"] == 0][-1]
        latest["result"]["metrics"]["norm_wall_s"]["value"] *= 1.2
        path = self._write(tmp_path, doc, "BENCH_e2e.json")
        assert main(["bench", "trend", str(path), "--fail-on-regression", "15"]) == 1
        assert "kernel-grid/seed 7919" in capsys.readouterr().err
