"""Tests for the HTML dashboard, bench trend, and the report CLI."""

import json

import pytest

from repro.errors import TelemetryError
from repro.obs.ledger import scan_dirs
from repro.obs.trend import TrendCell, bench_trend, regressions, trend_rows


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


def bench_doc(latest=900.0, prior=(1000.0, 800.0)):
    """A minimal schema-2 bench document with one (lap, soa) cell."""
    entries = [
        {"timestamp": f"2026-08-0{i + 1}T00:00:00Z",
         "accesses_per_sec": {"lap": {"soa": value}}}
        for i, value in enumerate([*prior, latest])
    ]
    return {"schema": 2, "entries": entries}


class TestTrend:
    def test_best_prior_is_max_not_previous(self):
        cells = bench_trend(bench_doc(latest=900.0, prior=(1000.0, 800.0)))
        (cell,) = cells
        assert cell.latest == 900.0
        assert cell.best_prior == 1000.0, "a slow middle entry must not reset it"
        assert cell.delta_pct == pytest.approx(-10.0)

    def test_regression_threshold_semantics(self):
        cell = TrendCell("lap", "soa",
                         series=[("t0", 1000.0), ("t1", 900.0)])
        assert not cell.regressed(10.0), "-10% is within a 10% tolerance"
        assert cell.regressed(5.0)
        assert regressions([cell], 5.0) == [cell]
        assert regressions([cell], 15.0) == []

    def test_single_entry_has_no_baseline(self):
        cell = TrendCell("lap", "soa", series=[("t0", 1000.0)])
        assert cell.best_prior is None
        assert cell.delta_pct is None
        assert not cell.regressed(0.0)

    def test_legacy_v1_record_contributes_object_points(self):
        doc = {
            "schema": 2,
            "legacy": {"timestamp": "old",
                       "accesses_per_sec": {"lap": 500.0}},
            "entries": [{"timestamp": "new",
                         "accesses_per_sec": {"lap": {"object": 600.0}}}],
        }
        (cell,) = bench_trend(doc)
        assert (cell.policy, cell.backend) == ("lap", "object")
        assert cell.series == [("old", 500.0), ("new", 600.0)]

    def test_instrumentation_axis_continues_pre_axis_history(self):
        """Entries from before the instrumentation axis were probe-free:
        their cells continue as ``none``; ``default`` cells start fresh."""
        doc = {
            "schema": 2,
            "entries": [
                {"timestamp": "old", "accesses_per_sec": {"lap": {"soa": 1000.0}}},
                {"timestamp": "new", "instrumentation": ["default", "none"],
                 "accesses_per_sec": {"default": {"lap": {"soa": 800.0}},
                                      "none": {"lap": {"soa": 950.0}}}},
            ],
        }
        cells = {c.label: c for c in bench_trend(doc)}
        assert set(cells) == {"lap/soa/default", "lap/soa/none"}
        assert cells["lap/soa/none"].series == [("old", 1000.0), ("new", 950.0)]
        assert cells["lap/soa/default"].series == [("new", 800.0)]
        assert regressions(list(cells.values()), 10.0) == []
        assert regressions(list(cells.values()), 4.0) == [cells["lap/soa/none"]]

    def test_host_readings_normalise_comparisons_between_entries(self):
        """Two entries that both carry host-speed readings compare by
        rate x reading: a slower raw rate taken while the host ran at
        half speed is no regression, and a faster raw rate taken at a
        faster host speed can still be one."""

        def entry(stamp, rate, ref):
            return {"timestamp": stamp, "instrumentation": ["none"],
                    "accesses_per_sec": {"none": {"lap": {"soa": rate}}},
                    "host_ref_ms": {"none": {"lap": {"soa": ref}}}}

        (cell,) = bench_trend({"schema": 2, "entries": [
            entry("t0", 1000.0, 5.0), entry("t1", 520.0, 10.0)]})
        assert cell.refs == [5.0, 10.0]
        assert cell.basis == "host-normalised"
        assert cell.delta_pct == pytest.approx(4.0)
        assert regressions([cell], 15.0) == []

        (cell,) = bench_trend({"schema": 2, "entries": [
            entry("t0", 1000.0, 10.0), entry("t1", 1100.0, 5.0)]})
        assert cell.delta_pct == pytest.approx(-45.0)
        assert regressions([cell], 15.0) == [cell]
        assert trend_rows([cell], 15.0)[0][-1] == "-45.0% (host-normalised) REGRESSION"

    def test_raw_comparison_stands_against_entries_without_readings(self):
        """A reading on the latest entry cannot excuse it against older
        entries that have none: those keep the raw comparison, and the
        cell reports the worse of the two."""
        doc = {"schema": 2, "entries": [
            {"timestamp": "old", "accesses_per_sec": {"lap": {"soa": 1000.0}}},
            {"timestamp": "mid", "instrumentation": ["none"],
             "accesses_per_sec": {"none": {"lap": {"soa": 600.0}}},
             "host_ref_ms": {"none": {"lap": {"soa": 10.0}}}},
            {"timestamp": "new", "instrumentation": ["none"],
             "accesses_per_sec": {"none": {"lap": {"soa": 800.0}}},
             "host_ref_ms": {"none": {"lap": {"soa": 9.0}}}},
        ]}
        (cell,) = bench_trend(doc)
        assert cell.refs == [None, 10.0, 9.0]
        assert cell.basis == "raw"
        assert cell.delta_pct == pytest.approx(-20.0)
        assert cell.as_dict()["series"][0]["host_ref_ms"] is None

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
        assert entry["backends"] == ["object"]
        refs = entry["host_ref_ms"]
        assert set(refs) == set(entry["accesses_per_sec"]) == {"default", "none"}
        for spec in refs:
            assert set(refs[spec]) == {"lap"}
            assert set(refs[spec]["lap"]) == {"object"}
            assert refs[spec]["lap"]["object"] > 0
        if cpus is not None:
            assert os.sched_getaffinity(0) == cpus, "CPU set must be restored"
        (default, none) = sorted(bench_trend({"schema": 2, "entries": [entry]}),
                                 key=lambda c: c.instrumentation)
        assert default.refs == [refs["default"]["lap"]["object"]]


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
            "Hot-path bench trend",
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
    def _write(self, tmp_path, doc):
        path = tmp_path / "BENCH_hotpath.json"
        path.write_text(json.dumps(doc))
        return path

    def test_trend_table_exit_zero(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write(tmp_path, bench_doc())
        rc = main(["bench", "trend", "--out", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lap" in out and "soa" in out

    def test_trend_fail_on_regression_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write(tmp_path, bench_doc(latest=500.0, prior=(1000.0,)))
        rc = main(["bench", "trend", "--out", str(path),
                   "--fail-on-regression", "10"])
        assert rc == 1
        assert "regressed" in capsys.readouterr().err

    def test_trend_within_tolerance_exits_zero(self, tmp_path):
        from repro.cli import main

        path = self._write(tmp_path, bench_doc(latest=950.0, prior=(1000.0,)))
        rc = main(["bench", "trend", "--out", str(path),
                   "--fail-on-regression", "10"])
        assert rc == 0

    def test_trend_json_mode(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write(tmp_path, bench_doc())
        rc = main(["bench", "trend", "--out", str(path), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cells"][0]["policy"] == "lap"
        assert doc["cells"][0]["latest"] == 900.0

    def test_trend_missing_file_errors(self, tmp_path):
        from repro.cli import main

        rc = main(["bench", "trend", "--out", str(tmp_path / "absent.json")])
        assert rc != 0
