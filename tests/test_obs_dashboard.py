"""Tests for the HTML dashboard, the report CLI and ``repro bench pairs``."""

import json
import pathlib

import pytest

from repro.errors import TelemetryError
from repro.obs.ledger import scan_dirs

ROOT = pathlib.Path(__file__).resolve().parent.parent


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


def pair_doc(*ratios, correct=True):
    """A BENCH_e2e.json document with one pair record per ratio."""
    return {"entries": [
        {"workload": "kernel-grid",
         "pair": {"seed": 0, "seconds": 20.0, "pairs": 10, "median_ratio": ratio,
                  "change_wins": 4, "parent_iqr": 0.05},
         "parent": {"sha": "a" * 40, "correct": True, "metrics": {}},
         "change": {"sha": "b" * 40, "dirty": False, "correct": correct, "metrics": {}},
         "host": {}}
        for ratio in ratios]}


class TestRenderDashboard:
    def test_self_contained_html_with_all_sections(self, sweep_dir):
        from repro.obs.dashboard import render_dashboard

        html = render_dashboard(
            scan_dirs([sweep_dir]),
            bench_doc=pair_doc(0.9),
            check_rows=[("inclusion", True, "ok"), ("dirty", True, "ok")],
        )
        assert html.startswith("<!DOCTYPE html>")
        for marker in (
            'class="viz-root"',
            "prefers-color-scheme: dark",
            "Policy grids",
            "Execution performance",
            "Result provenance",
            "Bench pairs",
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

        html = render_dashboard(scan_dirs([sweep_dir]), bench_doc=pair_doc(0.9, 1.2))
        assert '<span class="badge fail">✗ REGRESSION</span>' in html
        assert '<span class="badge ok">✓ ok</span>' in html
        assert "1 pair(s) regressed beyond 15%" in html


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


class TestBenchPairsCli:
    def _write(self, tmp_path, doc):
        path = tmp_path / "BENCH_e2e.json"
        path.write_text(json.dumps(doc))
        return path

    def test_committed_record_exits_zero(self, capsys):
        """The committed record's 12 pair records, ratios 0.697-1.046,
        all pass."""
        from repro.cli import main

        assert main(["bench", "pairs", str(ROOT / "BENCH_e2e.json"), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        ratios = [p["median_ratio"] for p in report["pairs"]]
        assert len(ratios) >= 12
        assert round(min(ratios[:12]), 3) == 0.697
        assert round(max(ratios[:12]), 3) == 1.046
        assert report["regressions"] == []

    def test_table_lists_every_pair(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["bench", "pairs", str(self._write(tmp_path, pair_doc(0.9, 1.05)))]) == 0
        out = capsys.readouterr().out
        assert out.count("kernel-grid/seed 0 vs aaaaaaa") == 2
        for text in ("0.900", "1.050", "0.05", "parent IQR"):
            assert text in out, text

    def test_ratio_within_tolerance_exits_zero(self, tmp_path):
        from repro.cli import main

        assert main(["bench", "pairs", str(self._write(tmp_path, pair_doc(1.128)))]) == 0

    def test_ratio_above_tolerance_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["bench", "pairs", str(self._write(tmp_path, pair_doc(1.0, 1.16)))]) == 1
        assert "median ratio 1.160 > 1.150" in capsys.readouterr().err

    def test_incorrect_change_side_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write(tmp_path, pair_doc(0.8, correct=False))
        assert main(["bench", "pairs", str(path)]) == 1
        captured = capsys.readouterr()
        assert "INCORRECT" in captured.out
        assert "change side incorrect" in captured.err

    def test_single_records_are_not_gated(self, tmp_path):
        """Single perfbench records are history: even an incorrect one
        fails no gate."""
        from repro.cli import main

        single = {"sha": "c" * 40, "workload": "kernel-grid", "trace": 0,
                  "result": {"correct": False, "metrics": {}}}
        doc = pair_doc(1.0)
        doc["entries"].insert(0, single)
        assert main(["bench", "pairs", str(self._write(tmp_path, doc))]) == 0

    def test_json_mode(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write(tmp_path, pair_doc(0.9, 1.2))
        assert main(["bench", "pairs", str(path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["threshold_pct"] == 15.0
        assert [p["verdict"] for p in report["pairs"]] == ["ok", "REGRESSION"]
        assert report["pairs"][0]["parent_iqr"] == 0.05
        assert report["regressions"] == ["kernel-grid/seed 0 vs aaaaaaa"]

    def test_default_path_is_the_e2e_record(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        self._write(tmp_path, pair_doc(0.9))
        assert main(["bench", "pairs"]) == 0
        assert "BENCH_e2e.json" in capsys.readouterr().out

    def test_missing_file_errors(self, tmp_path):
        from repro.cli import main

        assert main(["bench", "pairs", str(tmp_path / "absent.json")]) != 0

    def test_rejects_non_dict(self):
        from repro.obs.trend import bench_pairs

        with pytest.raises(TelemetryError):
            bench_pairs(["not", "a", "doc"])


class TestOneVerdict:
    """``repro report``'s bench card and ``repro bench pairs`` (the CI
    guard) give one verdict, so a pair the guard passes is never
    painted red."""

    @pytest.mark.parametrize("ratio, regressed", [(1.128, False), (1.16, True)])
    def test_dashboard_and_cli_agree(self, tmp_path, ratio, regressed):
        from repro.cli import main
        from repro.obs.dashboard import render_dashboard
        from repro.obs.ledger import RunLedger

        doc = pair_doc(ratio)
        path = tmp_path / "BENCH_e2e.json"
        path.write_text(json.dumps(doc))
        assert main(["bench", "pairs", str(path)]) == (1 if regressed else 0)
        html = render_dashboard(RunLedger(), bench_doc=doc)
        assert ("badge fail" in html) == regressed
        out = tmp_path / "report.html"
        assert main(["report", "--cache-dir", str(tmp_path), "--bench", str(path),
                     "--out", str(out), "--no-check"]) == 0
        assert ("REGRESSION" in out.read_text()) == regressed

    def test_ci_runs_the_pair_guard(self):
        ci = (ROOT / ".github/workflows/ci.yml").read_text()
        assert "python -m repro bench pairs" in ci
        assert "--fail-on-regression" not in ci
