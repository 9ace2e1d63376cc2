"""Tests for the report/validate/sweep CLI commands."""

from repro.cli import main


class TestSweepCommand:
    def test_sweep_stdout_csv(self, capsys):
        code = main([
            "sweep", "--workloads", "mcf", "--policies", "non-inclusive,lap",
            "--refs", "800", "--ncores", "2", "--llc-kb", "32", "--l2-kb", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        header, *rows = [l for l in out.splitlines() if l]
        assert header.startswith("system,workload,policy,epi")
        assert len(rows) == 2

    def test_sweep_csv_file(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--workloads", "mcf", "--policies", "lap",
            "--refs", "600", "--ncores", "2", "--llc-kb", "32", "--l2-kb", "4",
            "--output", str(out_file),
        ])
        assert code == 0
        assert out_file.exists()
        assert "lap" in out_file.read_text()

    def test_sweep_mix_and_parsec_resolution(self, capsys):
        code = main([
            "sweep", "--workloads", "dedup", "--policies", "lap",
            "--refs", "500", "--ncores", "2", "--llc-kb", "32", "--l2-kb", "4",
        ])
        assert code == 0
        assert "dedup" in capsys.readouterr().out

    def test_sweep_unknown_workload_fails(self, capsys):
        assert main(["sweep", "--workloads", "gcc", "--refs", "100"]) == 2


class TestReportCommand:
    def test_report_from_results_dir(self, capsys, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig18_mpki.txt").write_text("MPKI TABLE")
        code = main(["report", "--results-dir", str(results)])
        assert code == 0
        out = capsys.readouterr().out
        assert "MPKI TABLE" in out
        assert "**Paper:**" in out

    def test_report_to_file(self, capsys, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        target = tmp_path / "EXP.md"
        code = main([
            "report", "--results-dir", str(results), "--output", str(target)
        ])
        assert code == 0
        assert target.exists()

    def test_report_missing_dir_fails(self, capsys, tmp_path):
        assert main(["report", "--results-dir", str(tmp_path / "none")]) == 2


class TestValidateCommand:
    def test_validate_runs_and_passes(self, capsys):
        code = main([
            "validate-workloads", "--refs", "3000",
        ])
        out = capsys.readouterr().out
        assert "libquantum" in out
        assert code == 0, out


class TestExecOptions:
    SWEEP = ["sweep", "--workloads", "mcf", "--policies", "non-inclusive,lap",
             "--refs", "600", "--ncores", "2", "--llc-kb", "32", "--l2-kb", "4"]

    def test_parallel_sweep_matches_serial(self, capsys):
        assert main(self.SWEEP) == 0
        serial = capsys.readouterr().out
        assert main(["--jobs", "2"] + self.SWEEP) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_cache_dir_round_trip(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["--cache-dir", cache_dir] + self.SWEEP) == 0
        cold = capsys.readouterr()
        assert main(["--cache-dir", cache_dir] + self.SWEEP) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        stats = capsys.readouterr().out
        assert "entries" in stats and cache_dir in stats

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 2" in capsys.readouterr().out

    def test_cache_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert main(["cache", "stats"]) == 0
        assert "envcache" in capsys.readouterr().out

    def test_cache_without_dir_fails(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "stats"]) == 2
        assert "no result cache" in capsys.readouterr().err

    def test_active_cache_restored_after_command(self, monkeypatch, tmp_path):
        from repro.exec import get_active_cache

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert get_active_cache() is None
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "c")]) == 0
        assert get_active_cache() is None
