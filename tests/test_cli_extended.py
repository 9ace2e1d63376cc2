"""Tests for the report/validate/sweep CLI commands."""

import csv
import io

import pytest

from repro.cli import main
from repro.exec import JobSpec, WorkloadSpec, execute_jobs
from repro.sim import SystemConfig
from repro.suite import RECORD_METRICS

SMALL = ["--ncores", "4", "--llc-kb", "32", "--l2-kb", "4"]


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

    def test_every_row_is_its_jobspec(self, capsys):
        """Each CSV row carries the numbers of the job its labels name:
        a Table III mix, a SPEC-like and a PARSEC-like workload under
        three policies."""
        policies = ("non-inclusive", "exclusive", "lap")
        code = main(["sweep", "--workloads", "WL1,mcf,dedup",
                     "--policies", ",".join(policies), "--refs", "500",
                     "--seed", "2", *SMALL])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [(r["workload"], r["policy"]) for r in rows] == [
            (w, p) for w in ("WL1", "mcf", "dedup") for p in policies
        ]
        system = SystemConfig.scaled(ncores=4, llc_kb=32, l2_kb=4)
        results = execute_jobs([
            JobSpec(system=system, workload=WorkloadSpec.named(r["workload"], 4, 2),
                    policy=r["policy"], refs_per_core=500)
            for r in rows
        ])
        for row, result in zip(rows, results):
            assert row["system"] == system.label
            for metric in RECORD_METRICS:
                assert float(row[metric]) == float(getattr(result, metric)), (
                    row["workload"], row["policy"], metric)

    def test_duplicate_workloads_run_once(self, capsys):
        code = main(["sweep", "--workloads", "mcf,mcf", "--policies", "lap",
                     "--refs", "300", *SMALL])
        assert code == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if l][1:]
        assert len(rows) == 1

    def test_run_time_failure_keeps_other_rows(self, capsys):
        """A member that fails while running exits 1 with the other
        members' rows (a Table III mix needs 4 cores)."""
        code = main(["sweep", "--workloads", "mcf,WL1", "--policies", "lap",
                     "--refs", "300", "--ncores", "2", "--llc-kb", "32",
                     "--l2-kb", "4"])
        assert code == 1
        captured = capsys.readouterr()
        rows = [l for l in captured.out.splitlines() if l][1:]
        assert [r.split(",")[1] for r in rows] == ["mcf"]
        assert "WL1: FAILED" in captured.err

    def test_interrupt_on_part_warm_cache_prints_no_rows(
        self, capsys, tmp_path, monkeypatch
    ):
        """With non-inclusive and LAP cached, an interrupt while the
        exclusive job runs must not print LAP's numbers as exclusive's."""
        args = ["--cache-dir", str(tmp_path), "sweep", "--workloads", "mcf",
                "--refs", "400", "--heartbeat", "0", *SMALL]
        assert main(args + ["--policies", "non-inclusive,lap"]) == 0
        capsys.readouterr()

        def interrupted(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(JobSpec, "run", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(args + ["--policies", "non-inclusive,exclusive,lap"])
        assert capsys.readouterr().out == ""


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
