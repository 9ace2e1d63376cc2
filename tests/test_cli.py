"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import FIGURES, build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in ("list", "run", "compare", "characterize", "figure"):
            args = {
                "list": [cmd],
                "run": [cmd, "WH1", "lap"],
                "compare": [cmd, "WH1"],
                "characterize": [cmd],
                "figure": [cmd, "fig14"],
            }[cmd]
            parsed = parser.parse_args(args)
            assert parsed.command == cmd

    def test_figure_map_covers_every_figure(self):
        import repro.analysis.figures as F

        for fig, fn_name in FIGURES.items():
            assert hasattr(F, fn_name), fig


class TestListCommand:
    def test_lists_policies_and_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "lap" in out and "WH1" in out and "streamcluster" in out
        assert "stt" in out


class TestRunCommand:
    def test_run_prints_metrics(self, capsys):
        code = main(["run", "mcf", "lap", "--refs", "1500", "--ncores", "2",
                     "--llc-kb", "32", "--l2-kb", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "epi" in out and "mpki" in out

    def test_run_json_output(self, capsys):
        code = main(["run", "mcf", "lap", "--refs", "1000", "--ncores", "2",
                     "--llc-kb", "32", "--l2-kb", "4", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"] == "lap"
        assert payload["epi"] > 0

    def test_unknown_workload_fails_cleanly(self, capsys):
        assert main(["run", "gcc", "lap", "--refs", "100"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_policy_fails_cleanly(self, capsys):
        assert main(["run", "mcf", "magic", "--refs", "100"]) == 2

    def test_ratio_flag_on_sram_rejected(self, capsys):
        assert main(["run", "mcf", "lap", "--tech", "sram", "--ratio", "8"]) == 2

    def test_ratio_flag_scales_stt(self, capsys):
        code = main(["run", "mcf", "lap", "--refs", "1000", "--ncores", "2",
                     "--llc-kb", "32", "--l2-kb", "4", "--ratio", "10", "--json"])
        assert code == 0

    def test_hybrid_flag(self, capsys):
        code = main(["run", "mcf", "lhybrid", "--refs", "1000", "--ncores", "2",
                     "--llc-kb", "32", "--l2-kb", "4", "--hybrid", "--json"])
        assert code == 0

    def test_run_is_served_from_the_cache(self, tmp_path, capsys, monkeypatch):
        from repro.sim.simulator import Simulator

        calls = {"n": 0}
        real_run = Simulator.run

        def counting_run(self, *args, **kwargs):
            calls["n"] += 1
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", counting_run)
        argv = ["--cache-dir", str(tmp_path), "run", "WL1", "lap", "--refs", "1000", "--json"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        assert calls["n"] == 1, "the second run must be a cache hit"
        assert main(["--cache-dir", str(tmp_path), "cache", "stats", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 1

    def test_cache_stats_shows_only_the_disk(self, tmp_path, capsys):
        # hit/miss counters live in the process that ran the jobs; a
        # fresh `cache stats` process can only report what is on disk
        argv = ["--cache-dir", str(tmp_path), "run", "WL1", "lap", "--refs", "1000", "--json"]
        assert main(argv) == 0
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["--cache-dir", str(tmp_path), "cache", "stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1
        assert set(payload) == {"directory", "entries", "total_bytes"}
        assert main(["--cache-dir", str(tmp_path), "cache", "stats"]) == 0
        table = capsys.readouterr().out
        assert "entries" in table
        assert not any(k in table for k in ("hits", "misses", "puts"))


class TestCompareCommand:
    def test_compare_normalises_to_first_policy(self, capsys):
        code = main(["compare", "omnetpp", "--refs", "1500", "--ncores", "2",
                     "--llc-kb", "32", "--l2-kb", "4",
                     "--policies", "non-inclusive,lap"])
        assert code == 0
        out = capsys.readouterr().out
        assert "non-inclusive" in out and "lap" in out
        assert "1.000" in out  # the baseline row


class TestCharacterizeCommand:
    def test_characterize_named_benchmarks(self, capsys):
        code = main(["characterize", "libquantum", "--refs", "1500",
                     "--ncores", "2", "--llc-kb", "32", "--l2-kb", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "libquantum" in out and ("WL" in out or "WH" in out)


class TestFigureCommand:
    def test_figure_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_REFS", "1500")
        code = main(["figure", "fig17", "--refs", "1500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig17" in out

    def test_unknown_figure_fails_cleanly(self, capsys):
        assert main(["figure", "fig99"]) == 2


class TestCheckCommand:
    def test_check_passes_on_healthy_tree(self, capsys):
        code = main(["check", "--policy", "lap", "--refs", "300",
                     "--coherence", "off", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "invariants[lap" in out and "passed" in out

    def test_check_with_fuzz_rounds(self, capsys):
        code = main(["check", "--policy", "exclusive", "--refs", "300",
                     "--fuzz", "2", "--coherence", "off", "--quiet"])
        assert code == 0
        assert "fuzz" in capsys.readouterr().out

    def test_check_multiple_policies(self, capsys):
        code = main(["check", "--policy", "exclusive", "--policy", "lap",
                     "--refs", "300", "--coherence", "off", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "invariants[exclusive" in out and "invariants[lap" in out

    def test_check_registered_in_parser(self):
        parsed = build_parser().parse_args(["check", "--fuzz", "5"])
        assert parsed.command == "check" and parsed.fuzz == 5
