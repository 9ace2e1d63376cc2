"""Tests for the suite and corpus CLI commands."""

import json

from repro.cli import main
from repro.workloads import TraceCorpus
from repro.workloads.corpus import ENV_CORPUS_DIR
from repro.workloads.tracefile import save_trace

SMALL = ["--ncores", "2", "--llc-kb", "32", "--l2-kb", "4", "--refs", "1000"]


def make_gen(name="cli-gen"):
    from repro.workloads import LoopRegion, SyntheticTrace

    return SyntheticTrace(
        [(LoopRegion(0, 64 * 64), 1.0)], seed=5, name=name, instr_per_ref=4.0
    )


class TestSuiteList:
    def test_lists_builtin_sets(self, capsys):
        assert main(["suite", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("paper", "int", "fp", "parsec", "corpus"):
            assert name in out


class TestSuiteRun:
    def test_run_prints_geomean_summary(self, capsys):
        assert main([
            "suite", "run", "loop", "--policies", "non-inclusive,lap", *SMALL,
        ]) == 0
        out = capsys.readouterr().out
        assert "geomean ratios" in out
        assert "non-inclusive" in out and "lap" in out

    def test_unknown_set_exits_2_with_suggestion(self, capsys):
        assert main(["suite", "run", "papr", *SMALL]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'paper'" in err

    def test_json_output_and_warm_cache(self, capsys, tmp_path):
        argv = [
            "--cache-dir", str(tmp_path / "cache"),
            "suite", "run", "loop",
            "--policies", "non-inclusive,lap", "--json", *SMALL,
        ]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["cache_hits"] == 0 and cold["simulated"] > 0
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["simulated"] == 0
        assert warm["cache_hits"] == cold["simulated"]
        assert warm["geomean"] == cold["geomean"]

    def test_failures_exit_1_but_suite_completes(self, capsys, monkeypatch,
                                                 tmp_path):
        # a corpus trace set where one object is broken mid-run
        corpus = TraceCorpus(tmp_path / "corpus", create=True)
        good = corpus.capture(make_gen("good"), 2048, name="good")
        bad = corpus.capture(make_gen("bad"), 2048, name="bad")
        corpus.object_path(bad.digest).write_bytes(b"garbage")
        assert main([
            "suite", "run", "corpus", "--corpus", str(corpus.root),
            "--policies", "lap", *SMALL,
        ]) == 1
        captured = capsys.readouterr()
        assert "FAILED bad" in captured.out
        assert "good" in captured.out  # the healthy trace still ran
        assert good.digest  # silence unused warning

    def test_failures_exit_1_but_suite_completes_pooled(self, capsys, tmp_path):
        # the same broken corpus through a 2-worker pool: the batch fails
        # in a worker, and the failure still lands on its own member
        corpus = TraceCorpus(tmp_path / "corpus", create=True)
        corpus.capture(make_gen("good"), 2048, name="good")
        bad = corpus.capture(make_gen("bad"), 2048, name="bad")
        corpus.object_path(bad.digest).write_bytes(b"garbage")
        assert main([
            "--jobs", "2", "suite", "run", "corpus", "--corpus", str(corpus.root),
            "--policies", "non-inclusive,lap", *SMALL,
        ]) == 1
        captured = capsys.readouterr()
        assert "FAILED bad" in captured.out
        assert "good: ok" in captured.err  # the healthy trace still ran

    def test_no_manifest_claimed_when_no_job_ran(self, capsys, tmp_path):
        # every Table III mix fails on a 2-core system, so no job runs and
        # run_suite writes no manifest; the CLI must not say it did
        assert main([
            "--cache-dir", str(tmp_path), "suite", "run", "wl", "--json", *SMALL,
        ]) == 1
        assert "run manifest written" not in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_no_csv_when_no_member_succeeded(self, capsys, tmp_path):
        # as in ``repro sweep``: the failures are reported (exit 1) and
        # no CSV is written, instead of dying on an empty record list
        out_csv = tmp_path / "x.csv"
        assert main([
            "suite", "run", "wl", "--json", "--output", str(out_csv), *SMALL,
        ]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["failures"]
        assert "5 benchmark(s) failed" in captured.err
        assert "error:" not in captured.err
        assert not out_csv.exists()

    def test_no_result_file_when_no_member_succeeded(self, capsys, tmp_path):
        # as for --output: the failures are reported (exit 1) and no
        # result file is written, instead of dying on an empty geomean
        results = tmp_path / "results"
        assert main([
            "suite", "run", "wl", "--result-file", str(results), *SMALL,
        ]) == 1
        captured = capsys.readouterr()
        assert "FAILED WL1" in captured.out and "geomean" not in captured.out
        assert "5 benchmark(s) failed" in captured.err
        assert "error:" not in captured.err
        assert "result file written" not in captured.err
        assert not results.exists()

    def test_csv_and_result_file_outputs(self, tmp_path, capsys):
        out_csv = tmp_path / "suite.csv"
        results = tmp_path / "results"
        assert main([
            "suite", "run", "loop", "--policies", "non-inclusive,lap",
            "--output", str(out_csv), "--result-file", str(results), *SMALL,
        ]) == 0
        assert out_csv.exists()
        header = out_csv.read_text().splitlines()[0]
        assert header.startswith("system,workload,policy")
        assert (results / "suite_geomean.txt").exists()


class TestCorpusCommands:
    def test_add_list_verify_flow(self, tmp_path, capsys):
        trace = save_trace(tmp_path / "t", make_gen(), 1500)
        corpus_dir = str(tmp_path / "corpus")
        assert main(["corpus", "add", str(trace), "--dir", corpus_dir]) == 0
        assert main(["corpus", "list", "--dir", corpus_dir]) == 0
        out = capsys.readouterr().out
        assert "cli-gen" in out and "1500" in out
        assert main(["corpus", "verify", "--dir", corpus_dir]) == 0
        assert "verify clean" in capsys.readouterr().out

    def test_verify_catches_truncation(self, tmp_path, capsys):
        corpus = TraceCorpus(tmp_path / "corpus", create=True)
        entry = corpus.capture(make_gen(), 2048, name="trunc")
        obj = corpus.object_path(entry.digest)
        data = obj.read_bytes()
        obj.write_bytes(data[: len(data) // 2])
        assert main(["corpus", "verify", "--dir", str(corpus.root)]) == 1
        assert "trunc" in capsys.readouterr().err

    def test_capture_command(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "corpus")
        assert main([
            "corpus", "capture", "bzip2", "--dir", corpus_dir, *SMALL,
        ]) == 0
        corpus = TraceCorpus(corpus_dir)
        assert len(corpus) == 2  # one stream per core
        assert corpus.verify() == []

    def test_no_corpus_dir_is_an_error(self, monkeypatch, capsys):
        monkeypatch.delenv(ENV_CORPUS_DIR, raising=False)
        assert main(["corpus", "list"]) == 2
        assert "no trace corpus" in capsys.readouterr().err

    def test_env_var_channel(self, tmp_path, monkeypatch, capsys):
        corpus = TraceCorpus(tmp_path / "corpus", create=True)
        corpus.capture(make_gen(), 1024, name="via-env")
        monkeypatch.setenv(ENV_CORPUS_DIR, str(corpus.root))
        assert main(["corpus", "list"]) == 0
        assert "via-env" in capsys.readouterr().out


class TestFixtureCorpus:
    """The committed fixture corpus (tests/data/corpus) must verify —
    CI runs `repro corpus verify` against it."""

    def test_fixture_corpus_verifies(self, capsys):
        import pathlib

        fixture = pathlib.Path(__file__).parent / "data" / "corpus"
        assert fixture.exists(), "fixture corpus missing"
        assert main(["corpus", "verify", "--dir", str(fixture)]) == 0

    def test_fixture_corpus_replays(self):
        import pathlib

        fixture = pathlib.Path(__file__).parent / "data" / "corpus"
        corpus = TraceCorpus(fixture)
        assert len(corpus) >= 1
        for entry in corpus.entries():
            replay = corpus.load(entry.digest, checksum=True)
            assert len(replay) == entry.length
