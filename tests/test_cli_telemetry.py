"""CLI tests for the observability surface: trace commands, cache
--json, and sweep manifests."""

import json

import pytest

from repro.cli import main
from repro.obs.profiling import MANIFEST_NAME, RunManifest

SMALL = ["--refs", "250", "--ncores", "2", "--llc-kb", "32", "--l2-kb", "4"]


def record(tmp_path, name, policy, seed="5"):
    out = tmp_path / name
    code = main(["trace", "record", "mcf", policy, "--out", str(out),
                 "--seed", seed, *SMALL])
    assert code == 0
    return out


class TestTraceRecord:
    def test_record_writes_a_readable_trace(self, tmp_path, capsys):
        out = record(tmp_path, "t.jsonl.gz", "lap")
        assert out.exists()
        assert "recorded" in capsys.readouterr().out

    def test_record_with_event_filter(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        code = main(["trace", "record", "mcf", "non-inclusive",
                     "--out", str(out), "--events", "llc_fill", *SMALL])
        assert code == 0
        from repro.obs.trace import read_events

        names = {type(e).__name__ for e in read_events(out)}
        assert names == {"LlcFillEvent"}

    def test_bad_event_filter_fails_cleanly(self, tmp_path, capsys):
        code = main(["trace", "record", "mcf", "lap",
                     "--out", str(tmp_path / "t.jsonl"),
                     "--events", "warp_drive", *SMALL])
        assert code == 2
        assert "warp_drive" in capsys.readouterr().err


class TestTraceSummarize:
    def test_table_output(self, tmp_path, capsys):
        out = record(tmp_path, "t.jsonl.gz", "lap")
        capsys.readouterr()
        assert main(["trace", "summarize", str(out)]) == 0
        text = capsys.readouterr().out
        assert "access" in text and "lap" in text

    def test_json_output(self, tmp_path, capsys):
        out = record(tmp_path, "t.jsonl.gz", "lap")
        capsys.readouterr()
        assert main(["trace", "summarize", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] > 0
        assert payload["by_event"]["access"] > 0
        assert payload["meta"]["policy"] == "lap"

    def test_missing_trace_fails_cleanly(self, tmp_path, capsys):
        assert main(["trace", "summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such trace" in capsys.readouterr().err


class TestTraceDiff:
    def test_identical_runs_report_zero_divergence(self, tmp_path, capsys):
        a = record(tmp_path, "a.jsonl.gz", "non-inclusive")
        b = record(tmp_path, "b.jsonl.gz", "non-inclusive")
        capsys.readouterr()
        assert main(["trace", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "streams are identical: zero divergence" in out

    def test_policy_diff_reports_first_divergence_and_deltas(self, tmp_path, capsys):
        a = record(tmp_path, "a.jsonl.gz", "non-inclusive")
        b = record(tmp_path, "b.jsonl.gz", "lap")
        capsys.readouterr()
        assert main(["trace", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "first divergence at event #" in out
        assert "delta" in out and "llc_fill" in out
        assert "non-inclusive" in out and "lap" in out

    def test_json_diff(self, tmp_path, capsys):
        a = record(tmp_path, "a.jsonl.gz", "non-inclusive")
        b = record(tmp_path, "b.jsonl.gz", "lap")
        capsys.readouterr()
        assert main(["trace", "diff", str(a), str(b), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["identical"] is False
        assert payload["divergence"]["index"] >= 0
        assert payload["deltas"]["access"] == 0
        assert payload["counts"]["llc_fill"][1] == 0  # LAP never fills


class TestCacheStatsJson:
    def test_json_stats(self, tmp_path, capsys):
        code = main(["--cache-dir", str(tmp_path), "cache", "stats", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["directory"] == str(tmp_path)
        assert payload["entries"] == 0

    def test_json_stats_counts_entries(self, tmp_path, capsys):
        main(["--cache-dir", str(tmp_path), "sweep", "--workloads", "mcf",
              "--policies", "lap", "--heartbeat", "0", *SMALL])
        capsys.readouterr()
        code = main(["--cache-dir", str(tmp_path), "cache", "stats", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1


class TestSweepManifest:
    def test_cached_sweep_writes_manifest(self, tmp_path, capsys):
        code = main(["--cache-dir", str(tmp_path), "sweep",
                     "--workloads", "mcf", "--policies", "non-inclusive,lap",
                     "--heartbeat", "0", *SMALL])
        assert code == 0
        err = capsys.readouterr().err
        assert "run manifest written" in err
        manifest = RunManifest.load(tmp_path / MANIFEST_NAME)
        assert len(manifest.jobs) == 2
        assert manifest.cache_misses == 2
        assert all(j.wall_s > 0 for j in manifest.jobs)

    def test_warm_rerun_flips_to_cache_hits(self, tmp_path):
        args = ["--cache-dir", str(tmp_path), "sweep", "--workloads", "mcf",
                "--policies", "lap", "--heartbeat", "0", *SMALL]
        assert main(args) == 0
        assert main(args) == 0
        manifest = RunManifest.load(tmp_path)
        assert manifest.cache_hits == 1
        assert manifest.cache_misses == 0
