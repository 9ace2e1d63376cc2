"""Tests for the run ledger (repro.obs.ledger)."""

import json
import shutil

import pytest

from repro.errors import TelemetryError
from repro.obs.ledger import LedgerRow, RunLedger, scan_dirs
from repro.obs.profiling import RunManifest
from repro.obs.spans import SpanRecorder, install_recorder, uninstall_recorder


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    """A real tiny sweep: 2 workloads x 2 policies into one cache dir,
    with spans.jsonl alongside the manifest."""
    from repro.exec import JobSpec, ResultCache, WorkloadSpec, execute_jobs
    from repro.sim import SystemConfig

    root = tmp_path_factory.mktemp("sweep")
    cache = ResultCache(root)
    recorder = SpanRecorder()
    install_recorder(recorder)
    try:
        system = SystemConfig.scaled(ncores=2, llc_kb=32, l2_kb=4)
        jobs = [
            JobSpec(
                system=system,
                workload=WorkloadSpec.duplicate(bench, ncores=2, seed=0),
                policy=policy,
                refs_per_core=300,
            )
            for bench in ("mcf", "libquantum")
            for policy in ("non-inclusive", "lap")
        ]
        outcome = execute_jobs(jobs, cache=cache)
        RunManifest(list(outcome.profiles), outcome.max_workers, outcome.wall_s).write(root)
        recorder.dump(root)
    finally:
        uninstall_recorder()
    return root


class TestScan:
    def test_rows_merge_manifest_and_entries(self, sweep_dir):
        ledger = scan_dirs([sweep_dir])
        assert len(ledger.rows) == 4
        assert ledger.manifests == 1
        assert ledger.problems == []
        for row in ledger.rows:
            assert len(row.key) == 64
            assert row.workload != "?"
            assert row.policy in ("non-inclusive", "lap")
            assert row.source in ("pool", "serial", "cache"), row.source
            assert row.refs_per_core == 300
            assert row.metrics
            assert row.wall_s > 0

    def test_rows_carry_result_metrics_and_hit_rate(self, sweep_dir):
        ledger = scan_dirs([sweep_dir])
        for row in ledger.rows:
            assert "epi" in row.metrics
            assert "mpki" in row.metrics
            assert 0.0 < row.metrics["llc_hit_rate"] <= 1.0

    def test_spans_collected(self, sweep_dir):
        ledger = scan_dirs([sweep_dir])
        assert {s["name"] for s in ledger.spans} >= {"exec.batch", "simulate"}

    def test_rows_sorted_by_workload_policy_key(self, sweep_dir):
        ledger = scan_dirs([sweep_dir])
        keys = [(r.workload, r.policy, r.key) for r in ledger.rows]
        assert keys == sorted(keys)

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(TelemetryError, match="no such result-cache"):
            scan_dirs([tmp_path / "nope"])

    def test_corrupt_entry_downgrades_to_problem(self, sweep_dir, tmp_path):
        work = tmp_path / "copy"
        shutil.copytree(sweep_dir, work)
        (work / ("ab" * 32 + ".json")).write_text("{not json")
        ledger = scan_dirs([work])
        assert len(ledger.rows) == 4, "corrupt entry must not become a row"
        assert any("unreadable cache entry" in p for p in ledger.problems)

    def test_malformed_manifest_is_a_problem_not_a_crash(self, sweep_dir, tmp_path):
        work = tmp_path / "copy"
        shutil.copytree(sweep_dir, work)
        manifest = json.loads((work / "manifest.json").read_text())
        manifest["jobs"] = [None]
        (work / "manifest.json").write_text(json.dumps(manifest))
        ledger = scan_dirs([work])
        assert ledger.manifests == 0
        assert all(r.source == "disk" for r in ledger.rows)
        assert any("manifest jobs is not a list" in p for p in ledger.problems)

    def test_manifest_only_row_when_entry_missing(self, sweep_dir, tmp_path):
        work = tmp_path / "copy"
        shutil.copytree(sweep_dir, work)
        victim = sorted(
            p for p in work.glob("*.json")
            if len(p.stem) == 64
        )[0]
        victim.unlink()
        ledger = scan_dirs([work])
        assert len(ledger.rows) == 4, "the manifest still claims the job"
        partial = [r for r in ledger.rows if not r.metrics]
        assert len(partial) == 1
        assert partial[0].key == victim.stem

    def test_entry_without_manifest_is_disk_sourced(self, sweep_dir, tmp_path):
        work = tmp_path / "copy"
        shutil.copytree(sweep_dir, work)
        (work / "manifest.json").unlink()
        ledger = scan_dirs([work])
        assert len(ledger.rows) == 4
        assert ledger.manifests == 0
        assert all(r.source == "disk" for r in ledger.rows)
        assert all(r.metrics for r in ledger.rows)

    def test_multi_dir_merge(self, sweep_dir, tmp_path):
        second = tmp_path / "second"
        shutil.copytree(sweep_dir, second)
        ledger = scan_dirs([sweep_dir, second])
        # Same content-addressed keys in both dirs: rows merge by key.
        assert len(ledger.rows) == 4
        assert len(ledger.dirs) == 2
        assert ledger.manifests == 2
        # Spans accumulate per dir scanned.
        single = scan_dirs([sweep_dir])
        assert len(ledger.spans) == 2 * len(single.spans)

    def test_stale_schema_entry_is_a_problem_not_a_row(self, sweep_dir, tmp_path):
        """An entry from older cache semantics (the cache refuses to
        serve it) must not leak its numbers into the policy grids."""
        work = tmp_path / "copy"
        shutil.copytree(sweep_dir, work)
        (work / "manifest.json").unlink()
        current = sorted(p for p in work.glob("*.json") if len(p.stem) == 64)[0]
        payload = json.loads(current.read_text())
        payload["schema"] = 1
        payload["result"]["llc"]["fill_writes"] += 1_000_000
        stale = work / ("f" * 64 + ".json")  # sorts last: would win its cell
        stale.write_text(json.dumps(payload))
        ledger = scan_dirs([work])
        assert len(ledger.rows) == 4, "the stale entry must not become a row"
        assert [p for p in ledger.problems if stale.name in p]
        assert any("schema 1" in p for p in ledger.problems)
        baseline = scan_dirs([sweep_dir]).grid("llc_writes")
        assert ledger.grid("llc_writes") == baseline

    @pytest.mark.parametrize("stamp", [None, 1])
    def test_stale_manifest_is_a_problem_not_rows(self, sweep_dir, tmp_path, stamp):
        """A manifest from older cache semantics (or with no stamp) must
        not add manifest-only rows for entries that are gone or stale."""
        from repro.exec.jobs import CACHE_SCHEMA_VERSION

        manifest = json.loads((sweep_dir / "manifest.json").read_text())
        assert manifest["cache_schema"] == CACHE_SCHEMA_VERSION
        work = tmp_path / "copy"
        shutil.copytree(sweep_dir, work)
        for entry in work.glob("*.json"):
            if len(entry.stem) == 64:
                entry.unlink()
        if stamp is None:
            del manifest["cache_schema"]
        else:
            manifest["cache_schema"] = stamp
        (work / "manifest.json").write_text(json.dumps(manifest))
        ledger = scan_dirs([work])
        assert ledger.rows == []
        assert ledger.manifests == 0
        assert any(f"manifest cache schema {stamp!r}" in p for p in ledger.problems)


class TestRollups:
    def test_grid_is_workload_by_policy(self, sweep_dir):
        ledger = scan_dirs([sweep_dir])
        grid = ledger.grid("epi")
        assert sorted(grid) == ledger.workloads()
        for policies in grid.values():
            assert sorted(policies) == ["lap", "non-inclusive"]
            assert all(v > 0 for v in policies.values())

    def test_grid_unknown_metric_is_empty(self, sweep_dir):
        assert scan_dirs([sweep_dir]).grid("no_such_metric") == {}

    def test_counting_rollups(self, sweep_dir):
        ledger = scan_dirs([sweep_dir])
        assert sum(ledger.by_source().values()) == 4
        assert ledger.total_retries() == 0
        assert ledger.total_wall_s() > 0
        share = ledger.cache_hit_share()
        assert share is not None and 0.0 <= share <= 1.0

    def test_cache_hit_share_none_when_empty(self):
        assert RunLedger().cache_hit_share() is None

    def test_simulated_accesses_excludes_cache_and_disk(self):
        ledger = RunLedger(rows=[
            LedgerRow(key="a" * 64, source="pool", accesses=100),
            LedgerRow(key="b" * 64, source="cache", accesses=100),
            LedgerRow(key="c" * 64, source="disk", accesses=100),
        ])
        assert ledger.simulated_accesses() == 100
