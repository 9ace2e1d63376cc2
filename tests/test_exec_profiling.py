"""Tests for per-job profiling, run manifests, and heartbeat progress."""

import json

import pytest

from repro.errors import TelemetryError
from repro.exec import ExecutionOutcome, JobSpec, ResultCache, WorkloadSpec, execute_jobs
from repro.sim import SystemConfig
from repro.sim.sweeps import Sweep
from repro.obs.profiling import (
    MANIFEST_NAME,
    SOURCE_CACHE,
    SOURCE_POOL,
    SOURCE_SERIAL,
    Heartbeat,
    JobProfile,
    RunManifest,
    peak_rss_kb,
)


def small_system(**kwargs) -> SystemConfig:
    return SystemConfig.scaled(**{"ncores": 2, "llc_kb": 32, "l2_kb": 4, **kwargs})


def make_jobs(n=2, refs=300):
    return [
        JobSpec(
            system=small_system(),
            workload=WorkloadSpec.duplicate("mcf", ncores=2, seed=seed),
            policy="lap",
            refs_per_core=refs,
        )
        for seed in range(n)
    ]


class TestExecutionOutcome:
    def test_outcome_is_still_a_result_list(self):
        outcome = execute_jobs(make_jobs(2))
        assert isinstance(outcome, ExecutionOutcome)
        assert isinstance(outcome, list)
        assert len(outcome) == 2
        assert all(hasattr(r, "epi") for r in outcome)

    def test_serial_profiles_are_populated(self):
        outcome = execute_jobs(make_jobs(2))
        assert len(outcome.profiles) == 2
        for i, profile in enumerate(outcome.profiles):
            assert profile.index == i
            assert profile.source == SOURCE_SERIAL
            assert profile.wall_s > 0
            assert profile.accesses > 0
            assert profile.accesses_per_s > 0
            assert profile.retries == 0
            assert len(profile.key) == 64  # the content address
        assert outcome.cache_hits == 0
        assert outcome.cache_misses == 2
        assert outcome.wall_s > 0

    def test_pooled_profiles_carry_provenance(self):
        outcome = execute_jobs(make_jobs(2), max_workers=2)
        # Pool may fall back to serial in constrained sandboxes; either
        # way every job carries a concrete provenance and wall time.
        assert all(p.source in (SOURCE_POOL, SOURCE_SERIAL) for p in outcome.profiles)
        assert all(p.wall_s > 0 for p in outcome.profiles)
        assert all(p.accesses > 0 for p in outcome.profiles)

    def test_cache_provenance_and_hit_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = make_jobs(2)
        cold = execute_jobs(jobs, cache=cache)
        assert cold.cache_hits == 0 and cold.cache_misses == 2

        warm = execute_jobs(jobs, cache=cache)
        assert warm.cache_hits == 2 and warm.cache_misses == 0
        for profile in warm.profiles:
            assert profile.source == SOURCE_CACHE
            assert profile.accesses_per_s == 0.0  # nothing was simulated
        assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]

    def test_manifest_dir_writes_manifest_json(self, tmp_path):
        outcome = execute_jobs(make_jobs(2), manifest_dir=tmp_path)
        path = tmp_path / MANIFEST_NAME
        assert path.exists()
        loaded = RunManifest.load(tmp_path)
        assert len(loaded.jobs) == 2
        assert all(j.wall_s > 0 for j in loaded.jobs)
        assert loaded.cache_misses == 2
        assert loaded.simulated_accesses == sum(p.accesses for p in outcome.profiles)

    def test_metrics_reported_once_per_batch(self, tmp_path):
        # The manifest totals are the per-batch record: each batch
        # rewrites them for its own jobs, never accumulating.
        cache = ResultCache(tmp_path / "cache")
        for expected_hits in (0, 2):
            execute_jobs(make_jobs(2), cache=cache, manifest_dir=tmp_path)
            doc = json.loads((tmp_path / MANIFEST_NAME).read_text())
            assert doc["totals"]["jobs"] == 2
            assert doc["totals"]["cache_hits"] == expected_hits
            assert doc["totals"]["cache_misses"] == 2 - expected_hits
            assert doc["totals"]["retries"] == 0
            fresh = [j for j in doc["jobs"] if j["source"] != SOURCE_CACHE]
            assert len(fresh) == 2 - expected_hits
            assert all(j["wall_s"] > 0 for j in fresh)


class TestJobProfile:
    def test_round_trip(self):
        profile = JobProfile(
            index=3, key="k" * 64, workload="mcf", policy="lap",
            system="base", source=SOURCE_POOL, wall_s=1.5,
            accesses=3000, retries=1, peak_rss_kb=1024,
        )
        assert JobProfile.from_dict(profile.as_dict()) == profile
        assert profile.as_dict()["accesses_per_s"] == 2000.0

    def test_cache_profile_has_zero_throughput(self):
        profile = JobProfile(
            index=0, key="k", workload="w", policy="p", system="s",
            source=SOURCE_CACHE, wall_s=0.5, accesses=100,
        )
        assert profile.accesses_per_s == 0.0

    def test_from_dict_missing_field_raises(self):
        with pytest.raises(TelemetryError, match="policy"):
            JobProfile.from_dict(
                {"index": 0, "key": "k", "workload": "w", "system": "s",
                 "source": "serial"}
            )


class TestRunManifest:
    def manifest(self):
        return RunManifest(
            jobs=[
                JobProfile(index=0, key="a", workload="w", policy="p",
                           system="s", source=SOURCE_CACHE, wall_s=0.01),
                JobProfile(index=1, key="b", workload="w", policy="p",
                           system="s", source=SOURCE_POOL, wall_s=2.0,
                           accesses=5000, retries=1),
            ],
            max_workers=4,
            wall_s=2.5,
        )

    def test_rollups(self):
        m = self.manifest()
        assert m.cache_hits == 1
        assert m.cache_misses == 1
        assert m.total_retries == 1
        assert m.simulated_accesses == 5000
        totals = m.as_dict()["totals"]
        assert totals == {
            "jobs": 2, "cache_hits": 1, "cache_misses": 1,
            "retries": 1, "simulated_accesses": 5000,
        }

    def test_write_and_load_round_trip(self, tmp_path):
        m = self.manifest()
        path = m.write(tmp_path)  # directory target -> manifest.json
        assert path == tmp_path / MANIFEST_NAME
        loaded = RunManifest.load(path)  # file target works too
        assert loaded.as_dict() == m.as_dict()

    def test_load_missing_manifest(self, tmp_path):
        with pytest.raises(TelemetryError, match="no such manifest"):
            RunManifest.load(tmp_path)

    def test_load_rejects_wrong_kind(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"kind": "nope"}))
        with pytest.raises(TelemetryError, match="not a repro-manifest"):
            RunManifest.load(tmp_path)

    def test_load_rejects_wrong_schema(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(
            json.dumps({"kind": "repro-manifest", "schema": 99})
        )
        with pytest.raises(TelemetryError, match="schema 99"):
            RunManifest.load(tmp_path)


class TestSweepManifest:
    def sweep(self):
        return Sweep(
            systems={"base": small_system()},
            workloads={"mcf": WorkloadSpec.duplicate("mcf", ncores=2)},
            policies=("non-inclusive", "lap"),
            refs_per_core=300,
        )

    def test_cached_sweep_writes_manifest_next_to_results(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.sweep().run(cache=cache)
        manifest = RunManifest.load(tmp_path)
        assert len(manifest.jobs) == 2
        assert manifest.cache_misses == 2
        assert all(j.wall_s > 0 for j in manifest.jobs)

        # Warm re-run overwrites the manifest with all-cache provenance.
        self.sweep().run(cache=cache)
        manifest = RunManifest.load(tmp_path)
        assert manifest.cache_hits == 2

    def test_manifest_is_invisible_to_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.sweep().run(cache=cache)
        assert (tmp_path / MANIFEST_NAME).exists()
        stats = cache.stats()
        assert stats.entries == 2  # manifest.json is not an entry
        removed = cache.clear()
        assert removed == 2
        assert (tmp_path / MANIFEST_NAME).exists()  # clear leaves it alone

    def test_explicit_manifest_dir_without_cache(self, tmp_path):
        self.sweep().run(manifest_dir=tmp_path)
        manifest = RunManifest.load(tmp_path)
        assert len(manifest.jobs) == 2
        assert all(j.source == SOURCE_SERIAL for j in manifest.jobs)

    def test_serial_sweep_without_cache_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self.sweep().run()
        assert not (tmp_path / MANIFEST_NAME).exists()


class TestHeartbeat:
    def test_interval_none_never_emits(self):
        lines = []
        pulse = Heartbeat(5, None, emit=lines.append)
        pulse.beat(1)
        pulse.final(5)
        assert lines == []

    def test_interval_zero_emits_every_beat(self):
        lines = []
        pulse = Heartbeat(3, 0.0, emit=lines.append)
        pulse.beat(1)
        pulse.beat(2, cached=1)
        pulse.final(3, cached=1)
        assert len(lines) == 3
        assert "1/3 job(s) done" in lines[0]
        assert "1 from cache" in lines[1]
        assert "elapsed" in lines[-1]

    def test_negative_interval_rejected(self):
        with pytest.raises(TelemetryError, match=">= 0"):
            Heartbeat(1, -1.0)

    def test_long_interval_rate_limits(self):
        lines = []
        pulse = Heartbeat(10, 3600.0, emit=lines.append)
        for i in range(10):
            pulse.beat(i + 1)
        assert lines == []  # an hour has not elapsed
        pulse.final(10)
        assert len(lines) == 1  # final always emits

    def test_execute_jobs_heartbeat_plumbing(self, capsys):
        execute_jobs(make_jobs(2, refs=200), heartbeat_interval=0.0)
        lines = capsys.readouterr().err.splitlines()
        assert lines  # at least the final line
        assert "2/2 job(s) done" in lines[-1]


def test_peak_rss_is_plausible_when_available():
    rss = peak_rss_kb()
    assert rss is None or rss > 1024  # a python process is > 1 MiB
