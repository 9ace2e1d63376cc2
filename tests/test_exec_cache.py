"""Tests for the content-addressed result cache (repro.exec.cache)."""

import json

import pytest

from repro.errors import ExecutionError
from repro.exec import (
    JobSpec,
    ResultCache,
    WorkloadSpec,
    cache_from_env,
    execute_jobs,
    get_active_cache,
    set_active_cache,
)
from repro.sim import SystemConfig
from repro.sim.runner import run_policies
from repro.sim.simulator import Simulator


def small_system(**kwargs) -> SystemConfig:
    return SystemConfig.scaled(**{"ncores": 2, "llc_kb": 32, "l2_kb": 4, **kwargs})


def job(policy="lap", seed=0, refs=800, **sys_kwargs) -> JobSpec:
    return JobSpec(
        system=small_system(**sys_kwargs),
        workload=WorkloadSpec.duplicate("mcf", ncores=2, seed=seed),
        policy=policy,
        refs_per_core=refs,
    )


@pytest.fixture(autouse=True)
def no_active_cache():
    """Keep the process-wide cache pristine around every test."""
    previous = set_active_cache(None)
    yield
    set_active_cache(previous)


class TestJobKeys:
    def test_key_is_stable(self):
        assert job().key() == job().key()

    def test_key_depends_on_every_axis(self):
        base = job().key()
        assert job(policy="exclusive").key() != base
        assert job(seed=1).key() != base
        assert job(refs=900).key() != base
        assert job(llc_kb=64).key() != base

    def test_canonical_json_is_deterministic(self):
        assert job().canonical_json() == job().canonical_json()
        # sorted keys, no whitespace: a canonical encoding
        text = job().canonical_json()
        assert " " not in text
        assert json.loads(text)["policy"] == "lap"

    def test_job_dict_round_trip(self):
        j = job()
        assert JobSpec.from_dict(j.to_dict()).key() == j.key()

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ExecutionError):
            job(refs=0)
        with pytest.raises(ExecutionError):
            JobSpec(system=small_system(), workload="mcf", policy="lap", refs_per_core=10)
        with pytest.raises(ExecutionError):
            JobSpec(
                system=small_system(),
                workload=WorkloadSpec.duplicate("mcf"),
                policy="",
                refs_per_core=10,
            )


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        j = job()
        assert cache.get(j) is None
        result = j.run()
        cache.put(j, result)
        hit = cache.get(j)
        assert hit is not None
        assert hit.to_dict() == result.to_dict()
        s = cache.stats()
        assert (s.hits, s.misses, s.puts, s.entries) == (1, 1, 1, 1)

    def test_corrupt_entry_is_purged_and_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        j = job()
        cache.put(j, j.run())
        path = cache.root / f"{j.key()}.json"
        path.write_text("{not json")
        assert cache.get(j) is None
        assert not path.exists()

    def test_non_object_entry_is_purged_and_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        j = job()
        path = cache.root / f"{j.key()}.json"
        path.write_text("[]")
        assert cache.get(j) is None
        assert not path.exists()

    def test_schema_mismatch_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        j = job()
        cache.put(j, j.run())
        path = cache.root / f"{j.key()}.json"
        payload = json.loads(path.read_text())
        payload["schema"] = -1
        path.write_text(json.dumps(payload))
        assert cache.get(j) is None

    def test_scan_notes_bad_entries_and_deletes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        j = job()
        result = j.run()
        cache.put(j, result)
        corrupt = tmp_path / ("ab" * 32 + ".json")
        corrupt.write_text("{not json")
        payload = json.loads((tmp_path / f"{j.key()}.json").read_text())
        payload["schema"] = 1
        stale = tmp_path / ("f" * 64 + ".json")
        stale.write_text(json.dumps(payload))
        problems = []
        entries = [(key, job.key(), res) for key, job, res in cache.scan(problems)]
        assert entries == [(j.key(), j.key(), result)]
        assert len(problems) == 2
        assert problems[0].startswith(f"{corrupt.name}: unreadable cache entry (")
        assert problems[1] == f"{stale.name}: cache entry schema 1 is not the current 2; left out"
        assert corrupt.exists() and stale.exists()
        assert cache.get(j) == result

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(job(), job().run())
        assert cache.clear() == 1
        assert cache.stats().entries == 0

    def test_cache_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert cache_from_env() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        cache = cache_from_env()
        assert cache is not None and cache.root == tmp_path / "c"


class TestWarmSweepRunsNothing:
    def grid(self):
        return [
            JobSpec(system=system, workload=spec, policy=policy, refs_per_core=600)
            for system in (small_system(), small_system(llc_kb=64, label="big"))
            for spec in (WorkloadSpec.duplicate("mcf", ncores=2),
                         WorkloadSpec.duplicate("lbm", ncores=2))
            for policy in ("non-inclusive", "exclusive", "lap")
        ]

    def test_warm_cache_performs_zero_simulations(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        real_run = Simulator.run

        def counting_run(self, *args, **kwargs):
            calls["n"] += 1
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", counting_run)
        cache = ResultCache(tmp_path)
        grid = self.grid()
        cold = execute_jobs(grid, cache=cache)
        assert calls["n"] == len(grid) == 12
        warm = execute_jobs(grid, cache=cache)
        assert calls["n"] == 12, "warm run must not simulate anything"
        assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]
        s = cache.stats()
        assert s.hits == 12 and s.puts == 12

    def test_active_cache_short_circuits_run_policies(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        real_run = Simulator.run

        def counting_run(self, *args, **kwargs):
            calls["n"] += 1
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", counting_run)
        set_active_cache(ResultCache(tmp_path))
        system = small_system()
        builder = WorkloadSpec.duplicate("mcf", ncores=2)
        a = run_policies(system, ("lap",), builder, 600)["lap"]
        assert calls["n"] == 1
        b = run_policies(system, ("lap",), builder, 600)["lap"]
        assert calls["n"] == 1, "second identical run must be a cache hit"
        assert a.to_dict() == b.to_dict()
        assert get_active_cache().hits == 1
