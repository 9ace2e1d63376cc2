"""Concurrent-writer safety of the result cache: many independent
``ResultCache`` instances — the in-process stand-in for many processes,
since instances share no state, only the directory — hammer one cache
dir while a racing ``clear`` deletes entries, and two real processes
share one dir with exactly one simulation between them."""

import json
import subprocess
import sys
import threading
from pathlib import Path

from repro.exec import JobSpec, ResultCache, WorkloadSpec, execute_jobs
from repro.sim import SystemConfig


def spec(seed=0, refs=400) -> JobSpec:
    return JobSpec(
        system=SystemConfig.scaled(ncores=2, llc_kb=32, l2_kb=4),
        workload=WorkloadSpec.duplicate("mcf", ncores=2, seed=seed),
        policy="lap",
        refs_per_core=refs,
    )


class TestConcurrentWriters:
    def test_same_key_hammered_by_many_writers(self, tmp_path):
        """Concurrent stores of one key must never interleave bytes:
        readers see either a miss or the complete, correct entry."""
        job = spec()
        result = job.run()
        expected = result.to_dict()
        failures = []
        rounds = 30

        def writer():
            cache = ResultCache(tmp_path)  # own instance, shared dir
            try:
                for _ in range(rounds):
                    cache.put(job, result)
            except Exception as exc:
                failures.append(exc)

        def reader():
            cache = ResultCache(tmp_path)
            try:
                for _ in range(rounds * 2):
                    hit = cache.get(job)
                    if hit is not None and hit.to_dict() != expected:
                        failures.append(AssertionError("torn cache entry"))
            except Exception as exc:
                failures.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not failures
        assert ResultCache(tmp_path).get(job).to_dict() == expected

    def test_racing_eviction_mid_read_is_a_miss_not_a_crash(self, tmp_path):
        """Writers and readers walk the directory while a racing
        ``clear`` deletes every entry under them."""
        jobs = [spec(seed=s) for s in range(4)]
        results = {j.key(): j.run() for j in jobs}
        failures = []
        done = threading.Event()

        def churner(offset):
            cache = ResultCache(tmp_path)
            try:
                for n in range(40):
                    job = jobs[(offset + n) % len(jobs)]
                    cache.put(job, results[job.key()])
                    hit = cache.get(jobs[(offset + n + 1) % len(jobs)])
                    if hit is not None:
                        assert hit.to_dict() == results[
                            jobs[(offset + n + 1) % len(jobs)].key()
                        ].to_dict()
                    cache.stats()  # walks the dir while the clearer unlinks
                    problems = []
                    for key, _, result in cache.scan(problems):
                        assert result.to_dict() == results[key].to_dict()
                    assert problems == []
            except Exception as exc:
                failures.append(exc)

        def clearer():
            cache = ResultCache(tmp_path)
            try:
                while not done.is_set():
                    cache.clear()
            except Exception as exc:
                failures.append(exc)

        threads = [threading.Thread(target=churner, args=(n,)) for n in range(4)]
        racer = threading.Thread(target=clearer)
        racer.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        done.set()
        racer.join(timeout=120)
        assert not any(t.is_alive() for t in (*threads, racer))
        assert not failures

    def test_put_leaves_no_temp_droppings(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = spec()
        cache.put(job, job.run())
        leftovers = [p for p in Path(tmp_path).iterdir()
                     if p.suffix != ".json"]
        assert leftovers == []


class TestTwoProcessesOneCacheDir:
    def test_identical_specs_across_processes_simulate_once(self, tmp_path):
        """Independent CLI invocations sharing one ``--cache-dir``: the
        second run of an identical spec must be a pure cache hit — zero
        simulations — and return the byte-identical result."""
        script = r"""
import json, sys
sys.path.insert(0, {src!r})
from repro.exec import ResultCache, execute_jobs
from repro.exec.jobs import JobSpec
job = JobSpec.from_dict(json.loads({job_json!r}))
outcome = execute_jobs([job], cache=ResultCache({cache_dir!r}))
print(json.dumps({{
    "hits": outcome.cache_hits,
    "misses": outcome.cache_misses,
    "result": outcome[0].to_dict(),
}}))
"""
        job = spec()
        src = str(Path(__file__).parent.parent / "src")
        code = script.format(
            src=src, job_json=job.canonical_json(), cache_dir=str(tmp_path)
        )

        def run_process():
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)

        first = run_process()
        second = run_process()
        assert (first["hits"], first["misses"]) == (0, 1), \
            "first process simulates (pool metrics: one miss)"
        assert (second["hits"], second["misses"]) == (1, 0), \
            "second process must not simulate at all"
        assert second["result"] == first["result"]
        # and both agree with an in-process run
        assert execute_jobs([job])[0].to_dict() == first["result"]
