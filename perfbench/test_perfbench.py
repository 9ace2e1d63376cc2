"""Self-tests for the repo benchmark: ``python3 -m pytest perfbench -q``.

They run the workloads at a tiny size, so they check the benchmark's
plumbing (metric names, failure accounting, the digest gate), not the
simulator's speed.
"""

import dataclasses
import json
import os

import harness
import pytest
import run as bench

from repro import make_workload
from repro.suite.registry import TRACE, BenchmarkSet
from repro.workloads.corpus import TraceCorpus
from repro.workloads.tracefile import save_trace

TINY_REFS = 200


def tiny(name: str, **changes) -> harness.Workload:
    return dataclasses.replace(harness.WORKLOADS[name], refs_per_core=TINY_REFS, **changes)


def test_workload_names_match_benchmark_json():
    spec = json.loads(bench.BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_emitted_metric_names_match_benchmark_json(name, trace):
    result, _ = bench.run(tiny(name), seed=0, seconds=0, trace=trace, setup_repeats=1)
    assert result["correct"], result
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == set(bench.metric_units(section))


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_failing_suite_member_counts_as_failed_without_crashing(tmp_path, trace):
    """A trace member whose digest is absent from the corpus raises
    inside the pool; the run still completes and counts its jobs."""
    system = harness.WORKLOADS["suite-paper"].system
    corpus = TraceCorpus(tmp_path / "corpus", create=True)
    trace_file = save_trace(tmp_path / "mcf.npz", make_workload("mcf", system).generators[0], 4000)
    entry = corpus.add(trace_file)
    bset = BenchmarkSet(
        name="one-missing", description="a stored trace and an absent one",
        members=(entry.digest, "0" * 64), kind=TRACE,
    )
    wl = tiny("suite-paper", bset=bset, corpus=corpus)
    measurement = harness.measure(wl, seed=0, seconds=0, trace=trace)
    iterations = 2 if trace else harness.MIN_ITERATIONS
    assert measurement.failed == iterations * len(wl.policies)
    if trace:
        # plus the serialisation and cache round trips of the good member
        assert measurement.attempted == iterations * 2 * len(wl.policies) + 2 * len(wl.policies)
        assert measurement.metrics["sim.kernel_frac"] == 0.0
    else:
        assert measurement.attempted == iterations * 2 * len(wl.policies)
        assert measurement.metrics["ok_frac"] == 0.5


def test_tampered_result_trips_the_digest_and_kernel_checks():
    wl = tiny("kernel-grid")
    iteration = harness.run_iteration(wl, seed=0)
    recorded = iteration.digest
    assert harness.digest_failures([iteration], recorded) == 0
    assert harness.kernel_spot_check(wl, 0, iteration.results)

    iteration.results[0].llc.fill_writes += 1
    assert harness.digest_failures([iteration], recorded) == iteration.attempted
    assert not harness.kernel_spot_check(wl, 0, iteration.results)


def test_wrong_recorded_digest_fails_the_run(monkeypatch):
    monkeypatch.setattr(harness, "recorded_digest", lambda wl, seed: "0" * 64)
    wl = tiny("parsec-coherent")
    measurement = harness.measure(wl, seed=0, seconds=0, trace=False)
    assert not measurement.correct
    assert measurement.failed == measurement.attempted


@pytest.mark.parametrize("name", ["suite-paper", "kernel-grid"])
def test_host_time_is_normalised_member_by_member(name, monkeypatch):
    """The reference brackets every member, and a member's host time is
    scaled by the mean of the runs around it."""
    refs = iter(float(ms) for ms in range(1, 100))
    monkeypatch.setattr(harness.hostspeed, "reference_ms", lambda repeats=5: next(refs))
    wl = tiny(name)
    iteration = harness.run_iteration(wl, seed=0)
    members = len(wl.benchmark_set().members)
    assert iteration.refs_ms == [float(ms) for ms in range(1, members + 2)]
    # every member's mean reference lies between 1.5 and members + 1 ms
    scaled = iteration.wall_s * harness.hostspeed.NOMINAL_MS
    assert scaled / (members + 1) <= iteration.norm_wall_s <= scaled / 1.5
    assert iteration.norm_us_per_access > 0

    raw = harness.run_iteration(wl, seed=0, host_speed=False)
    assert raw.refs_ms == []
    assert raw.norm_wall_s == pytest.approx(raw.wall_s)
    assert raw.norm_job_wall_s == pytest.approx(raw.job_wall_s)


def test_reference_restores_the_cpu_set():
    cpus = os.sched_getaffinity(0)
    assert harness.hostspeed.reference_ms(repeats=1) > 0
    assert os.sched_getaffinity(0) == cpus
