"""Tests for ``repro sweep``'s grid path: a suite run over the swept
workloads, flattened into one record per workload and policy."""

import pytest

from repro.sim import SystemConfig
from repro.suite import RECORD_METRICS, BenchmarkSet, SweepRecord, run_suite, suite_records


def small_sweep(policies=("non-inclusive", "lap"), refs=1200, progress=None):
    return run_suite(
        BenchmarkSet(name="sweep", description="", members=("mcf",)),
        SystemConfig.scaled(ncores=2, llc_kb=32, l2_kb=4),
        policies=policies,
        refs_per_core=refs,
        progress=progress,
    )


class TestSweepExecution:
    @pytest.fixture(scope="class")
    def records(self):
        return suite_records(small_sweep())

    def test_one_record_per_cell(self, records):
        assert len(records) == 2
        assert {r.policy for r in records} == {"non-inclusive", "lap"}
        assert all(isinstance(r, SweepRecord) for r in records)

    def test_metrics_populated(self, records):
        for r in records:
            assert tuple(r.metrics) == RECORD_METRICS
            assert r.metrics["epi"] > 0
            assert r.metrics["mpki"] > 0

    def test_progress_callback(self):
        seen = []
        small_sweep(policies=("non-inclusive",), progress=seen.append)
        assert len(seen) == 1
        assert seen[0].startswith("mcf: ok")
