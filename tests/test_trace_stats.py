"""Tests for the trace-statistics analyzer (workloads.stats)."""

import pytest

from repro.errors import WorkloadError
from repro.workloads import (
    LoopRegion,
    RandomRegion,
    ScaleContext,
    StreamRegion,
    SyntheticTrace,
    build_benchmark,
)
from repro.workloads.stats import compare_footprints, measure_trace
from repro.workloads.trace import FixedTrace, MemRef

CTX = ScaleContext(l1_bytes=2048, l2_bytes=8192, llc_bytes=131072)


def trace_of(addrs, writes=None):
    writes = writes or [False] * len(addrs)
    return FixedTrace([MemRef(a, w) for a, w in zip(addrs, writes)])


class TestMeasureTrace:
    def test_footprint_counts_distinct_blocks(self):
        t = trace_of([0, 64, 128, 0, 64])
        s = measure_trace(t, 5)
        assert s.footprint_blocks == 3

    def test_write_ratio(self):
        t = trace_of([0, 64, 128, 192], writes=[True, False, True, False])
        s = measure_trace(t, 4)
        assert s.write_ratio == 0.5

    def test_cold_fraction(self):
        t = trace_of([0, 64, 0, 64])
        s = measure_trace(t, 4)
        assert s.cold_fraction == 0.5

    def test_reuse_distance_immediate(self):
        # 0, 0 -> distance 0 (no other block in between)
        s = measure_trace(trace_of([0, 0]), 2)
        assert s.reuse_distances.tolist() == [0]

    def test_reuse_distance_counts_distinct_intervening(self):
        # 0, 64, 128, 64, 0: reuse of 64 has distance 1 (128);
        # reuse of 0 has distance 2 (64, 128).
        s = measure_trace(trace_of([0, 64, 128, 64, 0]), 5)
        assert sorted(s.reuse_distances.tolist()) == [1, 2]

    def test_repeated_touches_do_not_inflate_distance(self):
        # 0, 64, 64, 64, 0: only ONE distinct block between the 0s.
        s = measure_trace(trace_of([0, 64, 64, 64, 0]), 5)
        assert s.reuse_distances.tolist()[-1] == 1

    def test_loop_region_distance_equals_working_set(self):
        ws_blocks = 32
        gen = SyntheticTrace([(LoopRegion(0, ws_blocks * 64), 1.0)], seed=0)
        s = measure_trace(gen, ws_blocks * 4)
        warm = s.reuse_distances
        assert (warm == ws_blocks - 1).all()
        # an LRU cache of ws_blocks hits everything warm...
        assert s.reuse_cdf_at(ws_blocks) == 1.0
        # ...and one of ws_blocks-1 hits nothing
        assert s.reuse_cdf_at(ws_blocks - 1) == 0.0

    def test_stream_region_never_reuses(self):
        gen = SyntheticTrace([(StreamRegion(0, 10_000 * 64), 1.0)], seed=0)
        s = measure_trace(gen, 2000)
        assert len(s.reuse_distances) == 0
        assert s.cold_fraction == 1.0
        assert s.median_reuse_distance() is None

    def test_random_region_footprint_bounded(self):
        gen = SyntheticTrace([(RandomRegion(0, 64 * 64), 1.0)], seed=0)
        s = measure_trace(gen, 2000)
        assert s.footprint_blocks <= 64
        assert s.footprint_bytes() <= 64 * 64

    def test_batched_measurement_matches_unbatched(self):
        # Materialise one stream so both measurements see identical refs
        # (region RNG consumption depends on batch splits).
        source = SyntheticTrace([(RandomRegion(0, 128 * 64), 1.0)], seed=5)
        addrs, writes = source.batch(1000)
        refs = [MemRef(int(a), bool(w)) for a, w in zip(addrs, writes)]
        s1 = measure_trace(FixedTrace(list(refs)), 1000, batch=64)
        s2 = measure_trace(FixedTrace(list(refs)), 1000, batch=1000)
        assert s1.footprint_blocks == s2.footprint_blocks
        assert (s1.reuse_distances == s2.reuse_distances).all()

    def test_zero_window_rejected(self):
        with pytest.raises(WorkloadError):
            measure_trace(trace_of([0]), 0)


class TestBenchmarkProfiles:
    """The synthetic benchmarks' trace statistics must support their
    cache-level behaviours."""

    def test_loop_benchmark_reuses_beyond_l2(self):
        gen = build_benchmark("omnetpp", CTX, seed=1)
        s = measure_trace(gen, 8000)
        l2_blocks = CTX.l2_bytes // 64
        llc_blocks = CTX.llc_bytes // 64
        # much of omnetpp's reuse falls between L2 and LLC capacity
        between = ((s.reuse_distances >= l2_blocks) & (s.reuse_distances < llc_blocks)).mean()
        assert between > 0.2

    def test_streaming_benchmark_mostly_cold(self):
        gen = build_benchmark("lbm", CTX, seed=1)
        s = measure_trace(gen, 8000)
        hot = build_benchmark("dealII", CTX, seed=1)
        s_hot = measure_trace(hot, 8000)
        assert s.cold_fraction > s_hot.cold_fraction

    def test_write_ratios_ordered(self):
        ratios = {}
        for bench in ("bwaves", "zeusmp"):
            gen = build_benchmark(bench, CTX, seed=1)
            ratios[bench] = measure_trace(gen, 6000).write_ratio
        assert ratios["zeusmp"] > ratios["bwaves"]

    def test_compare_footprints_shape(self):
        gens = {
            "a": build_benchmark("mcf", CTX, seed=1),
            "b": build_benchmark("dealII", CTX, seed=1),
        }
        out = compare_footprints(gens, 3000)
        assert set(out) == {"a", "b"}
        assert out["a"].footprint_blocks > out["b"].footprint_blocks
