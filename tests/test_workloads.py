"""Tests for traces, regions, synthetic benchmarks, and mixes."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads import (
    PAPER_BENCHMARK_ORDER,
    PARSEC_ORDER,
    TABLE3_MIXES,
    ConcatTrace,
    FixedTrace,
    HotRegion,
    LoopRegion,
    MemRef,
    RandomRegion,
    ScaleContext,
    StreamRegion,
    SyntheticTrace,
    WriteBurstRegion,
    benchmark_names,
    build_benchmark,
    get_benchmark,
    get_parsec,
    make_duplicate,
    make_multiprogrammed,
    make_multithreaded,
    make_table3_mix,
    random_mixes,
)

CTX = ScaleContext(l1_bytes=2048, l2_bytes=8192, llc_bytes=131072)


class TestFixedTrace:
    def test_batches_in_order(self):
        t = FixedTrace([MemRef(0), MemRef(64, True), MemRef(128)])
        addrs, writes = t.batch(2)
        assert addrs.tolist() == [0, 64]
        assert writes.tolist() == [False, True]

    def test_exhaustion_raises(self):
        t = FixedTrace([MemRef(0)])
        t.batch(1)
        with pytest.raises(WorkloadError):
            t.batch(1)

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            FixedTrace([])

    def test_refs_iterator(self):
        t = FixedTrace([MemRef(0), MemRef(64)])
        refs = list(t.refs(2))
        assert refs[1].addr == 64


class TestConcatTrace:
    def test_phases_in_sequence(self):
        a = FixedTrace([MemRef(0)] * 4)
        b = FixedTrace([MemRef(64)] * 4)
        t = ConcatTrace([(a, 2), (b, 2)])
        addrs, _ = t.batch(4)
        assert addrs.tolist() == [0, 0, 64, 64]

    def test_wraps_around(self):
        a = FixedTrace([MemRef(0)] * 8)
        b = FixedTrace([MemRef(64)] * 8)
        t = ConcatTrace([(a, 1), (b, 1)])
        addrs, _ = t.batch(4)
        assert addrs.tolist() == [0, 64, 0, 64]


class TestRegions:
    def _rng(self):
        return np.random.default_rng(7)

    def test_loop_region_cycles(self):
        r = LoopRegion(base=0, size_bytes=4 * 64)
        addrs, writes = r.sample(self._rng(), 10)
        assert addrs.tolist()[:5] == [0, 64, 128, 192, 0]
        assert not writes.any()

    def test_loop_region_respects_base(self):
        base = 1 << 30
        r = LoopRegion(base=base, size_bytes=2 * 64)
        addrs, _ = r.sample(self._rng(), 4)
        assert set(addrs.tolist()) == {base, base + 64}

    def test_loop_region_stride(self):
        r = LoopRegion(base=0, size_bytes=8 * 64, stride_blocks=2)
        addrs, _ = r.sample(self._rng(), 4)
        assert addrs.tolist() == [0, 128, 256, 384]

    def test_stream_region_never_revisits_before_wrap(self):
        r = StreamRegion(base=0, size_bytes=1000 * 64)
        addrs, _ = r.sample(self._rng(), 500)
        assert len(set(addrs.tolist())) == 500

    def test_stream_rw_pair_emits_read_then_write(self):
        r = StreamRegion(base=0, size_bytes=1000 * 64, rw_pair=True)
        addrs, writes = r.sample(self._rng(), 6)
        assert addrs.tolist() == [0, 0, 64, 64, 128, 128]
        assert writes.tolist() == [False, True, False, True, False, True]

    def test_stream_rw_pair_split_across_batches(self):
        r = StreamRegion(base=0, size_bytes=1000 * 64, rw_pair=True)
        a1, w1 = r.sample(self._rng(), 3)
        a2, w2 = r.sample(self._rng(), 3)
        combined = list(zip(a1.tolist() + a2.tolist(), w1.tolist() + w2.tolist()))
        assert combined[2] == (64, False) and combined[3] == (64, True)

    def test_random_region_in_range(self):
        r = RandomRegion(base=128, size_bytes=16 * 64, write_prob=0.5)
        addrs, _ = r.sample(self._rng(), 200)
        assert addrs.min() >= 128
        assert addrs.max() < 128 + 16 * 64

    def test_random_region_write_fraction(self):
        r = RandomRegion(base=0, size_bytes=64 * 64, write_prob=0.3)
        _, writes = r.sample(self._rng(), 5000)
        assert 0.25 < writes.mean() < 0.35

    def test_write_burst_repeats_block(self):
        r = WriteBurstRegion(base=0, size_bytes=64 * 64, burst=4)
        addrs, _ = r.sample(self._rng(), 8)
        assert len(set(addrs.tolist()[:4])) == 1
        assert len(set(addrs.tolist()[4:8])) == 1

    def test_block_alignment_everywhere(self):
        for region in (
            LoopRegion(0, 640),
            StreamRegion(0, 640),
            RandomRegion(0, 640),
            HotRegion(0, 640),
            WriteBurstRegion(0, 640),
        ):
            addrs, _ = region.sample(self._rng(), 50)
            assert (addrs % 64 == 0).all()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(WorkloadError):
            LoopRegion(0, 32)  # smaller than one block
        with pytest.raises(WorkloadError):
            RandomRegion(0, 640, write_prob=1.5)
        with pytest.raises(WorkloadError):
            WriteBurstRegion(0, 640, burst=0)


class TestSyntheticTrace:
    def test_deterministic_per_seed(self):
        def build():
            return SyntheticTrace(
                [(LoopRegion(0, 64 * 64), 0.5), (RandomRegion(1 << 20, 64 * 64), 0.5)],
                seed=11,
            )

        a1, w1 = build().batch(500)
        a2, w2 = build().batch(500)
        assert (a1 == a2).all() and (w1 == w2).all()

    def test_different_seeds_differ(self):
        def build(seed):
            return SyntheticTrace([(RandomRegion(0, 64 * 64), 1.0)], seed=seed)

        a1, _ = build(1).batch(200)
        a2, _ = build(2).batch(200)
        assert (a1 != a2).any()

    def test_region_weights_respected(self):
        t = SyntheticTrace(
            [(LoopRegion(0, 64 * 64), 0.9), (RandomRegion(1 << 30, 64 * 64), 0.1)],
            seed=3,
        )
        addrs, _ = t.batch(5000)
        low = (addrs < (1 << 30)).mean()
        assert 0.85 < low < 0.95

    def test_empty_regions_rejected(self):
        with pytest.raises(WorkloadError):
            SyntheticTrace([], seed=0)

    def test_nonpositive_batch_rejected(self):
        t = SyntheticTrace([(LoopRegion(0, 640), 1.0)], seed=0)
        with pytest.raises(WorkloadError):
            t.batch(0)


class TestScaleContext:
    def test_region_size_block_rounded(self):
        assert CTX.region_size(0.25) % 64 == 0
        assert CTX.region_size(3.0) == 3 * 8192

    def test_rejects_inverted_capacities(self):
        with pytest.raises(WorkloadError):
            ScaleContext(l1_bytes=8192, l2_bytes=2048, llc_bytes=1024)


class TestSpecBenchmarks:
    def test_all_thirteen_registered(self):
        assert len(benchmark_names()) == 13
        assert set(benchmark_names()) == set(PAPER_BENCHMARK_ORDER)

    @pytest.mark.parametrize("name", PAPER_BENCHMARK_ORDER)
    def test_benchmark_builds_and_generates(self, name):
        trace = build_benchmark(name, CTX, seed=1)
        addrs, writes = trace.batch(256)
        assert len(addrs) == 256
        assert (addrs % 64 == 0).all()

    def test_paper_aliases_resolve(self):
        assert get_benchmark("omn").name == "omnetpp"
        assert get_benchmark("xalan").name == "xalancbmk"
        assert get_benchmark("lib").name == "libquantum"
        assert get_benchmark("Gems").name == "GemsFDTD"

    def test_unknown_benchmark_raises(self):
        with pytest.raises(WorkloadError):
            get_benchmark("gcc")

    def test_base_offset_disjoint(self):
        t0 = build_benchmark("mcf", CTX, seed=1, base=0)
        t1 = build_benchmark("mcf", CTX, seed=1, base=1 << 40)
        a0, _ = t0.batch(200)
        a1, _ = t1.batch(200)
        assert set(a0.tolist()).isdisjoint(set(a1.tolist()))

    def test_descriptions_present(self):
        for name in benchmark_names():
            assert len(get_benchmark(name).description) > 20


class TestParsec:
    def test_all_ten_registered(self):
        assert len(PARSEC_ORDER) == 10

    @pytest.mark.parametrize("name", PARSEC_ORDER)
    def test_threads_build(self, name):
        threads = get_parsec(name).build_threads(CTX, seed=1, nthreads=4)
        assert len(threads) == 4
        for t in threads:
            addrs, _ = t.batch(64)
            assert len(addrs) == 64

    def test_threads_share_addresses(self):
        threads = get_parsec("canneal").build_threads(CTX, seed=1, nthreads=2)
        a0 = set(threads[0].batch(2000)[0].tolist())
        a1 = set(threads[1].batch(2000)[0].tolist())
        assert a0 & a1, "threads must share some region addresses"

    def test_private_regions_disjoint_between_threads(self):
        threads = get_parsec("blackscholes").build_threads(CTX, seed=1, nthreads=2)
        from repro.workloads.spec import REGION_SPAN

        a0 = [a for a in threads[0].batch(2000)[0].tolist() if a >= 8 * REGION_SPAN]
        a1 = [a for a in threads[1].batch(2000)[0].tolist() if a >= 8 * REGION_SPAN]
        assert a0 and a1
        assert set(a0).isdisjoint(a1)

    def test_unknown_parsec_raises(self):
        with pytest.raises(WorkloadError):
            get_parsec("raytrace2")


class TestMixes:
    def test_table3_complete(self):
        assert len(TABLE3_MIXES) == 10
        for benchmarks in TABLE3_MIXES.values():
            assert len(benchmarks) == 4

    def test_table3_wh1_matches_paper(self):
        assert TABLE3_MIXES["WH1"] == ("omnetpp", "xalancbmk", "zeusmp", "libquantum")

    def test_make_table3_mix(self):
        wl = make_table3_mix("WL3", CTX, seed=0)
        assert wl.ncores == 4
        assert wl.benchmarks == ("GemsFDTD", "GemsFDTD", "GemsFDTD", "mcf")

    def test_unknown_mix_raises(self):
        with pytest.raises(WorkloadError):
            make_table3_mix("WL9", CTX)

    def test_multiprogrammed_cores_disjoint(self):
        wl = make_multiprogrammed(["mcf", "mcf"], CTX, seed=0)
        a0 = set(wl.generators[0].batch(500)[0].tolist())
        a1 = set(wl.generators[1].batch(500)[0].tolist())
        assert a0.isdisjoint(a1)

    def test_duplicate_copies(self):
        wl = make_duplicate("astar", CTX, ncores=4, seed=0)
        assert wl.benchmarks == ("astar",) * 4

    def test_multithreaded_kind(self):
        wl = make_multithreaded("dedup", CTX, nthreads=4, seed=0)
        assert wl.kind == "multithreaded"
        assert wl.ncores == 4

    def test_random_mixes_deterministic(self):
        assert random_mixes(10, seed=5) == random_mixes(10, seed=5)
        assert random_mixes(10, seed=5) != random_mixes(10, seed=6)

    def test_random_mixes_draw_from_pool(self):
        pool = {"mcf", "lbm"}
        mixes = random_mixes(20, seed=1, benchmarks=sorted(pool))
        assert all(set(m) <= pool for m in mixes)
