"""Tests for the loop-block / CTC instrumentation (Fig. 4 substrate)."""

from repro.core import LoopBlockTracker
from tests.conftest import A, B, C, D, E, F, G, H, build_micro, run_refs


def reads(*addrs):
    return [(a, False) for a in addrs]


def writes(*addrs):
    return [(a, True) for a in addrs]


class TestTrackerUnit:
    def test_memory_fill_clean_evict_is_not_a_clean_trip(self):
        t = LoopBlockTracker()
        t.on_l2_fill(A, from_llc=False)
        t.on_l2_evict(A, dirty=False)
        assert t.stats.loop_evictions == 0
        assert t.stats.l2_evictions == 1

    def test_llc_fill_clean_evict_is_a_clean_trip(self):
        t = LoopBlockTracker()
        t.on_l2_fill(A, from_llc=True)
        t.on_l2_evict(A, dirty=False)
        assert t.stats.loop_evictions == 1

    def test_dirty_eviction_finalizes_streak(self):
        t = LoopBlockTracker()
        for _ in range(3):
            t.on_l2_fill(A, from_llc=True)
            t.on_l2_evict(A, dirty=False)
        t.on_l2_fill(A, from_llc=True)
        t.on_l2_evict(A, dirty=True)
        assert t.stats.ctc_histogram == {3: 1}

    def test_store_finalizes_streak(self):
        t = LoopBlockTracker()
        t.on_l2_fill(A, from_llc=True)
        t.on_l2_evict(A, dirty=False)
        t.on_l2_fill(A, from_llc=True)
        t.on_dirtied(A)
        assert t.stats.ctc_histogram == {1: 1}

    def test_finalize_flushes_open_streaks(self):
        t = LoopBlockTracker()
        for addr in (A, B):
            t.on_l2_fill(addr, from_llc=True)
            t.on_l2_evict(addr, dirty=False)
        t.finalize()
        assert t.stats.ctc_histogram == {1: 2}

    def test_ctc_buckets_match_paper_bins(self):
        t = LoopBlockTracker()
        for streak_len in (1, 2, 4, 5, 9):
            addr = streak_len * 64
            for _ in range(streak_len):
                t.on_l2_fill(addr, from_llc=True)
                t.on_l2_evict(addr, dirty=False)
            t.on_dirtied(addr)
        buckets = t.stats.ctc_buckets()
        assert buckets == {"ctc=1": 1, "1<ctc<5": 2, "ctc>=5": 2}

    def test_ctc_shares_sum_to_one(self):
        t = LoopBlockTracker()
        for _ in range(4):
            t.on_l2_fill(A, from_llc=True)
            t.on_l2_evict(A, dirty=False)
        t.finalize()
        fractions = t.stats.ctc_shares()
        assert abs(sum(fractions.values()) - 1.0) < 1e-12

    def test_fraction_zero_when_no_evictions(self):
        assert LoopBlockTracker().loop_block_fraction == 0.0

    def test_occupancy_sampling(self):
        t = LoopBlockTracker()
        t.sample_llc_occupancy(10, 4)
        t.sample_llc_occupancy(10, 6)
        assert t.stats.llc_loop_samples == 20
        assert t.stats.llc_loop_blocks == 10


class TestTrackerInHierarchy:
    def test_loop_workload_registers_clean_trips(self):
        h = build_micro("lap")
        # A..D loop between L2 and LLC three times.
        run_refs(h, reads(A, B, C, D, E, F, G, H))
        for _ in range(3):
            run_refs(h, reads(A, B, C, D))
            run_refs(h, reads(E, F, G, H))
        h.finish()
        assert h.loop_tracker.stats.loop_evictions >= 8

    def test_streaming_workload_has_no_clean_trips(self):
        h = build_micro("non-inclusive")
        addrs = [i * 64 for i in range(40)]  # one-shot stream
        run_refs(h, reads(*addrs))
        h.finish()
        assert h.loop_tracker.stats.loop_evictions == 0

    def test_write_heavy_workload_finalizes_as_dirty(self):
        h = build_micro("non-inclusive")
        run_refs(h, reads(A, B, C, D))
        run_refs(h, reads(E, F, G, H))
        run_refs(h, writes(A, B, C, D))  # brought back dirty
        run_refs(h, reads(E, F, G, H))
        h.finish()
        assert h.loop_tracker.stats.loop_evictions == 0

    def test_loop_fraction_between_zero_and_one(self, small_system):
        from repro import make_workload, simulate

        wl = make_workload("xalancbmk", small_system)
        r = simulate(small_system, "non-inclusive", wl, refs_per_core=5000)
        assert 0.0 <= r.loop_block_fraction <= 1.0

    def test_loop_heavy_beats_streaming_fraction(self, small_system):
        from repro import make_workload, simulate

        frac = {}
        for bench in ("omnetpp", "lbm"):
            wl = make_workload(bench, small_system)
            frac[bench] = simulate(
                small_system, "non-inclusive", wl, refs_per_core=6000
            ).loop_block_fraction
        assert frac["omnetpp"] > frac["lbm"] + 0.2
