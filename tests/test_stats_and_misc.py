"""Coverage of small public primitives: stats containers, misc cache ops."""

import pytest

from repro.cache import Cache, CacheStats, LRUPolicy
from repro.cache.stats import CoherenceStats, DuelingStats, LoopBlockStats
from repro.utils import fmt_bytes


class TestCacheStatsContainer:
    def test_reset_zeroes_everything(self):
        s = CacheStats()
        s.hits = 5
        s.data_writes_stt = 3
        s.reset()
        assert s.hits == 0 and s.data_writes_stt == 0

    def test_snapshot_roundtrip(self):
        s = CacheStats()
        s.misses = 7
        snap = s.snapshot()
        assert snap["misses"] == 7
        assert "fill_writes" in snap

    def test_add_accumulates(self):
        a, b = CacheStats(), CacheStats()
        a.hits = 2
        b.hits = 3
        b.clean_victim_writes = 1
        a.add(b)
        assert a.hits == 5 and a.clean_victim_writes == 1

    def test_llc_writes_property(self):
        s = CacheStats()
        s.fill_writes = 1
        s.clean_victim_writes = 2
        s.dirty_victim_writes = 3
        s.update_writes = 4
        assert s.llc_writes == 10

    def test_miss_rate(self):
        s = CacheStats()
        assert s.miss_rate == 0.0
        s.lookups, s.misses = 10, 4
        assert s.miss_rate == pytest.approx(0.4)


class TestOtherStats:
    def test_coherence_total_traffic(self):
        c = CoherenceStats(snoop_broadcasts=3, invalidation_messages=2)
        assert c.total_traffic == 5
        c.reset()
        assert c.total_traffic == 0

    def test_dueling_interval_reset(self):
        d = DuelingStats(leader_a_misses=4, leader_b_misses=2)
        d.reset_interval()
        assert d.leader_a_misses == 0 and d.leader_b_misses == 0

    def test_loop_stats_fraction_and_buckets(self):
        s = LoopBlockStats()
        s.l2_evictions = 10
        s.loop_evictions = 4
        s.record_ctc(1)
        s.record_ctc(7)
        s.record_ctc(0)  # ignored
        assert s.loop_block_fraction == pytest.approx(0.4)
        assert s.ctc_buckets() == {"ctc=1": 1, "1<ctc<5": 0, "ctc>=5": 1}

    def test_loop_stats_ctc_shares(self):
        s = LoopBlockStats()
        assert s.ctc_shares() == {"ctc=1": 0.0, "1<ctc<5": 0.0, "ctc>=5": 0.0}
        for ctc in (1, 2, 3, 9):
            s.record_ctc(ctc)
        assert s.ctc_shares() == {"ctc=1": 0.25, "1<ctc<5": 0.5, "ctc>=5": 0.25}


class TestMiscCacheOps:
    def test_read_block_counts_region_read(self):
        c = Cache("m", 1024, 4, 64, replacement=LRUPolicy(), tech="stt")
        c.insert(0, dirty=False)
        before = c.stats.data_reads_stt
        c.read_block(c.peek(0))
        assert c.stats.data_reads_stt == before + 1

    def test_repr_smoke(self):
        c = Cache("m", 1024, 4, 64)
        assert "m" in repr(c)
        c.insert(0, dirty=True)
        assert "tag" in repr(c.peek(0))
        assert "valid" in repr(c.sets[0])


class TestSwitchingIntrospection:
    def test_current_mode_tracks_winner(self):
        from repro.inclusion.switching import MODE_EX
        from repro.testing import build_micro

        h = build_micro("dswitch", llc_bytes=8192, llc_assoc=4)
        h.policy.dueling.winner = MODE_EX
        assert h.policy.current_mode == MODE_EX


class TestFmtBytesEdge:
    def test_gigabyte_path(self):
        assert fmt_bytes(3 * 1024**3) == "3GB"


class TestLAPOverheads:
    def test_full_scale_overhead_negligible(self):
        from repro.core import lap_overheads
        from repro.hierarchy import table2_config

        o = lap_overheads(table2_config())
        # one bit per 64B block = 1/512 of capacity, ~0.2%
        assert o.relative_overhead == pytest.approx(
            (o.l2_loop_bits + o.llc_loop_bits + 64) / o.data_bits
        )
        assert o.relative_overhead < 0.003
        assert o.llc_loop_bits == 8 * 1024 * 1024 // 64

    def test_counter_cost_constant(self):
        from repro.core import lap_overheads
        from repro.hierarchy import scaled_config, table2_config

        assert (
            lap_overheads(scaled_config()).counter_bits
            == lap_overheads(table2_config()).counter_bits
            == 64
        )

    def test_summary_rows_render(self):
        from repro.analysis import render_table
        from repro.core import lap_overheads
        from repro.hierarchy import scaled_config

        rows = lap_overheads(scaled_config()).summary_rows()
        out = render_table("overheads", ["what", "value"], rows)
        assert "loop-bits" in out
