"""Micro-trace tests of the traditional inclusion properties.

These reproduce the paper's worked examples: Fig. 3 (redundant clean
insertions in exclusive LLCs) and Fig. 5 (redundant data fills in
non-inclusive LLCs), plus the basic Fig. 1 data flows.
"""

from tests.conftest import A, B, C, D, E, F, G, H, build_micro, run_refs


def reads(*addrs):
    return [(a, False) for a in addrs]


def writes(*addrs):
    return [(a, True) for a in addrs]


class TestNonInclusiveFlow:
    def test_miss_fills_llc(self):
        h = build_micro("non-inclusive")
        run_refs(h, reads(A))
        assert h.llc.peek(A) is not None
        assert h.llc.stats.fill_writes == 1

    def test_hit_keeps_copy(self):
        h = build_micro("non-inclusive")
        run_refs(h, reads(A, E, F, G, H))  # A evicted from L2 eventually
        run_refs(h, reads(A))  # LLC hit
        assert h.llc.peek(A) is not None
        assert h.llc.stats.hit_invalidations == 0

    def test_clean_victim_silently_dropped(self):
        h = build_micro("non-inclusive")
        run_refs(h, reads(A, B, C, D, E, F, G, H))
        assert h.llc.stats.clean_victim_writes == 0

    def test_dirty_victim_updates_existing_copy(self):
        h = build_micro("non-inclusive")
        run_refs(h, writes(A) + reads(B, C, D, E, F, G, H))
        assert h.llc.stats.update_writes == 1
        assert h.llc.peek(A).dirty

    def test_fig5_redundant_data_fill(self):
        """Fig. 5: fills of blocks modified before LLC reuse are redundant."""
        h = build_micro("non-inclusive")
        run_refs(h, reads(A, B, C))  # data-fill A, B, C
        run_refs(h, writes(B, C))  # B and C modified in upper levels
        run_refs(h, reads(E, F, G, H))  # evict them all
        assert h.llc.stats.fill_writes == 7  # A,B,C + E,F,G,H
        assert h.llc.stats.update_writes == 2  # dirty B, C merge into LLC
        assert h.llc.stats.redundant_fills == 2  # exactly B and C

    def test_demand_hit_clears_redundancy(self):
        h = build_micro("non-inclusive")
        run_refs(h, reads(A, E, F, G, H))  # A filled, then evicted from L2
        run_refs(h, reads(A))  # LLC demand hit: the fill was useful
        run_refs(h, writes(A) + reads(E, F, G, H))
        assert h.llc.stats.redundant_fills == 0


class TestExclusiveFlow:
    def test_miss_does_not_fill_llc(self):
        h = build_micro("exclusive")
        run_refs(h, reads(A))
        assert h.llc.peek(A) is None
        assert h.llc.stats.fill_writes == 0

    def test_hit_invalidates_copy(self):
        h = build_micro("exclusive")
        run_refs(h, reads(A, B, C, D, E, F, G, H))  # A..D evicted into LLC
        assert h.llc.peek(A) is not None
        run_refs(h, reads(A))  # LLC hit moves the block up
        assert h.llc.peek(A) is None
        assert h.llc.stats.hit_invalidations == 1

    def test_clean_and_dirty_victims_inserted(self):
        h = build_micro("exclusive")
        run_refs(h, reads(A, B) + writes(C, D) + reads(E, F, G, H))
        assert h.llc.stats.clean_victim_writes == 2
        assert h.llc.stats.dirty_victim_writes == 2

    def test_fig3_redundant_clean_insertion(self):
        """Fig. 3: loop-blocks A and C are re-inserted by the exclusive
        LLC while the non-inclusive LLC writes only the dirty B and D."""
        trace_phase12 = reads(A) + reads(B) + writes(C, D) + reads(E, F, G, H)
        trace_phase345 = reads(A, B, C, D) + writes(B, D) + reads(E, F, G, H)

        ex = build_micro("exclusive")
        run_refs(ex, trace_phase12)
        before = ex.llc.stats.llc_writes
        run_refs(ex, trace_phase345)
        ex_second_round = ex.llc.stats.llc_writes - before

        noni = build_micro("non-inclusive")
        run_refs(noni, trace_phase12)
        before = noni.llc.stats.llc_writes
        run_refs(noni, trace_phase345)
        noni_second_round = noni.llc.stats.llc_writes - before

        # Exclusive re-inserts all four victims (A..D) plus the four
        # clean E..H victims displaced by the re-reads; non-inclusive
        # writes only the dirty B and D.
        assert ex_second_round - noni_second_round >= 2
        assert noni_second_round == 2

    def test_hit_invalidation_preserves_dirty_data(self):
        """Regression: a dirty LLC copy invalidated on a hit hands its
        writeback obligation up into the L2 fill. It used to be dropped
        — the line re-filled clean and the deferred memory write
        silently vanished."""
        h = build_micro("exclusive")
        run_refs(h, writes(A) + reads(B, C, D, E))  # dirty A evicted to LLC
        assert h.llc.peek(A).dirty
        run_refs(h, reads(A))  # hit-invalidation moves A (and its dirt) up
        assert h.llc.peek(A) is None
        assert h.l2s[0].peek(A).dirty

    def test_dirty_round_trip_reaches_memory(self):
        """Regression companion: after the hit-invalidation round trip,
        the dirty line's eventual LLC eviction must write memory exactly
        once (no loss, no double count)."""
        h = build_micro("exclusive")
        run_refs(h, writes(A) + reads(B, C, D, E))  # A dirty in the LLC
        run_refs(h, reads(A))  # round trip: dirt moves back into L2
        # Flood with 24 fresh blocks: A is re-evicted dirty into the
        # LLC, then pushed out of the 16-way LLC to memory.
        flood = reads(*[i * 64 for i in range(8, 32)])
        run_refs(h, flood)
        assert h.l2s[0].peek(A) is None and h.llc.peek(A) is None
        assert h.stats.mem_writes == 1

    def test_no_duplicates_invariant(self):
        h = build_micro("exclusive")
        import itertools

        pattern = list(itertools.islice(itertools.cycle([A, B, C, D, E, F, G, H]), 64))
        run_refs(h, [(a, i % 3 == 0) for i, a in enumerate(pattern)])
        for core in range(1):
            l2_addrs = set(h.l2s[core].resident_addrs())
            llc_addrs = set(h.llc.resident_addrs())
            assert not (l2_addrs & llc_addrs), "exclusive LLC holds a duplicate"


class TestInclusiveFlow:
    def test_llc_superset_of_l2(self):
        h = build_micro("inclusive")
        run_refs(h, reads(A, B, C, D))
        l2 = set(h.l2s[0].resident_addrs())
        llc = set(h.llc.resident_addrs())
        assert l2 <= llc

    def test_back_invalidation_on_llc_eviction(self):
        # LLC with 2 ways in one set forces quick LLC evictions.
        h = build_micro("inclusive", llc_bytes=128, llc_assoc=2)
        run_refs(h, reads(A, B, C))  # C's fill evicts A or B from LLC
        l2 = set(h.l2s[0].resident_addrs())
        llc = set(h.llc.resident_addrs())
        assert l2 <= llc, "inclusion violated after back-invalidation"

    def test_back_invalidated_dirty_data_reaches_memory(self):
        h = build_micro("inclusive", llc_bytes=128, llc_assoc=2)
        run_refs(h, writes(A) + reads(B, C, D, E))
        assert h.stats.mem_writes >= 1


class TestVictimCascade:
    def test_llc_dirty_eviction_writes_memory(self):
        h = build_micro("non-inclusive", llc_bytes=128, llc_assoc=2)
        run_refs(h, writes(A) + reads(B, C, D, E, F, G, H))
        assert h.stats.mem_writes >= 1

    def test_mem_reads_counted_on_misses(self):
        h = build_micro("non-inclusive")
        run_refs(h, reads(A, B, C))
        assert h.stats.mem_reads == 3

    def test_l2_victim_classification(self):
        h = build_micro("non-inclusive")
        run_refs(h, reads(A) + writes(B) + reads(C, D, E, F, G, H))
        assert h.stats.l2_dirty_victims == 1
        assert h.stats.l2_clean_victims >= 3
