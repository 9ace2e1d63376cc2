"""Property-based tests (hypothesis) on core data structures and the
hierarchy's structural invariants."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.cache import Cache, LRUPolicy
from repro.core.loop_bits import LoopBlockTracker
from repro.inclusion.dueling import SetDueling
from tests.conftest import build_micro

BLOCK = 64

# A compact address universe that exercises conflicts heavily.
addr_strategy = st.integers(min_value=0, max_value=31).map(lambda i: i * BLOCK)
ref_strategy = st.tuples(addr_strategy, st.booleans())
trace_strategy = st.lists(ref_strategy, min_size=1, max_size=300)

POLICY_NAMES = ["non-inclusive", "exclusive", "inclusive", "lap", "flexclusion", "dswitch"]


class TestCacheProperties:
    @given(ops=st.lists(st.tuples(addr_strategy, st.booleans()), max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_tag_map_consistency(self, ops):
        """After any operation sequence, the tag map and the block array
        agree exactly."""
        cache = Cache("p", 2048, 4, BLOCK, replacement=LRUPolicy())
        for addr, dirty in ops:
            if cache.peek(addr) is None:
                cache.insert(addr, dirty=dirty)
            else:
                cache.lookup(addr, is_write=dirty)
        for cache_set in cache.sets:
            mapped = {id(b) for b in cache_set.tag_map.values()}
            valid = {id(b) for b in cache_set.blocks if b.valid}
            assert mapped == valid
            for tag, block in cache_set.tag_map.items():
                assert block.tag == tag

    @given(addrs=st.lists(addr_strategy, min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addrs):
        cache = Cache("p", 1024, 2, BLOCK, replacement=LRUPolicy())
        for addr in addrs:
            cache.insert(addr, dirty=False)
        assert cache.occupancy() <= cache.num_sets * cache.assoc
        for cache_set in cache.sets:
            assert cache_set.occupancy() <= cache.assoc

    @given(addrs=st.lists(addr_strategy, min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_inserted_block_is_retrievable(self, addrs):
        cache = Cache("p", 2048, 4, BLOCK, replacement=LRUPolicy())
        for addr in addrs:
            cache.insert(addr, dirty=False)
            assert cache.peek(addr) is not None

    @given(addrs=st.lists(addr_strategy, min_size=5, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_lru_matches_reference_model(self, addrs):
        """The cache's LRU behaviour matches an ordered-list model."""
        cache = Cache("p", 512, 8, BLOCK, replacement=LRUPolicy())  # one set
        model: list = []
        for addr in addrs:
            if addr in model:
                model.remove(addr)
                model.append(addr)
                assert cache.lookup(addr) is not None
            else:
                if len(model) == 8:
                    model.pop(0)
                model.append(addr)
                cache.lookup(addr)  # miss
                cache.insert(addr, dirty=False)
            assert set(cache.resident_addrs()) == set(model)

    @given(
        addrs=st.lists(addr_strategy, min_size=1, max_size=100),
        sram_ways=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_hybrid_region_inserts_stay_in_region(self, addrs, sram_ways):
        cache = Cache("p", 1024, 4, BLOCK, sram_ways=sram_ways)
        for addr in addrs:
            cache.insert(addr, dirty=False, region="stt")
        for cache_set in cache.sets:
            for block in cache_set.blocks:
                if block.valid:
                    assert block.tech == "stt"


class TestHierarchyProperties:
    @given(trace=trace_strategy, policy=st.sampled_from(POLICY_NAMES))
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_structural_invariants_hold(self, trace, policy):
        h = build_micro(policy, llc_bytes=512, llc_assoc=8)
        for addr, is_write in trace:
            h.access(0, addr, is_write)
        # L1 subset of L2
        assert set(h.l1s[0].resident_addrs()) <= set(h.l2s[0].resident_addrs())
        # stats identities
        s = h.llc.stats
        assert s.hits + s.misses == s.lookups
        assert s.llc_writes == (
            s.fill_writes + s.clean_victim_writes + s.dirty_victim_writes + s.update_writes
        )
        assert h.stats.l1_hits + h.stats.l2_hits + h.stats.llc_demand_accesses == (
            h.stats.accesses
        )
        # inclusive LLC must contain both upper levels
        if policy == "inclusive":
            assert set(h.l2s[0].resident_addrs()) <= set(h.llc.resident_addrs())

    @given(trace=trace_strategy)
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_exclusive_never_duplicates(self, trace):
        h = build_micro("exclusive", llc_bytes=512, llc_assoc=8)
        for addr, is_write in trace:
            h.access(0, addr, is_write)
            dup = set(h.l2s[0].resident_addrs()) & set(h.llc.resident_addrs())
            assert not dup

    @given(trace=trace_strategy)
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_lap_never_fills_and_noni_never_clean_writes(self, trace):
        lap = build_micro("lap", llc_bytes=512, llc_assoc=8)
        noni = build_micro("non-inclusive", llc_bytes=512, llc_assoc=8)
        for addr, is_write in trace:
            lap.access(0, addr, is_write)
            noni.access(0, addr, is_write)
        assert lap.llc.stats.fill_writes == 0
        assert noni.llc.stats.clean_victim_writes == 0

    @given(trace=trace_strategy, seed=st.integers(0, 3))
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_coherent_dirty_blocks_unique(self, trace, seed):
        """At most one core may hold a block dirty at any time."""
        h = build_micro("non-inclusive", ncores=2, enable_coherence=True)
        for i, (addr, is_write) in enumerate(trace):
            h.access((i + seed) % 2, addr, is_write)
            dirty_holders = [
                c
                for c in range(2)
                if (b := h.l2s[c].peek(addr)) is not None and b.dirty
            ]
            assert len(dirty_holders) <= 1


class TestTrackerProperties:
    events = st.lists(
        st.tuples(
            st.sampled_from(["fill_mem", "fill_llc", "dirty", "evict_clean", "evict_dirty"]),
            st.integers(0, 7).map(lambda i: i * BLOCK),
        ),
        max_size=200,
    )

    @given(evs=events)
    @settings(max_examples=60, deadline=None)
    def test_tracker_counters_consistent(self, evs):
        t = LoopBlockTracker()
        for kind, addr in evs:
            if kind == "fill_mem":
                t.on_l2_fill(addr, from_llc=False)
            elif kind == "fill_llc":
                t.on_l2_fill(addr, from_llc=True)
            elif kind == "dirty":
                t.on_dirtied(addr)
            elif kind == "evict_clean":
                t.on_l2_evict(addr, dirty=False)
            else:
                t.on_l2_evict(addr, dirty=True)
        t.finalize()
        s = t.stats
        assert 0 <= s.loop_evictions <= s.l2_evictions
        # every recorded streak is positive and total streak length
        # never exceeds the number of loop evictions
        assert all(k > 0 and v > 0 for k, v in s.ctc_histogram.items())
        total_trips = sum(k * v for k, v in s.ctc_histogram.items())
        assert total_trips <= s.loop_evictions


class TestDuelingProperties:
    @given(
        num_sets=st.sampled_from([1, 2, 8, 32, 128, 1024]),
        events=st.lists(st.tuples(st.integers(0, 1023), st.booleans()), max_size=300),
    )
    @settings(max_examples=50, deadline=None)
    def test_dueling_never_crashes_and_winner_valid(self, num_sets, events):
        d = SetDueling(num_sets=num_sets, interval=16)
        for set_index, is_miss in events:
            idx = set_index % num_sets
            if is_miss:
                d.record_miss(idx)
            else:
                d.record_write(idx)
            d.tick()
            assert d.winner in (0, 1)
            assert d.policy_for(idx) in (0, 1)
