"""Unit tests for the InclusionPolicy shared mechanics (base.py)."""

import pytest

from repro.inclusion.base import InclusionPolicy, LLCAccess
from repro.inclusion.dueling import ROLE_LEADER_B
from tests.conftest import A, B, C, build_micro, run_refs


def reads(*addrs):
    return [(a, False) for a in addrs]


class TestBindAndHooks:
    def test_bind_attaches_llc_and_duel_choice_reaches_hits(self):
        # Policies that never override the per-set replacement choice
        # touch LLC hits with the LLC's default replacement ...
        h = build_micro("non-inclusive")
        assert h.policy.llc is h.llc
        touched = []
        h.llc.replacement.on_hit = lambda block, now: touched.append("default")
        h.policy.insert_or_update(h, 0, A, dirty=False, category="fill")
        assert h.policy._llc_lookup(h, 0, A) is not None
        assert touched == ["default"]
        # ... while LAP's duel choice for the set receives the hit
        # through ``Cache.lookup(policy=)``, and follows the winner.
        h2 = build_micro("lap")
        pol = h2.policy
        touched.clear()
        pol._loop_aware.on_hit = lambda block, now: touched.append("loop-aware")
        pol._lru.on_hit = lambda block, now: touched.append("lru")
        pol.insert_or_update(h2, 0, A, dirty=False, category="clean_victim")
        assert pol._llc_lookup(h2, 0, A) is not None
        pol.dueling.winner = ROLE_LEADER_B
        assert pol._llc_lookup(h2, 0, A) is not None
        assert touched == ["loop-aware", "lru"]

    def test_base_policy_is_abstract(self):
        pol = InclusionPolicy()
        with pytest.raises(NotImplementedError):
            pol.llc_access(None, 0, 0, False)
        with pytest.raises(NotImplementedError):
            pol.l2_victim(None, 0, None)

    def test_default_loop_bit_is_false(self):
        assert InclusionPolicy().l2_fill_loop_bit(True) is False

    def test_default_replacement_is_none(self):
        assert InclusionPolicy().replacement_for(0) is None

    def test_on_l2_dirtied_clears_loop_bit(self):
        from repro.cache import CacheBlock

        block = CacheBlock(0)
        block.loop_bit = True
        InclusionPolicy().on_l2_dirtied(block)
        assert not block.loop_bit


class TestInsertOrUpdate:
    def test_insert_path_counts_category(self):
        h = build_micro("non-inclusive")
        h.policy.insert_or_update(h, 0, A, dirty=False, category="fill")
        assert h.llc.stats.fill_writes == 1
        assert h.llc.peek(A) is not None

    def test_update_path_merges_dirty(self):
        h = build_micro("non-inclusive")
        h.policy.insert_or_update(h, 0, A, dirty=False, category="fill")
        h.policy.insert_or_update(h, 0, A, dirty=True, category="dirty_victim")
        assert h.llc.stats.update_writes == 1
        assert h.llc.stats.dirty_victim_writes == 0
        assert h.llc.peek(A).dirty

    def test_merged_fill_stays_a_fill_write(self):
        """Regression: a fill merging into an existing clean copy was
        miscounted as a clean_victim_write, corrupting the Fig. 15
        breakdown across dynamic-mode switches."""
        h = build_micro("non-inclusive")
        h.policy.insert_or_update(h, 0, A, dirty=False, category="fill")
        h.policy.insert_or_update(h, 0, A, dirty=False, category="fill")
        assert h.llc.stats.fill_writes == 2
        assert h.llc.stats.clean_victim_writes == 0

    def test_merged_clean_victim_keeps_its_class(self):
        h = build_micro("non-inclusive")
        h.policy.insert_or_update(h, 0, A, dirty=False, category="fill")
        h.policy.insert_or_update(h, 0, A, dirty=False, category="clean_victim")
        assert h.llc.stats.fill_writes == 1
        assert h.llc.stats.clean_victim_writes == 1

    def test_dirty_flag_in_llc_access(self):
        """The dirty field defaults False and rides along on hits."""
        assert LLCAccess(hit=True, tech="stt").dirty is False
        assert LLCAccess(hit=True, tech="stt", dirty=True).dirty is True

    def test_duplicate_never_created(self):
        h = build_micro("non-inclusive")
        for _ in range(3):
            h.policy.insert_or_update(h, 0, A, dirty=False, category="fill")
        cache_set = h.llc.sets[h.llc.set_index(A)]
        holders = [b for b in cache_set.blocks if b.valid and b.tag == h.llc.tag_of(A)]
        assert len(holders) == 1

    def test_unknown_category_rejected(self):
        h = build_micro("non-inclusive")
        with pytest.raises(ValueError):
            h.policy._place_and_insert(h, 0, A, dirty=False, loop_bit=False, category="bogus")

    def test_insert_charges_bank_write(self):
        h = build_micro("non-inclusive")
        before = h.timing.banks.busy_until[0]
        h.policy.insert_or_update(h, 0, A, dirty=False, category="fill")
        assert h.timing.banks.busy_until[h.llc.bank_of(A)] > before

    def test_llc_victim_cascades_to_memory(self):
        h = build_micro("non-inclusive", llc_bytes=128, llc_assoc=2)
        h.policy.insert_or_update(h, 0, A, dirty=True, category="dirty_victim")
        h.policy.insert_or_update(h, 0, B, dirty=False, category="fill")
        before = h.stats.mem_writes
        h.policy.insert_or_update(h, 0, C, dirty=False, category="fill")  # evicts dirty A
        assert h.stats.mem_writes == before + 1


class TestLLCAccessNamedTuple:
    def test_fields(self):
        acc = LLCAccess(hit=True, tech="stt")
        assert acc.hit and acc.tech == "stt"


class TestHierarchyNotes:
    def test_fresh_fill_lifecycle(self):
        h = build_micro("non-inclusive")
        h.note_fill(A)
        h.note_dirty_victim(A)
        assert h.llc.stats.redundant_fills == 1
        # a second dirty victim for the same line is NOT redundant again
        h.note_dirty_victim(A)
        assert h.llc.stats.redundant_fills == 1

    def test_demand_hit_clears_freshness(self):
        h = build_micro("non-inclusive")
        h.note_fill(A)
        h.note_demand_hit(A)
        h.note_dirty_victim(A)
        assert h.llc.stats.redundant_fills == 0

    def test_eviction_clears_freshness(self):
        h = build_micro("non-inclusive")
        h.note_fill(A)
        h.note_llc_evict(A)
        h.note_dirty_victim(A)
        assert h.llc.stats.redundant_fills == 0

    def test_shared_by_peers_false_without_coherence(self):
        h = build_micro("non-inclusive")
        run_refs(h, reads(A))
        assert not h.shared_by_peers(0, A)
