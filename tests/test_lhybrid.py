"""Tests for Lhybrid: hybrid placement stages (Fig. 11) and ablations."""

import pytest

from repro.core import LhybridPolicy
from repro.errors import ConfigurationError
from tests.conftest import A, B, C, D, E, F, G, H, build_micro, run_refs


def reads(*addrs):
    return [(a, False) for a in addrs]


def writes(*addrs):
    return [(a, True) for a in addrs]


def build_hybrid(policy="lhybrid", **kw):
    kw.setdefault("llc_bytes", 1024)
    kw.setdefault("llc_assoc", 16)
    kw.setdefault("sram_ways", 4)
    return build_micro(policy, **kw)


class TestConstruction:
    def test_requires_hybrid_llc(self):
        with pytest.raises(ConfigurationError):
            build_micro("lhybrid")  # homogeneous LLC

    def test_stage_names(self):
        assert LhybridPolicy().name == "lhybrid"
        assert LhybridPolicy(winv=True, loop_stt=False, nloop_sram=False).name == "lap+winv"
        assert LhybridPolicy(winv=False, loop_stt=True, nloop_sram=False).name == "lap+loopstt"
        assert (
            LhybridPolicy(winv=False, loop_stt=False, nloop_sram=True).name
            == "lap+nloopsram"
        )
        assert LhybridPolicy(False, False, False).name == "lap(hybrid)"


class TestPlacement:
    def test_insertions_prefer_sram(self):
        h = build_hybrid()
        run_refs(h, reads(A, B, C, D, E, F, G, H))  # A..D victims into LLC
        placed = [h.llc.peek(x) for x in (A, B, C, D)]
        assert all(b is not None and b.tech == "sram" for b in placed)

    def test_sram_overflow_evicts_lru_when_no_loop_blocks(self):
        h = build_hybrid()
        # 5 clean non-loop victims into a 4-way SRAM region: LRU evicted,
        # nothing migrates to STT (no loop-blocks anywhere).
        addrs = [i * 64 for i in range(9)]
        run_refs(h, reads(*addrs))
        stt_blocks = [b for b in h.llc.sets[0].blocks if b.tech == "stt" and b.valid]
        assert not stt_blocks
        assert h.llc.stats.migrations == 0

    def test_incoming_loop_block_goes_straight_to_stt(self):
        """An incoming loop-block is its own MRU-loop-block: Fig. 11b's
        migration degenerates to a direct STT-RAM insertion."""
        h = build_hybrid()
        h.policy._place_and_insert(h, 0, A, dirty=False, loop_bit=True, category="clean_victim")
        a_block = h.llc.peek(A)
        assert a_block is not None and a_block.tech == "stt" and a_block.loop_bit
        assert h.llc.stats.migrations == 0

    def test_loop_block_migrates_to_stt_under_pressure(self):
        """Fig. 11b: a full SRAM region makes room by migrating its MRU
        loop-block into STT-RAM."""
        h = build_hybrid()
        pol = h.policy
        # A enters SRAM as a non-loop block and is later confirmed to be
        # a loop-block via a clean trip (Fig. 10b tag update).
        pol._place_and_insert(h, 0, A, dirty=False, loop_bit=False, category="clean_victim")
        assert h.llc.peek(A).tech == "sram"
        h.llc.peek(A).loop_bit = True
        for addr in (B, C, D, E):  # fill the remaining 3 SRAM ways + 1
            pol._place_and_insert(h, 0, addr, dirty=True, loop_bit=False, category="dirty_victim")
        a_block = h.llc.peek(A)
        assert a_block is not None and a_block.tech == "stt" and a_block.loop_bit
        assert h.llc.stats.migrations == 1
        # the non-loop blocks all stayed in SRAM
        assert all(h.llc.peek(x).tech == "sram" for x in (B, C, D, E))

    def test_winv_redirects_dirty_hit_to_sram(self):
        h = build_hybrid()
        extras = [(i + 8) * 64 for i in range(8)]
        # Put A in STT as a loop-block (reuse migration scenario).
        run_refs(h, reads(A, B, C, D))
        run_refs(h, writes(E, F, G, H))
        run_refs(h, reads(A))
        run_refs(h, writes(*extras[:4]))
        run_refs(h, writes(*extras[4:]))
        assert h.llc.peek(A).tech == "stt"
        # Now dirty A and evict it: the STT copy must be invalidated and
        # the dirty data written to SRAM (Fig. 11a).
        run_refs(h, writes(A))
        run_refs(h, reads(*[(i + 20) * 64 for i in range(4)]))
        a_block = h.llc.peek(A)
        assert a_block is not None and a_block.tech == "sram" and a_block.dirty
        assert h.policy.winv_redirects >= 1

    def test_loopstt_routes_loop_insertions_to_stt(self):
        h = build_hybrid("lap+loopstt")
        h.policy._place_and_insert(h, 0, A, dirty=False, loop_bit=True, category="clean_victim")
        assert h.llc.peek(A).tech == "stt"

    def test_without_winv_dirty_hit_updates_stt_in_place(self):
        h = build_hybrid("lap+loopstt")
        # Plant A in STT (a loop-block insertion), then dirty it in L2
        # and evict it: without Winv the STT copy is updated in place.
        h.policy._place_and_insert(h, 0, A, dirty=False, loop_bit=True, category="clean_victim")
        assert h.llc.peek(A).tech == "stt"
        stt_writes_before = h.llc.stats.data_writes_stt
        run_refs(h, writes(A))  # LLC hit (kept), dirtied in L2
        run_refs(h, reads(E, F, G, H))  # evict dirty A
        a_block = h.llc.peek(A)
        assert a_block is not None and a_block.tech == "stt" and a_block.dirty
        assert h.llc.stats.data_writes_stt > stt_writes_before

    def test_nloopsram_stage_places_non_loop_in_sram(self):
        h = build_hybrid("lap+nloopsram")
        run_refs(h, reads(A, B, C, D, E, F, G, H))
        placed = [h.llc.peek(x) for x in (A, B, C, D)]
        assert all(b is not None and b.tech == "sram" for b in placed)

    def test_plain_lap_on_hybrid_is_tech_agnostic(self):
        h = build_hybrid("lap")
        addrs = [i * 64 for i in range(12)]
        run_refs(h, reads(*addrs))
        techs = {b.tech for b in h.llc.sets[0].blocks if b.valid}
        assert techs == {"sram", "stt"}


class TestLhybridEndToEnd:
    def test_lhybrid_shifts_writes_to_sram(self, small_hybrid_system):
        from repro import make_workload, simulate

        res = {}
        for pol in ("lap", "lhybrid"):
            wl = make_workload("GemsFDTD", small_hybrid_system)
            res[pol] = simulate(small_hybrid_system, pol, wl, refs_per_core=8000)
        lap_stt_share = res["lap"].llc.data_writes_stt / max(1, res["lap"].llc.data_writes)
        lh_stt_share = res["lhybrid"].llc.data_writes_stt / max(
            1, res["lhybrid"].llc.data_writes
        )
        assert lh_stt_share < lap_stt_share

    def test_lhybrid_saves_energy_on_write_heavy_mix(self, small_hybrid_system):
        from repro import make_workload, simulate

        res = {}
        for pol in ("non-inclusive", "lhybrid"):
            wl = make_workload("GemsFDTD", small_hybrid_system)
            res[pol] = simulate(small_hybrid_system, pol, wl, refs_per_core=8000)
        assert res["lhybrid"].epi < res["non-inclusive"].epi
