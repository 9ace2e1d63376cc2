"""Lhybrid: LAP's loop-block-aware data placement for hybrid LLCs
(paper Section IV, Figs. 11, 24, 25).

On a hybrid SRAM/STT-RAM LLC (Table II: 4 SRAM ways + 12 STT-RAM ways
per set), *where* a block lands matters as much as *whether* it is
written: STT-RAM writes cost ~8x SRAM writes. Lhybrid keeps LAP's
selective-inclusion data flow and adds three placement stages, each
independently toggleable so Fig. 25's ablation can be reproduced:

- ``winv`` ("LAP+Winv"): a dirty L2 victim that hits a duplicate in the
  STT-RAM region invalidates that copy and lands in SRAM instead of
  rewriting STT-RAM (Fig. 11a);
- ``loop_stt`` ("LAP+LoopSTT"): loop-blocks — which will not be
  rewritten on their next evictions — are steered into STT-RAM;
- ``nloop_sram`` ("LAP+NloopSRAM"): write-prone non-loop-blocks are
  steered into SRAM.

With all three enabled (full Lhybrid) insertions are SRAM-first: a full
SRAM region makes room by migrating its MRU loop-block into STT-RAM
(Fig. 11b), or, with no loop-blocks anywhere, by evicting the SRAM LRU
block (Fig. 11c). STT-RAM victims are chosen loop-aware (invalid →
LRU non-loop-block → LRU loop-block).
"""

from __future__ import annotations

from typing import Optional

from ..cache import CacheBlock, EvictedLine
from ..cache.replacement import LoopAwarePolicy, LRUPolicy
from ..errors import ConfigurationError
from .lap import LAPPolicy


class LhybridPolicy(LAPPolicy):
    """LAP with loop-block-aware hybrid data placement."""

    def __init__(
        self,
        winv: bool = True,
        loop_stt: bool = True,
        nloop_sram: bool = True,
        replacement_mode: str = "duel",
        duel_period: int = 64,
        duel_interval: int = 4096,
    ) -> None:
        super().__init__(replacement_mode, duel_period, duel_interval)
        self.winv = winv
        self.loop_stt = loop_stt
        self.nloop_sram = nloop_sram
        stages = [
            label
            for flag, label in ((winv, "winv"), (loop_stt, "loopstt"), (nloop_sram, "nloopsram"))
            if flag
        ]
        if winv and loop_stt and nloop_sram:
            self.name = "lhybrid"
        elif stages:
            self.name = "lap+" + "+".join(stages)
        else:
            self.name = "lap(hybrid)"
        self._region_lru = LRUPolicy()
        self._region_loop_aware = LoopAwarePolicy(LRUPolicy())
        self.winv_redirects = 0

    def bind(self, hierarchy) -> None:
        super().bind(hierarchy)
        if not self.llc.hybrid:
            raise ConfigurationError(
                "LhybridPolicy requires a hybrid LLC (sram_ways set); use "
                "LAPPolicy for homogeneous LLCs"
            )

    # ------------------------------------------------------------------
    # dirty-hit redirection (Winv stage, Fig. 11a)
    # ------------------------------------------------------------------
    def l2_victim(self, h, core: int, line: EvictedLine) -> None:
        if line.dirty and self.winv:
            existing = self.llc.probe(line.addr)
            if existing is not None and existing.tech == "stt":
                self.llc.discard(line.addr)
                h.note_llc_evict(line.addr)
                self.winv_redirects += 1
                # Fig. 11a: the dirty data explicitly lands in SRAM.
                evicted = self._insert_sram_preferred(
                    h, core, line.addr, dirty=True, loop_bit=False
                )
                self._finish_insert(
                    h, core, line.addr, evicted, dirty=True, category="dirty_victim"
                )
                return
        super().l2_victim(h, core, line)

    def _insert_sram_preferred(self, h, core: int, addr: int, *, dirty: bool, loop_bit: bool):
        """Insert into the SRAM region, using the full migration flow
        when both placement stages are active."""
        cache_set = self.llc.sets[self.llc.set_index(addr)]
        if self.loop_stt and self.nloop_sram:
            return self._sram_first_insert(h, core, cache_set, addr, dirty, loop_bit)
        return self.llc.insert(
            addr, dirty=dirty, loop_bit=loop_bit, region="sram", policy=self._region_lru
        )

    # ------------------------------------------------------------------
    # placement (LoopSTT / NloopSRAM stages, Figs. 11b/11c)
    # ------------------------------------------------------------------
    def _place_and_insert(
        self,
        h,
        core: int,
        addr: int,
        *,
        dirty: bool,
        loop_bit: bool,
        category: str,
    ) -> None:
        llc = self.llc
        set_index = llc.set_index(addr)
        cache_set = llc.sets[set_index]

        if self.loop_stt and self.nloop_sram:
            evicted = self._sram_first_insert(h, core, cache_set, addr, dirty, loop_bit)
        elif self.loop_stt and loop_bit:
            evicted = llc.insert(
                addr, dirty=dirty, loop_bit=loop_bit, region="stt",
                policy=self._region_loop_aware,
            )
        elif self.nloop_sram and not loop_bit:
            evicted = llc.insert(
                addr, dirty=dirty, loop_bit=loop_bit, region="sram", policy=self._region_lru
            )
        else:
            evicted = llc.insert(
                addr, dirty=dirty, loop_bit=loop_bit, region=None,
                policy=self.replacement_for(set_index),
            )
        self._finish_insert(h, core, addr, evicted, dirty=dirty, category=category)

    def _sram_first_insert(self, h, core, cache_set, addr: int, dirty: bool, loop_bit: bool):
        """Full-Lhybrid insertion: SRAM first, migrate loop-blocks out.

        An incoming *loop-block* goes straight into STT-RAM: it is by
        definition the most-recently-used loop-block, so Fig. 11b's
        "migrate the MRU loop-block" degenerates to a direct insertion
        — one STT write instead of an SRAM write plus a migration.
        """
        llc = self.llc
        if loop_bit:
            return llc.insert(addr, dirty=dirty, loop_bit=loop_bit, region="stt",
                              policy=self._region_loop_aware)
        sram_blocks = cache_set.region_blocks("sram")
        free = self._region_lru.first_invalid(sram_blocks)
        if free is not None:
            return llc.insert(addr, dirty=dirty, loop_bit=loop_bit, region="sram",
                              policy=self._region_lru)
        loop_in_sram = [b for b in sram_blocks if b.loop_bit]
        if loop_in_sram:
            # Fig. 11b: migrate the MRU loop-block to STT-RAM, then the
            # incoming block takes the freed SRAM way.
            mover = max(loop_in_sram, key=lambda b: b.last_access)
            self._migrate_to_stt(h, core, cache_set, mover)
            return llc.insert(addr, dirty=dirty, loop_bit=loop_bit, region="sram",
                              policy=self._region_lru)
        # Fig. 11c: no loop-blocks at all — evict the SRAM LRU block.
        return llc.insert(addr, dirty=dirty, loop_bit=loop_bit, region="sram",
                          policy=self._region_lru)

    def _migrate_to_stt(self, h, core: int, cache_set, mover: CacheBlock) -> None:
        """Move an SRAM-resident loop-block into the STT-RAM region."""
        llc = self.llc
        stt_blocks = cache_set.region_blocks("stt")
        dst = self._region_loop_aware.victim(stt_blocks, mover.last_access)
        evicted: Optional[object] = None
        if dst.valid:
            evicted = llc.evict_block(cache_set, dst)
        addr = llc.addr_of(cache_set.index, mover.tag)
        llc.migrate_block(cache_set, mover, dst)
        h.charge_llc_write(core, addr, "stt")
        if evicted is not None:
            h.on_llc_eviction(evicted)
