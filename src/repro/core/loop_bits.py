"""Loop-block identification and clean-trip-count instrumentation.

Two related pieces live here:

1. The *loop-bit mechanism* itself is distributed: the single bit per
   block lives on :class:`~repro.cache.block.CacheBlock` in both L2 and
   L3, and :class:`~repro.core.lap.LAPPolicy` updates it at the three
   points of the paper's Fig. 10 (reset on fill/write, carried on
   eviction, set on LLC hit).
2. :class:`LoopBlockTracker` — always-on, policy-independent
   instrumentation that measures the workload characteristics of
   Section II-C1: the fraction of L2 evictions that are loop-blocks and
   the clean-trip-count (CTC) distribution (Fig. 4).

Operational definitions (documented here because the paper describes
them by example):

- a **clean trip** is an L2 eviction of a *clean* block whose most
  recent L2 fill was served by an LLC hit — i.e. the block travelled
  LLC → L2 → (unchanged) → LLC;
- a block's **CTC** is the length of its streak of consecutive clean
  trips; the streak finalises (is recorded in the histogram) when the
  block is written in L2 or evicted dirty, and any still-open streaks
  are flushed at end of run;
- the **loop-block fraction** (Fig. 4's y-axis) is clean-trip
  evictions over all L2 evictions.
"""

from __future__ import annotations

from typing import Dict

from ..cache.stats import LoopBlockStats


class LoopBlockTracker:
    """Measures loop-block populations independent of the active policy."""

    def __init__(self) -> None:
        self.stats = LoopBlockStats()
        self._streak: Dict[int, int] = {}
        self._from_llc: Dict[int, bool] = {}

    def on_l2_fill(self, addr: int, from_llc: bool) -> None:
        """An L2 fill; ``from_llc`` is True when the LLC supplied it."""
        self._from_llc[addr] = from_llc

    def on_dirtied(self, addr: int) -> None:
        """A store dirtied the block: its clean streak ends."""
        self._finalize(addr)

    def on_l2_evict(self, addr: int, dirty: bool) -> None:
        """An L2 eviction; classifies it as a clean trip or not."""
        self.stats.l2_evictions += 1
        if dirty:
            self._finalize(addr)
            return
        if self._from_llc.get(addr, False):
            self._streak[addr] = self._streak.get(addr, 0) + 1
            self.stats.loop_evictions += 1

    def is_loop(self, addr: int) -> bool:
        """True when ``addr`` has an open clean-trip streak (it has
        travelled L2↔LLC clean at least once without being written)."""
        return self._streak.get(addr, 0) > 0

    def on_clean_insert(self, addr: int) -> None:
        """A clean victim was *written* into the LLC; if it already had
        a clean-trip history the write is a redundant loop-block
        re-insertion (the energy-harmful event of Fig. 16)."""
        if self.is_loop(addr):
            self.stats.loop_reinsertions += 1

    def sample_llc_occupancy(self, valid: int, loops: int) -> None:
        """Accumulate one occupancy sample (Fig. 16's loop-block share)."""
        self.stats.llc_loop_samples += valid
        self.stats.llc_loop_blocks += loops

    def finalize(self) -> None:
        """Flush open streaks into the CTC histogram (end of run)."""
        for addr in list(self._streak):
            self._finalize(addr)

    @property
    def loop_block_fraction(self) -> float:
        """Fraction of L2 evictions that were clean trips (Fig. 4)."""
        return self.stats.loop_block_fraction

    def _finalize(self, addr: int) -> None:
        streak = self._streak.pop(addr, 0)
        if streak > 0:
            self.stats.record_ctc(streak)
