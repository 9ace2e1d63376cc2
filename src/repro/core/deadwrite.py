"""Dead-write bypass — the orthogonal write filter of Section VII.

The paper cites DASCA (Ahn et al., HPCA 2014) as an *orthogonal*
technique: predict which writes install blocks that will never be read
from the LLC ("dead writes") and bypass them. "Their deadblock
bypassing technique is orthogonal to our selective inclusion policies
and can be combined with our approaches to further reduce the dynamic
energy consumption." This module implements that combination.

The predictor is a compact sampling scheme (we have no program
counters in a trace-driven model, so it is indexed by an address-region
hash): a table of saturating counters records whether clean blocks
inserted from each region were re-read before eviction. Clean victims
from regions that historically produce dead insertions are dropped
instead of written. Dirty victims are never bypassed (they would lose
data), matching DASCA's "writeback dead writes" restriction in spirit
while staying write-back-safe.

``DeadWriteBypassLAP`` layers the filter on LAP's selective clean
writeback; ``DeadWriteBypassExclusive`` layers it on a plain exclusive
LLC (a DASCA-like baseline).
"""

from __future__ import annotations

from typing import List

from ..cache import EvictedLine
from ..errors import ConfigurationError
from ..inclusion.traditional import ExclusivePolicy
from .lap import LAPPolicy

# Region granularity for the predictor hash: 4KB pages group blocks
# with similar behaviour without tracking every line.
PAGE_SHIFT = 12


class DeadWritePredictor:
    """Saturating-counter table predicting dead clean insertions.

    Counters live in ``[0, max_level]``; a region whose counter falls
    to zero is predicted dead (bypass). Training:

    - an inserted clean block evicted *without reuse* decrements its
      region (the write was dead);
    - a reused one increments it (the write was useful).

    Counters start at ``initial`` so cold regions are *not* bypassed —
    the filter must earn its bypasses.
    """

    def __init__(
        self,
        table_size: int = 1024,
        max_level: int = 3,
        initial: int = 2,
    ) -> None:
        if table_size <= 0 or table_size & (table_size - 1):
            raise ConfigurationError(
                f"predictor table size must be a power of two, got {table_size}"
            )
        if not 0 < initial <= max_level:
            raise ConfigurationError(
                f"initial counter {initial} must lie in (0, {max_level}]"
            )
        self.table_size = table_size
        self.max_level = max_level
        self._mask = table_size - 1
        self._counters: List[int] = [initial] * table_size
        self.bypassed = 0
        self.trained_dead = 0
        self.trained_live = 0

    def _index(self, addr: int) -> int:
        page = addr >> PAGE_SHIFT
        # xor-fold the page number so strided regions spread out
        return (page ^ (page >> 10)) & self._mask

    def predicts_dead(self, addr: int) -> bool:
        """True when clean insertions from this region look dead."""
        return self._counters[self._index(addr)] == 0

    def train(self, addr: int, reused: bool) -> None:
        """Feed back the observed fate of an inserted clean block."""
        idx = self._index(addr)
        if reused:
            self.trained_live += 1
            if self._counters[idx] < self.max_level:
                self._counters[idx] += 1
        else:
            self.trained_dead += 1
            if self._counters[idx] > 0:
                self._counters[idx] -= 1

    def record_bypass(self) -> None:
        self.bypassed += 1


class _DeadWriteMixin:
    """Shared bypass/training plumbing for the two combined policies."""

    def _init_predictor(self, table_size: int, max_level: int, initial: int) -> None:
        self.predictor = DeadWritePredictor(table_size, max_level, initial)

    def _bypass_clean(self, line: EvictedLine) -> bool:
        """Drop a clean victim when its region's writes look dead."""
        if self.predictor.predicts_dead(line.addr):
            self.predictor.record_bypass()
            return True
        return False

    def _train_on_llc_eviction(self, evicted: EvictedLine | None) -> None:
        """Clean LLC victims carry the reuse verdict for training."""
        if evicted is not None and not evicted.dirty:
            self.predictor.train(evicted.addr, evicted.reused)

    def _finish_insert(self, h, core, addr, evicted, *, dirty, category):
        self._train_on_llc_eviction(evicted)
        super()._finish_insert(h, core, addr, evicted, dirty=dirty, category=category)


class DeadWriteBypassLAP(_DeadWriteMixin, LAPPolicy):
    """LAP + dead-write bypass of non-duplicate clean victims."""

    def __init__(
        self,
        replacement_mode: str = "duel",
        duel_period: int = 64,
        duel_interval: int = 4096,
        table_size: int = 1024,
        max_level: int = 3,
        initial: int = 2,
    ) -> None:
        super().__init__(replacement_mode, duel_period, duel_interval)
        self._init_predictor(table_size, max_level, initial)
        self.name = "lap+dwb"

    def l2_victim(self, h, core: int, line: EvictedLine) -> None:
        if not line.dirty and self.llc.peek(line.addr) is None and self._bypass_clean(line):
            return
        super().l2_victim(h, core, line)


class DeadWriteBypassExclusive(_DeadWriteMixin, ExclusivePolicy):
    """Exclusive LLC + dead-write bypass (DASCA-like baseline)."""

    def __init__(
        self,
        table_size: int = 1024,
        max_level: int = 3,
        initial: int = 2,
    ) -> None:
        super().__init__()
        self._init_predictor(table_size, max_level, initial)
        self.name = "exclusive+dwb"

    def l2_victim(self, h, core: int, line: EvictedLine) -> None:
        if not line.dirty and self._bypass_clean(line):
            return
        super().l2_victim(h, core, line)
