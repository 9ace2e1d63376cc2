"""Reuse-distance-gated copy-backs of clean victims.

Wang, Wang & Ye, "Reuse Distance-based Victim Cache Copy-back" (arXiv
2105.14442) attack the same write class LAP does — clean lines evicted
from the upper level whose re-insertion into the LLC may never pay off
— but with a different filter: copy a clean victim back only when its
*measured reuse distance* says it is likely to be referenced again
before the LLC would evict it. (The source mechanism copies clean
victims of the higher level back into the lower-level cache, which is
the natural rival to LAP's duplicate-based clean-victim rule, and is
what we implement.)

Mechanism here: the policy timestamps every LLC demand access per
block address and records the gap between consecutive accesses as that
address's observed reuse distance. On a clean L2 eviction the victim
is copied back iff its last observed distance fits within the
``window`` (default: the LLC's capacity in blocks — a line whose
reuses arrive further apart than the LLC can hold lines is unlikely to
survive to its next use). Everything else is the base class's Fig. 8
flow over LAP's row: dirty victims always insert or update (the
writeback obligation is unconditional), LLC hits keep the copy and LLC
misses never fill — so the no-fill invariant and the zero-
``fill_writes`` differential law both apply in full.

The tracking table is bounded: once it exceeds ``4 * window`` entries
the oldest half (by last access) is pruned, keeping long traces from
accumulating per-address state without changing near-window decisions.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cache import EvictedLine
from ..inclusion.base import InclusionPolicy, LLCAccess


class RDCopybackPolicy(InclusionPolicy):
    """No-fill LLC with reuse-distance-triggered clean copy-backs."""

    name = "rd-copyback"
    invalidate_on_hit = False
    fill_on_miss = False
    clean_writeback = True  # selectively: reuse-distance gated
    back_invalidates = False

    def __init__(self, window: Optional[int] = None) -> None:
        super().__init__()
        if window is not None and window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self._requested_window = window
        self.window = window or 0
        self._clock = 0
        self._last_seen: Dict[int, int] = {}
        self._distance: Dict[int, int] = {}
        #: clean victims copied back (predicted near reuse)
        self.copybacks = 0
        #: clean victims dropped (no or far-away observed reuse)
        self.copyback_drops = 0

    def bind(self, hierarchy) -> None:
        super().bind(hierarchy)
        if self._requested_window is None:
            self.window = self.llc.num_sets * self.llc.assoc
        self._clock = 0
        self._last_seen.clear()
        self._distance.clear()

    def llc_access(self, h, core: int, addr: int, is_write: bool) -> LLCAccess:
        self._clock += 1
        last = self._last_seen.get(addr)
        if last is not None:
            self._distance[addr] = self._clock - last
        self._last_seen[addr] = self._clock
        if len(self._last_seen) > 4 * self.window:
            self._prune()
        return super().llc_access(h, core, addr, is_write)

    def l2_victim(self, h, core: int, line: EvictedLine) -> None:
        if not line.dirty:
            distance = self._distance.get(line.addr)
            if distance is None or distance > self.window:
                self.copyback_drops += 1
                return
            self.copybacks += 1
        super().l2_victim(h, core, line)

    def _prune(self) -> None:
        """Drop the stalest half of the tracking table (bounded state)."""
        keep = sorted(self._last_seen, key=self._last_seen.__getitem__)[
            len(self._last_seen) // 2:
        ]
        self._last_seen = {a: self._last_seen[a] for a in keep}
        self._distance = {a: d for a, d in self._distance.items() if a in self._last_seen}

    def extra_stats(self) -> dict:
        return {
            "rd_copybacks": self.copybacks,
            "rd_copyback_drops": self.copyback_drops,
        }
