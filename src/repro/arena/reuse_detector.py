"""Reuse Detector: bypass LLC fills for blocks with no predicted reuse.

Rodríguez-Rodríguez et al., "Reuse Detector: improving the management
of STT-RAM SLLCs" (arXiv 2402.00533) observe that most blocks inserted
into a shared LLC are never referenced again before eviction, and that
on an STT-RAM LLC every such insertion is a wasted expensive write.
Their mechanism inserts a block only once it has *demonstrated* reuse:
the first LLC miss on a block records it in a small per-set detector
table and bypasses the fill; a second miss while still tracked is the
reuse signal, and only then does the line fill the LLC.

Adaptation to this substrate: the paper's detector keys on block
addresses sampled near the LLC (their §3, Algorithm 1); we keep a
bounded FIFO of recently-missed tags per LLC set ("reuse bits"), which
is the same capacity-bounded second-miss test without PC information
(the synthetic traces carry none). Victim handling is the base class's
non-inclusive flow: clean L2 victims are dropped (a bypassed block
simply has no LLC copy), dirty victims always insert — dirty data must
never be lost, bypass predictor notwithstanding.

Accounting laws the differential harness holds this policy to:
``clean_writeback=False`` ⇒ zero ``clean_victim_writes``; the write
ledger and dirty-conservation invariants apply in full. The fill law
is *selective* (``fill_on_miss=True`` but only predicted-reuse misses
fill), so ``fill_writes <= llc misses`` with the gap reported via
``extra_stats()`` as ``reuse_bypasses``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List

from ..inclusion.base import InclusionPolicy


class ReuseDetectorPolicy(InclusionPolicy):
    """Selective-fill non-inclusion driven by a per-set reuse detector."""

    name = "reuse-detector"
    invalidate_on_hit = False
    fill_on_miss = True  # selectively: only predicted-reuse misses fill
    clean_writeback = False
    back_invalidates = False

    def __init__(self, detector_entries: int = 4) -> None:
        super().__init__()
        if detector_entries <= 0:
            raise ValueError(
                f"detector_entries must be positive, got {detector_entries}"
            )
        #: tracked tags per LLC set (the paper's per-set "reuse bits")
        self.detector_entries = detector_entries
        self._detector: List[OrderedDict] = []
        #: misses bypassed because the detector predicted no reuse
        self.reuse_bypasses = 0
        #: misses filled because the detector had seen the tag before
        self.reuse_fills = 0

    def bind(self, hierarchy) -> None:
        super().bind(hierarchy)
        self._detector = [OrderedDict() for _ in range(self.llc.num_sets)]

    def fills_miss(self, addr: int) -> bool:
        llc = self.llc
        tracked = self._detector[llc.set_index(addr)]
        tag = llc.tag_of(addr)
        if tag in tracked:
            # Second miss while tracked: demonstrated reuse — fill.
            del tracked[tag]
            self.reuse_fills += 1
            return True
        # First sighting: record it, bypass the fill (the L2 still
        # receives the line; only the LLC write is skipped).
        tracked[tag] = None
        if len(tracked) > self.detector_entries:
            tracked.popitem(last=False)
        self.reuse_bypasses += 1
        return False

    def extra_stats(self) -> dict:
        return {
            "reuse_bypasses": self.reuse_bypasses,
            "reuse_fills": self.reuse_fills,
        }
