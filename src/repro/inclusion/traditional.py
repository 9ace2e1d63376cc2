"""Traditional inclusion properties: inclusive, non-inclusive, exclusive.

These implement the three data flows of the paper's Fig. 1:

- **inclusive** — LLC misses fill the LLC, LLC evictions back-invalidate
  upper levels, clean victims are dropped. (Provided for completeness;
  the paper's evaluation focuses on the next two, because strict
  inclusion cannot bypass redundant writes at all.)
- **non-inclusive** — LLC misses fill the LLC, no back-invalidation,
  clean victims are dropped, dirty victims update/insert. LLC writes =
  data fills + dirty victims.
- **exclusive** — LLC misses do *not* fill the LLC, LLC hits invalidate
  the LLC copy, every L2 victim (clean or dirty) is inserted. LLC
  writes = clean victims + dirty victims.
"""

from __future__ import annotations

from ..cache import EvictedLine
from .base import InclusionPolicy, LLCAccess


class NonInclusivePolicy(InclusionPolicy):
    """The paper's baseline (``noni``)."""

    name = "non-inclusive"
    invalidate_on_hit = False
    fill_on_miss = True
    clean_writeback = False
    back_invalidates = False

    def llc_access(self, h, core: int, addr: int, is_write: bool) -> LLCAccess:
        block = self._llc_lookup(h, core, addr)
        if block is not None:
            return LLCAccess(hit=True, tech=block.tech)
        # Miss: the line is brought from memory into BOTH L2 and L3
        # (Fig. 1b) — the LLC data-fill that Section II-C2 shows can be
        # redundant.
        self.insert_or_update(h, core, addr, dirty=False, category="fill")
        return LLCAccess(hit=False, tech=self.llc.tech)

    def l2_victim(self, h, core: int, line: EvictedLine) -> None:
        if not line.dirty:
            return  # clean victims are silently dropped (duplicate kept)
        self.insert_or_update(h, core, line.addr, dirty=True, category="dirty_victim")


class ExclusivePolicy(InclusionPolicy):
    """Exclusive LLC (``ex``): upper levels and LLC hold disjoint data."""

    name = "exclusive"
    invalidate_on_hit = True
    fill_on_miss = False
    clean_writeback = True
    back_invalidates = False

    def llc_access(self, h, core: int, addr: int, is_write: bool) -> LLCAccess:
        block = self._llc_lookup(h, core, addr)
        if block is None:
            return LLCAccess(hit=False, tech=self.llc.tech)
        tech = block.tech
        # Invalidate on hit for larger effective capacity (Fig. 1c) —
        # except for lines other cores still hold, which stay resident
        # so shared readers are not forced through snoops. A dirty copy
        # hands its writeback obligation up with the data: the L2 fill
        # inherits the dirty bit, otherwise the deferred memory write
        # would silently vanish with the invalidated line.
        dirty = False
        if not h.shared_by_peers(core, addr):
            dirty = block.dirty
            self.llc.discard(addr)
            self.llc.stats.hit_invalidations += 1
            h.note_llc_evict(addr)
        return LLCAccess(hit=True, tech=tech, dirty=dirty)

    def l2_victim(self, h, core: int, line: EvictedLine) -> None:
        category = "dirty_victim" if line.dirty else "clean_victim"
        self.insert_or_update(
            h, core, line.addr, dirty=line.dirty, loop_bit=line.loop_bit, category=category
        )


class InclusivePolicy(InclusionPolicy):
    """Strictly inclusive LLC with back-invalidation (Fig. 1a)."""

    name = "inclusive"
    invalidate_on_hit = False
    fill_on_miss = True
    clean_writeback = False
    back_invalidates = True

    def llc_access(self, h, core: int, addr: int, is_write: bool) -> LLCAccess:
        block = self._llc_lookup(h, core, addr)
        if block is not None:
            return LLCAccess(hit=True, tech=block.tech)
        self.insert_or_update(h, core, addr, dirty=False, category="fill")
        return LLCAccess(hit=False, tech=self.llc.tech)

    def l2_victim(self, h, core: int, line: EvictedLine) -> None:
        if not line.dirty:
            return
        self.insert_or_update(h, core, line.addr, dirty=True, category="dirty_victim")
