"""The inclusion-policy interface, and the one generic L2↔LLC flow.

An :class:`InclusionPolicy` owns every decision about the L2↔LLC
boundary. The paper states each inclusion property as one row of a
decision table (Fig. 8), and so does this class: three flags,

- ``fill_on_miss`` — an LLC **miss** fills the LLC (non-inclusion) or
  bypasses it (exclusion, LAP);
- ``invalidate_on_hit`` — an LLC **hit** keeps the copy or invalidates
  it (exclusion), handing a dirty copy's writeback up to the L2;
- ``clean_writeback`` — a clean **L2 victim** is written to the LLC or
  dropped (dirty victims always insert or update);

drive the one flow that :meth:`InclusionPolicy.llc_access` and
:meth:`InclusionPolicy.l2_victim` implement, read per address through
:meth:`InclusionPolicy.flow_for` (the switchers pick a row per set). A
policy overrides a flow method only for a selection its paper defines
on top of the table: LAP's duplicate-aware clean victim, Lhybrid's
placement, dead-write bypass and RD copy-back's clean copy-back. Reuse
Detector narrows only the miss fill (:meth:`InclusionPolicy.fills_miss`).
The **replacement policy** of each LLC set (LAP's set-dueling hooks in
here) and the **placement** inside a hybrid LLC are hooks too.

The hierarchy engine (:mod:`repro.hierarchy.hierarchy`) drives the
per-level mechanics and calls into the bound policy at these decision
points. Each hook is handed the hierarchy that calls it (``h``); a
policy never stores it, so a finished hierarchy holds no cycle and is
freed by reference counting.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple, Optional, Tuple

from ..cache import Cache, CacheBlock, EvictedLine
from ..cache.replacement import ReplacementPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hierarchy.hierarchy import CacheHierarchy


class LLCAccess(NamedTuple):
    """Outcome of one LLC demand access.

    ``hit``: whether the LLC supplied the line; ``tech``: technology
    region that serviced the read (for timing), or the LLC's default
    when missing. ``dirty``: the supplied line carried dirty data whose
    only copy now moves up with it — set by hit-invalidating policies
    (exclusive, switching in exclusive mode) when they discard a dirty
    LLC copy, so the hierarchy fills the L2 dirty and the writeback
    obligation survives the move instead of vanishing with the LLC
    line.
    """

    hit: bool
    tech: str
    dirty: bool = False


#: a policy's (or policy class's) Fig. 8 row as
#: ``(fill_on_miss, invalidate_on_hit, clean_writeback)``
flow_flags = attrgetter("fill_on_miss", "invalidate_on_hit", "clean_writeback")


class InclusionPolicy:
    """Base class for all inclusion properties (Table IV)."""

    name = "base"
    #: whether this policy keeps the LLC copy on an LLC hit
    invalidate_on_hit = False
    #: whether this policy fills the LLC on an LLC miss
    fill_on_miss = False
    #: whether clean L2 victims are written to the LLC
    clean_writeback = False
    #: whether LLC evictions back-invalidate the upper levels (strictly
    #: inclusive policies). Part of the policy interface: the hierarchy
    #: engine consults it on every LLC eviction.
    back_invalidates: bool = False
    #: the set-dueling controller ticked on every LLC demand access
    #: (LAP's replacement duel, the switchers' mode duel), if any
    dueling = None

    def __init__(self) -> None:
        self.llc: Cache | None = None
        # Class-level override detection: policies that never choose a
        # per-set replacement keep the fast path (no set_index slicing,
        # no indirection) on every insert and LLC hit.
        self._replacement_override = (
            type(self).replacement_for is not InclusionPolicy.replacement_for
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self, hierarchy: "CacheHierarchy") -> None:
        """One-time setup (called once by the engine): keeps the LLC,
        never the hierarchy, which each hook is handed instead."""
        self.llc = hierarchy.llc

    # ------------------------------------------------------------------
    # the Fig. 8 flow
    # ------------------------------------------------------------------
    def flow_for(self, addr: int) -> Tuple[bool, bool, bool]:
        """The Fig. 8 row governing ``addr``'s LLC set, as
        ``(fill_on_miss, invalidate_on_hit, clean_writeback)``."""
        return flow_flags(self)

    def llc_access(self, h: "CacheHierarchy", core: int, addr: int, is_write: bool) -> LLCAccess:
        """Demand access from an L2 miss of ``h``."""
        if self.dueling is not None:
            self.dueling.tick()
        fill, inv_hit, _ = self.flow_for(addr)
        block = self._llc_lookup(h, core, addr)
        if block is None:
            if fill and self.fills_miss(addr):
                # The line enters both L2 and the LLC (Fig. 1b): the
                # data-fill that Section II-C2 shows can be redundant.
                self.insert_or_update(h, core, addr, dirty=False, category="fill")
            return LLCAccess(hit=False, tech=self.llc.tech)
        tech = block.tech
        if not inv_hit or h.shared_by_peers(core, addr):
            # Keep the copy. Invalidating a line other cores still hold
            # would force every later reader through a snoop.
            return LLCAccess(hit=True, tech=tech)
        # Invalidate on hit for larger effective capacity (Fig. 1c). A
        # dirty copy hands its writeback obligation up with the data:
        # the L2 fill inherits the dirty bit, otherwise the deferred
        # memory write would vanish with the invalidated line.
        dirty = block.dirty
        self.llc.discard(addr)
        self.llc.stats.hit_invalidations += 1
        h.note_llc_evict(addr)
        return LLCAccess(hit=True, tech=tech, dirty=dirty)

    def fills_miss(self, addr: int) -> bool:
        """Whether an LLC miss on ``addr`` that the Fig. 8 row fills
        does fill; asked once per such miss. Reuse Detector narrows it."""
        return True

    def l2_victim(self, h: "CacheHierarchy", core: int, line: EvictedLine) -> None:
        """Handle a victim evicted by one of ``h``'s L2s: a dirty one
        always inserts or updates, a clean one only under
        ``clean_writeback`` (otherwise its duplicate, if any, is kept)."""
        if line.dirty:
            category = "dirty_victim"
        elif self.flow_for(line.addr)[2]:
            category = "clean_victim"
        else:
            return
        self.insert_or_update(
            h, core, line.addr, dirty=line.dirty, loop_bit=line.loop_bit, category=category
        )

    # ------------------------------------------------------------------
    # other decision points
    # ------------------------------------------------------------------
    def l2_fill_loop_bit(self, llc_hit: bool) -> bool:
        """Loop-bit value for a block newly filled into L2.

        Only LAP uses loop-bits; the default keeps them clear.
        """
        return False

    def on_l2_dirtied(self, block: CacheBlock) -> None:
        """An L2-resident block transitioned clean→dirty (store): a
        written block can no longer be a loop-block (Fig. 10a)."""
        block.set_loop_bit(False)

    def replacement_for(self, set_index: int) -> Optional[ReplacementPolicy]:
        """Replacement policy for inserts into an LLC set.

        ``None`` means the LLC's default. LAP overrides this with its
        set-dueling choice.
        """
        return None

    def end_of_run(self) -> None:
        """Flush any policy-internal accounting at simulation end."""

    def extra_stats(self) -> dict:
        """Policy-specific counters merged into ``RunResult.extra``.

        Override to surface mechanism-level accounting (bypass counts,
        copy-back decisions, gated ways, ...) without every consumer
        having to know the policy's attributes.
        """
        return {}

    # ------------------------------------------------------------------
    # shared mechanics
    # ------------------------------------------------------------------
    def _llc_lookup(self, h: "CacheHierarchy", core: int, addr: int) -> Optional[CacheBlock]:
        """Demand lookup with timing and hierarchy bookkeeping.

        Demand reads of the LLC are always *reads* regardless of the
        requesting instruction: stores dirty the line in L2, not in the
        LLC. A hit's recency update goes through the policy's per-set
        replacement choice (set-dueling correctness for non-LRU
        baselines); policies that never override the choice skip it.
        """
        llc = self.llc
        policy = (
            self.replacement_for(llc.set_index(addr)) if self._replacement_override else None
        )
        block = llc.lookup(addr, False, policy)
        if block is None:
            self._record_duel_miss(addr)
            return None
        h.timing.llc_read(core, llc.bank_of(addr), block.tech)
        h.note_demand_hit(addr)
        return block

    def _record_duel_miss(self, addr: int) -> None:
        """Hook for dueling controllers; default: none."""

    def insert_or_update(
        self,
        h: "CacheHierarchy",
        core: int,
        addr: int,
        *,
        dirty: bool,
        loop_bit: bool = False,
        category: str,
    ) -> None:
        """Write a line into the LLC, merging with an existing copy.

        ``category`` names the Fig. 15 write class: ``"fill"``,
        ``"clean_victim"``, or ``"dirty_victim"``. If the line is
        already present (possible for non-inclusive fills racing with
        victims, and transiently across dynamic-mode switches) the copy
        is updated in place: dirty victims are counted as
        ``update_writes`` and clean writes keep their requested class —
        a merged fill stays a ``fill_write`` (it is memory data, not a
        victim; miscounting it as a clean victim would corrupt the
        Fig. 15 breakdown across Dswitch/FLEXclusion mode flips).
        """
        llc = self.llc
        stats = llc.stats
        existing = llc.peek(addr)
        if existing is not None:
            llc.update(existing, dirty)
            existing.set_loop_bit(loop_bit)
            if dirty:
                stats.update_writes += 1
                h.note_dirty_victim(addr)
            elif category == "fill":
                stats.fill_writes += 1
                h.note_fill(addr)
            else:
                stats.clean_victim_writes += 1
                h.note_clean_insert(addr)
            h.charge_llc_write(core, addr, existing.tech)
            self._record_duel_write(addr)
            return
        self._place_and_insert(h, core, addr, dirty=dirty, loop_bit=loop_bit, category=category)

    def _place_and_insert(
        self,
        h: "CacheHierarchy",
        core: int,
        addr: int,
        *,
        dirty: bool,
        loop_bit: bool,
        category: str,
    ) -> None:
        """Insert a new line; hybrid-aware policies override placement."""
        llc = self.llc
        policy = (
            self.replacement_for(llc.set_index(addr)) if self._replacement_override else None
        )
        evicted = llc.insert(addr, dirty, loop_bit, None, policy)
        self._finish_insert(h, core, addr, evicted, dirty=dirty, category=category)

    def _finish_insert(
        self,
        h: "CacheHierarchy",
        core: int,
        addr: int,
        evicted: Optional[EvictedLine],
        *,
        dirty: bool,
        category: str,
    ) -> None:
        """Common post-insert accounting: categories, timing, victims."""
        llc = self.llc
        stats = llc.stats
        if category == "fill":
            stats.fill_writes += 1
            h.note_fill(addr)
        elif category == "clean_victim":
            stats.clean_victim_writes += 1
            h.note_clean_insert(addr)
        elif category == "dirty_victim":
            stats.dirty_victim_writes += 1
            h.note_dirty_victim(addr)
        else:  # pragma: no cover - programming error
            raise ValueError(f"unknown LLC write category {category!r}")
        if llc.hybrid:
            # Only hybrid LLCs vary technology per way; peek to find
            # which region the line landed in.
            inserted = llc.peek(addr)
            tech = inserted.tech if inserted is not None else llc.tech
        else:
            tech = llc.tech
        h.charge_llc_write(core, addr, tech)
        self._record_duel_write(addr)
        if evicted is not None:
            h.on_llc_eviction(evicted)

    def _record_duel_write(self, addr: int) -> None:
        """Hook for write-aware dueling controllers; default: none."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
