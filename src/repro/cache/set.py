"""One set of a set-associative cache.

A :class:`CacheSet` owns its ways — pre-allocated
:class:`~repro.cache.block.CacheBlock` objects, one per way — and a
tag→block map for O(1) lookups. Hybrid LLCs partition the ways of
*every* set between an SRAM region and an STT-RAM region (Table II:
4 SRAM ways + 12 STT-RAM ways), so region filtering happens here.

Each set also maintains ``loop_count`` — the number of valid ways whose
loop-bit is set — incrementally: install/drop update it here, and every
other loop-bit write goes through :meth:`CacheBlock.set_loop_bit`. The
cache's Fig. 16 occupancy metric sums these counters in O(num_sets)
instead of scanning every way of every set.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .block import CacheBlock


class CacheSet:
    """A fixed-associativity set with an O(1) tag map."""

    __slots__ = ("index", "blocks", "tag_map", "loop_count")

    def __init__(self, index: int, ways: int, way_techs: List[str]) -> None:
        self.index = index
        self.blocks: List[CacheBlock] = [CacheBlock(w, way_techs[w]) for w in range(ways)]
        for block in self.blocks:
            block.cset = self
        self.tag_map: Dict[int, CacheBlock] = {}
        self.loop_count = 0

    def find(self, tag: int) -> Optional[CacheBlock]:
        """Return the valid block holding ``tag``, or None."""
        return self.tag_map.get(tag)

    def region_blocks(self, region: Optional[str]) -> List[CacheBlock]:
        """All ways, or only the ways of one technology region."""
        if region is None:
            return self.blocks
        return [b for b in self.blocks if b.tech == region]

    def valid_blocks(self) -> List[CacheBlock]:
        """All currently valid blocks (used by occupancy sampling)."""
        return [b for b in self.blocks if b.valid]

    def install(self, block: CacheBlock, tag: int, dirty: bool, loop_bit: bool, now: int) -> None:
        """Fill ``block`` (a way of this set) with a new line."""
        if block.valid:
            self.tag_map.pop(block.tag, None)
            if block.loop_bit:
                self.loop_count -= 1
        block.fill(tag, dirty, loop_bit, now)
        if loop_bit:
            self.loop_count += 1
        self.tag_map[tag] = block

    def drop(self, block: CacheBlock) -> None:
        """Invalidate ``block`` and remove it from the tag map."""
        if block.valid:
            self.tag_map.pop(block.tag, None)
            if block.loop_bit:
                self.loop_count -= 1
        block.reset()

    def occupancy(self) -> int:
        """Number of valid ways in this set."""
        return len(self.tag_map)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheSet(index={self.index}, valid={self.occupancy()}/{len(self.blocks)})"
