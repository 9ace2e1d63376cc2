"""The reference TagStore: one Python object per way.

This is the pre-refactor data layout, unchanged: each way is a
:class:`~repro.cache.block.CacheBlock` with ``__slots__``, grouped into
:class:`~repro.cache.set.CacheSet` objects that own the tag maps and
loop counters. It is the default layout, and it speaks the same
checkout/checkin protocol as the ``soa`` store, so the batched kernel
(:mod:`repro.kernel.batch`) runs directly against it.
"""

from __future__ import annotations

from typing import Sequence

from ..cache.set import CacheSet
from .base import TagStore


class ObjectTagStore(TagStore):
    """Array-of-structs layout: plain ``CacheBlock`` objects."""

    kind = "object"
    supports_batch = True

    def __init__(self, num_sets: int, assoc: int, way_techs: Sequence[str]) -> None:
        super().__init__(num_sets, assoc, way_techs)
        self.sets = [CacheSet(i, assoc, self.way_techs) for i in range(num_sets)]

    def _blocks(self) -> list:
        """Every way in slot order (slot = set * assoc + way).

        Built per call, not cached: a cached list would stay alive with
        each dead hierarchy until the cycle collector reaches it."""
        return [b for s in self.sets for b in s.blocks]

    # ------------------------------------------------------------------
    # checkout / checkin for the batch kernel
    # ------------------------------------------------------------------
    def checkout(self) -> dict:
        """Copy the blocks into the batch kernel's working state.

        Same shape as :meth:`SoATagStore.checkout
        <repro.kernel.soa.SoATagStore.checkout>`: flat slot-ordered
        lists (MOESI ``state`` strings included, for coherent runs),
        per-set ``{tag: slot}`` dicts and the loop counters. The blocks
        are stale until :meth:`checkin`.
        """
        blocks = self._blocks()
        assoc = self.assoc
        maps = []
        for s in self.sets:
            base = s.index * assoc
            maps.append({t: base + b.way for t, b in s.tag_map.items()})
        return {
            "tag": [b.tag for b in blocks],
            "valid": [b.valid for b in blocks],
            "dirty": [b.dirty for b in blocks],
            "loop": [b.loop_bit for b in blocks],
            "last": [b.last_access for b in blocks],
            "iseq": [b.insert_seq for b in blocks],
            "rrpv": [b.rrpv for b in blocks],
            "state": [b.state for b in blocks],
            "maps": maps,
            "loop_counts": [s.loop_count for s in self.sets],
        }

    def checkin(self, state: dict) -> None:
        """Write a checked-out working state back into the blocks and
        rebuild the per-set tag maps / loop counters."""
        blocks = self._blocks()
        for b, tag, valid, dirty, loop, last, iseq, rrpv, moesi in zip(
            blocks,
            state["tag"],
            state["valid"],
            state["dirty"],
            state["loop"],
            state["last"],
            state["iseq"],
            state["rrpv"],
            state["state"],
        ):
            b.tag = tag
            b.valid = valid
            b.dirty = dirty
            b.loop_bit = loop
            b.last_access = last
            b.insert_seq = iseq
            b.rrpv = rrpv
            b.state = moesi
        for s, slot_map, loops in zip(self.sets, state["maps"], state["loop_counts"]):
            s.tag_map = {t: blocks[slot] for t, slot in slot_map.items()}
            s.loop_count = loops
