"""Struct-of-arrays TagStore: numpy matrices + proxy views.

The canonical tag-array state of one cache lives in eight matrices of
shape ``(num_sets, assoc)``:

=============  ==========  ===================================
matrix         dtype       meaning
=============  ==========  ===================================
``tag``        int64       block tag (-1 when invalid)
``valid``      bool        valid bit
``dirty``      bool        write-back dirty bit
``loop_bit``   bool        LAP loop-bit
``last_access``int64       recency stamp (cache tick)
``insert_seq`` int64       tick at insertion (reuse detection)
``rrpv``       int64       SRRIP re-reference prediction value
``state``      int8        MOESI state code (see ``STATE_CODES``)
=============  ==========  ===================================

Row ``i`` is set ``i``; column ``w`` is way ``w``. The per-way
technology strings of a hybrid LLC are shared across rows (every set
partitions its ways the same way), so they stay a plain list.

Layered on top:

- :class:`SoABlockView` — a per-(set, way) proxy satisfying the
  :class:`~repro.cache.block.CacheBlock` protocol exactly; reads and
  writes go straight to the matrix cells. Anything that speaks the
  block protocol (replacement policies, inclusion policies, coherence,
  invariant probes, tests) runs unmodified over these views, which is
  what makes the backend switch structurally bit-identical.
- :class:`~repro.cache.set.CacheSet` containers built over the views,
  so the set protocol (tag maps, loop counters, install/drop) is the
  *same code* as the object backend.
- vectorized bulk queries (:meth:`SoATagStore.find_ways`,
  :meth:`SoATagStore.lru_victims`, :meth:`SoATagStore.loop_block_occupancy`)
  answered with whole-matrix numpy ops.
- the checkout/checkin protocol :mod:`repro.kernel.batch` uses (the
  object store speaks it too): scalar indexing into numpy arrays costs
  ~3-5x a Python list index, so the batch kernel *checks out* the
  matrices as flat Python lists, runs its inlined reference loop on
  those, and *checks in* the result with bulk numpy writes. Between
  checkouts the matrices are canonical.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cache.block import (
    STATE_EXCLUSIVE,
    STATE_INVALID,
    STATE_MODIFIED,
    STATE_NONE,
    STATE_OWNED,
    STATE_SHARED,
)
from ..cache.set import CacheSet
from .base import TagStore

#: MOESI state string <-> int8 code, ``"-"`` (no coherence) is 0 so a
#: zeroed matrix is a valid fresh cache.
STATE_CODES: Dict[str, int] = {
    STATE_NONE: 0,
    STATE_INVALID: 1,
    STATE_SHARED: 2,
    STATE_EXCLUSIVE: 3,
    STATE_OWNED: 4,
    STATE_MODIFIED: 5,
}
CODE_STATES: Tuple[str, ...] = tuple(
    s for s, _ in sorted(STATE_CODES.items(), key=lambda kv: kv[1])
)


class SoABlockView:
    """One (set, way) cell of the matrices, speaking the block protocol.

    Pure proxy: holds no line state of its own, only coordinates. All
    attribute access converts to/from plain Python scalars so callers
    never see numpy scalar types (equality, hashing and arithmetic
    behave exactly as with :class:`CacheBlock`).
    """

    __slots__ = ("_store", "_row", "way", "tech", "cset")

    def __init__(self, store: "SoATagStore", row: int, way: int, tech: str) -> None:
        self._store = store
        self._row = row
        self.way = way
        self.tech = tech
        # Owning CacheSet; assigned once at set construction, exactly
        # like CacheBlock.cset.
        self.cset: Optional[CacheSet] = None

    # ---- matrix-backed fields ----------------------------------------
    @property
    def tag(self) -> int:
        return int(self._store.tag[self._row, self.way])

    @tag.setter
    def tag(self, value: int) -> None:
        self._store.tag[self._row, self.way] = value

    @property
    def valid(self) -> bool:
        return bool(self._store.valid[self._row, self.way])

    @valid.setter
    def valid(self, value: bool) -> None:
        self._store.valid[self._row, self.way] = value

    @property
    def dirty(self) -> bool:
        return bool(self._store.dirty[self._row, self.way])

    @dirty.setter
    def dirty(self, value: bool) -> None:
        self._store.dirty[self._row, self.way] = value

    @property
    def loop_bit(self) -> bool:
        return bool(self._store.loop_bit[self._row, self.way])

    @loop_bit.setter
    def loop_bit(self, value: bool) -> None:
        self._store.loop_bit[self._row, self.way] = value

    @property
    def last_access(self) -> int:
        return int(self._store.last_access[self._row, self.way])

    @last_access.setter
    def last_access(self, value: int) -> None:
        self._store.last_access[self._row, self.way] = value

    @property
    def insert_seq(self) -> int:
        return int(self._store.insert_seq[self._row, self.way])

    @insert_seq.setter
    def insert_seq(self, value: int) -> None:
        self._store.insert_seq[self._row, self.way] = value

    @property
    def rrpv(self) -> int:
        return int(self._store.rrpv[self._row, self.way])

    @rrpv.setter
    def rrpv(self, value: int) -> None:
        self._store.rrpv[self._row, self.way] = value

    @property
    def state(self) -> str:
        return CODE_STATES[self._store.state[self._row, self.way]]

    @state.setter
    def state(self, value: str) -> None:
        self._store.state[self._row, self.way] = STATE_CODES[value]

    # ---- protocol methods (semantics identical to CacheBlock) --------
    def reset(self) -> None:
        """Invalidate the block, clearing all metadata except geometry."""
        store, row, way = self._store, self._row, self.way
        store.tag[row, way] = -1
        store.valid[row, way] = False
        store.dirty[row, way] = False
        store.loop_bit[row, way] = False
        store.last_access[row, way] = 0
        store.insert_seq[row, way] = 0
        store.rrpv[row, way] = 0
        store.state[row, way] = 0

    def fill(self, tag: int, dirty: bool, loop_bit: bool, now: int) -> None:
        """Install a new line in this way."""
        store, row, way = self._store, self._row, self.way
        store.tag[row, way] = tag
        store.valid[row, way] = True
        store.dirty[row, way] = dirty
        store.loop_bit[row, way] = loop_bit
        store.last_access[row, way] = now
        store.insert_seq[row, way] = now
        store.rrpv[row, way] = 0
        store.state[row, way] = 0

    def set_loop_bit(self, value: bool) -> None:
        """Write the loop-bit, keeping the set's loop counter exact."""
        if self.valid and value != self.loop_bit:
            self.cset.loop_count += 1 if value else -1
        self.loop_bit = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            c for c, on in (("V", self.valid), ("D", self.dirty), ("L", self.loop_bit)) if on
        )
        return (
            f"SoABlockView(set={self._row}, way={self.way}, tag={self.tag:#x}, "
            f"flags={flags or '-'}, state={self.state}, tech={self.tech})"
        )


class SoATagStore(TagStore):
    """Struct-of-arrays layout with vectorized queries and batch I/O."""

    kind = "soa"
    supports_batch = True

    def __init__(self, num_sets: int, assoc: int, way_techs: Sequence[str]) -> None:
        super().__init__(num_sets, assoc, way_techs)
        shape = (num_sets, assoc)
        self.tag = np.full(shape, -1, dtype=np.int64)
        self.valid = np.zeros(shape, dtype=bool)
        self.dirty = np.zeros(shape, dtype=bool)
        self.loop_bit = np.zeros(shape, dtype=bool)
        self.last_access = np.zeros(shape, dtype=np.int64)
        self.insert_seq = np.zeros(shape, dtype=np.int64)
        self.rrpv = np.zeros(shape, dtype=np.int64)
        self.state = np.zeros(shape, dtype=np.int8)
        self.sets = [
            CacheSet(
                i,
                assoc,
                self.way_techs,
                blocks=[SoABlockView(self, i, w, self.way_techs[w]) for w in range(assoc)],
            )
            for i in range(num_sets)
        ]

    # ------------------------------------------------------------------
    # vectorized bulk queries
    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        return int(self.valid.sum())

    def loop_block_occupancy(self) -> Tuple[int, int]:
        """(valid, valid-with-loop-bit) via two whole-matrix reductions."""
        return int(self.valid.sum()), int((self.valid & self.loop_bit).sum())

    def find_ways(self, set_indices: np.ndarray, tags: np.ndarray) -> np.ndarray:
        """Vectorized tag search: the way holding each tag, or -1.

        ``set_indices`` and ``tags`` are parallel 1-D int arrays; one
        matrix gather + compare answers every probe at once.
        """
        rows_valid = self.valid[set_indices]
        match = rows_valid & (self.tag[set_indices] == np.asarray(tags)[:, None])
        ways = match.argmax(axis=1)
        return np.where(match.any(axis=1), ways, -1)

    def lru_victims(self, set_indices: np.ndarray) -> np.ndarray:
        """Vectorized LRU victim ways (first invalid, else oldest stamp).

        Ties break to the lowest way, matching
        :class:`~repro.cache.replacement.LRUPolicy`'s first-win scan.
        """
        rows_valid = self.valid[set_indices]
        has_invalid = ~rows_valid.all(axis=1)
        first_invalid = (~rows_valid).argmax(axis=1)
        stamps = np.where(
            rows_valid, self.last_access[set_indices], np.iinfo(np.int64).max
        )
        return np.where(has_invalid, first_invalid, stamps.argmin(axis=1))

    # ------------------------------------------------------------------
    # checkout / checkin for the batch kernel
    # ------------------------------------------------------------------
    def checkout(self) -> dict:
        """Flatten the matrices into the batch kernel's working state.

        Returns flat row-major Python lists (slot = set * assoc + way)
        plus per-set tag->slot dicts and the loop counters. While the
        state is checked out the matrices are stale; nothing else may
        read the store until :meth:`checkin`. MOESI states travel as
        their strings (``CODE_STATES``), as the object store holds them.
        """
        assoc = self.assoc
        maps = []
        for s in self.sets:
            base = s.index * assoc
            maps.append({t: base + b.way for t, b in s.tag_map.items()})
        return {
            "tag": self.tag.ravel().tolist(),
            "valid": self.valid.ravel().tolist(),
            "dirty": self.dirty.ravel().tolist(),
            "loop": self.loop_bit.ravel().tolist(),
            "last": self.last_access.ravel().tolist(),
            "iseq": self.insert_seq.ravel().tolist(),
            "rrpv": self.rrpv.ravel().tolist(),
            "state": [CODE_STATES[c] for c in self.state.ravel().tolist()],
            "maps": maps,
            "loop_counts": [s.loop_count for s in self.sets],
        }

    def checkin(self, state: dict) -> None:
        """Bulk-write a checked-out working state back into the matrices
        and rebuild the per-set tag maps / loop counters."""
        shape = (self.num_sets, self.assoc)
        self.tag[:] = np.asarray(state["tag"], dtype=np.int64).reshape(shape)
        self.valid[:] = np.asarray(state["valid"], dtype=bool).reshape(shape)
        self.dirty[:] = np.asarray(state["dirty"], dtype=bool).reshape(shape)
        self.loop_bit[:] = np.asarray(state["loop"], dtype=bool).reshape(shape)
        self.last_access[:] = np.asarray(state["last"], dtype=np.int64).reshape(shape)
        self.insert_seq[:] = np.asarray(state["iseq"], dtype=np.int64).reshape(shape)
        self.rrpv[:] = np.asarray(state["rrpv"], dtype=np.int64).reshape(shape)
        self.state[:] = np.asarray(
            [STATE_CODES[s] for s in state["state"]], dtype=np.int8
        ).reshape(shape)
        assoc = self.assoc
        for s, slot_map, loops in zip(self.sets, state["maps"], state["loop_counts"]):
            base = s.index * assoc
            s.tag_map = {t: s.blocks[slot - base] for t, slot in slot_map.items()}
            s.loop_count = loops
