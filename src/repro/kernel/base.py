"""The TagStore contract: the substrate layer under every cache.

A :class:`TagStore` owns the tag-array state of one cache — tags,
valid/dirty/loop bits, per-way recency stamps (``last_access`` /
``insert_seq``), RRPV counters, coherence-state labels, the per-way
technology map of a hybrid LLC, and the per-set loop-block counters.
Everything above it (:class:`~repro.cache.cache.Cache`, the replacement
policies, the inclusion policies, the hierarchy engine) manipulates that
state only through the *block-view protocol*: per-way objects exposing
the attribute set of :class:`~repro.cache.block.CacheBlock`, grouped
into :class:`~repro.cache.set.CacheSet` containers with O(1) tag maps.

Two implementations ship:

- ``"object"`` (:mod:`repro.kernel.object_store`) — the views *are*
  plain :class:`CacheBlock` objects, one Python object per way, exactly
  the pre-refactor layout. This is the reference backend.
- ``"soa"`` (:mod:`repro.kernel.soa`) — the canonical state lives in
  numpy ``int64``/``bool`` matrices of shape ``(num_sets, assoc)``
  (struct-of-arrays), the views are thin proxies over matrix cells, and
  the store additionally exposes the raw matrices plus vectorized
  find/victim/occupancy queries.

Both stores implement the checkout/checkin protocol that the batched
reference loop (:mod:`repro.kernel.batch`) uses to run whole trace
batches on flat Python lists without touching the per-way views.

The contract both backends must satisfy:

1. **View protocol** — every element of ``set.blocks`` behaves like a
   :class:`CacheBlock`: readable/writable ``tag``, ``valid``, ``dirty``,
   ``loop_bit``, ``last_access``, ``insert_seq``, ``rrpv``, ``state``
   (MOESI string), read-only ``tech``/``way``, owning ``cset``, and the
   ``fill``/``reset``/``set_loop_bit`` methods with identical
   semantics (including per-set ``loop_count`` maintenance).
2. **Set protocol** — ``store.sets[i]`` is a
   :class:`~repro.cache.set.CacheSet` (or protocol-identical object):
   ``blocks``, ``tag_map``, ``loop_count``, ``find``, ``install``,
   ``drop``, ``region_blocks``, ``valid_blocks``, ``occupancy``.
3. **Determinism** — given the same operation sequence, both backends
   leave byte-identical logical state (same tags in the same ways,
   same stamps, same counters). This is what makes the ``soa`` backend
   switchable under the differential harness: any instrumented or
   generic run is *structurally* bit-identical because it executes the
   same code over the same protocol.

Stores never count events: statistics remain the cache's job, so the
stats contract is untouched by backend choice.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..cache.set import CacheSet


class TagStore:
    """Abstract tag-array substrate for one cache (see module docs)."""

    #: backend registry name ("object" / "soa")
    kind: str = "abstract"
    #: whether :mod:`repro.kernel.batch` can run its flattened batched
    #: reference loop against this store (requires ``checkout()`` /
    #: ``checkin(state)``; both shipped stores provide them).
    supports_batch: bool = False

    def __init__(self, num_sets: int, assoc: int, way_techs: Sequence[str]) -> None:
        self.num_sets = num_sets
        self.assoc = assoc
        self.way_techs = list(way_techs)
        self.sets: List[CacheSet] = []

    # ------------------------------------------------------------------
    # queries every backend answers (vectorized where it can)
    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Total valid lines across all sets."""
        return sum(len(s.tag_map) for s in self.sets)

    def loop_block_occupancy(self) -> Tuple[int, int]:
        """(valid lines, valid lines with loop_bit set) — Fig. 16."""
        valid = 0
        loops = 0
        for s in self.sets:
            valid += len(s.tag_map)
            loops += s.loop_count
        return valid, loops

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(kind={self.kind}, sets={self.num_sets}, "
            f"assoc={self.assoc})"
        )
