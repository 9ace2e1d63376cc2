"""Traditional inclusion properties: inclusive, non-inclusive, exclusive.

These are the three data flows of the paper's Fig. 1, each stated as its
Fig. 8 flags alone; :class:`~repro.inclusion.base.InclusionPolicy` runs
the flow they select:

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

from .base import InclusionPolicy


class NonInclusivePolicy(InclusionPolicy):
    """The paper's baseline (``noni``)."""

    name = "non-inclusive"
    invalidate_on_hit = False
    fill_on_miss = True
    clean_writeback = False
    back_invalidates = False


class ExclusivePolicy(InclusionPolicy):
    """Exclusive LLC (``ex``): upper levels and LLC hold disjoint data."""

    name = "exclusive"
    invalidate_on_hit = True
    fill_on_miss = False
    clean_writeback = True
    back_invalidates = False


class InclusivePolicy(InclusionPolicy):
    """Strictly inclusive LLC with back-invalidation (Fig. 1a)."""

    name = "inclusive"
    invalidate_on_hit = False
    fill_on_miss = True
    clean_writeback = False
    back_invalidates = True
