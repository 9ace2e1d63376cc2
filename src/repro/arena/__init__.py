"""Cross-paper policy arena.

Two things live here:

- the policy **registry** (:mod:`~repro.arena.registry` +
  :mod:`~repro.arena.catalog`): the single source of truth for which
  inclusion policies exist, how to build them, and what each one
  claims — source paper + anchor, data-flow rules, invariant coverage,
  batched-kernel eligibility, and curated-set membership (``repro check``
  default, ``--arena`` grid);
- the **arena rivals**: mechanisms from papers other than LAP, riding
  the same :class:`~repro.inclusion.base.InclusionPolicy` protocol and
  probe bus so they face the same invariants and differential laws as
  the paper's own policies (see DESIGN.md §15 for the catalog and the
  how-to-add guide).
"""

from . import registry
from .rd_copyback import RDCopybackPolicy
from .registry import PolicyEntry
from .reuse_detector import ReuseDetectorPolicy
from .ways_off import WayGatedReplacement, WaysOffPolicy

__all__ = [
    "registry",
    "PolicyEntry",
    "ReuseDetectorPolicy",
    "RDCopybackPolicy",
    "WaysOffPolicy",
    "WayGatedReplacement",
]
