"""Way-based LLC power-down: trade capacity for leakage energy.

Mittal, "A Cache Energy Optimization Technique for STT-RAM Last Level
Caches" (arXiv 1312.2207) reconfigures the LLC at way granularity,
power-gating ways whose capacity the workload does not earn and
crediting the saved leakage against any extra misses. This module is
the static end of that spectrum: a fixed fraction of every set's ways
is powered off for the whole run, the data flow is otherwise the
non-inclusive baseline, and the energy model scales LLC static energy
by the active-way fraction (``llc_active_fraction``) so the reported
EPI carries the leakage saving *and* the cost of the extra misses.

Mechanically the gating lives in victim selection: the policy pins a
:class:`WayGatedReplacement` wrapper that only ever considers the
first ``active_ways`` ways of each set, so powered-off ways are never
filled and hold no lines — the LLC simply behaves as a
``active_ways``-way cache of the same set count. On a hybrid LLC the
gated ways are the trailing (STT-RAM) ways, matching the paper's
leakage-dominated target arrays.

Every invariant and differential law of the non-inclusive baseline
applies unchanged; the energy delta is visible via ``extra_stats()``
(``llc_ways_off``, ``llc_active_fraction``) and in the scaled
``static_j`` of the run's :class:`~repro.energy.model.EnergyResult`.
"""

from __future__ import annotations

from typing import Sequence

from ..cache.block import CacheBlock
from ..cache.replacement import LRUPolicy, ReplacementPolicy
from ..errors import ConfigurationError
from ..inclusion.traditional import NonInclusivePolicy


class WayGatedReplacement(ReplacementPolicy):
    """Victim selection restricted to the first ``active_ways`` ways.

    Powered-off ways are simply invisible to insertion, so they are
    never filled and stay invalid for the whole run.
    """

    name = "way-gated"

    def __init__(self, inner: ReplacementPolicy, active_ways: int) -> None:
        self.inner = inner
        self.active_ways = active_ways

    def victim(self, blocks: Sequence[CacheBlock], now: int) -> CacheBlock:
        return self.inner.victim(blocks[: self.active_ways], now)

    def on_hit(self, block: CacheBlock, now: int) -> None:
        self.inner.on_hit(block, now)

    def on_insert(self, block: CacheBlock, now: int) -> None:
        self.inner.on_insert(block, now)


class WaysOffPolicy(NonInclusivePolicy):
    """Non-inclusive flow on an LLC with a fraction of its ways gated off."""

    name = "ways-off"

    def __init__(self, off_fraction: float = 0.5) -> None:
        super().__init__()
        if not 0.0 <= off_fraction < 1.0:
            raise ConfigurationError(
                f"off_fraction must be in [0, 1), got {off_fraction}"
            )
        self.off_fraction = off_fraction
        self.ways_off = 0
        self.active_ways = 0
        self._replacement: WayGatedReplacement | None = None

    def bind(self, hierarchy) -> None:
        super().bind(hierarchy)
        assoc = self.llc.assoc
        # Gate at most assoc-1 ways: the LLC always keeps one live way.
        self.ways_off = min(int(assoc * self.off_fraction), assoc - 1)
        self.active_ways = assoc - self.ways_off
        self._replacement = WayGatedReplacement(LRUPolicy(), self.active_ways)

    def replacement_for(self, set_index: int) -> ReplacementPolicy:
        return self._replacement

    @property
    def llc_active_fraction(self) -> float:
        """Fraction of LLC ways left powered on (scales static energy)."""
        return self.active_ways / self.llc.assoc

    def extra_stats(self) -> dict:
        return {
            "llc_ways_off": self.ways_off,
            "llc_ways_total": self.llc.assoc,
            "llc_active_fraction": self.llc_active_fraction,
        }
