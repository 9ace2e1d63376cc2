"""MOESI-style snooping coherence for multithreaded workloads (Fig. 20).

Coherence acts at the private-cache level: every L2 block carries a
MOESI state, and L1s are kept inclusive within their core's L2 so an
L2-level invalidation suffices. The shared LLC is *not* a coherence
point — matching the paper's snooping-bus baseline — and the modelled
protocol maintains one simplifying invariant:

    while any core holds a block dirty (M or O), the LLC holds no copy
    of it (the first store to a clean block invalidates any LLC
    duplicate).

This keeps every LLC hit safe to consume without a snoop, so snoop
broadcasts happen exactly on LLC misses and on write upgrades — which
reproduces the paper's observation that snoop traffic tracks LLC misses
(exclusion ≈ 38 % less traffic than non-inclusion in Fig. 20c).

Traffic accounting (Fig. 20c): one ``snoop_broadcast`` per bus
transaction that probes peers, one ``invalidation_message`` per peer
copy killed, one ``cache_to_cache`` per peer-supplied fill.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..cache.block import (
    STATE_EXCLUSIVE,
    STATE_MODIFIED,
    STATE_OWNED,
    STATE_SHARED,
)
from ..cache.stats import CoherenceStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .hierarchy import CacheHierarchy


class CoherenceController:
    """Bus-snooping MOESI controller over the per-core L2s.

    Alongside the MOESI states it maintains a **sharers map** —
    ``addr → bitmask of cores whose L2 holds the line`` — updated by the
    hierarchy at every L2 insert/drop. Snoop fan-out and
    :meth:`CacheHierarchy.shared_by_peers` read the map in O(1) instead
    of probing every core's L2 tag array per query. The hooks that act
    on the caches are handed the hierarchy (``h``); the controller never
    stores it.
    """

    def __init__(self, ncores: int) -> None:
        self.ncores = ncores
        self.stats = CoherenceStats()
        self._sharers: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # sharers map maintenance (driven by the hierarchy's L2 mechanics)
    # ------------------------------------------------------------------
    def on_l2_insert(self, core: int, addr: int) -> None:
        """``core``'s L2 now holds ``addr``."""
        sharers = self._sharers
        sharers[addr] = sharers.get(addr, 0) | (1 << core)

    def on_l2_drop(self, core: int, addr: int) -> None:
        """``core``'s L2 no longer holds ``addr``."""
        sharers = self._sharers
        mask = sharers.get(addr, 0) & ~(1 << core)
        if mask:
            sharers[addr] = mask
        else:
            sharers.pop(addr, None)

    def peers_of(self, core: int, addr: int) -> int:
        """Bitmask of cores other than ``core`` whose L2 holds ``addr``."""
        return self._sharers.get(addr, 0) & ~(1 << core)

    def sharers_snapshot(self) -> Dict[int, int]:
        """Copy of the sharers map (``addr → core bitmask``).

        Diagnostic/validation surface: ``repro.validate`` rebuilds the
        map from the L2 tag arrays and compares it against this to
        prove the O(1) bookkeeping never drifts from the ground truth.
        """
        return dict(self._sharers)

    # ------------------------------------------------------------------
    # miss-path hooks
    # ------------------------------------------------------------------
    def on_l2_miss(
        self, h: "CacheHierarchy", core: int, addr: int, is_write: bool, llc_hit: bool
    ) -> bool:
        """Handle the bus side of an L2 miss.

        Returns True when a peer cache supplied the line (so main
        memory need not be read).
        """
        if llc_hit:
            if is_write:
                # Read-for-ownership served by the LLC still must kill
                # peer copies before the store retires.
                self._broadcast_invalidate(h, core, addr)
            else:
                # A new sharer appeared: peers holding the line
                # exclusively must downgrade (the LLC-hit copy is clean
                # by the no-stale-LLC invariant, so E→S is the only
                # possible transition).
                for peer in self._holders(core, addr):
                    block = h.l2s[peer].peek(addr)
                    if block is not None and block.state == STATE_EXCLUSIVE:
                        block.state = STATE_SHARED
            return False

        # LLC miss: snoop the bus.
        self.stats.snoop_broadcasts += 1
        holders = self._holders(core, addr)
        supplied = bool(holders)
        if supplied:
            self.stats.cache_to_cache += 1
        if is_write:
            for peer in holders:
                self._invalidate_peer(h, peer, addr)
        elif holders:
            # A read: the (single possible) owner downgrades but keeps
            # ownership of the dirty data; clean holders share.
            for peer in holders:
                block = h.l2s[peer].peek(addr)
                if block is None:
                    continue
                if block.state == STATE_MODIFIED:
                    block.state = STATE_OWNED
                elif block.state == STATE_EXCLUSIVE:
                    block.state = STATE_SHARED
        return supplied

    def fill_state(self, core: int, addr: int, is_write: bool) -> str:
        """MOESI state for the line being filled into ``core``'s L2."""
        if is_write:
            return STATE_MODIFIED
        return STATE_SHARED if self._holders(core, addr) else STATE_EXCLUSIVE

    # ------------------------------------------------------------------
    # store-path hook
    # ------------------------------------------------------------------
    def on_store(self, h: "CacheHierarchy", core: int, addr: int) -> None:
        """A store is retiring into a block ``core`` already holds."""
        block = h.l2s[core].peek(addr)
        if block is None:  # pragma: no cover - hierarchy guarantees presence
            return
        if block.state in (STATE_SHARED, STATE_OWNED):
            self.stats.upgrades += 1
            self._broadcast_invalidate(h, core, addr)
        block.state = STATE_MODIFIED
        # Maintain the no-stale-LLC invariant: the LLC duplicate (if
        # any) is now stale and must go.
        if h.llc.peek(addr) is not None:
            h.llc.discard(addr)
            h.note_llc_evict(addr)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _holders(self, core: int, addr: int) -> List[int]:
        mask = self.peers_of(core, addr)
        if not mask:
            return []
        return [peer for peer in range(self.ncores) if (mask >> peer) & 1]

    def _broadcast_invalidate(self, h: "CacheHierarchy", core: int, addr: int) -> None:
        self.stats.snoop_broadcasts += 1
        for peer in self._holders(core, addr):
            self._invalidate_peer(h, peer, addr)

    def _invalidate_peer(self, h: "CacheHierarchy", peer: int, addr: int) -> None:
        """Kill a peer's copy (L2 and, by inclusion, L1)."""
        self.stats.invalidation_messages += 1
        h.l1s[peer].discard(addr)
        line = h.l2s[peer].invalidate(addr)
        if line is not None:
            self.on_l2_drop(peer, addr)
            # The requester's copy now carries the latest data; probes
            # just see the block leave this L2.
            h.note_l2_drop(line.addr, line.dirty)
