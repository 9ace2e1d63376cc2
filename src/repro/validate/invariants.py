"""Machine-checked invariants over live hierarchy state.

Every inclusion property in the paper comes with structural guarantees
— things that must hold of the tag arrays at any access boundary, no
matter the trace. The headline example is the dirty-data conservation
law that the exclusive hit-invalidation bug violated: once a store
dirties a block, that block's writeback obligation must survive every
subsequent move (L2 victim → LLC copy, LLC hit-invalidation → L2 fill,
LLC eviction → memory) until a memory write retires it. A policy that
drops it anywhere silently undercounts ``mem_writes`` and corrupts the
energy model.

:class:`InvariantProbe` rides the probe bus (:mod:`repro.instr`) and
re-checks the catalog below every ``interval`` retired references plus
once at ``finish()``. Checks run *between* accesses only — mid-access
transients (a fill racing its store propagation) are deliberately
invisible, matching the bus contract that ``access`` fires after the
reference fully retires. It is validation-only (the batched kernel
never carries it) and holds its hierarchy through a weak reference.

Invariant catalog (see DESIGN.md §11 for the paper anchors):

``l1-inclusion``
    L1 ⊆ L2 within each core (hierarchy mechanics, all policies).
``inclusion``
    strictly inclusive policies: every L2-resident line is LLC-resident.
    Under coherence, dirty (M/O) L2 lines are exempt — the first store
    discards the stale LLC duplicate by design.
``exclusion``
    exclusive policy, single core: L2 and LLC contents are disjoint.
    Multicore exclusion is deliberately relaxed (peer-shared lines stay
    resident; a peer's victim may duplicate another L2's line), so the
    checker skips it there and relies on ``coherence`` instead.
``no-fill``
    policies without LLC data-fills (exclusive, LAP, Lhybrid):
    ``fill_writes`` stays zero for the whole run.
``write-ledger``
    every policy: ``mem_writes`` equals the LLC's dirty evictions plus
    the back-invalidation writebacks — no memory write appears from or
    vanishes into thin air.
``coherence``
    coherent runs: the O(1) sharers map matches the L2 tag arrays; at
    most one M/O owner per line; an M owner implies no LLC copy; dirty
    L2 lines are exactly the M/O ones.
``dirty-conservation``
    every address dirtied since the probe attached is still resident
    dirty somewhere (some L2, or the LLC) unless a memory writeback
    retired its obligation. This is the invariant that catches the
    dirty-loss bug class.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Dict, Set

from ..cache.block import (
    STATE_EXCLUSIVE,
    STATE_MODIFIED,
    STATE_OWNED,
    STATE_SHARED,
)
from ..errors import InvariantViolation
from ..inclusion.switching import SwitchingPolicy
from ..inclusion.traditional import ExclusivePolicy
from ..instr import Probe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hierarchy.hierarchy import CacheHierarchy

#: catalog order, used for reporting
INVARIANTS = (
    "l1-inclusion",
    "inclusion",
    "exclusion",
    "no-fill",
    "write-ledger",
    "coherence",
    "dirty-conservation",
)


def violation(invariant: str, message: str) -> InvariantViolation:
    """Build an :class:`InvariantViolation` tagged with its invariant.

    The ``invariant`` attribute lets the fuzzer's shrinker confirm that
    a reduced trace still fails for the *same* reason, not a new one.
    """
    exc = InvariantViolation(f"{invariant}: {message}")
    exc.invariant = invariant
    return exc


def _dirty_resident(h: "CacheHierarchy", addr: int) -> bool:
    """Whether any cache still holds ``addr`` dirty (L2s or LLC)."""
    for l2 in h.l2s:
        block = l2.peek(addr)
        if block is not None and block.dirty:
            return True
    block = h.llc.peek(addr)
    return block is not None and block.dirty


# ----------------------------------------------------------------------
# the checks — each returns True when it applied, False when skipped,
# and raises InvariantViolation when the hierarchy state disproves it
# ----------------------------------------------------------------------
def check_l1_inclusion(h: "CacheHierarchy") -> bool:
    """L1 ⊆ L2 within every core (all policies)."""
    for core, (l1, l2) in enumerate(zip(h.l1s, h.l2s)):
        for addr in l1.resident_addrs():
            if l2.peek(addr) is None:
                raise violation(
                    "l1-inclusion",
                    f"L1-{core} holds {addr:#x} with no L2 copy "
                    f"(policy={h.policy.name}, after {h.stats.accesses} accesses)",
                )
    return True


def check_inclusion(h: "CacheHierarchy") -> bool:
    """Strict inclusion: L2-resident ⇒ LLC-resident (back-invalidating
    policies). Coherent dirty lines are exempt — the first store to a
    clean block discards the now-stale LLC duplicate (no-stale-LLC)."""
    if not h.policy.back_invalidates:
        return False
    coherent = h.coherence is not None
    for core, l2 in enumerate(h.l2s):
        for addr in l2.resident_addrs():
            if coherent and l2.peek(addr).dirty:
                continue
            if h.llc.peek(addr) is None:
                raise violation(
                    "inclusion",
                    f"L2-{core} holds {addr:#x} but the LLC does not "
                    f"(policy={h.policy.name}, after {h.stats.accesses} accesses)",
                )
    return True


def check_exclusion(h: "CacheHierarchy") -> bool:
    """Exclusion disjointness: L2 and LLC never both hold a line.

    Exact only for the pure exclusive policy on one core. Switching
    policies legally carry duplicates across mode flips, and multicore
    exclusive runs keep peer-shared lines resident and may re-insert a
    victim another L2 still holds — those configurations are covered
    indirectly by the coherence and conservation checks instead.
    """
    if not isinstance(h.policy, ExclusivePolicy) or h.config.ncores != 1:
        return False
    llc = h.llc
    for addr in h.l2s[0].resident_addrs():
        if llc.peek(addr) is not None:
            raise violation(
                "exclusion",
                f"L2 and LLC both hold {addr:#x} under the exclusive "
                f"policy (after {h.stats.accesses} accesses)",
            )
    return True


def check_no_fill(h: "CacheHierarchy") -> bool:
    """LAP's (and exclusion's) no-fill guarantee: LLC misses never
    write data into the LLC, so ``fill_writes`` stays zero. Switching
    policies are skipped: their class flags describe neither mode."""
    if h.policy.fill_on_miss or isinstance(h.policy, SwitchingPolicy):
        return False
    fills = h.llc.stats.fill_writes
    if fills:
        raise violation(
            "no-fill",
            f"policy {h.policy.name} performed {fills} LLC data-fill(s) "
            f"but guarantees none (after {h.stats.accesses} accesses)",
        )
    return True


def check_write_ledger(h: "CacheHierarchy") -> bool:
    """Memory-write bookkeeping balances for every policy:
    ``mem_writes == LLC dirty_evictions + mem_writes_backinval``."""
    expected = h.llc.stats.dirty_evictions + h.stats.mem_writes_backinval
    if h.stats.mem_writes != expected:
        raise violation(
            "write-ledger",
            f"mem_writes={h.stats.mem_writes} but LLC dirty_evictions="
            f"{h.llc.stats.dirty_evictions} + backinval="
            f"{h.stats.mem_writes_backinval} = {expected} "
            f"(policy={h.policy.name}, after {h.stats.accesses} accesses)",
        )
    return True


def check_coherence(h: "CacheHierarchy") -> bool:
    """MOESI bookkeeping matches the tag arrays (coherent runs).

    - the incremental sharers bitmask map equals one rebuilt from the
      L2 tag arrays;
    - every valid L2 block carries a real MOESI state, and dirty blocks
      are exactly the M/O ones;
    - a line has at most one M/O owner;
    - an **M** owner implies no LLC copy (no-stale-LLC). An **O** owner
      may coexist with an LLC copy: a reader's fill snapshots the
      owner's data at supply time, and any later store upgrades through
      ``on_store`` which discards the duplicate.
    """
    coherence = h.coherence
    if coherence is None:
        return False
    accesses = h.stats.accesses
    rebuilt: Dict[int, int] = {}
    owners: Dict[int, int] = {}
    for core, l2 in enumerate(h.l2s):
        for addr in l2.resident_addrs():
            rebuilt[addr] = rebuilt.get(addr, 0) | (1 << core)
            block = l2.peek(addr)
            state = block.state
            if state not in (STATE_MODIFIED, STATE_OWNED, STATE_EXCLUSIVE, STATE_SHARED):
                raise violation(
                    "coherence",
                    f"L2-{core} block {addr:#x} has state {state!r}; valid "
                    f"coherent blocks must be M/O/E/S (after {accesses} accesses)",
                )
            dirty_state = state in (STATE_MODIFIED, STATE_OWNED)
            if block.dirty != dirty_state:
                raise violation(
                    "coherence",
                    f"L2-{core} block {addr:#x} dirty={block.dirty} but "
                    f"state={state} (after {accesses} accesses)",
                )
            if dirty_state:
                if addr in owners:
                    raise violation(
                        "coherence",
                        f"{addr:#x} has two dirty owners: cores "
                        f"{owners[addr]} and {core} (after {accesses} accesses)",
                    )
                owners[addr] = core
                if state == STATE_MODIFIED and h.llc.peek(addr) is not None:
                    raise violation(
                        "coherence",
                        f"core {core} holds {addr:#x} Modified while the LLC "
                        f"keeps a stale copy (after {accesses} accesses)",
                    )
    recorded = coherence.sharers_snapshot()
    if recorded != rebuilt:
        drifted = sorted(
            addr
            for addr in set(recorded) | set(rebuilt)
            if recorded.get(addr, 0) != rebuilt.get(addr, 0)
        )
        sample = drifted[0]
        raise violation(
            "coherence",
            f"sharers map drift at {sample:#x}: recorded mask "
            f"{recorded.get(sample, 0):#b}, tag arrays say "
            f"{rebuilt.get(sample, 0):#b} "
            f"({len(drifted)} drifted line(s), after {accesses} accesses)",
        )
    return True


def check_dirty_conservation(h: "CacheHierarchy", outstanding: Set[int]) -> bool:
    """Dirty data never vanishes: every address dirtied since the probe
    attached is still resident dirty somewhere, or its writeback reached
    memory (which removed it from ``outstanding``)."""
    for addr in outstanding:
        if not _dirty_resident(h, addr):
            raise violation(
                "dirty-conservation",
                f"{addr:#x} was dirtied but is no longer resident dirty "
                f"anywhere and no memory writeback retired it "
                f"(policy={h.policy.name}, after {h.stats.accesses} accesses)",
            )
    return True


class InvariantProbe(Probe):
    """Probe-bus observer that re-checks the invariant catalog.

    Attach it like any probe (``probes=(InvariantProbe(),)`` at build
    time, or :meth:`CacheHierarchy.attach_probe` mid-run). Checks fire
    every ``interval`` retired references and once at ``finish()``; an
    ``interval`` of 0 checks only at ``finish()``. ``counts`` records
    how many times each catalog entry actually ran, so harnesses can
    prove a run exercised (rather than skipped) an invariant.
    """

    name = "invariants"

    def __init__(self, interval: int = 256) -> None:
        self.interval = interval
        self._h: weakref.ref | None = None
        self.counts: Dict[str, int] = {inv: 0 for inv in INVARIANTS}
        self._outstanding: Set[int] = set()
        self._seen = 0

    def bind(self, hierarchy: "CacheHierarchy") -> None:
        self._h = weakref.ref(hierarchy)

    # ---- event handlers ----------------------------------------------
    def on_access(self, core: int, addr: int, is_write: bool) -> None:
        self._seen += 1
        if self.interval and self._seen % self.interval == 0:
            self.check_now()

    def on_dirtied(self, addr: int) -> None:
        self._outstanding.add(addr)

    def on_mem_writeback(self, addr: int) -> None:
        # A memory write retires the obligation only when no dirty copy
        # remains resident (the same address can be dirty in an L2 *and*
        # in the LLC; writing one back must not absolve the other).
        if not _dirty_resident(self._h(), addr):
            self._outstanding.discard(addr)

    def finish(self) -> None:
        self.check_now()

    # ---- the check pass ----------------------------------------------
    def check_now(self) -> None:
        """Run every applicable catalog check against live state."""
        h = self._h()
        counts = self.counts
        if check_l1_inclusion(h):
            counts["l1-inclusion"] += 1
        if check_inclusion(h):
            counts["inclusion"] += 1
        if check_exclusion(h):
            counts["exclusion"] += 1
        if check_no_fill(h):
            counts["no-fill"] += 1
        if check_write_ledger(h):
            counts["write-ledger"] += 1
        if check_coherence(h):
            counts["coherence"] += 1
        if check_dirty_conservation(h, self._outstanding):
            counts["dirty-conservation"] += 1

    @property
    def outstanding(self) -> Set[int]:
        """Addresses with an unretired writeback obligation (copy)."""
        return set(self._outstanding)
