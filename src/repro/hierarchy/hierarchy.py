"""The three-level cache hierarchy engine.

:class:`CacheHierarchy` wires per-core L1/L2 caches, the shared LLC,
the timing model, optional MOESI coherence, and one bound
:class:`~repro.inclusion.base.InclusionPolicy`. It implements only the
*mechanics* every policy shares — L1⊆L2 inclusion within a core,
write-back dirtiness propagation, L2 victim extraction — and defers
every L2↔LLC decision to the policy (the paper's Fig. 8 decision
table).

Instrumentation is *not* mechanics: loop-block tracking, redundant-fill
detection and occupancy sampling live in :mod:`repro.instr` as probes.
The engine dispatches a fixed event vocabulary (see
:data:`repro.instr.probe.PROBE_EVENTS`) to precompiled handler tuples;
an empty tuple — a probe-free run — costs one attribute load and branch
per event site, so uninstrumented sweeps pay nothing for observability.

Level roles follow the paper's footnote 1: the L2 is non-inclusive with
respect to the LLC by default; the studied inclusion property is the
one between L2 and L3. Within a core we keep L1 ⊆ L2 so that coherence
and back-invalidation act at L2 granularity only.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Sequence

from ..cache import Cache, EvictedLine
from ..cache.block import STATE_MODIFIED
from ..cache.replacement import LRUPolicy
from ..cache.stats import LoopBlockStats
from ..core.loop_bits import LoopBlockTracker
from ..errors import SimulationError
from ..inclusion.base import InclusionPolicy
from ..instr import LoopProbe, Probe, ProbeBus, make_probes
from .config import HierarchyConfig
from .coherence import CoherenceController
from .timing import TimingModel


@dataclass
class HierarchyStats:
    """Cross-level counters not owned by any single cache."""

    accesses: int = 0
    stores: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    llc_demand_accesses: int = 0
    llc_demand_hits: int = 0
    l2_clean_victims: int = 0
    l2_dirty_victims: int = 0
    mem_reads: int = 0
    mem_writes: int = 0
    #: subset of ``mem_writes`` forced by inclusive back-invalidation
    #: (the LLC victim's upper-level copy was dirty). Splitting it out
    #: keeps the write ledger exact: ``mem_writes`` ==
    #: LLC ``dirty_evictions`` + ``mem_writes_backinval``.
    mem_writes_backinval: int = 0

    def snapshot(self) -> dict:
        """Plain-dict copy for reporting."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class CacheHierarchy:
    """Private L1/L2 per core + shared LLC under one inclusion policy.

    ``probes`` selects the instrumentation: ``None`` builds the
    legacy-equivalent default set (loop tracker, redundant-fill
    detector, and — when ``occupancy_sample_interval`` is positive —
    the occupancy sampler), an explicit sequence is used verbatim, and
    an empty sequence runs with zero per-access instrumentation.
    """

    def __init__(
        self,
        config: HierarchyConfig,
        policy: InclusionPolicy,
        enable_coherence: bool = False,
        occupancy_sample_interval: int = 0,
        probes: Optional[Sequence[Probe]] = None,
    ) -> None:
        self.config = config
        self.policy = policy
        block = config.block_size
        self.l1s: List[Cache] = [
            Cache(
                f"L1-{c}",
                config.l1.size_bytes,
                config.l1.assoc,
                block,
                replacement=LRUPolicy(),
                tech="sram",
            )
            for c in range(config.ncores)
        ]
        self.l2s: List[Cache] = [
            Cache(
                f"L2-{c}",
                config.l2.size_bytes,
                config.l2.assoc,
                block,
                replacement=LRUPolicy(),
                tech="sram",
            )
            for c in range(config.ncores)
        ]
        llc_cfg = config.llc
        self.llc = Cache(
            "L3",
            llc_cfg.size_bytes,
            llc_cfg.assoc,
            block,
            replacement=LRUPolicy(),
            tech="sram" if llc_cfg.tech.name.startswith("sram") else "stt",
            sram_ways=llc_cfg.sram_ways,
            banks=llc_cfg.banks,
        )
        self.timing = TimingModel(config)
        self.stats = HierarchyStats()
        self._finished = False
        self.coherence: Optional[CoherenceController] = (
            CoherenceController(self) if enable_coherence else None
        )
        if probes is None:
            probes = make_probes("default", occupancy_interval=occupancy_sample_interval)
        self._install_bus(ProbeBus(probes))
        policy.bind(self)

    def _install_bus(self, bus: ProbeBus) -> None:
        """Bind ``bus`` and refresh the cached per-event handler tuples."""
        self.probe_bus = bus
        bus.bind(self)
        bus_handlers = bus.handlers
        self._on_access = bus_handlers("access")
        self._on_l2_fill = bus_handlers("l2_fill")
        self._on_l2_victim = bus_handlers("l2_victim")
        self._on_llc_fill = bus_handlers("llc_fill")
        self._on_llc_evict = bus_handlers("llc_evict")
        self._on_demand_hit = bus_handlers("demand_hit")
        self._on_dirtied = bus_handlers("dirtied")
        self._on_clean_insert = bus_handlers("clean_insert")
        self._on_dirty_victim = bus_handlers("dirty_victim")
        self._on_occupancy_sample = bus_handlers("occupancy_sample")
        self._on_mem_writeback = bus_handlers("mem_writeback")

    def attach_probe(self, probe: Probe) -> None:
        """Attach one more probe mid-run (e.g. a flight recorder).

        The bus is recompiled and the cached handler tuples refreshed,
        so the probe observes every event from this point on; events
        before the attach are simply not seen (probes must tolerate
        starting from an unknown state — the standard ones do).
        """
        self._install_bus(ProbeBus((*self.probe_bus.probes, probe)))

    # ------------------------------------------------------------------
    # the access path
    # ------------------------------------------------------------------
    def access(self, core: int, addr: int, is_write: bool) -> None:
        """Process one memory reference from ``core``."""
        addr = self.llc.block_addr(int(addr))
        stats = self.stats
        stats.accesses += 1
        if is_write:
            stats.stores += 1

        l1 = self.l1s[core]
        if l1.lookup(addr, is_write) is not None:
            # L1 hits are pipelined: no timing charge.
            stats.l1_hits += 1
            if is_write:
                self._propagate_store(core, addr)
            cbs = self._on_access
            if cbs:
                for cb in cbs:
                    cb(core, addr, is_write)
            return

        if self.l2s[core].lookup(addr, False) is not None:
            stats.l2_hits += 1
            self.timing.l2_hit(core)
            l1.fill(addr, is_write)
            if is_write:
                self._propagate_store(core, addr)
            cbs = self._on_access
            if cbs:
                for cb in cbs:
                    cb(core, addr, is_write)
            return

        # ---- L2 miss: the inclusion policy owns the LLC interaction.
        stats.llc_demand_accesses += 1
        outcome = self.policy.llc_access(core, addr, is_write)
        if outcome.hit:
            stats.llc_demand_hits += 1
        supplied = False
        if self.coherence is not None:
            supplied = self.coherence.on_l2_miss(core, addr, is_write, outcome.hit)
        if not outcome.hit and not supplied:
            stats.mem_reads += 1
            self.timing.memory_access(core)

        loop_bit = self.policy.l2_fill_loop_bit(outcome.hit)
        self._fill_l2(core, addr, loop_bit=loop_bit, is_write=is_write, dirty=outcome.dirty)
        cbs = self._on_l2_fill
        if cbs:
            for cb in cbs:
                cb(addr, outcome.hit)
        l1.fill(addr, is_write)
        if is_write:
            self._propagate_store(core, addr)
        cbs = self._on_access
        if cbs:
            for cb in cbs:
                cb(core, addr, is_write)

    # ------------------------------------------------------------------
    # fills and writebacks
    # ------------------------------------------------------------------
    def _fill_l2(
        self, core: int, addr: int, loop_bit: bool, is_write: bool, dirty: bool = False
    ) -> None:
        """Install a line into ``core``'s L2.

        ``dirty`` marks a fill that inherits a writeback obligation from
        an invalidated dirty LLC copy (exclusive-style hit-invalidation):
        the L2 copy starts dirty, and — under coherence — Modified,
        since the policy only hands dirtiness up when no peer holds the
        line, making this core the sole owner of the unwritten data.
        """
        l2 = self.l2s[core]
        evicted = l2.insert(addr, dirty, loop_bit)
        if self.coherence is not None:
            block = l2.peek(addr)
            block.state = (
                STATE_MODIFIED if dirty else self.coherence.fill_state(core, addr, is_write)
            )
            self.coherence.on_l2_insert(core, addr)
        if evicted is not None:
            self._handle_l2_victim(core, evicted)

    def _handle_l2_victim(self, core: int, line: EvictedLine) -> None:
        # Enforce L1 ⊆ L2: kill the upper copy (its dirtiness already
        # lives in the L2 line thanks to store propagation).
        self.l1s[core].discard(line.addr)
        if self.coherence is not None:
            self.coherence.on_l2_drop(core, line.addr)
        if line.dirty:
            self.stats.l2_dirty_victims += 1
        else:
            self.stats.l2_clean_victims += 1
        cbs = self._on_l2_victim
        if cbs:
            for cb in cbs:
                cb(line.addr, line.dirty)
        self.policy.l2_victim(core, line)

    def _propagate_store(self, core: int, addr: int) -> None:
        """Reflect a store into the L2 copy's dirty bit and loop-bit.

        The L1 is write-back, but propagating the dirty bit eagerly to
        the L2 copy (metadata only — no data traffic is modelled inside
        the SRAM upper levels) keeps loop-bit semantics exact: Fig. 10a
        resets the loop-bit the moment a block is written.
        """
        block = self.l2s[core].peek(addr)
        if block is None:
            raise SimulationError(
                f"L1/L2 inclusion violated: store to {addr:#x} with no L2 copy on core {core}"
            )
        first_dirtying = not block.dirty
        block.dirty = True
        self.policy.on_l2_dirtied(block)
        if first_dirtying:
            cbs = self._on_dirtied
            if cbs:
                for cb in cbs:
                    cb(addr)
            if self.coherence is not None:
                self.coherence.on_store(core, addr)

    # ------------------------------------------------------------------
    # services used by inclusion policies
    # ------------------------------------------------------------------
    def charge_llc_write(self, core: int, addr: int, tech: str) -> None:
        """Occupy the LLC bank for a (posted) write."""
        self.timing.llc_write(core, self.llc.bank_of(addr), tech)

    def shared_by_peers(self, core: int, addr: int) -> bool:
        """True when another core's L2 holds ``addr`` (coherent runs only).

        Exclusive-flavoured policies use this to relax invalidate-on-hit
        for actively shared lines: invalidating a line that other cores
        still read would force every subsequent reader through a snoop,
        so real exclusive LLCs keep shared lines resident (cf. Jaleel et
        al., HPCA 2015). Answered in O(1) from the coherence
        controller's sharers map. Multiprogrammed runs (no coherence)
        always return False.
        """
        coherence = self.coherence
        return coherence is not None and coherence.peers_of(core, addr) != 0

    def on_llc_eviction(self, line: EvictedLine) -> None:
        """An LLC victim leaves the cache: write back dirty data and
        apply back-invalidation for strictly inclusive policies."""
        if line.dirty:
            self.stats.mem_writes += 1
            self.note_mem_writeback(line.addr)
        self.note_llc_evict(line.addr)
        if self.policy.back_invalidates:
            self._back_invalidate(line.addr)

    def _back_invalidate(self, addr: int) -> None:
        for core in range(self.config.ncores):
            self.l1s[core].discard(addr)
            dropped = self.l2s[core].invalidate(addr)
            if dropped is not None:
                if self.coherence is not None:
                    self.coherence.on_l2_drop(core, addr)
                cbs = self._on_l2_victim
                if cbs:
                    for cb in cbs:
                        cb(dropped.addr, dropped.dirty)
                if dropped.dirty:
                    # The LLC copy is gone too; dirty data must reach
                    # memory directly.
                    self.stats.mem_writes += 1
                    self.stats.mem_writes_backinval += 1
                    self.note_mem_writeback(addr)

    # ---- probe event entry points used by policies & coherence -------
    def note_clean_insert(self, addr: int) -> None:
        """A clean victim's data was written into the LLC (Fig. 16's
        redundant loop-block re-insertions are counted here)."""
        for cb in self._on_clean_insert:
            cb(addr)

    def note_fill(self, addr: int) -> None:
        """An LLC data-fill just happened (Figs. 6 / 17 freshness)."""
        for cb in self._on_llc_fill:
            cb(addr)

    def note_demand_hit(self, addr: int) -> None:
        """A demand hit consumed an LLC fill — it was useful."""
        for cb in self._on_demand_hit:
            cb(addr)

    def note_dirty_victim(self, addr: int) -> None:
        """A dirty victim overwrote the LLC copy (Fig. 5's redundant-
        fill trigger)."""
        for cb in self._on_dirty_victim:
            cb(addr)

    def note_llc_evict(self, addr: int) -> None:
        """The line left the LLC."""
        for cb in self._on_llc_evict:
            cb(addr)

    def note_mem_writeback(self, addr: int) -> None:
        """Dirty data for ``addr`` was written back to main memory."""
        for cb in self._on_mem_writeback:
            cb(addr)

    def note_l2_drop(self, addr: int, dirty: bool) -> None:
        """A peer invalidation dropped an L2 line (coherence flows)."""
        for cb in self._on_l2_victim:
            cb(addr, dirty)

    def emit_occupancy_sample(self, valid: int, loops: int) -> None:
        """Re-broadcast an occupancy sample to subscribing probes."""
        for cb in self._on_occupancy_sample:
            cb(valid, loops)

    # ------------------------------------------------------------------
    # instrumentation access / finalisation
    # ------------------------------------------------------------------
    @property
    def loop_tracker(self) -> Optional[LoopBlockTracker]:
        """The loop-block tracker, when the loop probe is enabled."""
        probe = self.probe_bus.find(LoopProbe)
        return probe.tracker if probe is not None else None

    def loop_stats(self) -> LoopBlockStats:
        """Loop-block stats (empty when running without the loop probe)."""
        tracker = self.loop_tracker
        return tracker.stats if tracker is not None else LoopBlockStats()

    def finish(self) -> None:
        """End-of-run bookkeeping (flush CTC streaks, policy hooks).

        Idempotent: calling it again (tests, belt-and-braces callers
        like ``record_simulation``) must not re-run probe or policy
        finalisation.
        """
        if self._finished:
            return
        self._finished = True
        self.probe_bus.finish()
        self.policy.end_of_run()

    # convenience -------------------------------------------------------
    @property
    def llc_mpki_numerator(self) -> int:
        """LLC misses (demand accesses that missed)."""
        return self.stats.llc_demand_accesses - self.stats.llc_demand_hits
