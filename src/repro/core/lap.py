"""LAP: the Loop-block-Aware Policy (paper Section III).

LAP is a *new* inclusion model, not a switch between existing ones. Its
data flow (Fig. 8) combines the redundant-write-free halves of
non-inclusion and exclusion:

- **no invalidation on LLC hits** (from non-inclusion) — so loop-blocks
  keep their LLC copy and their next clean eviction needs no write;
- **no LLC fill on LLC misses** (from exclusion) — so redundant
  data-fills never happen;
- **selective clean writeback** — a clean L2 victim is written to the
  LLC only when no duplicate copy is already there; when a duplicate
  exists only the loop-bit in the (SRAM) tag array is refreshed;
- dirty victims update/insert as usual.

LLC writes therefore reduce to *non-duplicate* clean victims plus dirty
victims (Section III-A).

The replacement policy is the loop-block-aware scheme of Fig. 9:
leader sets duel loop-aware LRU (evict invalid → LRU non-loop-block →
LRU loop-block) against plain LRU on miss counts; follower sets adopt
the winner. The ``replacement_mode`` parameter exposes the paper's
ablations: ``"lru"`` (LAP-LRU), ``"loop"`` (LAP-Loop), ``"duel"``
(full LAP).
"""

from __future__ import annotations

from ..cache import EvictedLine
from ..cache.replacement import LoopAwarePolicy, LRUPolicy, ReplacementPolicy, SRRIPPolicy
from ..errors import ConfigurationError
from ..inclusion.base import InclusionPolicy
from ..inclusion.dueling import ROLE_LEADER_A, SetDueling, fewer_misses_wins

REPLACEMENT_MODES = ("duel", "lru", "loop")
BASELINES = ("lru", "srrip")


class LAPPolicy(InclusionPolicy):
    """The paper's primary contribution (Table IV row "LAP")."""

    name = "lap"
    invalidate_on_hit = False
    fill_on_miss = False
    clean_writeback = True  # selectively: only non-duplicates
    back_invalidates = False

    def __init__(
        self,
        replacement_mode: str = "duel",
        duel_period: int = 64,
        duel_interval: int = 4096,
        baseline: str = "lru",
    ) -> None:
        super().__init__()
        if replacement_mode not in REPLACEMENT_MODES:
            raise ConfigurationError(
                f"replacement_mode must be one of {REPLACEMENT_MODES}, got {replacement_mode!r}"
            )
        if baseline not in BASELINES:
            raise ConfigurationError(
                f"baseline must be one of {BASELINES}, got {baseline!r}"
            )
        self.replacement_mode = replacement_mode
        self.baseline = baseline
        if replacement_mode != "duel":
            self.name = f"lap-{replacement_mode}"
        if baseline != "lru":
            self.name = f"{self.name}@{baseline}"
        self._duel_period = duel_period
        self._duel_interval = duel_interval

        def make_baseline() -> ReplacementPolicy:
            # The loop-block-aware principle "can be easily applied to
            # any baseline policy" (Section III-B); RRIP is the paper's
            # named alternative.
            return SRRIPPolicy() if baseline == "srrip" else LRUPolicy()

        self._lru: ReplacementPolicy = make_baseline()
        self._loop_aware: ReplacementPolicy = LoopAwarePolicy(make_baseline())

    def bind(self, hierarchy) -> None:
        super().bind(hierarchy)
        if self.replacement_mode == "duel":
            # Leader A = loop-block-aware, leader B = LRU; fewer misses
            # wins (Fig. 9's "Mloop > Mlru ? LRU : loop-block-aware").
            self.dueling = SetDueling(
                num_sets=self.llc.num_sets,
                period=self._duel_period,
                interval=self._duel_interval,
                winner_fn=fewer_misses_wins,
                initial_winner=ROLE_LEADER_A,
            )

    # ------------------------------------------------------------------
    # inclusion decisions (the rest is the base flow over Fig. 8's row)
    # ------------------------------------------------------------------
    def l2_fill_loop_bit(self, llc_hit: bool) -> bool:
        # Fig. 10c: the block inserted into L2 on an LLC hit is predicted
        # to start (or continue) a clean trip.
        return llc_hit

    def l2_victim(self, h, core: int, line: EvictedLine) -> None:
        existing = self.llc.probe(line.addr)
        if existing is not None and not line.dirty:
            # Fig. 10b: the clean data is discarded; only the loop-bit in
            # the SRAM tag array is refreshed — no data-array write.
            existing.set_loop_bit(line.loop_bit)
            return
        # A dirty victim, or a clean one with no duplicate (the one
        # clean-writeback case): the base flow inserts or updates it.
        super().l2_victim(h, core, line)

    # ------------------------------------------------------------------
    # replacement (Fig. 9)
    # ------------------------------------------------------------------
    def replacement_for(self, set_index: int) -> ReplacementPolicy:
        if self.replacement_mode == "lru":
            return self._lru
        if self.replacement_mode == "loop":
            return self._loop_aware
        choice = self.dueling.policy_for(set_index)
        return self._loop_aware if choice == ROLE_LEADER_A else self._lru

    def _record_duel_miss(self, addr: int) -> None:
        if self.dueling is not None:
            self.dueling.record_miss(self.llc.set_index(addr))
