"""Event counters for caches and the LLC write-class breakdown.

The paper's evaluation is entirely event-count driven: energy comes
from counting reads/writes per technology region, and every figure
(write breakdown, MPKI, loop-block occupancy, redundant fills) is a
projection of these counters. We therefore keep one explicit, documented
counter object per cache rather than scattering ad-hoc integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class CacheStats:
    """Structural and energy-relevant event counts for one cache.

    Attributes are grouped as:

    - generic structural counters (any level):
      ``lookups``, ``hits``, ``misses``, ``insertions``, ``evictions``,
      ``dirty_evictions``, ``invalidations``, ``writebacks_received``.
    - energy accounting accesses split by technology region of a hybrid
      LLC (homogeneous caches use only the ``sram`` or ``stt`` pair that
      matches their technology): ``data_reads_*``, ``data_writes_*``,
      and ``tag_probes`` (tag-array accesses, counted once per lookup
      and per update).
    - LLC write-class breakdown (Fig. 15): ``fill_writes`` (data fills
      from memory on LLC misses, non-inclusive only), ``clean_victim_writes``
      and ``dirty_victim_writes`` (insertions of L2 victims),
      ``update_writes`` (in-place updates of an existing LLC copy by a
      dirty victim).
    - redundant-write instrumentation: ``redundant_fills`` counts
      non-inclusive data fills later proven useless (Fig. 6 / Fig. 17),
      ``hit_invalidations`` counts exclusive-style invalidate-on-hit.
    - hybrid-placement extras: ``migrations`` (SRAM→STT moves made by
      Lhybrid).
    """

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0
    writebacks_received: int = 0

    tag_probes: int = 0
    data_reads_sram: int = 0
    data_writes_sram: int = 0
    data_reads_stt: int = 0
    data_writes_stt: int = 0

    fill_writes: int = 0
    clean_victim_writes: int = 0
    dirty_victim_writes: int = 0
    update_writes: int = 0

    redundant_fills: int = 0
    hit_invalidations: int = 0
    migrations: int = 0

    @property
    def data_reads(self) -> int:
        """Total data-array reads across both technology regions."""
        return self.data_reads_sram + self.data_reads_stt

    @property
    def data_writes(self) -> int:
        """Total data-array writes across both technology regions."""
        return self.data_writes_sram + self.data_writes_stt

    @property
    def llc_writes(self) -> int:
        """Total writes to the LLC in the paper's Fig. 15 sense."""
        return (
            self.fill_writes
            + self.clean_victim_writes
            + self.dirty_victim_writes
            + self.update_writes
        )

    @property
    def miss_rate(self) -> float:
        """Fraction of lookups that missed (0.0 when never looked up)."""
        return self.misses / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        """Zero every counter in place."""
        for f in fields(self):
            setattr(self, f.name, 0)

    def snapshot(self) -> dict:
        """Return a plain-dict copy of all counters (for reporting)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def add(self, other: "CacheStats") -> None:
        """Accumulate another stats object into this one."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass
class DuelingStats:
    """Bookkeeping for a set-dueling controller (Section III-B).

    ``leader_a`` / ``leader_b`` miss counters accumulate within the
    current decision interval; ``decisions_a`` / ``decisions_b`` count
    how many intervals each leader won (used in tests and the Fig. 19
    analysis of how often LAP follows each replacement policy).
    """

    leader_a_misses: int = 0
    leader_b_misses: int = 0
    decisions_a: int = 0
    decisions_b: int = 0
    intervals: int = 0

    def reset_interval(self) -> None:
        """Clear per-interval miss counters after a decision."""
        self.leader_a_misses = 0
        self.leader_b_misses = 0


@dataclass
class CoherenceStats:
    """Bus-level coherence traffic counts (Fig. 20c).

    ``snoop_broadcasts`` counts bus transactions that probe peer caches
    (LLC misses and write-upgrades); ``cache_to_cache`` counts transfers
    supplied by a peer; ``invalidation_messages`` counts per-peer
    invalidations delivered.
    """

    snoop_broadcasts: int = 0
    cache_to_cache: int = 0
    invalidation_messages: int = 0
    upgrades: int = 0

    @property
    def total_traffic(self) -> int:
        """Aggregate snoop traffic metric used for Fig. 20c."""
        return self.snoop_broadcasts + self.invalidation_messages

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)


@dataclass
class LoopBlockStats:
    """Loop-block instrumentation (Fig. 4 and Fig. 16).

    ``ctc_histogram`` maps a clean-trip count (CTC) to the number of
    block lifetimes that completed exactly that many consecutive clean
    trips between L2 and the LLC before becoming a non-loop-block.
    ``l2_evictions`` / ``loop_evictions`` feed the loop-block fraction;
    ``llc_loop_samples`` / ``llc_loop_hits`` estimate the fraction of
    LLC-resident blocks that are loop-blocks.
    """

    ctc_histogram: dict = field(default_factory=dict)
    l2_evictions: int = 0
    loop_evictions: int = 0
    loop_reinsertions: int = 0
    llc_loop_samples: int = 0
    llc_loop_blocks: int = 0

    def record_ctc(self, count: int) -> None:
        """Record a finished clean-trip streak of length ``count``."""
        if count > 0:
            self.ctc_histogram[count] = self.ctc_histogram.get(count, 0) + 1

    @property
    def loop_block_fraction(self) -> float:
        """Fraction of L2 evictions that were loop-blocks (Fig. 4)."""
        if not self.l2_evictions:
            return 0.0
        return self.loop_evictions / self.l2_evictions

    def ctc_buckets(self) -> dict:
        """Bucket the CTC histogram as the paper plots it (Fig. 4).

        Returns a dict with keys ``"ctc=1"``, ``"1<ctc<5"``, ``"ctc>=5"``
        mapping to lifetime counts.
        """
        buckets = {"ctc=1": 0, "1<ctc<5": 0, "ctc>=5": 0}
        for ctc, n in self.ctc_histogram.items():
            if ctc == 1:
                buckets["ctc=1"] += n
            elif ctc < 5:
                buckets["1<ctc<5"] += n
            else:
                buckets["ctc>=5"] += n
        return buckets

    def ctc_shares(self) -> dict:
        """The :meth:`ctc_buckets` as shares of all loop-block lifetimes
        (Fig. 4's stacking); all zero when there are none."""
        buckets = self.ctc_buckets()
        total = sum(buckets.values())
        if total == 0:
            return {k: 0.0 for k in buckets}
        return {k: v / total for k, v in buckets.items()}
