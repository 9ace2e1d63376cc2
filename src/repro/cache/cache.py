"""Set-associative cache model.

:class:`Cache` is the substrate every hierarchy level is built from. It
models the tag/data arrays of a banked, set-associative, write-back
cache and counts every energy-relevant event into a
:class:`~repro.cache.stats.CacheStats`. It holds *no* policy decisions
beyond victim selection — inclusion behaviour, coherence, and placement
are orchestrated by the hierarchy and policy layers, which drive the
primitive operations exposed here.

Hybrid LLCs (Section IV / Table II) are modelled by partitioning the
ways of every set between an ``"sram"`` region and an ``"stt"`` region;
homogeneous caches place all ways in a single region named after their
technology.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from ..errors import ConfigurationError
from ..utils import ilog2, require_pow2
from .block import CacheBlock
from .replacement import LRUPolicy, ReplacementPolicy
from .set import CacheSet
from .stats import CacheStats


class EvictedLine(NamedTuple):
    """Snapshot of a victim block at the moment of its eviction.

    ``addr`` is the block-aligned byte address reconstructed from the
    victim's tag and set index, so cascaded eviction flows (L2 victim →
    LLC insertion → LLC victim → memory) can re-index the line at the
    next level. ``reused`` records whether the line was touched after
    insertion — dead-write predictors train on it.
    """

    addr: int
    dirty: bool
    loop_bit: bool
    tech: str
    state: str
    reused: bool = False


class _BuiltOnFirstRead:
    """``Cache.sets``: a non-data descriptor that builds the tag array on
    first read and stores it as a plain instance attribute, which every
    later read finds first.

    Not ``functools.cached_property``: on CPython 3.11 a value it writes
    through ``__dict__`` takes the instance off the inline-values fast
    path, and every attribute read of a hot ``Cache`` slows by ~60%.
    """

    def __get__(self, cache, owner=None):
        if cache is None:
            return self
        return cache._build_sets()


class Cache:
    """A banked, set-associative, write-back cache tag/data model.

    Parameters
    ----------
    name:
        Label used in stats reporting (``"L1"``, ``"L2-0"``, ``"L3"``).
    size_bytes / assoc / block_size:
        Standard power-of-two geometry.
    replacement:
        Default :class:`ReplacementPolicy`; individual operations may
        override it per call (set-dueling relies on this).
    tech:
        ``"sram"`` or ``"stt"`` for homogeneous caches.
    sram_ways:
        When given, builds a hybrid cache: ways ``[0, sram_ways)`` are
        SRAM, the rest STT-RAM (``tech`` is then ignored for ways).
    banks:
        Number of independently busy banks (address-interleaved at
        block granularity); used by the timing model.

    The tag array (:attr:`sets`) is built on first read. Until then the
    cache is its geometry, ``way_techs`` (each way's technology), its
    stats and, after a batched-kernel run, that run's working state.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        block_size: int = 64,
        replacement: Optional[ReplacementPolicy] = None,
        tech: str = "sram",
        sram_ways: Optional[int] = None,
        banks: int = 1,
    ) -> None:
        require_pow2(size_bytes, f"{name} size_bytes")
        require_pow2(block_size, f"{name} block_size")
        require_pow2(banks, f"{name} banks")
        if assoc <= 0:
            raise ConfigurationError(f"{name} associativity must be positive, got {assoc}")
        if tech not in ("sram", "stt"):
            raise ConfigurationError(f"{name} tech must be 'sram' or 'stt', got {tech!r}")
        num_sets = size_bytes // (assoc * block_size)
        if num_sets <= 0 or size_bytes != num_sets * assoc * block_size:
            raise ConfigurationError(
                f"{name}: size {size_bytes} not divisible into {assoc}-way sets of "
                f"{block_size}B blocks"
            )
        require_pow2(num_sets, f"{name} derived set count")

        if sram_ways is not None:
            if not 0 < sram_ways < assoc:
                raise ConfigurationError(
                    f"{name}: hybrid sram_ways must be in (0, assoc); got {sram_ways} of {assoc}"
                )
            self.way_techs = ["sram"] * sram_ways + ["stt"] * (assoc - sram_ways)
            self.hybrid = True
        else:
            self.way_techs = [tech] * assoc
            self.hybrid = False

        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.block_size = block_size
        self.num_sets = num_sets
        self.banks = banks
        self.tech = tech
        self.sram_ways = sram_ways if sram_ways is not None else (assoc if tech == "sram" else 0)
        self.replacement = replacement if replacement is not None else LRUPolicy()
        self._offset_bits = ilog2(block_size)
        self._index_bits = ilog2(num_sets)
        self._index_mask = num_sets - 1
        self._bank_mask = banks - 1
        # Tag extraction is ``addr >> _tag_shift``; precomputed so the
        # hot path slices each address exactly once per operation.
        self._tag_shift = self._offset_bits + self._index_bits
        #: the batched kernel's working state of a run that ended before
        #: anything read :attr:`sets`; the first read applies it
        self._kernel_state: Optional[dict] = None
        #: whether :attr:`sets` (the blocks) has been built
        self.blocks_built = False
        self.stats = CacheStats()
        self._tick = 0

    sets = _BuiltOnFirstRead()

    def _build_sets(self) -> List[CacheSet]:
        """Build the tag array (the first read of :attr:`sets`).

        A cache that only the batched kernel drives never builds it: the
        kernel keeps its own working state in ``_kernel_state``,
        which this writes into the new blocks.
        """
        self.sets = sets = [
            CacheSet(i, self.assoc, self.way_techs) for i in range(self.num_sets)
        ]
        self.blocks_built = True
        state, self._kernel_state = self._kernel_state, None
        if state is not None:
            from ..kernel.batch import _checkin

            _checkin(self, state)
        return sets

    # ------------------------------------------------------------------
    # address slicing
    # ------------------------------------------------------------------
    def block_addr(self, addr: int) -> int:
        """Block-align a byte address."""
        return addr >> self._offset_bits << self._offset_bits

    def set_index(self, addr: int) -> int:
        """Set index of a byte address."""
        return (addr >> self._offset_bits) & self._index_mask

    def tag_of(self, addr: int) -> int:
        """Tag of a byte address."""
        return addr >> (self._offset_bits + self._index_bits)

    def bank_of(self, addr: int) -> int:
        """Bank servicing a byte address (block-interleaved)."""
        return (addr >> self._offset_bits) & self._bank_mask

    def addr_of(self, set_index: int, tag: int) -> int:
        """Reconstruct the block address of a (set, tag) pair."""
        return ((tag << self._index_bits) | set_index) << self._offset_bits

    def _now(self) -> int:
        self._tick += 1
        return self._tick

    # ------------------------------------------------------------------
    # primitive operations
    # ------------------------------------------------------------------
    def probe(self, addr: int) -> Optional[CacheBlock]:
        """Tag-only presence check (no data access, no hit/miss counts).

        Used for LAP's "is there a duplicate copy in the LLC?" check on
        clean L2 evictions — a pre-existing data path in exclusive
        caches, hence costed as a tag probe only.
        """
        self.stats.tag_probes += 1
        return self.sets[(addr >> self._offset_bits) & self._index_mask].tag_map.get(
            addr >> self._tag_shift
        )

    def peek(self, addr: int) -> Optional[CacheBlock]:
        """Stat-free lookup for tests, assertions and sampling."""
        return self.sets[(addr >> self._offset_bits) & self._index_mask].tag_map.get(
            addr >> self._tag_shift
        )

    def lookup(
        self,
        addr: int,
        is_write: bool = False,
        policy: Optional[ReplacementPolicy] = None,
    ) -> Optional[CacheBlock]:
        """Full lookup: tag probe plus data access on hit.

        On a hit, the data array is read (or written, for a store hit),
        recency metadata is updated via ``policy`` (default: the cache's
        replacement policy), and a store hit sets the dirty bit. Returns
        the block on hit, None on miss.
        """
        stats = self.stats
        stats.lookups += 1
        stats.tag_probes += 1
        block = self.sets[(addr >> self._offset_bits) & self._index_mask].tag_map.get(
            addr >> self._tag_shift
        )
        if block is None:
            stats.misses += 1
            return None
        stats.hits += 1
        if is_write:
            if block.tech == "sram":
                stats.data_writes_sram += 1
            else:
                stats.data_writes_stt += 1
            block.dirty = True
        elif block.tech == "sram":
            stats.data_reads_sram += 1
        else:
            stats.data_reads_stt += 1
        self._tick = now = self._tick + 1
        (policy or self.replacement).on_hit(block, now)
        return block

    def insert(
        self,
        addr: int,
        dirty: bool = False,
        loop_bit: bool = False,
        region: Optional[str] = None,
        policy: Optional[ReplacementPolicy] = None,
    ) -> Optional[EvictedLine]:
        """Install a line, evicting a victim if the (region of the) set is full.

        Returns an :class:`EvictedLine` snapshot of the displaced valid
        block, or None when an invalid way was used. The data-array
        write is counted against the region the line lands in.
        """
        set_index = (addr >> self._offset_bits) & self._index_mask
        cache_set = self.sets[set_index]
        if region is None:
            candidates = cache_set.blocks
        else:
            candidates = cache_set.region_blocks(region)
            if not candidates:
                raise ConfigurationError(
                    f"{self.name}: no ways in region {region!r} (hybrid misconfiguration)"
                )
        chooser = policy if policy is not None else self.replacement
        self._tick = now = self._tick + 1
        victim = chooser.victim(candidates, now)
        stats = self.stats
        if victim.valid:
            stats.evictions += 1
            if victim.dirty:
                stats.dirty_evictions += 1
            evicted = EvictedLine(
                ((victim.tag << self._index_bits) | set_index) << self._offset_bits,
                victim.dirty,
                victim.loop_bit,
                victim.tech,
                victim.state,
                victim.last_access > victim.insert_seq,
            )
        else:
            evicted = None
        cache_set.install(victim, addr >> self._tag_shift, dirty, loop_bit, now)
        chooser.on_insert(victim, now)
        stats.insertions += 1
        stats.tag_probes += 1
        if victim.tech == "sram":
            stats.data_writes_sram += 1
        else:
            stats.data_writes_stt += 1
        return evicted

    def fill(self, addr: int, dirty: bool = False) -> None:
        """Install a line whose victim nobody inspects (upper-level fills).

        Identical event accounting to :meth:`insert` with the default
        replacement policy and no region constraint, but never
        constructs an :class:`EvictedLine` — the L1 fill path discards
        victims (their dirtiness already lives in the L2 copy), so the
        snapshot allocation would be pure overhead.
        """
        set_index = (addr >> self._offset_bits) & self._index_mask
        cache_set = self.sets[set_index]
        self._tick = now = self._tick + 1
        chooser = self.replacement
        victim = chooser.victim(cache_set.blocks, now)
        stats = self.stats
        if victim.valid:
            stats.evictions += 1
            if victim.dirty:
                stats.dirty_evictions += 1
        cache_set.install(victim, addr >> self._tag_shift, dirty, False, now)
        chooser.on_insert(victim, now)
        stats.insertions += 1
        stats.tag_probes += 1
        if victim.tech == "sram":
            stats.data_writes_sram += 1
        else:
            stats.data_writes_stt += 1

    def update(self, block: CacheBlock, dirty: bool = False) -> None:
        """In-place data write to an existing block (e.g. dirty victim
        merging into an LLC copy)."""
        block.dirty = block.dirty or dirty
        block.last_access = self._now()
        self.stats.tag_probes += 1
        self._count_data_write(block.tech)

    def invalidate(self, addr: int) -> Optional[EvictedLine]:
        """Invalidate the line holding ``addr``, if present.

        Returns the dropped line's snapshot (so back-invalidation can
        propagate dirty data) or None. Counts a tag probe; dropping a
        line does not touch the data array.
        """
        cache_set = self.sets[(addr >> self._offset_bits) & self._index_mask]
        self.stats.tag_probes += 1
        block = cache_set.tag_map.get(addr >> self._tag_shift)
        if block is None:
            return None
        snapshot = EvictedLine(
            self.addr_of(cache_set.index, block.tag),
            block.dirty,
            block.loop_bit,
            block.tech,
            block.state,
            block.last_access > block.insert_seq,
        )
        cache_set.drop(block)
        self.stats.invalidations += 1
        return snapshot

    def discard(self, addr: int) -> bool:
        """Invalidate the line holding ``addr`` without snapshotting it.

        Event accounting is identical to :meth:`invalidate`; use this on
        paths that throw the snapshot away (L1 kills on L2 victims,
        exclusive-hit invalidations) so no :class:`EvictedLine` is
        allocated. Returns whether a line was dropped.
        """
        cache_set = self.sets[(addr >> self._offset_bits) & self._index_mask]
        self.stats.tag_probes += 1
        block = cache_set.tag_map.get(addr >> self._tag_shift)
        if block is None:
            return False
        cache_set.drop(block)
        self.stats.invalidations += 1
        return True

    def evict_block(self, cache_set: CacheSet, block: CacheBlock) -> Optional[EvictedLine]:
        """Explicitly evict ``block`` from ``cache_set`` (policy layers use
        this when they choose victims themselves, e.g. Lhybrid migration)."""
        evicted = self._capture_eviction(cache_set, block)
        if block.valid:
            cache_set.drop(block)
        return evicted

    def read_block(self, block: CacheBlock) -> None:
        """Count a data-array read of ``block`` (migration source reads)."""
        self._count_data_read(block.tech)

    def migrate_block(self, cache_set: CacheSet, src: CacheBlock, dst: CacheBlock) -> None:
        """Move a line between ways of one set (hybrid SRAM↔STT migration).

        Copies ``src``'s identity and metadata into ``dst`` (a free or
        just-vacated way, typically in the other technology region) and
        invalidates ``src``. Counts a data read of the source region and
        a data write of the destination region plus one migration.
        """
        if not src.valid:
            raise ConfigurationError(f"{self.name}: cannot migrate an invalid block")
        if dst.valid:
            raise ConfigurationError(f"{self.name}: migration destination must be free")
        tag, dirty, loop_bit = src.tag, src.dirty, src.loop_bit
        self._count_data_read(src.tech)
        cache_set.drop(src)
        cache_set.install(dst, tag, dirty=dirty, loop_bit=loop_bit, now=self._now())
        self._count_data_write(dst.tech)
        self.stats.migrations += 1

    # ------------------------------------------------------------------
    # occupancy / sampling helpers
    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Total valid lines across all sets."""
        return sum(len(s.tag_map) for s in self.sets)

    def loop_block_occupancy(self) -> tuple[int, int]:
        """(valid lines, valid lines with loop_bit set) — Fig. 16 metric.

        Reads the per-set incremental counters in O(num_sets); see
        :meth:`~repro.cache.block.CacheBlock.set_loop_bit` for the
        write-side discipline that keeps them exact.
        """
        valid = loops = 0
        for s in self.sets:
            valid += len(s.tag_map)
            loops += s.loop_count
        return valid, loops

    def resident_addrs(self) -> list[int]:
        """Block addresses of every valid line (test/diagnostic helper)."""
        out = []
        for s in self.sets:
            for tag in s.tag_map:
                out.append(self.addr_of(s.index, tag))
        return out

    def reset_stats(self) -> None:
        """Zero the stats counters without touching cache contents."""
        self.stats.reset()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _capture_eviction(self, cache_set: CacheSet, victim: CacheBlock) -> Optional[EvictedLine]:
        if not victim.valid:
            return None
        self.stats.evictions += 1
        if victim.dirty:
            self.stats.dirty_evictions += 1
        return EvictedLine(
            addr=self.addr_of(cache_set.index, victim.tag),
            dirty=victim.dirty,
            loop_bit=victim.loop_bit,
            tech=victim.tech,
            state=victim.state,
            reused=victim.last_access > victim.insert_seq,
        )

    def _count_data_read(self, tech: str) -> None:
        if tech == "sram":
            self.stats.data_reads_sram += 1
        else:
            self.stats.data_reads_stt += 1

    def _count_data_write(self, tech: str) -> None:
        if tech == "sram":
            self.stats.data_writes_sram += 1
        else:
            self.stats.data_writes_stt += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "hybrid" if self.hybrid else self.tech
        return (
            f"Cache({self.name}, {self.size_bytes}B, {self.assoc}-way, "
            f"{self.num_sets} sets, {kind})"
        )
