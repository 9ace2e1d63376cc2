"""Batched reference loop over checked-out tag arrays.

The generic access path (:meth:`CacheHierarchy.access`) walks ~35
Python calls per reference: clean layering, but ~9 microseconds per
access. This module is the same semantics with the layers flattened
into one loop, for the configurations where nothing can observe the
difference:

- the probe bus holds only the paper's standard probes — at most one
  each of exactly :class:`~repro.instr.probes.LoopProbe`,
  :class:`~repro.instr.probes.RedundantFillProbe` and
  :class:`~repro.instr.probes.OccupancySampler` (subclasses and any
  other probe fall back),
- coherence is off, or is the stock
  :class:`~repro.hierarchy.coherence.CoherenceController` (exact type),
- the inclusion policy is one the kernel inlines: non-inclusive,
  exclusive, LAP over an LRU baseline (all three replacement modes), or
  the FLEXclusion and Dswitch switchers.

Everything else falls back to the generic loop. The kernel is
*required* to be bit-identical to it — same stats, same timing floats,
same final tag-array state, same probe state — and the parity suite
(``tests/test_kernel_probes.py``) holds it to that.

How it stays exact: the per-access op sequence below is a line-by-line
transcription of ``hierarchy.access`` + the policy flows, preserving

- tick sequencing (a cache's ``_tick`` advances only on lookup-hit,
  insert, fill, and update — in the same order);
- stat increment sites (every counter the generic path touches, and
  only those);
- Fig. 15 write-class categories including the insert-or-update merge
  cases;
- timing-model float arithmetic (same expressions in the same order,
  so bank-contention floats match bit-for-bit);
- per-set loop-counter and tag-map discipline;
- victim choice: ``LRUPolicy``'s lowest invalid way, else its oldest
  line, and ``LoopAwarePolicy``'s oldest unmarked line (see below).

The standard probes become derived counters at the event sites the
loop already transcribes. The loop updates the probes' own containers
(keyed by block address, as on the generic path) and adds its counts
to their stats at checkin, so ``finish()``, a second ``run()`` and
``loop_stats()`` behave exactly as on the generic path:

- **loop tracker** — ``_from_llc`` on every L2 fill; L2 victims count
  evictions, extend clean-trip streaks or finalise them (dirty); the
  first clean→dirty store finalises; clean LLC inserts count
  re-insertions. CTC finalisations call ``record_ctc`` in event order,
  so the histogram's key order matches too.
- **redundant-fill detector** — the fresh set gains LLC data-fills and
  loses demand hits and LLC evictions/invalidations; a dirty victim
  meeting a fresh entry bumps ``redundant_fills``.
- **occupancy sampler** — each batch's reference stream is split at the
  sample points, where a sample event joins the stream, so the
  ``(valid, loop)`` sample lands after exactly the same reference as on
  the generic path and the per-reference loop carries no counter.

With a probe absent its state is an empty dict/set that nothing fills,
so the probe-free run pays only membership tests on rare paths.

One walk, two consumers. Nothing the LLC does changes L1/L2
replacement (the paper acts only at the L2↔LLC boundary), so the
private levels are a filter whose output every LLC policy consumes. One
generator, :func:`_walk`, is the only code that looks up, fills or
evicts L1/L2 lines (coherence only invalidates and downgrades peers'
copies). It runs the private levels from their current state and
yields the events the L2 lets through: per L2 miss its block and core,
the L2 slot filled, the victim's block, whether the victim was stored
to since its fill, whether the miss is a store, and the core's L2 hits
since its previous miss (its L2 ticks since then); per core at each
batch end its trailing hit count and the batch's number, whose
per-core ``instr_per_ref`` the walk records right after reading the
batch. With the loop tracker or coherence it also yields each other
first store to a line since its fill (a write miss's rides on its
miss); with the loop tracker, the occupancy sample points. Pass 2 runs
the events through the LLC demand and victim flows and is the only
code that writes LLC state. It keeps the policy-dependent bits of each
L2 slot as set at its fill, the dirty hand-off and LAP's loop bit: a
victim is dirty if handed over dirty or stored to, and keeps its loop
bit only if not stored to; checkin rebuilds the L2 ``dirty``/``loop``
columns and loop counters from them. The L2-hit latencies are added one
at a time, so ``core_cycles`` rounds exactly as in one loop.

Without coherence the walk is recorded ahead: pass 1 (:func:`_pass1`)
drains it into numpy columns, which pass 2 replays once per policy.

The jobs of one ``execute_jobs`` call share pass 1 through
``Simulator.stream_share``, on a pristine hierarchy (its first run)
only: its serial loop runs them all under one holder, and its pool
dispatches one task per stream group (the jobs that would read the same
pass 1), which a worker runs under a fresh holder. That grouping is only
a scheduling hint; this key decides what is shared. The key is what
pass 1 reads: the workload as ``JobSpec.stream_source`` states it (the
spec without a pinned scale, and the scale it builds at), the core
count, block size, L1/L2 geometry, refs per core, batch size and the
probe events recorded; not the policy, LLC, technology, latencies,
energy or duel interval. At
most one stream is held, in numpy columns. A hit also restores the
generators' end state: it leaves the simulator exactly as a miss would.

MOESI coherence (Fig. 20's multithreaded runs) cannot record the walk
ahead: a store upgrade depends on the policy's dirty hand-off, so L2
contents can differ by policy. Pass 2 iterates the walk live instead:
a generator suspends at each ``yield``, so pass 2 runs each event
before the walk goes on, and the controller's hooks, run in pass 2,
may change the peers' private state between events. The walk never
touches the sharers map or the LLC. Each hook runs where the generic
path calls it, in the same order:

- pass 2 reads the missed line's sharers (``peers``) at the top of the
  miss: it then skips the memory stall of an LLC miss (a peer supplies
  the line) and keeps the LLC copy on a hit (exclusive's
  ``shared_by_peers`` exception to invalidate-on-hit);
- ``on_l2_miss`` (snoop, write invalidations, E→S and on an LLC miss
  M→O downgrades, a peer supply), ``fill_state`` + ``on_l2_insert`` (a
  dirty hand-off fills M) and the victim's ``on_l2_drop`` run between
  the demand and the L2-victim flows, on the controller's own sharers
  map (keyed by block address) and the L2 ``state`` column of the
  checked-out blocks;
- the walk runs an L2 miss's L1 fill after its event: it touches only
  the core's own L1 set, which no hook touches;
- the L2 hits are charged at the core's next miss or batch end, which
  is exact: only the core's own events touch its cycle count;
- ``on_store`` on the first dirtying store only, at pass 2's one store
  site (a write miss's or a first-store event's): S/O upgrade, then
  the LLC copy's discard with ``note_llc_evict``;
- ``_invalidate_peer`` (:func:`_invalidate_peers`) — peer L1 discard,
  L2 invalidate, sharers drop, and ``note_l2_drop``, which the loop
  tracker counts as an L2 eviction.

The speed comes from three reductions of per-reference Python work:

- **recency-ordered set maps** — each set keeps one dict ``{block
  number: slot}`` of its valid lines, oldest first, plus a bitmask of
  its invalid ways. The key is ``addr >> offset_bits``: because
  ``tag_shift = offset_bits + index_bits``, ``(set, tag) <-> block`` is
  a bijection at every level, so the same block number keys L1, L2 and
  LLC alike and an evicted key needs no address rebuild. Every stamp
  the loop writes is its cache's newest, so a hit moves its key to the
  end and the dict stays in stamp order: a fill takes the lowest free
  way (what the stamp scan's first invalid way was) or else the first
  key (the least-recent line), and LAP's loop-aware victim is the first
  unmarked key, all without a scan. Checkout from blocks orders each
  set by ``last_access`` (ties to the lowest way, as ``LRUPolicy``
  breaks them) and builds the masks from ``valid``; checkin into blocks
  derives ``tag`` and ``valid`` from the maps, resets the ways in no
  map (so the loop never clears an invalidated way) and rebuilds each
  tag map in ``insert_seq`` order, which is the generic path's install
  order.
- **one interleaved stream** per batch (:func:`_batch_refs`), with the
  L1 stamps precomputed: the scalar loop never double-indexes.
- **derived stats** — counters that move in lockstep with a path
  (lookups, hit/read splits, fill writes at L1/L2, demand counts) are
  reconstructed after the run from the few data-dependent ones, so the
  hot loop only counts what it must: L1 misses are the L2 tick delta
  (each one ticks the L2 once, on its hit or its fill), and evictions
  are fills minus the rare free-way fills.

A cache builds its blocks on the first read of its ``sets``, so a job
that runs only on this loop never builds one: :func:`_checkout` reads
blocks only if they exist, and at run end :func:`_put_back` writes into
them or leaves the working state on the cache for that first read.

Both loops read one flow. The generic loop runs
:class:`~repro.inclusion.base.InclusionPolicy`'s one L2↔LLC flow, driven
by the policy's Fig. 8 row (``fill_on_miss``, ``invalidate_on_hit``,
``clean_writeback``, read through ``flow_for``); this loop's flow locals
``fill``/``inv_hit``/``clean_wb`` are that same row
(:data:`~repro.inclusion.base.flow_flags`). Only LAP's loop-bit L2
fills, victim tag probe and selective clean writeback are keyed on its
class, as on the generic loop, where they are LAP's only overrides.

Set-dueling is inlined the same way, for LAP and the switchers alike:
static leader roles are precomputed per set, and the tick/record/decide
state machine runs on local ints that are written back to the controller
at the end. A switcher runs each set's duel-role flow (leaders their
own, followers the winner's): after the tick the flow locals are re-read
from the switchers' mode table
(:data:`~repro.inclusion.switching.MODE_FLOWS`, which their
``flow_for`` reads too) by the demand set's role, and again by the
victim's set at the L2-victim site, so one unified victim flow covers
every merge across mode flips. Their three LLC-write sites (the
non-inclusive fill, the victim update and the victim insert) count
leader writes for Dswitch's decision; LAP counts none.
"""

from __future__ import annotations

import copy
import pickle
from itertools import chain, cycle, islice
from operator import attrgetter, gt, or_
from typing import List, Optional

import numpy as np

from ..cache.block import (
    STATE_EXCLUSIVE,
    STATE_MODIFIED,
    STATE_NONE,
    STATE_OWNED,
    STATE_SHARED,
)
from ..core.lap import LAPPolicy
from ..core.loop_bits import LoopBlockTracker
from ..hierarchy.coherence import CoherenceController
from ..inclusion.base import flow_flags
from ..inclusion.switching import MODE_FLOWS, DswitchPolicy, FLEXclusionPolicy
from ..inclusion.traditional import ExclusivePolicy, NonInclusivePolicy
from ..instr.probes import LoopProbe, OccupancySampler, RedundantFillProbe
from ..obs.spans import start_span

#: the policy classes whose flows the loop inlines
_INLINED = (NonInclusivePolicy, ExclusivePolicy, LAPPolicy, FLEXclusionPolicy, DswitchPolicy)


def supports_policy(policy) -> bool:
    """Whether the loop inlines ``policy``'s flow.

    Exact-type checks on purpose: subclasses (dead-write bypass,
    Lhybrid) override hooks the kernel does not call. LAP's victim
    choice is inlined over its LRU baseline only.
    """
    t = type(policy)
    return t in _INLINED and (t is not LAPPolicy or policy.baseline == "lru")


#: probe types whose semantics the kernel carries as derived counters
_KERNEL_PROBES = (LoopProbe, RedundantFillProbe, OccupancySampler)


def _kernel_probes(probes) -> Optional[dict]:
    """``{probe type: probe}`` when the kernel can carry ``probes``.

    Exact types, at most one of each (a second instance, a subclass, a
    loop probe over a tracker subclass, or any other probe returns
    None): the kernel inlines these classes' handlers, not overrides.
    """
    found = {}
    for probe in probes:
        t = type(probe)
        if t not in _KERNEL_PROBES or t in found:
            return None
        if t is LoopProbe and type(probe.tracker) is not LoopBlockTracker:
            return None
        found[t] = probe
    return found


def eligible(hierarchy) -> bool:
    """Whether the batched kernel can run this hierarchy verbatim."""
    coherence = hierarchy.coherence
    return (
        (coherence is None or type(coherence) is CoherenceController)
        and _kernel_probes(hierarchy.probe_bus.probes) is not None
        and supports_policy(hierarchy.policy)
    )


#: recency order of a set's valid blocks: by stamp, ties to the lowest way
_recency = attrgetter("last_access", "way")


def _checkout(cache) -> dict:
    """The kernel's working state of ``cache``.

    Flat lists in slot order (slot = set * assoc + way; MOESI ``state``
    strings included, for coherent runs), and per set: a ``{block
    number: slot}`` map of its valid lines in recency order (oldest
    first: by stamp, ties to the lowest way, as ``LRUPolicy`` breaks
    them), a bitmask of its invalid ways and its loop counter. The maps
    and masks stand for the ``tag`` and ``valid`` columns.

    A cache whose blocks were never built gives the state an earlier
    run stashed on it, or else its empty state straight from geometry;
    only a cache whose blocks exist is read from them.
    """
    if cache._kernel_state is not None:
        return cache._kernel_state
    if not cache.blocks_built:
        n, nsets = cache.num_sets * cache.assoc, cache.num_sets
        return {
            "dirty": [False] * n,
            "loop": [False] * n,
            "last": [0] * n,
            "iseq": [0] * n,
            "state": [STATE_NONE] * n,
            "maps": [{} for _ in range(nsets)],
            "free": [(1 << cache.assoc) - 1] * nsets,
            "loop_counts": [0] * nsets,
        }
    blocks = [b for s in cache.sets for b in s.blocks]
    assoc = cache.assoc
    idx_bits = cache._index_bits
    return {
        "dirty": [b.dirty for b in blocks],
        "loop": [b.loop_bit for b in blocks],
        "last": [b.last_access for b in blocks],
        "iseq": [b.insert_seq for b in blocks],
        "state": [b.state for b in blocks],
        "maps": [
            {
                (b.tag << idx_bits) | s.index: s.index * assoc + b.way
                for b in sorted(s.tag_map.values(), key=_recency)
            }
            for s in cache.sets
        ],
        "free": [sum(1 << b.way for b in s.blocks if not b.valid) for s in cache.sets],
        "loop_counts": [s.loop_count for s in cache.sets],
    }


def _checkin(cache, state: dict) -> None:
    """Write a checked-out working state back into ``cache``'s blocks.

    The maps say which ways are valid and with what block (its tag is
    ``block >> index_bits``), so the loop keeps no ``tag``/``valid``
    columns and never clears an invalidated way: a way in no map is
    reset here, as ``CacheSet.drop`` leaves it. No ``rrpv`` column
    either: only SRRIP writes it, and the kernel runs LRU baselines, so
    every block it touches keeps ``rrpv == 0``.
    Each set's tag map is rebuilt in ``insert_seq`` order, the order the
    generic path's installs leave it in, and gets its loop counter.
    """
    blocks = [b for s in cache.sets for b in s.blocks]
    idx_bits = cache._index_bits
    tags = [None] * len(blocks)
    for m in state["maps"]:
        for blk, slot in m.items():
            tags[slot] = blk >> idx_bits
    iseqs = state["iseq"]
    for b, tag, dirty, loop, last, iseq, moesi in zip(
        blocks,
        tags,
        state["dirty"],
        state["loop"],
        state["last"],
        iseqs,
        state["state"],
    ):
        if tag is None:
            b.reset()
            continue
        b.tag = tag
        b.valid = True
        b.dirty = dirty
        b.loop_bit = loop
        b.last_access = last
        b.insert_seq = iseq
        b.state = moesi
    for s, m, loops in zip(cache.sets, state["maps"], state["loop_counts"]):
        order = sorted(m.values(), key=iseqs.__getitem__)
        s.tag_map = {blocks[slot].tag: blocks[slot] for slot in order}
        s.loop_count = loops


def _put_back(cache, state: dict) -> None:
    """End a run: write ``state`` into ``cache``'s blocks if they exist,
    else keep it on the cache until something reads them."""
    if cache.blocks_built:
        _checkin(cache, state)
    else:
        cache._kernel_state = state


#: references per core materialised as Python values at a time
_CHUNK = 1024


def _in_ref_order(m):
    """The values of ``m`` (shape ``(ncores, take)``) in reference order
    (i-major, core-minor), as Python scalars, ``_CHUNK`` references per
    core at a time: the chained list iterators stay C-level, and a batch
    never holds all of its values as objects at once."""
    return chain.from_iterable(
        m[:, lo : lo + _CHUNK].T.ravel().tolist() for lo in range(0, m.shape[1], _CHUNK)
    )


def _duel_decide(winner_fn, dmiss, dwrite, dec) -> int:
    """``SetDueling``'s interval end on the kernel's counts: the winner,
    counted in ``dec``, then the leaders' miss and write counts halved."""
    winner = winner_fn(dmiss[0], dwrite[0], dmiss[1], dwrite[1])
    dec[winner] += 1
    dec[2] += 1
    for counts in (dmiss, dwrite):
        counts[0] //= 2
        counts[1] //= 2
    return winner


def _batch_refs(gens, take: int, off: int, l1_tick: list, per_core: tuple):
    """One batch's references, sliced with whole-matrix numpy ops, as a
    zip of ``(core, is_write, block, L1 stamp, *per-core objects)`` in
    reference order (i-major, core-minor: the generic round-robin), and
    its store count. The L1 tick advances exactly once per reference, so
    its stamps are an arange; ``l1_tick`` advances by ``take`` here."""
    batches = [gen.batch(take) for gen in gens]
    blk2 = np.stack([b[0] for b in batches]).astype(np.int64) >> off
    writes = np.stack([b[1] for b in batches])
    tk2 = (
        np.asarray(l1_tick, dtype=np.int64)[:, None]
        + np.arange(1, take + 1, dtype=np.int64)[None, :]
    )
    for c in range(len(gens)):
        l1_tick[c] += take
    stream = zip(
        cycle(range(len(gens))), _in_ref_order(writes), _in_ref_order(blk2),
        _in_ref_order(tk2), *map(cycle, per_core),
    )
    return stream, int(writes.sum())


def _invalidate_peers(
    peers, blk, addr, pctx, geo, hand, sharers, streak, from_llc, rec_ctc, tally
) -> None:
    """``CoherenceController._invalidate_peer`` for every core set in the
    bitmask ``peers``, in core order, over the checked-out state.

    ``pctx[c]`` is core ``c``'s L1/L2 working state, ending with its
    ``[discard calls, L1 invalidations, L2 invalidations]`` counters; a
    line is dirty if handed over dirty (``hand``, numbered across cores
    from ``c``'s first slot) or stored to since its fill. ``geo`` is
    ``(l1 index mask, l1 assoc, l2 index mask, l2 assoc)``; ``tally``
    accumulates ``[invalidation messages, L2 lines dropped, loop
    evictions]`` (a dropped line is an L2 eviction to the loop tracker,
    as ``note_l2_drop`` makes it on the generic path).
    """
    l1_mask, l1_assoc, l2_mask, l2_assoc = geo
    s1 = blk & l1_mask
    s2 = blk & l2_mask
    peer = 0
    while peers:
        if peers & 1:
            m1, fr1, m2, fr2, sto2, base, cnt = pctx[peer]
            tally[0] += 1
            cnt[0] += 1
            # l1.discard
            s = m1[s1].pop(blk, None)
            if s is not None:
                fr1[s1] |= 1 << (s % l1_assoc)
                cnt[1] += 1
            # l2.invalidate
            s = m2[s2].pop(blk, None)
            if s is not None:
                fr2[s2] |= 1 << (s % l2_assoc)
                cnt[2] += 1
                # on_l2_drop
                mask = sharers.get(addr, 0) & ~(1 << peer)
                if mask:
                    sharers[addr] = mask
                else:
                    sharers.pop(addr, None)
                # note_l2_drop -> tracker.on_l2_evict
                tally[1] += 1
                if hand[base + s] or sto2[s]:
                    if streak and addr in streak:
                        rec_ctc(streak.pop(addr))
                elif from_llc.get(addr, False):
                    streak[addr] = streak.get(addr, 0) + 1
                    tally[2] += 1
        peers >>= 1
        peer += 1


def _downgrade_peers(peers, blk, s2, m2_sets, l2_state, n2, owned) -> None:
    """The read-snoop downgrades of ``CoherenceController.on_l2_miss``:
    E→S in every peer, and M→O too when ``owned`` (an LLC miss);
    ``s2`` is ``blk``'s L2 set, ``l2_state`` the MOESI states of the L2
    slots numbered across cores, ``n2`` per core."""
    peer = 0
    while peers:
        if peers & 1:
            s = m2_sets[peer][s2].get(blk)
            if s is not None:
                s += peer * n2
                if l2_state[s] == STATE_EXCLUSIVE:
                    l2_state[s] = STATE_SHARED
                elif owned and l2_state[s] == STATE_MODIFIED:
                    l2_state[s] = STATE_OWNED
        peers >>= 1
        peer += 1


#: the kinds of event that carry no L2 miss (a miss's victim field is -1
#: or a block): a first store since its fill to the line in ``slot``
#: other than a write miss's (with the loop tracker or coherence); an
#: occupancy sample point (loop tracker only); and a batch end of
#: ``core``, ``blk`` references long, batch number ``slot``, after
#: ``hits`` trailing L2 hits
_FIRST_STORE, _SAMPLE, _BATCH_END = -2, -3, -4

#: numpy types of an event's ``(hits, blk, core, slot, stored, victim,
#: write)`` columns
_COLUMN_TYPES = (np.int32, np.int64, np.int32, np.int32, np.bool_, np.int64, np.bool_)

#: events per recorded chunk: drained from the walk in C (the tuples die
#: one at a time), then split into the typed columns
_DRAIN = 2048


class _Stream:
    """The walk's output (module docstring). An event is ``(hits, blk,
    core, slot, stored, victim, write)``: for an L2 miss of ``core``,
    ``slot`` is the L2 slot filled (numbered across cores), ``stored``
    whether the victim was stored to since its fill, ``victim`` its
    block, -1 for a free way, and ``write`` whether the miss is a store;
    else ``victim`` is one of the other kinds above. Besides the events
    (recorded in ``chunks``, or none when iterated live), the private
    levels' working and end state, each batch's per-core
    ``instr_per_ref`` weights and the walk's counts."""

    __slots__ = ("chunks", "events", "l1", "l2", "sto", "weights", "counts", "since", "gens")

    def replay(self):
        """The events in order, one chunk's columns materialised at a time."""
        return chain.from_iterable(
            zip(*(col.tolist() for col in chunk)) for chunk in self.chunks
        )

    def fork(self) -> "_Stream":
        """A copy whose private-level states a run may mutate."""
        dup = copy.copy(self)
        dup.l1 = [_copy_state(st) for st in self.l1]
        dup.l2 = [_copy_state(st) for st in self.l2]
        return dup


def _copy_state(state: dict) -> dict:
    return {k: [dict(m) for m in v] if k == "maps" else list(v) for k, v in state.items()}


def _fresh_stream(h) -> _Stream:
    """A stream for :func:`_walk` to fill: ``h``'s checked-out L1 and L2
    states and, per L2 slot, "stored to since its fill" (all False)."""
    st = _Stream()
    st.l1 = [_checkout(c) for c in h.l1s]
    st.l2 = [_checkout(c) for c in h.l2s]
    st.sto = [[False] * len(state["dirty"]) for state in st.l2]
    st.chunks, st.events, st.weights, st.gens = [], 0, [], None
    return st


def _walk(h, st, gens, refs_per_core: int, batch: int, trk: bool, coh: bool, interval: int,
          since: int):
    """The private levels' walk from ``st``'s states: yields the events
    the L2 lets through (module docstring), first stores other than a
    write miss's with the loop tracker (``trk``) or coherence (``coh``),
    sample points with the loop tracker. ``interval`` is the sampler's,
    0 without one. Once exhausted it leaves its counts on ``st``.

    The only code that looks up, fills or evicts L1/L2 lines: a consumer
    runs each event before the walk resumes, so coherence may invalidate
    and downgrade the peers' copies between events."""
    ncores = len(gens)
    l1, l2 = h.l1s[0], h.l2s[0]
    off = l1._offset_bits
    l1_mask, l2_mask = l1._index_mask, l2._index_mask
    l1_assoc, l2_assoc = l1.assoc, l2.assoc
    n2 = l2.num_sets * l2_assoc
    l1_st, l2_st, sto, weights = st.l1, st.l2, st.sto, st.weights
    l1_tick = [c._tick for c in h.l1s]
    l2_tick = [c._tick for c in h.l2s]
    l2_tick0 = list(l2_tick)
    # each L2 access ticks its L2 once, so a core's L2 hits since its
    # last miss or batch end are the ticks since then
    l2_mark = list(l2_tick)
    wh1, l1_dev, l1_inv, l1_nfree, l2_mis, l2_nfree = ([0] * ncores for _ in range(6))
    stores = 0
    occ_on = interval > 0
    first_stores = trk or coh

    per_core = (
        [s1["maps"] for s1 in l1_st], [s2["maps"] for s2 in l2_st],
        [s1["last"] for s1 in l1_st], [s1["dirty"] for s1 in l1_st],
        [(s2["last"], sto[c], s2["iseq"], s2["free"], s1["iseq"], s1["free"], c * n2)
         for c, (s1, s2) in enumerate(zip(l1_st, l2_st))],
    )
    remaining = refs_per_core
    while remaining > 0:
        take = min(batch, remaining)
        stream, n = _batch_refs(gens, take, off, l1_tick, per_core)
        nb = len(weights)
        weights.append(tuple(gen.instr_per_ref for gen in gens))
        stores += n
        left = take * ncores
        while left:
            part = left
            if occ_on:
                gap = interval - since
                if gap < part:
                    part = gap if gap > 0 else 1
            for core, w, blk, tk, m1, m2, last1, dir1, ctx in (
                stream if part == left else islice(stream, part)
            ):
                s1 = blk & l1_mask
                sm1 = m1[s1]
                slot = sm1.pop(blk, None)
                if slot is not None:
                    sm1[blk] = slot
                    last1[slot] = tk
                    if w:
                        wh1[core] += 1
                        dir1[slot] = True
                        # propagate_store: L2 copy exists (L1 ⊆ L2)
                        ls = m2[blk & l2_mask][blk]
                        st2 = sto[core]
                        if not st2[ls]:
                            st2[ls] = True
                            if first_stores:
                                yield 0, blk, core, core * n2 + ls, False, _FIRST_STORE, False
                    continue
                last2, st2, iseq2, fr2, iseq1, fr1, base = ctx
                s2 = blk & l2_mask
                sm2 = m2[s2]
                ls = sm2.pop(blk, None)
                t2k = l2_tick[core] + 1
                l2_tick[core] = t2k
                if ls is not None:
                    sm2[blk] = ls
                    last2[ls] = t2k
                else:
                    # ---- the L2 fill, an event for the LLC flows ------
                    l2_mis[core] += 1
                    f = fr2[s2]
                    if f:
                        # the set's lowest invalid way (LRUPolicy's first
                        # pick) leaves its bitmask
                        low = f & -f
                        fr2[s2] = f ^ low
                        ls = s2 * l2_assoc + low.bit_length() - 1
                        l2_nfree[core] += 1
                        ev_blk = -1
                        vst = False
                    else:
                        for ev_blk in sm2:
                            break
                        ls = sm2.pop(ev_blk)
                        vst = st2[ls]
                        # L1 ⊆ L2: kill the upper copy
                        e1 = ev_blk & l1_mask
                        eslot = m1[e1].pop(ev_blk, None)
                        if eslot is not None:
                            fr1[e1] |= 1 << (eslot % l1_assoc)
                            l1_inv[core] += 1
                    # a write miss's store is its line's first since the
                    # fill: it rides on the miss's event
                    st2[ls] = w
                    last2[ls] = t2k
                    iseq2[ls] = t2k
                    sm2[blk] = ls
                    yield t2k - l2_mark[core] - 1, blk, core, base + ls, vst, ev_blk, w
                    l2_mark[core] = t2k
                # ---- l1.fill(addr, is_write) ------------------------
                f = fr1[s1]
                if f:
                    low = f & -f
                    fr1[s1] = f ^ low
                    vs = s1 * l1_assoc + low.bit_length() - 1
                    l1_nfree[core] += 1
                else:
                    for eb in sm1:
                        break
                    vs = sm1.pop(eb)
                    if dir1[vs]:
                        l1_dev[core] += 1
                dir1[vs] = w
                last1[vs] = tk
                iseq1[vs] = tk
                sm1[blk] = vs
                if w and not st2[ls]:
                    st2[ls] = True
                    if first_stores:
                        yield 0, blk, core, base + ls, False, _FIRST_STORE, False
            left -= part
            if occ_on:
                since += part
                if since >= interval:
                    since = 0
                    if trk:
                        yield 0, 0, 0, 0, False, _SAMPLE, False
        del stream
        for core in range(ncores):
            yield l2_tick[core] - l2_mark[core], take, core, nb, False, _BATCH_END, False
            l2_mark[core] = l2_tick[core]
        remaining -= take

    st.since = since
    st.counts = (l1_tick, l2_tick, l2_tick0, wh1, l1_dev, l1_inv, l1_nfree, l2_mis,
                 l2_nfree, stores)


def _pass1(h, gens, refs_per_core: int, batch: int, trk: bool, interval: int,
           since: int) -> _Stream:
    """Record the walk's events for pass 2 to replay, in numpy columns."""
    st = _fresh_stream(h)
    walk = _walk(h, st, gens, refs_per_core, batch, trk, False, interval, since)
    ncols = len(_COLUMN_TYPES)
    while True:
        m = np.fromiter(chain.from_iterable(islice(walk, _DRAIN)), np.int64)
        if not len(m):
            return st
        m = m.reshape(-1, ncols)
        st.chunks.append(tuple(m[:, i].astype(t) for i, t in enumerate(_COLUMN_TYPES)))
        st.events += len(m)


def _private_stream(sim, refs_per_core: int, batch: int, trk: bool, interval: int,
                    since: int) -> _Stream:
    """Pass 1 for ``sim``, or the stream an earlier job of the same
    ``execute_jobs`` call shared (module docstring)."""
    h = sim.hierarchy
    gens = sim.workload.generators
    key = held = None
    if sim.stream_share is not None and h.stats.accesses == 0:
        holder, source = sim.stream_share
        l1, l2 = h.l1s[0], h.l2s[0]
        key = (source, len(gens), l1._offset_bits, l1.num_sets, l1.assoc, l2.num_sets,
               l2.assoc, refs_per_core, batch, trk, interval)
        held = holder.get(key)
        if held is None:
            holder.clear()  # at most one stream is held
    span = start_span("kernel.pass1", shared="miss" if held is None else "hit")
    if held is not None:
        for gen, end in zip(gens, pickle.loads(held.gens)):
            gen.__dict__.update(vars(end))
        stream = held.fork()
    else:
        stream = _pass1(h, gens, refs_per_core, batch, trk, interval, since)
        if key is not None:
            kept = stream.fork()
            kept.gens = pickle.dumps(gens)
            holder[key] = kept
    span.set(events=stream.events)
    span.finish()
    return stream


def run_kernel(sim, refs_per_core: int, batch: int) -> List[float]:
    """Drive ``sim``'s hierarchy through the flattened loop.

    Mirrors :meth:`Simulator.run`'s batch structure (same generator
    calls in the same order) and returns the per-core instruction
    counts; the caller finishes and collects as usual.
    """
    h = sim.hierarchy
    policy = h.policy
    if not eligible(h):  # pragma: no cover - guarded by caller
        raise RuntimeError("batch kernel invoked on an ineligible hierarchy")

    timing = h.timing
    gens = sim.workload.generators
    ncores = len(gens)
    llc = h.llc

    # ---- address-slicing constants -----------------------------------
    off = llc._offset_bits
    llc_mask = llc._index_mask
    bank_mask = llc._bank_mask
    llc_assoc = llc.assoc

    # ---- timing constants (same expressions as TimingModel) ----------
    l2_lat = timing.l2_latency
    l2_lat_f = float(l2_lat)
    mem_stall = (timing.l2_latency + timing.llc_read_latency + timing.mem_latency) * (
        timing.mlp_exposure
    )
    cc = timing.core_cycles  # mutated in place
    busy = timing.banks.busy_until  # mutated in place
    read_stall = 0.0
    write_stall = 0.0

    # Per-LLC-slot service latencies / technology (hybrid-aware): slot
    # ``set * assoc + way`` has its way's technology.
    way_techs, nsets = llc.way_techs, llc.num_sets
    r_serv = [
        timing.sram_read_latency if t == "sram" else timing.llc_read_latency
        for t in way_techs
    ] * nsets
    w_serv = [
        timing.sram_write_latency if t == "sram" else timing.llc_write_latency
        for t in way_techs
    ] * nsets
    slot_sram = [t == "sram" for t in way_techs] * nsets
    # _finish_insert charges the write against the landed region for
    # hybrid LLCs and against llc.tech for homogeneous ones — same
    # value either way here, so slot tech serves both.

    # ---- checkout ----------------------------------------------------
    # Explicit-finish span handles (not ``with`` blocks): the kernel
    # phases are flat several-hundred-line regions and spans are
    # per-phase, never per-reference, so the hot loops stay untouched.
    checkout_span = start_span("kernel.checkout", ncores=ncores)
    ll_st = _checkout(llc)
    ll_dir = ll_st["dirty"]
    ll_loop = ll_st["loop"]
    ll_last = ll_st["last"]
    ll_iseq = ll_st["iseq"]
    ll_free = ll_st["free"]
    ll_lc = ll_st["loop_counts"]
    # Recency-ordered set maps keyed on block numbers (module docstring).
    ll_sets = ll_st["maps"]
    ll_valid0 = sum(map(len, ll_sets))
    ll_tick = llc._tick

    # Probe state: the loop continues the probes' own containers, keyed
    # by block address (``blk << off``). An absent probe leaves an empty
    # dict/set that nothing fills, and the sites test it for emptiness
    # before computing an address.
    probes = _kernel_probes(h.probe_bus.probes)
    loop_probe = probes.get(LoopProbe)
    rf_probe = probes.get(RedundantFillProbe)
    sampler = probes.get(OccupancySampler)
    trk = loop_probe is not None
    streak: dict = {}
    from_llc: dict = {}
    rec_ctc = None
    if trk:
        tracker = loop_probe.tracker
        streak = tracker._streak
        from_llc = tracker._from_llc
        rec_ctc = tracker.stats.record_ctc
    rf_on = rf_probe is not None
    fresh = rf_probe._fresh if rf_on else set()
    occ_on = sampler is not None
    interval = sampler.interval if occ_on else 0
    since = sampler._since if occ_on else 0
    loop_ev = loop_reins = redundant = samp_valid = samp_loops = 0

    checkout_span.finish()

    # ---- local stat accumulators (data-dependent only; the rest is
    # derived after the run) -------------------------------------------
    l2_dev = [0] * ncores
    ll_mis = ll_tp = 0
    ll_drs = ll_dws = 0  # SRAM-region reads/writes; STT is the rest
    ll_ins = ll_nfree = ll_dev = ll_inv = 0
    ll_fillw = ll_cleanw = ll_dirtyw = ll_updw = ll_hitinv = 0

    # ---- the policy's flow & inlined set-dueling ---------------------
    fill, inv_hit, clean_wb = flow_flags(policy)
    lap = type(policy) is LAPPolicy
    # Switchers re-read the flow locals per set from the mode table their
    # flow_for reads, at the demand set and at the victim's set, by duel role.
    sw = type(policy) in (FLEXclusionPolicy, DswitchPolicy)
    sw_flows = MODE_FLOWS
    repl = policy.replacement_mode if lap else "lru"
    loop_victims = repl == "loop"
    duel_victims = repl == "duel"
    dueling = policy.dueling
    duel_on = dueling is not None
    if duel_on:
        roles = [dueling.role(s) for s in range(llc.num_sets)]
        duel_degen = dueling.degenerate
        duel_interval = dueling.interval
        duel_acc = dueling._accesses
        duel_winner = dueling.winner
        winner_fn = dueling.winner_fn
        ds = dueling.stats
        # leader A, leader B, follower: misses and writes since the last
        # halving (the follower slot is never read); decisions A, B and
        # intervals
        dmiss = [ds.leader_a_misses, ds.leader_b_misses, 0]
        dwrite = [dueling._write_a, dueling._write_b, 0]
        dec = [ds.decisions_a, ds.decisions_b, ds.intervals]
    else:
        roles = []
        duel_degen = True
        duel_interval = duel_acc = duel_winner = 0
        winner_fn = None
        dmiss, dwrite, dec = [0] * 3, [0] * 3, [0] * 3
    rix = [2 if r is None else r for r in roles]  # a set's slot in dmiss/dwrite
    duel_ticks = duel_on and not duel_degen

    # The LLC insert and update flows are inlined at their call sites
    # below (no closures: keeping every hot variable a plain local is
    # measurably faster than closure-cell access, and the insert runs
    # up to once per reference on miss-heavy workloads). A touch moves
    # the line's key to the end of its set map, so a full set's victim
    # is its first key (module docstring), which ``for eb in sm: break``
    # reads without a scan.

    # ---- the events: pass 1's recorded walk, or the walk live ---------
    coh = h.coherence is not None
    if coh:
        stream = _fresh_stream(h)
    else:
        stream = _private_stream(sim, refs_per_core, batch, trk, interval, since)
    l1_st, l2_st, sto, weights = stream.l1, stream.l2, stream.sto, stream.weights
    # The policy-dependent bits of each L2 slot as set at its fill,
    # numbered across cores: the dirty hand-off and LAP's loop bit.
    hand = list(chain.from_iterable(state["dirty"] for state in l2_st))
    lfill = list(chain.from_iterable(state["loop"] for state in l2_st))
    n2 = len(hand) // ncores
    # peer supplies, [invalidation messages, L2 lines dropped, loop
    # evictions] and per core [discard calls, L1 and L2 invalidations]:
    # the peer invalidations' counts (coherent runs only)
    c2c = 0
    tally = [0, 0, 0]
    cnt = [[0, 0, 0] for _ in range(ncores)]
    if coh:
        # ---- the controller's state (module docstring) ---------------
        l1, l2 = h.l1s[0], h.l2s[0]
        l2_mask = l2._index_mask
        geo = (l1._index_mask, l1.assoc, l2_mask, l2.assoc)
        coherence = h.coherence
        sharers = coherence._sharers  # keyed by block address
        m2_sets = [s2["maps"] for s2 in l2_st]
        # the L2 slots' MOESI states, numbered across cores like hand
        l2_state = list(chain.from_iterable(s2["state"] for s2 in l2_st))
        snoops = upgrades = 0
        # What a peer invalidation touches, per core (see _invalidate_peers).
        pctx = [(l1_st[c]["maps"], l1_st[c]["free"], m2_sets[c], l2_st[c]["free"], sto[c],
                 c * n2, cnt[c]) for c in range(ncores)]
        pass2_span = start_span("kernel.batch_loop", refs_per_core=refs_per_core, batch=batch)
        events = _walk(h, stream, gens, refs_per_core, batch, trk, True, interval, since)
    else:
        pass2_span = start_span("kernel.pass2", events=stream.events)
        events = stream.replay()

    # ---- pass 2: the LLC flows, one event at a time ------------------
    core_instr = [0.0] * ncores
    peers = 0  # the cores that hold a missed line (coherent runs only)
    for nh, blk, core, g, vst, ev_blk, w in events:
        if ev_blk >= -1:
            # an L2 miss (the other kinds follow below); first the core's
            # L2 hits since its last miss, one at a time
            ck = cc[core]
            while nh:
                ck += l2_lat_f
                nh -= 1
            if coh:
                # the cores that hold the line: the sharers map is exact,
                # so not this one
                a = blk << off
                peers = sharers.get(a, 0)
            # ---- L2 miss: inlined policy.llc_access ---------------------
            si = blk & llc_mask
            bk = blk & bank_mask
            if duel_ticks:  # dueling.tick()
                duel_acc += 1
                if duel_acc >= duel_interval:
                    duel_acc = 0
                    duel_winner = _duel_decide(winner_fn, dmiss, dwrite, dec)
            if sw:
                r = roles[si]
                fill, inv_hit, clean_wb = sw_flows[duel_winner if r is None else r]
            sm = ll_sets[si]
            s = sm.pop(blk, None)
            out_dirty = False
            if s is None:
                ll_mis += 1
                hit = False
                if duel_on:  # dueling.record_miss(si)
                    dmiss[rix[si]] += 1
                if fill:
                    # Fig. 1b: a straight insert (plain-LRU victim)
                    ll_tick += 1
                    f = ll_free[si]
                    if f:
                        low = f & -f
                        ll_free[si] = f ^ low
                        s = si * llc_assoc + low.bit_length() - 1
                        ll_nfree += 1
                    else:
                        for eb in sm:
                            break
                        s = sm.pop(eb)
                        if ll_dir[s]:
                            ll_dev += 1
                        if fresh:  # on_llc_evict
                            fresh.discard(eb << off)
                        if ll_loop[s]:
                            ll_lc[si] -= 1
                    ll_dir[s] = False
                    ll_loop[s] = False
                    ll_last[s] = ll_tick
                    ll_iseq[s] = ll_tick
                    sm[blk] = s
                    ll_ins += 1
                    ll_tp += 1
                    if slot_sram[s]:
                        ll_dws += 1
                    ll_fillw += 1
                    if rf_on:  # on_llc_fill
                        fresh.add(blk << off)
                    if sw:  # _record_duel_write
                        dwrite[rix[si]] += 1
                    st = busy[bk] - ck
                    if st < 0.0:
                        st = 0.0
                    busy[bk] = ck + st + w_serv[s]
                    write_stall += st
                if not peers:  # else a peer supplies the line
                    ck += mem_stall
            else:
                hit = True
                if fresh:  # on_demand_hit
                    fresh.discard(blk << off)
                if slot_sram[s]:
                    ll_drs += 1
                ll_tick += 1
                ll_last[s] = ll_tick
                # timing.llc_read
                rnow = ck + l2_lat
                serv = r_serv[s]
                st = busy[bk] - rnow
                if st < 0.0:
                    st = 0.0
                busy[bk] = rnow + st + serv
                read_stall += st
                ck += l2_lat + st + serv
                if inv_hit and not peers:
                    # invalidate-on-hit, unless a peer holds the line
                    # (shared_by_peers); dirtiness moves up
                    out_dirty = ll_dir[s]
                    ll_tp += 1
                    if ll_loop[s]:
                        ll_lc[si] -= 1
                    ll_free[si] |= 1 << (s % llc_assoc)
                    ll_inv += 1
                    ll_hitinv += 1
                else:
                    sm[blk] = s
            if coh:
                # ---- coherence.on_l2_miss: a write snoops and invalidates
                # every peer; a read snoops on an LLC miss, where a peer
                # supplies the line, and downgrades E→S (and M→O on an LLC
                # miss). Then _fill_l2's fill_state + on_l2_insert (a dirty
                # hand-off fills M) and the victim's on_l2_drop. The sharers
                # map is exact: this core's bit is clear in peers and set for
                # its victim, so adding and subtracting it set and clear it.
                bit = 1 << core
                if w:
                    snoops += 1
                    if peers:
                        if not hit:
                            c2c += 1
                        _invalidate_peers(peers, blk, a, pctx, geo, hand, sharers, streak, from_llc,
                                          rec_ctc, tally)
                    l2_state[g] = STATE_MODIFIED
                    sharers[a] = bit
                else:
                    if hit:
                        if peers:
                            _downgrade_peers(peers, blk, blk & l2_mask, m2_sets, l2_state, n2,
                                             False)
                    else:
                        snoops += 1
                        if peers:
                            c2c += 1
                            _downgrade_peers(peers, blk, blk & l2_mask, m2_sets, l2_state, n2,
                                             True)
                    if out_dirty:
                        l2_state[g] = STATE_MODIFIED
                    elif peers:
                        l2_state[g] = STATE_SHARED
                    else:
                        l2_state[g] = STATE_EXCLUSIVE
                    sharers[a] = peers + bit
                if ev_blk != -1:
                    ea = ev_blk << off
                    pm = sharers[ea] - bit
                    if pm:
                        sharers[ea] = pm
                    else:
                        del sharers[ea]
            # ---- _fill_l2 (vst: the victim was stored to since its fill)
            if vst:
                ev_dirty = True
                ev_loop = False
            else:
                ev_dirty = hand[g]
                ev_loop = lfill[g]
            hand[g] = out_dirty
            lfill[g] = lap and hit  # l2_fill_loop_bit
            if ev_blk != -1:
                # ---- _handle_l2_victim ----------------------------------
                if ev_dirty:
                    l2_dev[core] += 1
                    # on_l2_victim -> tracker.on_l2_evict
                    if streak and (ev_blk << off) in streak:
                        rec_ctc(streak.pop(ev_blk << off))
                elif trk:
                    ea = ev_blk << off
                    if from_llc.get(ea, False):
                        streak[ea] = streak.get(ea, 0) + 1
                        loop_ev += 1
                # ---- policy.l2_victim -----------------------------------
                # One unified flow for every policy. Without clean
                # writeback (noni) clean victims are dropped; every
                # other (flow, dirty, present) combination updates
                # the LLC copy or inserts:
                #   present+dirty        -> update(d=True) + updw,
                #     loop bit: ex keeps ev_loop, noni/LAP clear
                #   present+clean (ex)   -> update(d=False)+cleanw,
                #     loop bit := ev_loop
                #   present+clean (LAP)  -> Fig. 10b loop-bit
                #     refresh only, no write
                #   absent               -> insert(d=ev_dirty),
                #     loop bit: ex keeps, LAP clean keeps,
                #     dirty-merge clears; dirtyw/cleanw by d
                if sw:  # mode_for(line.addr)
                    r = roles[ev_blk & llc_mask]
                    fill, inv_hit, clean_wb = sw_flows[duel_winner if r is None else r]
                if ev_dirty or clean_wb:
                    esi = ev_blk & llc_mask
                    ebk = ev_blk & bank_mask
                    if lap:
                        ll_tp += 1  # llc.probe
                    sm = ll_sets[esi]
                    es = sm.get(ev_blk)
                    if es is not None:
                        if ev_dirty or not lap:
                            # inline Cache.update + posted write
                            if ev_dirty:
                                ll_dir[es] = True
                            ll_tick += 1
                            ll_last[es] = ll_tick
                            del sm[ev_blk]
                            sm[ev_blk] = es
                            ll_tp += 1
                            if slot_sram[es]:
                                ll_dws += 1
                            st = busy[ebk] - ck
                            if st < 0.0:
                                st = 0.0
                            busy[ebk] = ck + st + w_serv[es]
                            write_stall += st
                            if ev_dirty:
                                ll_updw += 1
                                if fresh and (ev_blk << off) in fresh:  # on_dirty_victim
                                    redundant += 1
                                    fresh.remove(ev_blk << off)
                            else:
                                ll_cleanw += 1
                                if streak and (ev_blk << off) in streak:  # on_clean_insert
                                    loop_reins += 1
                            if sw:  # _record_duel_write
                                dwrite[rix[esi]] += 1
                        # loop-bit reconciliation on the copy
                        nl = ev_loop if (not ev_dirty or clean_wb and not lap) else False
                        if nl != ll_loop[es]:
                            ll_lc[esi] += 1 if nl else -1
                            ll_loop[es] = nl
                    else:
                        # inline _place_and_insert + _finish_insert
                        lb = ev_loop if (not ev_dirty or clean_wb and not lap) else False
                        ll_tick += 1
                        f = ll_free[esi]
                        if f:
                            low = f & -f
                            ll_free[esi] = f ^ low
                            s = esi * llc_assoc + low.bit_length() - 1
                            ll_nfree += 1
                        else:
                            if loop_victims:
                                loop_scan = True
                            elif duel_victims:
                                r = roles[esi]
                                loop_scan = (duel_winner if r is None else r) == 0
                            else:
                                loop_scan = False
                            # LoopAwarePolicy: the oldest unmarked
                            # line, else (all marked) the oldest.
                            for eb in sm:
                                break
                            if loop_scan:
                                for cand, s in sm.items():
                                    if not ll_loop[s]:
                                        eb = cand
                                        break
                            s = sm.pop(eb)
                            if ll_dir[s]:
                                ll_dev += 1
                            if fresh:  # on_llc_evict
                                fresh.discard(eb << off)
                            if ll_loop[s]:
                                ll_lc[esi] -= 1
                        ll_dir[s] = ev_dirty
                        ll_loop[s] = lb
                        ll_last[s] = ll_tick
                        ll_iseq[s] = ll_tick
                        if lb:
                            ll_lc[esi] += 1
                        sm[ev_blk] = s
                        ll_ins += 1
                        ll_tp += 1
                        if slot_sram[s]:
                            ll_dws += 1
                        if ev_dirty:
                            ll_dirtyw += 1
                            if fresh and (ev_blk << off) in fresh:  # on_dirty_victim
                                redundant += 1
                                fresh.remove(ev_blk << off)
                        else:
                            ll_cleanw += 1
                            if streak and (ev_blk << off) in streak:  # on_clean_insert
                                loop_reins += 1
                        if sw:  # _record_duel_write
                            dwrite[rix[esi]] += 1
                        st = busy[ebk] - ck
                        if st < 0.0:
                            st = 0.0
                        busy[ebk] = ck + st + w_serv[s]
                        write_stall += st
            if trk:  # on_l2_fill
                from_llc[blk << off] = hit
            cc[core] = ck
            if not w:
                continue
            # a write miss: its store, the line's first since the fill,
            # follows at the store site
        elif ev_blk != _FIRST_STORE:
            if ev_blk == _SAMPLE:
                # OccupancySampler.on_access -> LoopProbe sample: valid
                # LLC lines (free-way fills add one, invalidations drop
                # one) and loop lines
                samp_valid += ll_valid0 + ll_nfree - ll_inv
                samp_loops += sum(ll_lc)
            else:
                # a batch end: the core's trailing L2 hits, then its
                # instructions at the batch's weight
                ck = cc[core]
                while nh:
                    ck += l2_lat_f
                    nh -= 1
                instrs = blk * weights[g][core]
                core_instr[core] += instrs
                cc[core] = ck + instrs
            continue
        # ---- the store site: the first store to L2 slot g since its fill
        # (a write miss's or a later one's). on_dirtied -> tracker._finalize
        # and, on coherent runs, on_store, unless the fill handed the line
        # over dirty
        if hand[g]:
            continue
        if streak and (blk << off) in streak:
            rec_ctc(streak.pop(blk << off))
        if coh:
            # coherence.on_store: an S/O upgrade invalidates the peers'
            # copies (a write miss's line is M already); then llc.discard
            # + note_llc_evict of an LLC copy
            if l2_state[g] == STATE_SHARED or l2_state[g] == STATE_OWNED:
                upgrades += 1
                snoops += 1
                a = blk << off
                others = sharers.get(a, 0) & ~(1 << core)
                if others:
                    _invalidate_peers(others, blk, a, pctx, geo, hand, sharers, streak,
                                      from_llc, rec_ctc, tally)
            l2_state[g] = STATE_MODIFIED
            si = blk & llc_mask
            s = ll_sets[si].pop(blk, None)
            if s is not None:
                ll_tp += 1
                if ll_loop[s]:
                    ll_lc[si] -= 1
                ll_free[si] |= 1 << (s % llc_assoc)
                ll_inv += 1
                if fresh:
                    fresh.discard(blk << off)
    pass2_span.finish()
    if coh:
        cs = coherence.stats
        cs.snoop_broadcasts += snoops
        cs.cache_to_cache += c2c
        cs.invalidation_messages += tally[0]
        cs.upgrades += upgrades
    (l1_tick, l2_tick, l2_tick0, wh1, l1_dev, l1_inv, l1_nfree, l2_mis, l2_nfree,
     stores) = stream.counts
    since = stream.since
    # The L2 dirty and loop columns: each fill's bits, unless the
    # line was stored to since (bools: ``d | s`` and ``b > s``); and on
    # coherent runs the MOESI states.
    for core, (state, stored) in enumerate(zip(l2_st, sto)):
        lo = core * n2
        if coh:
            state["state"] = l2_state[lo:lo + n2]
        state["dirty"] = list(map(or_, hand[lo:lo + n2], stored))
        state["loop"] = lp = list(map(gt, lfill[lo:lo + n2], stored))
        state["loop_counts"] = [sum(map(lp.__getitem__, m.values())) for m in state["maps"]]

    # ---- checkin: maps, state, ticks, stats --------------------------
    checkin_span = start_span("kernel.checkin", ncores=ncores)
    for core in range(ncores):
        _put_back(h.l1s[core], l1_st[core])
        _put_back(h.l2s[core], l2_st[core])
        h.l1s[core]._tick = l1_tick[core]
        h.l2s[core]._tick = l2_tick[core]
    _put_back(llc, ll_st)
    llc._tick = ll_tick

    # ---- derived + accumulated stat flush ----------------------------
    # Lockstep identities: every reference does one L1 lookup and, on a
    # miss, exactly one L1 fill-insert, then one L2 lookup that ticks the
    # L2 once (hit or fill), so L1 misses are the L2 tick delta; every
    # L2 miss does one fill-insert; a fill that takes no free way
    # evicts; every L2 eviction and every peer invalidation runs one
    # upper-level probe, and a peer invalidation one L2 probe; every L2
    # miss does one LLC lookup, and reads memory unless the LLC or a
    # peer supplies the line; every dirty LLC eviction writes memory.
    refs = refs_per_core
    l2_ev = [l2_mis[c] - l2_nfree[c] for c in range(ncores)]
    if trk:
        lstats = tracker.stats
        lstats.l2_evictions += sum(l2_ev) + tally[1]
        lstats.loop_evictions += loop_ev + tally[2]
        lstats.loop_reinsertions += loop_reins
        lstats.llc_loop_samples += samp_valid
        lstats.llc_loop_blocks += samp_loops
    if rf_on:
        rf_probe._llc_stats.redundant_fills += redundant
    if occ_on:
        sampler._since = since

    if duel_on:
        dueling._accesses = duel_acc
        dueling.winner = duel_winner
        dueling._write_a, dueling._write_b = dwrite[:2]
        ds.leader_a_misses, ds.leader_b_misses = dmiss[:2]
        ds.decisions_a, ds.decisions_b, ds.intervals = dec

    l1_hits_h = l2_hits_h = 0
    for core in range(ncores):
        mis1 = l2_tick[core] - l2_tick0[core]
        hit1 = refs - mis1
        wh = wh1[core]
        l1_hits_h += hit1
        s = h.l1s[core].stats
        s.lookups += refs
        s.hits += hit1
        s.misses += mis1
        pk_calls, pk_l1_inv, pk_l2_inv = cnt[core]
        s.tag_probes += refs + mis1 + l2_ev[core] + pk_calls
        s.data_reads_sram += hit1 - wh
        s.data_writes_sram += wh + mis1
        s.insertions += mis1
        s.evictions += mis1 - l1_nfree[core]
        s.dirty_evictions += l1_dev[core]
        s.invalidations += l1_inv[core] + pk_l1_inv
        mis2 = l2_mis[core]
        hit2 = mis1 - mis2
        l2_hits_h += hit2
        s = h.l2s[core].stats
        s.lookups += mis1
        s.hits += hit2
        s.misses += mis2
        s.tag_probes += mis1 + mis2 + pk_calls
        s.data_reads_sram += hit2
        s.data_writes_sram += mis2
        s.insertions += mis2
        s.evictions += l2_ev[core]
        s.dirty_evictions += l2_dev[core]
        s.invalidations += pk_l2_inv
    ll_lkp = sum(l2_mis)
    s = llc.stats
    s.lookups += ll_lkp
    s.hits += ll_lkp - ll_mis
    s.misses += ll_mis
    s.tag_probes += ll_lkp + ll_tp
    # every LLC data write is a fill, a dirty update, a dirty insert or a
    # clean victim write; every read is a demand hit
    s.data_reads_sram += ll_drs
    s.data_reads_stt += ll_lkp - ll_mis - ll_drs
    s.data_writes_sram += ll_dws
    s.data_writes_stt += ll_fillw + ll_updw + ll_dirtyw + ll_cleanw - ll_dws
    s.insertions += ll_ins
    s.evictions += ll_ins - ll_nfree
    s.dirty_evictions += ll_dev
    s.invalidations += ll_inv
    s.fill_writes += ll_fillw
    s.clean_victim_writes += ll_cleanw
    s.dirty_victim_writes += ll_dirtyw
    s.update_writes += ll_updw
    s.hit_invalidations += ll_hitinv

    l2_dv = sum(l2_dev)
    hs = h.stats
    accesses = refs_per_core * ncores
    hs.accesses += accesses
    hs.stores += stores
    hs.l1_hits += l1_hits_h
    hs.l2_hits += l2_hits_h
    hs.llc_demand_accesses += ll_lkp
    hs.llc_demand_hits += ll_lkp - ll_mis
    hs.l2_clean_victims += sum(l2_ev) - l2_dv
    hs.l2_dirty_victims += l2_dv
    hs.mem_reads += ll_mis - c2c
    hs.mem_writes += ll_dev

    timing.banks.read_stall_cycles += read_stall
    timing.banks.write_stall_cycles += write_stall
    checkin_span.set(accesses=accesses)
    checkin_span.finish()
    return core_instr
