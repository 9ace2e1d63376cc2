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
  sample points, so the ``(valid, loop)`` sample lands after exactly the
  same reference as on the generic path and the per-reference loop
  carries no counter.

With a probe absent its state is an empty dict/set that nothing fills,
so the probe-free run pays only membership tests on rare paths.

MOESI coherence (Fig. 20's multithreaded runs) runs in the same loop
behind one local ``coh`` flag, tested only on the L2-miss, L2-fill and
first-dirtying paths. Each controller hook is transcribed at the site
where the generic path calls it, in the same order:

- ``on_l2_miss`` after the LLC access — snoop broadcasts, write
  invalidations, E→S and M→O downgrades, and peer supply, which skips
  the memory read and its stall;
- ``fill_state`` + ``on_l2_insert`` at the L2 fill and ``on_l2_drop``
  at the L2 victim, on the controller's own sharers map (keyed by block
  address) and the L2 ``state`` column of the checked-out blocks;
- ``on_store`` on the first dirtying store only — S/O upgrade, and the
  LLC copy discarded with ``note_llc_evict``;
- ``_invalidate_peer`` (:func:`_invalidate_peers`) — peer L1 discard,
  L2 invalidate, sharers drop, and ``note_l2_drop``, which the loop
  tracker counts as an L2 eviction;
- exclusive's ``shared_by_peers`` exception to invalidate-on-hit.

The speed comes from four reductions of per-reference Python work:

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
  unmarked key, all without a scan. Checkout orders each set by
  ``last_access`` (ties to the lowest way, as ``LRUPolicy`` breaks
  them) and builds the masks from ``valid``; checkin derives ``tag``
  and ``valid`` from the maps, resets the ways in no map (so the loop
  never clears an invalidated way) and rebuilds each tag map in
  ``insert_seq`` order, which is the generic path's install order.
- **one interleaved stream** — per batch, addresses are sliced with a
  handful of whole-matrix numpy ops, transposed into reference order
  (core-minor, matching the generic round-robin), and iterated with a
  single ``zip`` (materialised as Python values a chunk at a time);
  the scalar loop never double-indexes ``[core][i]``.
- **derived stats** — counters that move in lockstep with a path
  (lookups, hit/read splits, fill writes at L1/L2, demand counts) are
  reconstructed after the run from the few data-dependent ones, so the
  hot loop only counts what it must: L1 misses are the L2 tick delta
  (each one ticks the L2 once, on its hit or its fill), and evictions
  are fills minus the rare free-way fills.
- **precomputed L1 stamps** — the L1 tick advances exactly once per
  reference (hit or fill), so its stamps are a numpy arange per batch.

The loop's flow locals ``fill``/``inv_hit``/``clean_wb`` are the policy
class's own Fig. 8 attributes (``fill_on_miss``, ``invalidate_on_hit``,
``clean_writeback``). Only LAP's loop-bit L2 fills, victim tag probe and
selective clean writeback are keyed on its class.

Set-dueling is inlined the same way, for LAP and the switchers alike:
static leader roles are precomputed per set, and the tick/record/decide
state machine runs on local ints that are written back to the controller
at the end. A switcher runs each set's duel-role flow (leaders their
own, followers the winner's): after the tick the flow locals are re-read
from the :class:`NonInclusivePolicy` or :class:`ExclusivePolicy`
attributes by the demand set's role, and again by the victim's set at
the L2-victim site, so one unified victim flow covers every merge
across mode flips. Their three LLC-write sites (the non-inclusive fill,
the victim update and the victim insert) count leader writes for
Dswitch's decision; LAP counts none.
"""

from __future__ import annotations

from itertools import chain, cycle, islice
from operator import attrgetter
from typing import List, Optional

import numpy as np

from ..cache.block import (
    STATE_EXCLUSIVE,
    STATE_MODIFIED,
    STATE_OWNED,
    STATE_SHARED,
)
from ..core.lap import LAPPolicy
from ..core.loop_bits import LoopBlockTracker
from ..hierarchy.coherence import CoherenceController
from ..inclusion.switching import MODE_EX, MODE_NONI, DswitchPolicy, FLEXclusionPolicy
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


#: a policy's Fig. 8 flow as the loop's ``(fill, inv_hit, clean_wb)``
_flow = attrgetter("fill_on_miss", "invalidate_on_hit", "clean_writeback")


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
    """Copy ``cache``'s blocks into the kernel's working state.

    Flat lists in slot order (slot = set * assoc + way; MOESI ``state``
    strings included, for coherent runs), and per set: a ``{block
    number: slot}`` map of its valid lines in recency order (oldest
    first: by stamp, ties to the lowest way, as ``LRUPolicy`` breaks
    them), a bitmask of its invalid ways and its loop counter. The maps
    and masks stand for the ``tag`` and ``valid`` columns. The blocks
    are stale until :func:`_checkin`.
    """
    blocks = [b for s in cache.sets for b in s.blocks]
    assoc = cache.assoc
    idx_bits = cache._index_bits
    return {
        "dirty": [b.dirty for b in blocks],
        "loop": [b.loop_bit for b in blocks],
        "last": [b.last_access for b in blocks],
        "iseq": [b.insert_seq for b in blocks],
        "rrpv": [b.rrpv for b in blocks],
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
    reset here, as ``CacheSet.drop`` leaves it.
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
    for b, tag, dirty, loop, last, iseq, rrpv, moesi in zip(
        blocks,
        tags,
        state["dirty"],
        state["loop"],
        state["last"],
        iseqs,
        state["rrpv"],
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
        b.rrpv = rrpv
        b.state = moesi
    for s, m, loops in zip(cache.sets, state["maps"], state["loop_counts"]):
        order = sorted(m.values(), key=iseqs.__getitem__)
        s.tag_map = {blocks[slot].tag: blocks[slot] for slot in order}
        s.loop_count = loops


def _take_free(free, si, base) -> int:
    """Claim set ``si``'s lowest invalid way (what ``LRUPolicy`` picks
    first) from the bitmask list ``free``; returns its slot."""
    f = free[si]
    low = f & -f
    free[si] = f ^ low
    return base + low.bit_length() - 1


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


def _invalidate_peers(
    peers, blk, addr, pctx, geo, sharers, streak, from_llc, rec_ctc, tally
) -> None:
    """``CoherenceController._invalidate_peer`` for every core set in the
    bitmask ``peers``, in core order, over the checked-out state.

    ``pctx[c]`` is core ``c``'s L1/L2 working state, ending with its
    ``[discard calls, L1 invalidations, L2 invalidations]`` counters;
    ``geo`` is ``(l1 index mask, l1 assoc, l2 index mask, l2 assoc)``;
    ``tally`` accumulates ``[invalidation messages, L2 lines dropped,
    loop evictions]`` (a dropped line is an L2 eviction to the loop
    tracker, as ``note_l2_drop`` makes it on the generic path).
    """
    l1_mask, l1_assoc, l2_mask, l2_assoc = geo
    s1 = blk & l1_mask
    s2 = blk & l2_mask
    peer = 0
    while peers:
        if peers & 1:
            m1, fr1, m2, fr2, dir2, loop2, lc2, cnt = pctx[peer]
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
                if loop2[s]:
                    lc2[s2] -= 1
                cnt[2] += 1
                # on_l2_drop
                mask = sharers.get(addr, 0) & ~(1 << peer)
                if mask:
                    sharers[addr] = mask
                else:
                    sharers.pop(addr, None)
                # note_l2_drop -> tracker.on_l2_evict
                tally[1] += 1
                if dir2[s]:
                    if streak and addr in streak:
                        rec_ctc(streak.pop(addr))
                elif from_llc.get(addr, False):
                    streak[addr] = streak.get(addr, 0) + 1
                    tally[2] += 1
        peers >>= 1
        peer += 1


def _downgrade_peers(peers, blk, s2, m2_sets, l2_state, owned) -> None:
    """The read-snoop downgrades of ``CoherenceController.on_l2_miss``:
    E→S in every peer, and M→O too when ``owned`` (an LLC miss);
    ``s2`` is ``blk``'s L2 set."""
    peer = 0
    while peers:
        if peers & 1:
            s = m2_sets[peer][s2].get(blk)
            if s is not None:
                st2 = l2_state[peer]
                if st2[s] == STATE_EXCLUSIVE:
                    st2[s] = STATE_SHARED
                elif owned and st2[s] == STATE_MODIFIED:
                    st2[s] = STATE_OWNED
        peers >>= 1
        peer += 1


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
    l1_mask = h.l1s[0]._index_mask
    l2_mask = h.l2s[0]._index_mask
    llc_mask = llc._index_mask
    bank_mask = llc._bank_mask
    l1_assoc = h.l1s[0].assoc
    l2_assoc = h.l2s[0].assoc
    llc_assoc = llc.assoc
    geo = (l1_mask, l1_assoc, l2_mask, l2_assoc)

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

    # Per-LLC-slot service latencies / technology (hybrid-aware).
    slot_techs = [b.tech for s in llc.sets for b in s.blocks]
    r_serv = [
        timing.sram_read_latency if t == "sram" else timing.llc_read_latency
        for t in slot_techs
    ]
    w_serv = [
        timing.sram_write_latency if t == "sram" else timing.llc_write_latency
        for t in slot_techs
    ]
    slot_sram = [t == "sram" for t in slot_techs]
    # _finish_insert charges the write against the landed region for
    # hybrid LLCs and against llc.tech for homogeneous ones — same
    # value either way here, so slot tech serves both.

    # ---- checkout ----------------------------------------------------
    # Explicit-finish span handles (not ``with`` blocks): the three
    # kernel phases are flat several-hundred-line regions and spans are
    # per-phase, never per-reference, so the hot loop stays untouched.
    checkout_span = start_span("kernel.checkout", ncores=ncores)
    l1_st = [_checkout(c) for c in h.l1s]
    l2_st = [_checkout(c) for c in h.l2s]
    ll_st = _checkout(llc)

    l1_dir = [s["dirty"] for s in l1_st]
    l1_last = [s["last"] for s in l1_st]
    l1_iseq = [s["iseq"] for s in l1_st]
    l1_free = [s["free"] for s in l1_st]
    l2_dir = [s["dirty"] for s in l2_st]
    l2_loop = [s["loop"] for s in l2_st]
    l2_last = [s["last"] for s in l2_st]
    l2_iseq = [s["iseq"] for s in l2_st]
    l2_free = [s["free"] for s in l2_st]
    l2_lc = [s["loop_counts"] for s in l2_st]
    l2_state = [s["state"] for s in l2_st]
    ll_dir = ll_st["dirty"]
    ll_loop = ll_st["loop"]
    ll_last = ll_st["last"]
    ll_iseq = ll_st["iseq"]
    ll_free = ll_st["free"]
    ll_lc = ll_st["loop_counts"]

    # Recency-ordered set maps keyed on block numbers (module docstring).
    m1_sets = [s["maps"] for s in l1_st]
    m2_sets = [s["maps"] for s in l2_st]
    ll_sets = ll_st["maps"]
    ll_valid0 = sum(map(len, ll_sets))

    l1_tick = [c._tick for c in h.l1s]
    l2_tick = [c._tick for c in h.l2s]
    l2_tick0 = list(l2_tick)
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

    # Coherence: the loop runs CoherenceController's hooks against its
    # own sharers map (keyed by block address, as the controller keys
    # it) and the L2 ``state`` columns. Non-coherent runs only pay the
    # ``coh`` tests on the L2-miss, L2-fill and first-dirtying paths.
    coherence = h.coherence
    coh = coherence is not None
    sharers: dict = coherence._sharers if coh else {}
    snoops = upgrades = c2c = 0
    peer_tally = [0, 0, 0]
    peer_cnt = [[0, 0, 0] for _ in range(ncores)]
    checkout_span.finish()

    # ---- local stat accumulators (data-dependent only; the rest is
    # derived after the run) -------------------------------------------
    z = [0] * ncores
    wh1, l1_dev, l1_inv, l1_nfree = list(z), list(z), list(z), list(z)
    l2_mis, l2_dev, l2_nfree = list(z), list(z), list(z)
    ll_mis = ll_tp = 0
    ll_drs = ll_drt = ll_dws = ll_dwt = 0
    ll_ins = ll_nfree = ll_dev = ll_inv = 0
    ll_fillw = ll_cleanw = ll_dirtyw = ll_updw = ll_hitinv = 0
    accesses = stores = 0

    # ---- the policy's flow & inlined set-dueling ---------------------
    fill, inv_hit, clean_wb = _flow(policy)
    lap = type(policy) is LAPPolicy
    # Switchers re-read the flow locals per set (SwitchingPolicy.mode_for)
    # at the demand set and at the victim's set, by duel role.
    sw = type(policy) in (FLEXclusionPolicy, DswitchPolicy)
    sw_flows = {MODE_NONI: _flow(NonInclusivePolicy), MODE_EX: _flow(ExclusivePolicy)}
    repl = policy.replacement_mode if lap else "lru"
    loop_victims = repl == "loop"
    duel_victims = repl == "duel"
    dueling = getattr(policy, "dueling", None)
    duel_on = dueling is not None
    if duel_on:
        roles = [dueling.role(s) for s in range(llc.num_sets)]
        duel_degen = dueling.degenerate
        duel_interval = dueling.interval
        duel_acc = dueling._accesses
        duel_winner = dueling.winner
        winner_fn = dueling.winner_fn
        la_miss = dueling.stats.leader_a_misses
        lb_miss = dueling.stats.leader_b_misses
        duel_wa = dueling._write_a
        duel_wb = dueling._write_b
        dec_a = dueling.stats.decisions_a
        dec_b = dueling.stats.decisions_b
        duel_ivals = dueling.stats.intervals
    else:
        roles = []
        duel_degen = True
        duel_interval = duel_acc = duel_winner = 0
        winner_fn = None
        la_miss = lb_miss = duel_wa = duel_wb = 0
        dec_a = dec_b = duel_ivals = 0

    # The LLC insert and update flows are inlined at their call sites
    # below (no closures: keeping every hot variable a plain local is
    # measurably faster than closure-cell access, and the insert runs
    # up to once per reference on miss-heavy workloads). A touch moves
    # the line's key to the end of its set map, so a full set's victim
    # is its first key (module docstring), which ``for eb in sm: break``
    # reads without a scan.

    # Per-core objects in core order; each batch's stream cycles through
    # them, so the scalar loop unpacks them from one zip instead of
    # double-indexing.
    core_pat = list(range(ncores))
    m1_pat = [m1_sets[c] for c in core_pat]
    m2_pat = [m2_sets[c] for c in core_pat]
    last1_pat = [l1_last[c] for c in core_pat]
    dir1_pat = [l1_dir[c] for c in core_pat]
    # Everything else the (less frequent) L1-miss path touches, bundled
    # per core so one tuple unpack replaces ~10 ``[core]`` indexings.
    ctx_pat = [
        (
            l2_last[c],
            l2_dir[c],
            l2_loop[c],
            l2_iseq[c],
            l2_lc[c],
            l2_free[c],
            l1_iseq[c],
            l1_free[c],
        )
        for c in core_pat
    ]
    # What a peer invalidation touches, per core (see _invalidate_peers).
    pctx = [
        (m1_sets[c], l1_free[c], m2_sets[c], l2_free[c], l2_dir[c], l2_loop[c],
         l2_lc[c], peer_cnt[c])
        for c in core_pat
    ]

    core_instr = [0.0] * ncores
    loop_span = start_span(
        "kernel.batch_loop", refs_per_core=refs_per_core, batch=batch
    )
    remaining = refs_per_core
    while remaining > 0:
        take = min(batch, remaining)
        batches = [gen.batch(take) for gen in gens]
        # Vectorized per-batch slicing: stack to (ncores, take), one
        # vector op per field; _in_ref_order turns each into plain values
        # in reference order (i-major, core-minor — the generic
        # round-robin).
        blk2 = np.stack([b[0] for b in batches]).astype(np.int64) >> off
        writes = np.stack([b[1] for b in batches])
        accesses += take * ncores
        stores += int(writes.sum())
        # L1 tick stamps: exactly one advance per reference.
        tk2 = (
            np.asarray(l1_tick, dtype=np.int64)[:, None]
            + np.arange(1, take + 1, dtype=np.int64)[None, :]
        )
        for c in core_pat:
            l1_tick[c] += take

        # The zip ends with the batch's per-reference values.
        stream = zip(
            cycle(core_pat), _in_ref_order(writes), _in_ref_order(blk2),
            _in_ref_order(tk2), cycle(m1_pat), cycle(m2_pat), cycle(last1_pat),
            cycle(dir1_pat), cycle(ctx_pat),
        )
        left = take * ncores
        while left:
            # Split the stream at occupancy-sample points (module
            # docstring); without a sampler the batch is one segment.
            part = left
            if occ_on:
                gap = interval - since
                if gap < part:
                    part = gap if gap > 0 else 1
            for core, w, blk, tk, m1, m2, last1, dir1, ctx in (
                stream if part == left else islice(stream, part)
            ):
                # ---- L1 lookup --------------------------------------
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
                        d2 = l2_dir[core]
                        if not d2[ls]:
                            d2[ls] = True
                            # on_dirtied -> tracker._finalize
                            if streak and (blk << off) in streak:
                                rec_ctc(streak.pop(blk << off))
                            if coh:
                                # coherence.on_store
                                st2 = l2_state[core]
                                if st2[ls] == STATE_SHARED or st2[ls] == STATE_OWNED:
                                    upgrades += 1
                                    snoops += 1
                                    a = blk << off
                                    peers = sharers.get(a, 0) & ~(1 << core)
                                    if peers:
                                        _invalidate_peers(
                                            peers, blk, a, pctx, geo, sharers,
                                            streak, from_llc, rec_ctc, peer_tally,
                                        )
                                st2[ls] = STATE_MODIFIED
                                si = blk & llc_mask
                                s = ll_sets[si].pop(blk, None)
                                if s is not None:
                                    # llc.discard + note_llc_evict
                                    ll_tp += 1
                                    if ll_loop[s]:
                                        ll_lc[si] -= 1
                                    ll_free[si] |= 1 << (s % llc_assoc)
                                    ll_inv += 1
                                    if fresh:
                                        fresh.discard(blk << off)
                        if l2_loop[core][ls]:
                            l2_lc[core][blk & l2_mask] -= 1
                            l2_loop[core][ls] = False
                    continue
                last2, dir2, loop2, iseq2, lc2, fr2, iseq1, fr1 = ctx
                # ---- L2 lookup (reads only; stores dirty via
                # propagation) -----------------------------------------
                s2 = blk & l2_mask
                sm2 = m2[s2]
                ls = sm2.pop(blk, None)
                if ls is not None:
                    sm2[blk] = ls
                    t2k = l2_tick[core] + 1
                    l2_tick[core] = t2k
                    last2[ls] = t2k
                    cc[core] += l2_lat_f
                else:
                    l2_mis[core] += 1
                    # ---- L2 miss: inlined policy.llc_access ---------
                    # ``ck`` shadows cc[core] for this whole demand block
                    # (same float ops in the same order, one store at the
                    # end); posted-write charges read it at the same points
                    # the generic path reads cc[core].
                    ck = cc[core]
                    si = blk & llc_mask
                    bk = blk & bank_mask
                    if duel_on and not duel_degen:
                        # dueling.tick()
                        duel_acc += 1
                        if duel_acc >= duel_interval:
                            duel_acc = 0
                            duel_winner = winner_fn(la_miss, duel_wa, lb_miss, duel_wb)
                            if duel_winner == 0:
                                dec_a += 1
                            else:
                                dec_b += 1
                            duel_ivals += 1
                            la_miss //= 2
                            lb_miss //= 2
                            duel_wa //= 2
                            duel_wb //= 2
                    if sw:
                        # mode_for: leaders keep their flow, followers
                        # take the winner's
                        r = roles[si]
                        fill, inv_hit, clean_wb = sw_flows[duel_winner if r is None else r]
                    sm = ll_sets[si]
                    s = sm.pop(blk, None)
                    out_dirty = False
                    if s is None:
                        ll_mis += 1
                        hit = False
                        if duel_on:
                            # dueling.record_miss(si)
                            r = roles[si]
                            if r == 0:
                                la_miss += 1
                            elif r == 1:
                                lb_miss += 1
                        if fill:
                            # Fig. 1b: the miss fills the LLC too. The
                            # just-missed line cannot be present, so
                            # insert_or_update is a straight insert
                            # (plain-LRU victim, clean, loop bit off).
                            ll_tick += 1
                            if ll_free[si]:
                                s = _take_free(ll_free, si, si * llc_assoc)
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
                            else:
                                ll_dwt += 1
                            ll_fillw += 1
                            if rf_on:  # on_llc_fill
                                fresh.add(blk << off)
                            if sw:  # _record_duel_write
                                r = roles[si]
                                if r == 0:
                                    duel_wa += 1
                                elif r == 1:
                                    duel_wb += 1
                            wnow = ck
                            free = busy[bk]
                            st = free - wnow
                            if st < 0.0:
                                st = 0.0
                            busy[bk] = wnow + st + w_serv[s]
                            write_stall += st
                    else:
                        hit = True
                        if fresh:  # on_demand_hit
                            fresh.discard(blk << off)
                        if slot_sram[s]:
                            ll_drs += 1
                        else:
                            ll_drt += 1
                        ll_tick += 1
                        ll_last[s] = ll_tick
                        # timing.llc_read
                        rnow = ck + l2_lat
                        serv = r_serv[s]
                        free = busy[bk]
                        st = free - rnow
                        if st < 0.0:
                            st = 0.0
                        busy[bk] = rnow + st + serv
                        read_stall += st
                        ck += l2_lat + st + serv
                        if inv_hit and not (
                            coh and sharers.get(blk << off, 0) & ~(1 << core)
                        ):
                            # invalidate-on-hit (kept while peers share
                            # the line); dirtiness moves up
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
                        # ---- coherence.on_l2_miss -------------------
                        a = blk << off
                        peers = sharers.get(a, 0) & ~(1 << core)
                        if hit:
                            if w:
                                snoops += 1
                                if peers:
                                    _invalidate_peers(
                                        peers, blk, a, pctx, geo, sharers,
                                        streak, from_llc, rec_ctc, peer_tally,
                                    )
                            elif peers:
                                _downgrade_peers(peers, blk, s2, m2_sets, l2_state, False)
                        else:
                            snoops += 1
                            if peers:
                                # a peer supplies the line: no memory read
                                c2c += 1
                                if w:
                                    _invalidate_peers(
                                        peers, blk, a, pctx, geo, sharers,
                                        streak, from_llc, rec_ctc, peer_tally,
                                    )
                                else:
                                    _downgrade_peers(peers, blk, s2, m2_sets, l2_state, True)
                            else:
                                ck += mem_stall
                    elif not hit:
                        ck += mem_stall
                    # ---- _fill_l2 -----------------------------------
                    fl_loop = lap and hit  # l2_fill_loop_bit
                    t2k = l2_tick[core] + 1
                    l2_tick[core] = t2k
                    if fr2[s2]:
                        vs = _take_free(fr2, s2, s2 * l2_assoc)
                        l2_nfree[core] += 1
                        ev_blk = -1
                    else:
                        for ev_blk in sm2:
                            break
                        vs = sm2.pop(ev_blk)
                        ev_dirty = dir2[vs]
                        ev_loop = loop2[vs]
                        if ev_dirty:
                            l2_dev[core] += 1
                        if ev_loop:
                            lc2[s2] -= 1
                    dir2[vs] = out_dirty
                    loop2[vs] = fl_loop
                    last2[vs] = t2k
                    iseq2[vs] = t2k
                    if fl_loop:
                        lc2[s2] += 1
                    sm2[blk] = vs
                    ls = vs
                    if coh:
                        # fill_state + on_l2_insert
                        pm = sharers.get(a, 0)
                        if out_dirty or w:
                            l2_state[core][vs] = STATE_MODIFIED
                        elif pm & ~(1 << core):
                            l2_state[core][vs] = STATE_SHARED
                        else:
                            l2_state[core][vs] = STATE_EXCLUSIVE
                        sharers[a] = pm | (1 << core)
                    if ev_blk != -1:
                        # ---- _handle_l2_victim ----------------------
                        # L1 ⊆ L2: kill the upper copy
                        e1 = ev_blk & l1_mask
                        eslot = m1[e1].pop(ev_blk, None)
                        if eslot is not None:
                            fr1[e1] |= 1 << (eslot % l1_assoc)
                            l1_inv[core] += 1
                        if coh:
                            # on_l2_drop
                            ea = ev_blk << off
                            pm = sharers.get(ea, 0) & ~(1 << core)
                            if pm:
                                sharers[ea] = pm
                            else:
                                sharers.pop(ea, None)
                        # on_l2_victim -> tracker.on_l2_evict
                        if ev_dirty:
                            if streak and (ev_blk << off) in streak:
                                rec_ctc(streak.pop(ev_blk << off))
                        elif trk:
                            ea = ev_blk << off
                            if from_llc.get(ea, False):
                                streak[ea] = streak.get(ea, 0) + 1
                                loop_ev += 1
                        # ---- policy.l2_victim -----------------------
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
                                    else:
                                        ll_dwt += 1
                                    wnow = ck
                                    free = busy[ebk]
                                    st = free - wnow
                                    if st < 0.0:
                                        st = 0.0
                                    busy[ebk] = wnow + st + w_serv[es]
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
                                        r = roles[esi]
                                        if r == 0:
                                            duel_wa += 1
                                        elif r == 1:
                                            duel_wb += 1
                                # loop-bit reconciliation on the copy
                                nl = ev_loop if (not ev_dirty or clean_wb and not lap) else False
                                if nl != ll_loop[es]:
                                    ll_lc[esi] += 1 if nl else -1
                                    ll_loop[es] = nl
                            else:
                                # inline _place_and_insert + _finish_insert
                                lb = ev_loop if (not ev_dirty or clean_wb and not lap) else False
                                ll_tick += 1
                                if ll_free[esi]:
                                    s = _take_free(ll_free, esi, esi * llc_assoc)
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
                                else:
                                    ll_dwt += 1
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
                                    r = roles[esi]
                                    if r == 0:
                                        duel_wa += 1
                                    elif r == 1:
                                        duel_wb += 1
                                wnow = ck
                                free = busy[ebk]
                                st = free - wnow
                                if st < 0.0:
                                    st = 0.0
                                busy[ebk] = wnow + st + w_serv[s]
                                write_stall += st
                    if trk:  # on_l2_fill
                        from_llc[blk << off] = hit
                    cc[core] = ck
                # ---- l1.fill(addr, is_write) ------------------------
                if fr1[s1]:
                    vs = _take_free(fr1, s1, s1 * l1_assoc)
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
                if w:
                    # propagate_store into the (just ensured) L2 copy:
                    # ``ls`` carries the slot from the hit/fill above.
                    if not dir2[ls]:
                        dir2[ls] = True
                        # on_dirtied -> tracker._finalize
                        if streak and (blk << off) in streak:
                            rec_ctc(streak.pop(blk << off))
                        if coh:
                            # coherence.on_store (as on the L1-hit path)
                            st2 = l2_state[core]
                            if st2[ls] == STATE_SHARED or st2[ls] == STATE_OWNED:
                                upgrades += 1
                                snoops += 1
                                a = blk << off
                                peers = sharers.get(a, 0) & ~(1 << core)
                                if peers:
                                    _invalidate_peers(
                                        peers, blk, a, pctx, geo, sharers,
                                        streak, from_llc, rec_ctc, peer_tally,
                                    )
                            st2[ls] = STATE_MODIFIED
                            si = blk & llc_mask
                            s = ll_sets[si].pop(blk, None)
                            if s is not None:
                                # llc.discard + note_llc_evict
                                ll_tp += 1
                                if ll_loop[s]:
                                    ll_lc[si] -= 1
                                ll_free[si] |= 1 << (s % llc_assoc)
                                ll_inv += 1
                                if fresh:
                                    fresh.discard(blk << off)
                    if loop2[ls]:
                        lc2[s2] -= 1
                        loop2[ls] = False
            left -= part
            if occ_on:
                # OccupancySampler.on_access -> LoopProbe sample
                since += part
                if since >= interval:
                    since = 0
                    if trk:
                        # valid LLC lines: free-way fills add one,
                        # invalidations drop one
                        samp_valid += ll_valid0 + ll_nfree - ll_inv
                        samp_loops += sum(ll_lc)
        del stream  # frees this batch's last chunk before the next batch

        for core, gen in enumerate(gens):
            instrs = take * gen.instr_per_ref
            core_instr[core] += instrs
            cc[core] += instrs
        remaining -= take
    loop_span.finish()

    # ---- checkin: maps, state, ticks, stats --------------------------
    checkin_span = start_span("kernel.checkin", ncores=ncores)
    for core in range(ncores):
        _checkin(h.l1s[core], l1_st[core])
        _checkin(h.l2s[core], l2_st[core])
        h.l1s[core]._tick = l1_tick[core]
        h.l2s[core]._tick = l2_tick[core]
    _checkin(llc, ll_st)
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
        lstats.l2_evictions += sum(l2_ev) + peer_tally[1]
        lstats.loop_evictions += loop_ev + peer_tally[2]
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
        dueling._write_a = duel_wa
        dueling._write_b = duel_wb
        dueling.stats.leader_a_misses = la_miss
        dueling.stats.leader_b_misses = lb_miss
        dueling.stats.decisions_a = dec_a
        dueling.stats.decisions_b = dec_b
        dueling.stats.intervals = duel_ivals

    if coh:
        cs = coherence.stats
        cs.snoop_broadcasts += snoops
        cs.cache_to_cache += c2c
        cs.invalidation_messages += peer_tally[0]
        cs.upgrades += upgrades

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
        pk_calls, pk_l1_inv, pk_l2_inv = peer_cnt[core]
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
    s.data_reads_sram += ll_drs
    s.data_reads_stt += ll_drt
    s.data_writes_sram += ll_dws
    s.data_writes_stt += ll_dwt
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
