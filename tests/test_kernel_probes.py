"""Instrumented batched-kernel parity: the standard probes as kernel counters.

The batched kernel (:mod:`repro.kernel.batch`) carries the loop tracker,
the redundant-fill detector and the occupancy sampler as derived
counters. Every instrumented kernel run must be indistinguishable from
the generic loop over the same store (``enable_batch_kernel = False``):
:func:`repro.validate.parity.assert_identical` compares the whole
``RunResult`` (and its JSON byte for byte), every cache's tag-array
state and stats, and the probes' internal state.

The matrix covers every batched policy, every instrumentation spec the
kernel accepts, WL and WH mixes, and fuzzer traces on a micro hierarchy
(other associativities, addresses shared between cores, sample
points at every offset of the batch stream). A run continued on the
other loop, kernel then generic or generic then kernel, must match two
generic runs. Coherent (MOESI) runs add
the L2 ``state`` column and the sharers map, which must equal both the
controller's snapshot and the map rebuilt from the L2 tag arrays. The
switchers (FLEXclusion, Dswitch) also run at short duel intervals, so
their follower sets flip between the non-inclusive and exclusive flows.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.arena import registry
from repro.cache import Cache
from repro.core.lap import LAPPolicy
from repro.core.loop_bits import LoopBlockTracker
from repro.hierarchy.coherence import CoherenceController
from repro.hierarchy.hierarchy import CacheHierarchy
from repro.inclusion import switching
from repro.inclusion.base import flow_flags
from repro.inclusion.switching import MODE_EX, MODE_NONI, DswitchPolicy, FLEXclusionPolicy
from repro.inclusion.traditional import ExclusivePolicy, NonInclusivePolicy
from repro.instr import LoopProbe, OccupancySampler, RedundantFillProbe
from repro.kernel import batch as kernel_batch
from repro.sim.simulator import Simulator
from repro.sim.system import SystemConfig
from repro.testing import micro_hierarchy_config
from repro.validate import generate_trace
from repro.validate.invariants import InvariantProbe
from repro.validate.parity import (
    assert_identical,
    check_kernel_parity,
    replay_workload,
    run_pair,
)
from repro.workloads import ConcatTrace, LoopRegion, StreamRegion, SyntheticTrace
from repro.workloads.mixes import Workload, make_multithreaded, make_table3_mix

#: every registered policy the kernel inlines (non-inclusive, exclusive,
#: flexclusion, dswitch, lap, lap-lru, lap-loop) — derived, so a new
#: batched policy joins automatically.
POLICIES = tuple(n for n in registry.names() if kernel_batch.supports_policy(registry.make(n)))

#: instrumentation specs the kernel carries (both probe orders included:
#: the sampler re-emits through the bus, so order is part of the contract).
SPECS = ("default", "loop", "redundant-fill", "occupancy,loop", "loop,occupancy", "none")


def _mix_system(spec: str) -> SystemConfig:
    # A sampling interval prime to the batch stream length puts sample
    # points at shifting offsets inside each batch.
    return replace(SystemConfig.scaled(), instrumentation=spec, occupancy_sample_interval=1777)


# ----------------------------------------------------------------------
# Table III mixes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("policy", POLICIES)
def test_wh_mix_parity(policy, spec):
    system = _mix_system(spec)
    pair = run_pair(
        system, policy,
        lambda: make_table3_mix("WH2", system.scale_context(), seed=5),
        refs=700, runs=2, batch=500,
    )
    assert_identical(pair)


@pytest.mark.parametrize("policy", POLICIES)
def test_wl_mix_parity(policy):
    """Instrumented and probe-free (the ``kernel-grid`` configuration)."""
    for spec in ("default", "none"):
        system = replace(SystemConfig.scaled(), instrumentation=spec)
        pair = run_pair(
            system, policy,
            lambda: make_table3_mix("WL3", system.scale_context(), seed=2),
            refs=1500,
        )
        assert_identical(pair)
        loop = pair[0][1][0].loop
        if spec == "default":
            # the run is instrumented for real, not vacuously equal
            assert loop.l2_evictions > 0 and loop.llc_loop_samples > 0
        else:
            assert loop.l2_evictions == 0 and loop.llc_loop_samples == 0


def test_default_mix_counters_are_live():
    """Fig. 4/6/16 counters move under the kernel (non-inclusive WH run)."""
    system = SystemConfig.scaled()
    sim = Simulator(system, "non-inclusive", make_table3_mix("WH1", system.scale_context(), seed=11))
    assert kernel_batch.eligible(sim.hierarchy)
    r = sim.run(3000)
    assert r.llc.redundant_fills > 0
    assert r.loop.loop_evictions > 0 and r.loop.ctc_histogram
    assert r.loop.llc_loop_samples > 0


def run_continued(
    system, policy, make_workload, refs, *, kernel_leg=0, between=None, batch=4096,
    **sim_kwargs,
):
    """Two consecutive runs, leg ``kernel_leg`` (0 or 1) on the kernel
    and the other on the generic loop, against two generic runs;
    ``between`` gets each hierarchy after the first leg."""
    sims = []
    for kernel in (True, False):
        sim = Simulator(system, policy, make_workload(), **sim_kwargs)
        results = []
        for leg in (0, 1):
            sim.enable_batch_kernel = kernel and leg == kernel_leg
            results.append(sim.run(refs, batch))
            if leg == 0 and between is not None:
                between(sim.hierarchy)
        sims.append((sim, results))
    return sims


def _punch_holes(h) -> None:
    """Discard the even ways but the last of every full L1 and LLC set,
    so the next checkout sees invalid ways below valid ones. Dropping
    these lines breaks no inclusion (L1 ⊆ L2 binds only the L2, and no
    batched policy keeps the LLC inclusive). Invalidations leave such
    holes in a run, but the set's next fill takes the lowest, so few
    outlast one."""
    caches = (*h.l1s, h.llc)
    for cache in caches:
        for s in cache.sets:
            if all(b.valid for b in s.blocks):
                for b in s.blocks[0 : cache.assoc - 1 : 2]:
                    cache.discard(cache.addr_of(s.index, b.tag))
    assert any(
        not lo.valid and hi.valid
        for c in caches
        for s in c.sets
        for lo, hi in zip(s.blocks, s.blocks[1:])
    )


@pytest.mark.parametrize("policy", POLICIES)
def test_kernel_then_generic_continues_exactly(policy):
    """Probe state checked in by the kernel is what the generic loop
    continues from: kernel-then-generic == generic-then-generic."""
    system = _mix_system("default")
    sims = run_continued(
        system, policy, lambda: make_table3_mix("WH4", system.scale_context(), seed=9), 600
    )
    assert_identical(sims)


@pytest.mark.parametrize("policy", POLICIES)
def test_generic_then_kernel_continues_exactly(policy):
    """The kernel continues a generic run: its checkout rebuilds each
    set's recency order from the stamps and its free-way masks from
    ``valid`` (with holes mid-set), and the checkin's tag maps come out
    in the generic insertion order."""
    system = _mix_system("default")
    sims = run_continued(
        system, policy, lambda: make_table3_mix("WH4", system.scale_context(), seed=9),
        600, kernel_leg=1, between=_punch_holes,
    )
    assert_identical(sims)


# ----------------------------------------------------------------------
# fuzzer traces on the micro hierarchy
# ----------------------------------------------------------------------
def _fuzz_workload(seed: int, ncores: int):
    trace = generate_trace(seed, refs=1200, ncores=ncores)
    return lambda: replay_workload(trace, ncores, f"fuzz{seed}")


@pytest.mark.parametrize("interval", (1, 7, 64))
@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("policy", POLICIES)
def test_fuzz_trace_parity(policy, seed, interval):
    system = SystemConfig(
        hierarchy=micro_hierarchy_config(ncores=2),
        label="micro",
        duel_interval=64,
        occupancy_sample_interval=interval,
    )
    pair = run_pair(system, policy, _fuzz_workload(seed, 2), refs=450, runs=2, batch=97)
    assert_identical(pair)


# ----------------------------------------------------------------------
# per-batch instruction weights
# ----------------------------------------------------------------------
def _two_weight_workload(system: SystemConfig) -> Workload:
    """Per core a loop region at 2 instructions per reference, then a
    stream region at 8, 1,500 references each: a ``ConcatTrace`` whose
    ``instr_per_ref`` changes from batch to batch."""
    ctx = system.scale_context()
    gens = []
    for c in range(system.hierarchy.ncores):
        base = c * ctx.core_span
        loop = SyntheticTrace([(LoopRegion(base, ctx.region_size(3.0), ctx.block_size), 1.0)],
                              seed=10 + c, name="loop", instr_per_ref=2.0)
        stream = SyntheticTrace(
            [(StreamRegion(base + (1 << 36), ctx.llc_bytes * 4, ctx.block_size), 1.0)],
            seed=20 + c, name="stream", instr_per_ref=8.0)
        gens.append(ConcatTrace([(loop, 1500), (stream, 1500)]))
    return Workload(name="two-weight", kind="multiprogrammed", generators=gens,
                    benchmarks=("two-weight",) * len(gens))


@pytest.mark.parametrize("coherence", (False, True))
def test_batch_weights_follow_concat_parts(coherence):
    """Each batch's instructions use the weight its generator reports
    after that batch, as ``Simulator.run`` reads it, on the recorded
    path and on the coherent one alike; a ``ConcatTrace`` batch that
    straddles two parts charges each reference at its own part's."""
    system = SystemConfig.scaled()
    pair = run_pair(system, "lap", lambda: _two_weight_workload(system), 3000, runs=2,
                    batch=1000, enable_coherence=coherence)
    assert_identical(pair)
    # per core and run: 1,000 refs at 2, then 500 at 2 + 500 at 8 in
    # the straddling batch, then 1,000 at 8
    for _, results in pair:
        for result in results:
            assert result.instructions == 4 * (1000 * 2 + 500 * 2 + 500 * 8 + 1000 * 8)


# ----------------------------------------------------------------------
# coherent (MOESI) runs
# ----------------------------------------------------------------------
def _assert_coherence_exercised(pair) -> None:
    """Snoops, peer supplies, invalidations and upgrades all happened,
    so the parity is not vacuous."""
    coh = pair[0][1][-1].coherence
    assert coh.snoop_broadcasts and coh.cache_to_cache
    assert coh.invalidation_messages and coh.upgrades


@pytest.mark.parametrize("interval", (1, 7, 64))
@pytest.mark.parametrize("ncores", (2, 4))
@pytest.mark.parametrize("policy", POLICIES)
def test_coherent_fuzz_trace_parity(policy, ncores, interval):
    system = SystemConfig(
        hierarchy=micro_hierarchy_config(ncores=ncores),
        label="micro",
        duel_interval=64,
        occupancy_sample_interval=interval,
    )
    seed = 10 * ncores + interval
    pair = run_pair(
        system, policy, _fuzz_workload(seed, ncores), refs=450, runs=2, batch=97,
        enable_coherence=True,
    )
    assert_identical(pair)
    _assert_coherence_exercised(pair)


@pytest.mark.parametrize("policy", POLICIES)
def test_coherent_parsec_parity(policy):
    system = _mix_system("default")
    pair = run_pair(
        system, policy,
        lambda: make_multithreaded("canneal", system.scale_context(), nthreads=4, seed=3),
        refs=1200, runs=2, batch=500,
    )
    assert pair[0][0].hierarchy.coherence is not None
    assert_identical(pair)
    coh = pair[0][1][-1].coherence
    assert coh.snoop_broadcasts and coh.cache_to_cache and coh.invalidation_messages


A, C, D, E, F, P0, P1 = (64 * b for b in (1, 2, 3, 4, 5, 6, 7))

#: Two cores in lockstep (step i is core 0's i-th reference, then core
#: 1's) over the micro hierarchy's one-block L1s and one-set L2s:
#: core 1 reads A after core 0 (a non-inclusive LLC hit on a shared
#: line, else a peer supply), evicts it (exclusive and LAP insert the
#: clean victim) and reads it again from the LLC while core 0 still
#: shares it, then stores to it (an S upgrade whose first store discards
#: the LLC copy), and core 0 reads A back from core 1 (a peer supply).
#: Then core 1 evicts A again (a dirty victim insert) and writes it while
#: core 0 still shares it: a write miss that hits the LLC, keeps the
#: copy for the peer's sake, and whose first store discards it.
SHARED_LINE_STEPS = (
    ((A, False), (P1, False)),
    ((P0, False), (A, False)),
    ((P0, False), (C, False)),
    ((P0, False), (D, False)),
    ((P0, False), (E, False)),
    ((P0, False), (F, False)),
    ((P0, False), (A, False)),
    ((P0, False), (A, True)),
    ((A, False), (P1, False)),
    ((P0, False), (C, False)),
    ((P0, False), (D, False)),
    ((P0, False), (E, False)),
    ((P0, False), (F, False)),
    ((P0, False), (A, True)),
)


@pytest.mark.parametrize("policy", ("exclusive", "non-inclusive", "lap", "dswitch"))
def test_coherent_shared_line_paths_parity(policy, monkeypatch):
    """The coherent events the fuzzer reaches only by chance, each at
    least once, on both loops alike: an LLC hit on a line a peer shares,
    which keeps the LLC copy (exclusive included); an LLC miss a peer
    supplies; and a first store that discards the LLC copy, on an L1 hit
    and on a write miss. The generic loop's hooks count them, and parity
    holds the kernel to that run."""
    seen = {"shared hit": 0, "copy kept": 0, "peer supply": 0, "store discard": 0,
            "write-miss discard": 0}
    access = CacheHierarchy.access
    on_l2_miss, on_store = CoherenceController.on_l2_miss, CoherenceController.on_store
    write_miss = [None]  # the current reference's (core, addr) if a write L2 miss

    def spy_access(self, core, addr, is_write):
        write_miss[0] = None
        return access(self, core, addr, is_write)

    def spy_l2_miss(self, h, core, addr, is_write, llc_hit):
        if is_write:
            write_miss[0] = (core, addr)
        if self.peers_of(core, addr):
            if llc_hit:
                seen["shared hit"] += 1
                seen["copy kept"] += h.llc.peek(addr) is not None
            else:
                seen["peer supply"] += 1
        return on_l2_miss(self, h, core, addr, is_write, llc_hit)

    def spy_store(self, h, core, addr):
        kind = "write-miss discard" if write_miss[0] == (core, addr) else "store discard"
        seen[kind] += h.llc.peek(addr) is not None
        return on_store(self, h, core, addr)

    monkeypatch.setattr(CacheHierarchy, "access", spy_access)
    monkeypatch.setattr(CoherenceController, "on_l2_miss", spy_l2_miss)
    monkeypatch.setattr(CoherenceController, "on_store", spy_store)
    trace = [(core, addr, w) for step in SHARED_LINE_STEPS
             for core, (addr, w) in enumerate(step)]
    check_kernel_parity(policy, trace, ncores=2, enable_coherence=True)
    assert all(seen.values()), seen


def _assert_dueling_exercised(pair) -> None:
    """Both leaders won intervals, so follower sets changed flow and the
    parity covers the mode flips, not one fixed flow."""
    stats = pair[0][0].policy.dueling.stats
    assert stats.decisions_a > 0 and stats.decisions_b > 0


@pytest.mark.parametrize("interval", (16, 64))
@pytest.mark.parametrize("workload", ("WH2", "streamcluster"))
@pytest.mark.parametrize("policy", ("flexclusion", "dswitch"))
def test_switching_flip_parity(policy, workload, interval):
    """Short duel intervals flip the switchers' followers between the
    non-inclusive and exclusive flows many times per run, on a
    multiprogrammed mix and on a coherent PARSEC workload."""
    system = replace(_mix_system("default"), duel_interval=interval)
    ctx = system.scale_context()

    def make():
        if workload == "WH2":
            return make_table3_mix("WH2", ctx, seed=5)
        return make_multithreaded(workload, ctx, nthreads=4, seed=3)

    pair = run_pair(system, policy, make, refs=1500, runs=2, batch=500)
    assert (pair[0][0].hierarchy.coherence is None) == (workload == "WH2")
    assert_identical(pair)
    _assert_dueling_exercised(pair)


def test_switchers_read_one_mode_table(monkeypatch):
    """The kernel and ``SwitchingPolicy.flow_for`` read the same mode
    table: with its two rows swapped both loops still agree, and the
    run differs from the unswapped one."""
    system = replace(_mix_system("default"), duel_interval=16)

    def make():
        return make_table3_mix("WH2", system.scale_context(), seed=5)

    def llc_stats():
        pair = run_pair(system, "dswitch", make, refs=1500, runs=1, batch=500)
        assert_identical(pair)
        _assert_dueling_exercised(pair)
        return pair[0][1][-1].llc

    before = llc_stats()
    monkeypatch.setitem(switching.MODE_FLOWS, MODE_NONI, switching.MODE_FLOWS[MODE_EX])
    monkeypatch.setitem(switching.MODE_FLOWS, MODE_EX, flow_flags(NonInclusivePolicy))
    assert llc_stats() != before


@pytest.mark.parametrize("policy", POLICIES)
def test_coherent_kernel_then_generic_continues_exactly(policy):
    """The sharers map, the L2 states and the probes checked in by the
    kernel are what the generic loop continues from."""
    system = SystemConfig(
        hierarchy=micro_hierarchy_config(ncores=4),
        label="micro",
        duel_interval=64,
        occupancy_sample_interval=7,
    )
    sims = run_continued(
        system, policy, _fuzz_workload(5, 4), 300, batch=97, enable_coherence=True
    )
    assert_identical(sims)
    _assert_coherence_exercised(sims)


@pytest.mark.parametrize("policy", POLICIES)
def test_coherent_generic_then_kernel_continues_exactly(policy):
    """The kernel continues a coherent generic run: L2 states, sharers,
    recency order and free ways left by peer invalidations."""
    system = SystemConfig(
        hierarchy=micro_hierarchy_config(ncores=4),
        label="micro",
        duel_interval=64,
        occupancy_sample_interval=7,
    )
    sims = run_continued(
        system, policy, _fuzz_workload(5, 4), 300, kernel_leg=1, between=_punch_holes,
        batch=97, enable_coherence=True,
    )
    assert_identical(sims)
    _assert_coherence_exercised(sims)


# ----------------------------------------------------------------------
# checkout / checkin and the kernel's recency-ordered set maps
# ----------------------------------------------------------------------
def test_checkout_checkin_round_trip():
    cache = Cache("t", 4 * 64, 2, 64, sram_ways=1)  # 2 sets: ways sram, stt
    addr = cache.addr_of(1, 3)
    cache.insert(addr, dirty=True, loop_bit=True)
    cset = cache.sets[1]
    blk = cache.peek(addr)
    slot = 1 * cache.assoc + blk.way

    state = kernel_batch._checkout(cache)
    # keyed by block number (tag 3 in set 1, 1 index bit); no tag/valid
    # columns: the map entry is the valid tag-3 line
    assert "tag" not in state and "valid" not in state
    assert state["maps"] == [{}, {(3 << 1) | 1: slot}]
    assert state["loop_counts"] == [0, 1]

    # mutate through the flat lists, as the batch kernel does
    state["dirty"][slot] = False
    state["last"][slot] = 9
    kernel_batch._checkin(cache, state)
    assert blk.dirty is False
    assert blk.last_access == 9
    assert cset.tag_map == {3: blk}
    assert cset.loop_count == 1
    assert cache.loop_block_occupancy() == (1, 1)


def test_recency_map_round_trip():
    cache = Cache("t", 8 * 64, 4, 64)  # 2 sets x 4 ways, 1 index bit
    for tag in (10, 11, 12, 13):
        cache.insert(cache.addr_of(0, tag))
    cache.lookup(cache.addr_of(0, 10))  # 10 becomes the newest
    cache.invalidate(cache.addr_of(0, 12))  # a hole at way 2
    state = kernel_batch._checkout(cache)

    # keyed by block number (tag << 1 | set); recency order follows the
    # stamps (oldest first), not the ways
    assert list(state["maps"][0].items()) == [
        ((11 << 1) | 0, 1), ((13 << 1) | 0, 3), ((10 << 1) | 0, 0)
    ]
    assert state["maps"][1] == {}
    assert [b >> 1 for b in state["maps"][0]] == [11, 13, 10]

    # a set's invalid ways as a bitmask; a fill claims its lowest set
    # bit (the lowest invalid way, reused first): here set 1's ways 0
    # and 1, then set 0's way 2
    assert state["free"] == [0b0100, 0b1111]
    state["free"] = [0, 0b1100]

    # as the loop leaves it: tag 11 dropped with its columns untouched,
    # tag 12 refilled into way 2, tag 7 filled into set 1's way 0
    maps = state["maps"]
    del maps[0][(11 << 1) | 0]
    maps[0][(12 << 1) | 0] = 2
    maps[1][(7 << 1) | 1] = 4
    for slot, iseq in ((2, 20), (4, 21)):
        state["dirty"][slot] = True
        state["last"][slot] = state["iseq"][slot] = iseq
    state["dirty"][1] = True
    state["state"][1] = "M"
    kernel_batch._checkin(cache, state)

    # tag maps come out in insert_seq order (the generic install order)
    assert [(t, b.way) for t, b in cache.sets[0].tag_map.items()] == [
        (10, 0), (13, 3), (12, 2)
    ]
    assert [(t, b.way) for t, b in cache.sets[1].tag_map.items()] == [(7, 0)]
    # tag/valid derived from the maps; invalid ways reset
    b = cache.sets[0].blocks
    assert (b[2].tag, b[2].valid, b[2].dirty, b[2].insert_seq) == (12, True, True, 20)
    assert (b[0].tag, b[0].valid) == (10, True)
    dropped = b[1]
    assert (dropped.tag, dropped.valid, dropped.dirty, dropped.loop_bit) == (
        -1, False, False, False
    )
    assert (dropped.last_access, dropped.insert_seq, dropped.rrpv, dropped.state) == (
        0, 0, 0, "-"
    )
    assert [blk.valid for blk in cache.sets[1].blocks] == [True, False, False, False]
    assert cache.peek(cache.addr_of(1, 7)) is cache.sets[1].blocks[0]


# ----------------------------------------------------------------------
# a kernel run keeps its state on the cache until something reads blocks
# ----------------------------------------------------------------------
def _count_blocks(monkeypatch) -> dict:
    """Count ``CacheBlock`` constructions from here on."""
    from repro.cache.block import CacheBlock

    built = {"n": 0}
    real_init = CacheBlock.__init__

    def counting_init(self, *args, **kwargs):
        built["n"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(CacheBlock, "__init__", counting_init)
    return built


@pytest.mark.parametrize(
    "policy, make_workload",
    [
        ("lap", lambda ctx: make_table3_mix("WL1", ctx, seed=0)),
        ("dswitch", lambda ctx: make_multithreaded("canneal", ctx, nthreads=4, seed=3)),
    ],
    ids=["WL1-lap", "canneal-dswitch"],
)
def test_kernel_run_builds_no_blocks(monkeypatch, policy, make_workload):
    built = _count_blocks(monkeypatch)
    system = SystemConfig.scaled()
    sim = Simulator(system, policy, make_workload(system.scale_context()))
    assert kernel_batch.eligible(sim.hierarchy)
    assert (sim.hierarchy.coherence is not None) == (policy == "dswitch")
    sim.run(1000, 300)
    sim.run(500)  # the second run starts from the stashed state
    assert built["n"] == 0


@pytest.mark.parametrize("hybrid", [False, True], ids=["homogeneous", "hybrid"])
def test_unbuilt_checkout_equals_built_checkout(hybrid):
    system = SystemConfig.scaled(hybrid=hybrid)

    def caches():
        w = make_table3_mix("WL1", system.scale_context(), seed=1)
        h = Simulator(system, "lap", w).hierarchy
        return (*h.l1s, *h.l2s, h.llc)

    unbuilt, built = caches(), caches()
    assert built[-1].hybrid == hybrid
    for cache in built:
        assert cache.sets  # builds the blocks
    for fresh, blocks in zip(unbuilt, built):
        assert "sets" not in vars(fresh)
        assert kernel_batch._checkout(fresh) == kernel_batch._checkout(blocks)
        assert "sets" not in vars(fresh)


def test_sets_are_built_once_after_a_kernel_run(monkeypatch):
    built = _count_blocks(monkeypatch)
    system = SystemConfig.scaled()
    sim = Simulator(system, "lap", make_table3_mix("WL1", system.scale_context(), seed=0))
    sim.run(1000)
    llc = sim.hierarchy.llc
    sets = llc.sets
    assert built["n"] == llc.num_sets * llc.assoc
    assert llc.occupancy() > 0  # the run's state was applied
    blocks = [b for s in sets for b in s.blocks]
    assert llc.sets is sets
    assert [b for s in llc.sets for b in s.blocks] == blocks
    assert built["n"] == llc.num_sets * llc.assoc


def test_supports_policy_exact_types():
    from repro.core.policies import make_policy

    supports = kernel_batch.supports_policy
    for name in ("non-inclusive", "exclusive", "lap", "lap-lru", "lap-loop",
                 "flexclusion", "dswitch"):
        assert supports(make_policy(name)), name
    # srrip baseline has no kernel flow; subclasses/others fall back
    assert not supports(make_policy("lap-rrip"))
    assert not supports(make_policy("inclusive"))
    assert not supports(make_policy("lhybrid"))
    # a trivial subclass of each inlined class may override hooks the
    # kernel does not call, so none is taken
    for base in (NonInclusivePolicy, ExclusivePolicy, LAPPolicy, FLEXclusionPolicy,
                 DswitchPolicy):
        subclass = type(f"Tuned{base.__name__}", (base,), {})
        assert not supports(subclass()), base.__name__


# ----------------------------------------------------------------------
# what the kernel does not carry falls back to the generic loop
# ----------------------------------------------------------------------
def _hierarchy(probes, **kwargs):
    system = SystemConfig.scaled()
    w = make_table3_mix("WL1", system.scale_context(), seed=1)
    return Simulator(system, kwargs.pop("policy", "lap"), w, probes=probes, **kwargs).hierarchy


def test_standard_probes_are_eligible():
    assert kernel_batch.eligible(_hierarchy(None))
    assert kernel_batch.eligible(_hierarchy([]))
    assert kernel_batch.eligible(
        _hierarchy([OccupancySampler(64), RedundantFillProbe(), LoopProbe()])
    )


def test_invariant_probe_falls_back():
    assert not kernel_batch.eligible(_hierarchy([LoopProbe(), InvariantProbe(interval=64)]))


def test_trace_probe_falls_back(tmp_path):
    from repro.obs.trace import TraceProbe

    with TraceProbe(tmp_path / "trace.jsonl.gz") as probe:
        assert not kernel_batch.eligible(_hierarchy([probe]))


def test_probe_subclasses_fall_back():
    class CountingLoopProbe(LoopProbe):
        def on_l2_fill(self, addr, from_llc):
            super().on_l2_fill(addr, from_llc)

    class QuietTracker(LoopBlockTracker):
        pass

    class MyRedundantFill(RedundantFillProbe):
        pass

    assert not kernel_batch.eligible(_hierarchy([CountingLoopProbe()]))
    assert not kernel_batch.eligible(_hierarchy([LoopProbe(QuietTracker())]))
    assert not kernel_batch.eligible(_hierarchy([MyRedundantFill()]))


def test_duplicate_probes_fall_back():
    assert not kernel_batch.eligible(_hierarchy([LoopProbe(), LoopProbe()]))
    assert not kernel_batch.eligible(
        _hierarchy([OccupancySampler(64), OccupancySampler(128)])
    )


def test_default_system_engages_kernel():
    """Default-instrumented runs of every batched policy (the switchers
    included) take the kernel, and so does a probe-free LAP run; the
    policies it does not inline fall back."""
    for policy in POLICIES:
        assert kernel_batch.eligible(_hierarchy(None, policy=policy)), policy
    assert {"flexclusion", "dswitch"} <= set(POLICIES)
    assert not kernel_batch.eligible(_hierarchy(None, policy="inclusive"))
    probe_free = SystemConfig.scaled().probe_free()
    w = make_table3_mix("WL1", probe_free.scale_context(), seed=1)
    assert kernel_batch.eligible(Simulator(probe_free, "lap", w).hierarchy)


def test_coherence_falls_back():
    """Coherent runs of every batched policy (the switchers included)
    take the kernel; the policies it does not inline fall back, coherent
    or not."""
    for policy in POLICIES:
        assert kernel_batch.eligible(
            _hierarchy(None, policy=policy, enable_coherence=True)
        ), policy
    assert not kernel_batch.eligible(
        _hierarchy(None, policy="inclusive", enable_coherence=True)
    )
