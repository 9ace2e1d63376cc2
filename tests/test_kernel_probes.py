"""Instrumented batched-kernel parity: the standard probes as kernel counters.

The batched kernel (:mod:`repro.kernel.batch`) carries the loop tracker,
the redundant-fill detector and the occupancy sampler as derived
counters. Every instrumented kernel run must be indistinguishable from
the generic loop over the same store (``enable_batch_kernel = False``):

- the entire ``RunResult`` (``asdict``), and its serialised JSON byte for
  byte without ``sort_keys`` (so dict key order — the CTC histogram's
  included — matches too);
- the final tag-array state and the stats of every cache (the private
  L1s and L2s are not in the ``RunResult``), tag-map order included;
- the probes' internal state after ``finish()`` (open streaks and the
  ``_from_llc`` map in insertion order, the fresh-fill set, the
  sampler's countdown), which is what a second ``run()`` starts from.

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

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.cache import Cache
from repro.core.loop_bits import LoopBlockTracker
from repro.exec.serialize import result_to_dict
from repro.inclusion.switching import FLEXclusionPolicy
from repro.instr import LoopProbe, OccupancySampler, RedundantFillProbe
from repro.kernel import batch as kernel_batch
from repro.kernel import batched_policy_names
from repro.sim.simulator import Simulator
from repro.sim.system import SystemConfig
from repro.testing import micro_hierarchy_config
from repro.validate import generate_trace
from repro.validate.invariants import InvariantProbe
from repro.workloads.mixes import (
    MULTIPROGRAMMED,
    Workload,
    make_multithreaded,
    make_table3_mix,
)
from repro.workloads.tracefile import ReplayTrace

#: every policy declared batched (non-inclusive, exclusive, flexclusion,
#: dswitch, lap, lap-lru, lap-loop) — derived, so a new batched policy
#: joins automatically.
POLICIES = batched_policy_names()

#: instrumentation specs the kernel carries (both probe orders included:
#: the sampler re-emits through the bus, so order is part of the contract).
SPECS = ("default", "loop", "redundant-fill", "occupancy,loop", "loop,occupancy", "none")


def tag_state(h) -> list:
    """Every cache's ways, tag-map order, loop counters and tick."""
    state = []
    for cache in (*h.l1s, *h.l2s, h.llc):
        sets = [
            (
                [
                    (b.tag, b.valid, b.dirty, b.loop_bit, b.last_access,
                     b.insert_seq, b.rrpv, b.state)
                    for b in s.blocks
                ],
                [(t, b.way) for t, b in s.tag_map.items()],
                s.loop_count,
            )
            for s in cache.sets
        ]
        state.append((cache._tick, sets))
    return state


def cache_stats(h) -> list:
    """Every cache's stats, private levels included."""
    return [asdict(cache.stats) for cache in (*h.l1s, *h.l2s, h.llc)]


def probe_state(h) -> list:
    """The standard probes' internal state, in bus order."""
    state = []
    for probe in h.probe_bus.probes:
        if isinstance(probe, LoopProbe):
            t = probe.tracker
            state.append((
                "loop",
                list(t._streak.items()),
                list(t._from_llc.items()),
                asdict(t.stats),
                list(t.stats.ctc_histogram.items()),
            ))
        elif isinstance(probe, RedundantFillProbe):
            state.append(("redundant-fill", sorted(probe._fresh)))
        elif isinstance(probe, OccupancySampler):
            state.append(("occupancy", probe._since))
    return state


def sharers_from_tags(h) -> dict:
    """The sharers map rebuilt from the L2 tag arrays (ground truth)."""
    rebuilt = {}
    for core, l2 in enumerate(h.l2s):
        for cache_set in l2.sets:
            for tag in cache_set.tag_map:
                addr = l2.addr_of(cache_set.index, tag)
                rebuilt[addr] = rebuilt.get(addr, 0) | (1 << core)
    return rebuilt


def run_pair(system, policy, make_workload, refs, *, runs=1, batch=4096, **sim_kwargs):
    """Run the kernel and the generic loop on fresh simulators; ``runs``
    consecutive ``run()`` calls each."""
    out = []
    for kernel in (True, False):
        sim = Simulator(system, policy, make_workload(), **sim_kwargs)
        sim.enable_batch_kernel = kernel
        out.append((sim, [sim.run(refs, batch) for _ in range(runs)]))
    return out


def assert_identical(pair) -> None:
    (sim_k, results_k), (sim_g, results_g) = pair
    # the kernel must actually have run, not silently fallen back
    assert kernel_batch.eligible(sim_k.hierarchy)
    for r_k, r_g in zip(results_k, results_g):
        assert asdict(r_k) == asdict(r_g)
        assert json.dumps(result_to_dict(r_k)) == json.dumps(result_to_dict(r_g))
    assert tag_state(sim_k.hierarchy) == tag_state(sim_g.hierarchy)
    assert cache_stats(sim_k.hierarchy) == cache_stats(sim_g.hierarchy)
    assert probe_state(sim_k.hierarchy) == probe_state(sim_g.hierarchy)
    coh_k, coh_g = sim_k.hierarchy.coherence, sim_g.hierarchy.coherence
    if coh_k is not None:
        sharers = coh_k.sharers_snapshot()
        assert sharers == coh_g.sharers_snapshot()
        assert list(sharers) == list(coh_g.sharers_snapshot())
        assert sharers == sharers_from_tags(sim_k.hierarchy)


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

    def make():
        generators = []
        for core in range(ncores):
            refs = [(a, w) for c, a, w in trace if c == core] or [(0, False)]
            addrs = np.array([a for a, _ in refs], dtype=np.uint64)
            writes = np.array([w for _, w in refs], dtype=bool)
            generators.append(ReplayTrace(addrs, writes, name=f"fuzz{seed}.{core}",
                                          instr_per_ref=2.0))
        return Workload(
            name=f"fuzz{seed}", kind=MULTIPROGRAMMED, generators=generators,
            benchmarks=tuple(g.name for g in generators), seed=seed,
        )

    return make


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
    assert state["tag"][slot] == 3 and state["valid"][slot]
    assert state["maps"] == [{}, {3: slot}]
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

    # recency order follows the stamps (oldest first), not the ways
    assert list(state["maps"][0].items()) == [(11, 1), (13, 3), (10, 0)]
    assert state["maps"][1] == {}
    blocks = kernel_batch._block_keyed(state["maps"], 1)
    assert list(blocks[0]) == [(11 << 1) | 0, (13 << 1) | 0, (10 << 1) | 0]
    assert kernel_batch._tag_keyed(blocks, 1) == state["maps"]

    # the lowest invalid way is reused first
    assert state["free"] == [0b0100, 0b1111]
    assert kernel_batch._take_free(state["free"], 1, 4) == 4
    assert kernel_batch._take_free(state["free"], 1, 4) == 5
    assert kernel_batch._take_free(state["free"], 0, 0) == 2
    assert state["free"] == [0, 0b1100]

    # as the loop leaves it: tag 11 dropped with its columns untouched,
    # tag 12 refilled into way 2, tag 7 filled into set 1's way 0
    maps = state["maps"]
    del maps[0][11]
    maps[0][12] = 2
    maps[1][7] = 4
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


def test_kernel_mode_exact_policy_types():
    from repro.core.policies import make_policy

    kernel_mode = kernel_batch.kernel_mode
    assert kernel_mode(make_policy("non-inclusive")) == kernel_batch.MODE_NONI
    assert kernel_mode(make_policy("exclusive")) == kernel_batch.MODE_EX
    assert kernel_mode(make_policy("lap")) == kernel_batch.MODE_LAP
    assert kernel_mode(make_policy("lap-lru")) == kernel_batch.MODE_LAP
    assert kernel_mode(make_policy("flexclusion")) == kernel_batch.MODE_SWITCH
    assert kernel_mode(make_policy("dswitch")) == kernel_batch.MODE_SWITCH
    # srrip baseline has no kernel flow; subclasses/others fall back
    assert kernel_mode(make_policy("lap-rrip")) is None
    assert kernel_mode(make_policy("inclusive")) is None
    assert kernel_mode(make_policy("lhybrid")) is None

    class TunedFLEXclusion(FLEXclusionPolicy):
        pass

    assert kernel_mode(TunedFLEXclusion()) is None


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
