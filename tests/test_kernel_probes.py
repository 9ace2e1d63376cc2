"""Instrumented batched-kernel parity: the standard probes as kernel counters.

The batched kernel (:mod:`repro.kernel.batch`) carries the loop tracker,
the redundant-fill detector and the occupancy sampler as derived
counters. Every instrumented kernel run must be indistinguishable from
the generic loop over the same store (``enable_batch_kernel = False``):

- the entire ``RunResult`` (``asdict``), and its serialised JSON byte for
  byte without ``sort_keys`` (so dict key order — the CTC histogram's
  included — matches too);
- the final tag-array state of every cache, tag-map order included;
- the probes' internal state after ``finish()`` (open streaks and the
  ``_from_llc`` map in insertion order, the fresh-fill set, the
  sampler's countdown), which is what a second ``run()`` starts from.

The matrix covers every batched policy, every instrumentation spec the
kernel accepts, WL and WH mixes, and fuzzer traces on a micro hierarchy
(non-unrolled victim scans, addresses shared between cores, sample
points at every offset of the batch stream).
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.core.loop_bits import LoopBlockTracker
from repro.exec.serialize import result_to_dict
from repro.instr import LoopProbe, OccupancySampler, RedundantFillProbe
from repro.kernel import batch as kernel_batch
from repro.kernel import batched_policy_names
from repro.sim.simulator import Simulator
from repro.sim.system import SystemConfig
from repro.testing import micro_hierarchy_config
from repro.validate import generate_trace
from repro.validate.invariants import InvariantProbe
from repro.workloads.mixes import MULTIPROGRAMMED, Workload, make_table3_mix
from repro.workloads.tracefile import ReplayTrace

#: every policy declared batched (non-inclusive, exclusive, lap, lap-lru,
#: lap-loop) — derived, so a new batched policy joins automatically.
POLICIES = batched_policy_names()

#: instrumentation specs the kernel carries (both probe orders included:
#: the sampler re-emits through the bus, so order is part of the contract).
SPECS = ("default", "loop", "redundant-fill", "occupancy,loop", "loop,occupancy", "none")


@pytest.fixture(autouse=True)
def _clear_backend_env(monkeypatch):
    monkeypatch.delenv("REPRO_TAG_BACKEND", raising=False)


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


def run_pair(system, policy, make_workload, refs, *, runs=1, batch=4096):
    """Run the kernel and the generic loop on fresh simulators; ``runs``
    consecutive ``run()`` calls each."""
    out = []
    for kernel in (True, False):
        sim = Simulator(system, policy, make_workload())
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
    assert probe_state(sim_k.hierarchy) == probe_state(sim_g.hierarchy)


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
    system = replace(SystemConfig.scaled(), instrumentation="default")
    pair = run_pair(
        system, policy,
        lambda: make_table3_mix("WL3", system.scale_context(), seed=2),
        refs=1500,
    )
    assert_identical(pair)
    # the run is instrumented for real, not vacuously equal
    loop = pair[0][1][0].loop
    assert loop.l2_evictions > 0 and loop.llc_loop_samples > 0


def test_default_mix_counters_are_live():
    """Fig. 4/6/16 counters move under the kernel (non-inclusive WH run)."""
    system = SystemConfig.scaled()
    sim = Simulator(system, "non-inclusive", make_table3_mix("WH1", system.scale_context(), seed=11))
    assert kernel_batch.eligible(sim.hierarchy)
    r = sim.run(3000)
    assert r.llc.redundant_fills > 0
    assert r.loop.loop_evictions > 0 and r.loop.ctc_histogram
    assert r.loop.llc_loop_samples > 0


@pytest.mark.parametrize("policy", POLICIES)
def test_kernel_then_generic_continues_exactly(policy):
    """Probe state checked in by the kernel is what the generic loop
    continues from: kernel-then-generic == generic-then-generic."""
    system = _mix_system("default")
    sims = []
    for first_kernel in (True, False):
        sim = Simulator(system, policy, make_table3_mix("WH4", system.scale_context(), seed=9))
        sim.enable_batch_kernel = first_kernel
        first = sim.run(600)
        sim.enable_batch_kernel = False
        sims.append((sim, [first, sim.run(600)]))
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
    from repro.telemetry.trace import TraceProbe

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


def test_coherence_falls_back():
    assert not kernel_batch.eligible(_hierarchy(None, enable_coherence=True))
