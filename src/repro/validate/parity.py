"""Kernel-vs-generic parity: the batched kernel must be indistinguishable
from the generic loop.

The batched kernel (:mod:`repro.kernel.batch`) is the production path,
and the generic per-reference loop (``Simulator.enable_batch_kernel =
False``) is its reference. :func:`assert_identical` compares a kernel
run with a generic run of the same system, policy and workload:

- the entire ``RunResult`` (``asdict``), and its serialised JSON byte for
  byte without ``sort_keys`` (so dict key order — the CTC histogram's
  included — matches too);
- the final tag-array state and the stats of every cache (the private
  L1s and L2s are not in the ``RunResult``), tag-map order included;
- the probes' internal state after ``finish()`` (open streaks and the
  ``_from_llc`` map in insertion order, the fresh-fill set, the
  sampler's countdown), which is what a second ``run()`` starts from;
- for coherent runs, the sharers map, equal to the generic one, in the
  same order, and to the map rebuilt from the L2 tag arrays.

The parity tests (``tests/test_kernel_probes.py``) use it on fixed
seeds and shapes; :func:`check_kernel_parity` replays a fuzz trace on
both paths, then runs the invariants' ``STATE_CHECKS`` over the kernel
side, for every fuzz case whose policy the kernel takes.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Callable, List, Sequence, Tuple

import numpy as np

from ..core.policies import make_policy
from ..exec.serialize import result_to_dict
from ..instr import LoopProbe, OccupancySampler, RedundantFillProbe
from ..kernel import batch as kernel_batch
from ..sim.simulator import Simulator
from ..sim.system import SystemConfig
from ..testing import micro_hierarchy_config
from ..workloads.mixes import MULTIPROGRAMMED, Workload
from ..workloads.tracefile import ReplayTrace
from .differential import Ref
from .invariants import STATE_CHECKS


class KernelDivergence(AssertionError):
    """The batched kernel and the generic loop disagree."""

    invariant = "kernel-parity"  # its name in fuzz failures


def _first_difference(kernel, generic, path: str) -> str:
    """Where two unequal nested values first differ, and how."""
    if isinstance(kernel, dict) and isinstance(generic, dict):
        for key in (*kernel, *generic):
            if kernel.get(key) != generic.get(key):
                return _first_difference(kernel.get(key), generic.get(key), f"{path}[{key!r}]")
        return f"{path}: key order {list(kernel)[:8]} != {list(generic)[:8]}"
    if isinstance(kernel, (list, tuple)) and isinstance(generic, (list, tuple)):
        for i, (k, g) in enumerate(zip(kernel, generic)):
            if k != g:
                return _first_difference(k, g, f"{path}[{i}]")
        return f"{path}: length {len(kernel)} != {len(generic)}"
    return f"{path}: kernel {str(kernel)[:200]} != generic {str(generic)[:200]}"


def _expect_equal(kernel, generic, what: str) -> None:
    if kernel != generic:
        raise KernelDivergence(f"{what} differs at {_first_difference(kernel, generic, '')}")


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


def run_pair(
    system: SystemConfig,
    policy,
    make_workload: Callable[[], Workload],
    refs: int,
    *,
    runs: int = 1,
    batch: int = 4096,
    **sim_kwargs,
) -> List[Tuple[Simulator, list]]:
    """Run the kernel and the generic loop on fresh simulators; ``runs``
    consecutive ``run()`` calls each."""
    out = []
    for kernel in (True, False):
        sim = Simulator(system, policy, make_workload(), **sim_kwargs)
        sim.enable_batch_kernel = kernel
        out.append((sim, [sim.run(refs, batch) for _ in range(runs)]))
    return out


def assert_identical(pair) -> None:
    """Raise :class:`KernelDivergence` unless the kernel side of ``pair``
    (from :func:`run_pair`) equals its generic side (module docstring)."""
    (sim_k, results_k), (sim_g, results_g) = pair
    # the kernel must actually have run, not silently fallen back
    if not kernel_batch.eligible(sim_k.hierarchy):
        raise KernelDivergence("the kernel side did not take the batched kernel")
    for r_k, r_g in zip(results_k, results_g):
        _expect_equal(asdict(r_k), asdict(r_g), "RunResult")
        _expect_equal(json.dumps(result_to_dict(r_k)), json.dumps(result_to_dict(r_g)),
                      "serialised RunResult")
    h_k, h_g = sim_k.hierarchy, sim_g.hierarchy
    _expect_equal(tag_state(h_k), tag_state(h_g), "tag-array state")
    _expect_equal(cache_stats(h_k), cache_stats(h_g), "cache stats")
    _expect_equal(probe_state(h_k), probe_state(h_g), "probe state")
    coh_k, coh_g = h_k.coherence, h_g.coherence
    if coh_k is not None:
        sharers = coh_k.sharers_snapshot()
        _expect_equal(sharers, coh_g.sharers_snapshot(), "sharers map")
        _expect_equal(list(sharers), list(coh_g.sharers_snapshot()), "sharers order")
        _expect_equal(sharers, sharers_from_tags(h_k), "sharers vs L2 tags")


def replay_workload(trace: Sequence[Ref], ncores: int, name: str) -> Workload:
    """A multiprogrammed workload replaying each core's references of
    ``trace`` (looping; a core without any replays address 0)."""
    generators = []
    for core in range(ncores):
        refs = [(a, w) for c, a, w in trace if c == core] or [(0, False)]
        addrs = np.array([a for a, _ in refs], dtype=np.uint64)
        writes = np.array([w for _, w in refs], dtype=bool)
        generators.append(ReplayTrace(addrs, writes, name=f"{name}.{core}", instr_per_ref=2.0))
    return Workload(
        name=name, kind=MULTIPROGRAMMED, generators=generators,
        benchmarks=tuple(g.name for g in generators), seed=0,
    )


def kernel_takes(policy: str) -> bool:
    """Whether the batched kernel inlines ``policy``'s flow."""
    return kernel_batch.supports_policy(make_policy(policy))


def check_kernel_parity(
    policy: str,
    trace: Sequence[Ref],
    *,
    ncores: int = 1,
    enable_coherence: bool = False,
    batch: int = 97,
    sample_interval: int = 7,
    instrumentation: str = "default",
) -> None:
    """Replay ``trace`` on the kernel and on the generic loop, over a
    micro hierarchy, in two consecutive runs of the whole trace each;
    raises :class:`KernelDivergence` on any difference, then
    ``InvariantViolation`` if the kernel side fails a state check."""
    system = SystemConfig(
        hierarchy=micro_hierarchy_config(ncores=ncores),
        label="micro",
        duel_interval=64,
        occupancy_sample_interval=sample_interval,
        instrumentation=instrumentation,
    )
    refs = max(1, len(trace) // ncores)
    pair = run_pair(
        system, policy, lambda: replay_workload(trace, ncores, "fuzz"), refs, runs=2,
        batch=batch, enable_coherence=enable_coherence,
    )
    assert_identical(pair)
    for _, check in STATE_CHECKS:
        check(pair[0][0].hierarchy)
