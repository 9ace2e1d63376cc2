"""Hot-path throughput microbenchmark: batched kernel vs generic loop.

Measures raw simulator accesses/sec on the kernel-eligible policy trio
over the full ``repro bench`` grid — both instrumentation specs
(``default``: the paper's probes, as every shipped path runs; ``none``:
probe-free) — all of which take the batched kernel (DESIGN.md §13).
Two more legs sit beside the grid: the generic per-reference loop
(``Simulator.enable_batch_kernel = False``) under both specs, which is
what the kernel is measured against, and the probe-free kernel with a
live span recorder installed and the flight recorder imported but not
attached. A coherent leg measures the kernel
against the generic loop on a MOESI run (PARSEC ``canneal``, default
probes), the configuration behind Fig. 20. The entry is **appended** to
``BENCH_hotpath.json`` at the repo root; earlier entries (including the
pre-refactor record, preserved under ``"legacy"``) are never
overwritten.

``PRE_REFACTOR_BASELINE`` pins the accesses/sec measured at the growth
seed (commit ad4a4f6, always-on instrumentation, same workload/refs/
geometry). Cross-machine ratios are asserted loosely here; the recorded
JSON carries the exact numbers for same-machine comparison.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import replace

from repro.bench import (
    BACKEND,
    BENCH_INSTRUMENTATION,
    append_entry,
    measure_throughput,
    run_hotpath_bench,
)
from repro.sim.simulator import Simulator
from repro.sim.system import SystemConfig
from repro.workloads.mixes import make_multithreaded, make_table3_mix

BENCH_PATH = pathlib.Path(__file__).parent.parent / "BENCH_hotpath.json"

POLICIES = ("non-inclusive", "exclusive", "lap")
SPECS = BENCH_INSTRUMENTATION  # ("default", "none")
REFS_PER_CORE = 30_000
REPS = 3

#: accesses/sec at the pre-refactor seed (same grid, default probes).
PRE_REFACTOR_BASELINE = {
    "non-inclusive": 62_712,
    "exclusive": 63_153,
    "lap": 66_642,
}

#: loose in-benchmark floor for the kernel-vs-generic speedup. Same-
#: machine best-of measurements show ~3x; shared CI runners are noisy
#: enough that the automated gate sits lower.
MIN_KERNEL_SPEEDUP = 1.8

#: coherent leg: a PARSEC workload under MOESI snooping (Fig. 20), where
#: the kernel also runs the sharers map and peer snoops, so its floor
#: sits lower than the multiprogrammed one.
COHERENT_WORKLOAD = "canneal"
COHERENT_REFS_PER_CORE = 10_000
MIN_COHERENT_SPEEDUP = 1.5


def _throughput(system: SystemConfig, policy: str, reps: int = REPS) -> float:
    return measure_throughput(system, policy, refs_per_core=REFS_PER_CORE, reps=reps, seed=7)


def _rate(system: SystemConfig, policy: str, workload, refs: int, kernel: bool) -> float:
    """Accesses/sec of one run, timed exactly as ``measure_throughput``
    times the kernel; ``kernel=False`` drives the generic loop."""
    sim = Simulator(system, policy, workload)
    sim.enable_batch_kernel = kernel
    start = time.perf_counter()
    sim.run(refs)
    return refs * workload.ncores / (time.perf_counter() - start)


def _generic_throughput(system: SystemConfig, policy: str) -> float:
    """Best-of-``REPS`` accesses/sec on the generic per-reference loop."""
    return max(
        _rate(
            system, policy, make_table3_mix("WL1", system.scale_context(), seed=7),
            REFS_PER_CORE, kernel=False,
        )
        for _ in range(REPS)
    )


def _coherent_throughput(policy: str) -> dict:
    """Best-of-``REPS`` accesses/sec of the kernel and the generic loop on
    the coherent leg, alternating rep by rep so both sides see the same
    host-speed phase."""
    system = SystemConfig.scaled()
    best = {"kernel": 0.0, "generic": 0.0}
    for _ in range(REPS):
        for side in best:
            workload = make_multithreaded(
                COHERENT_WORKLOAD, system.scale_context(),
                nthreads=system.hierarchy.ncores, seed=7,
            )
            rate = _rate(
                system, policy, workload, COHERENT_REFS_PER_CORE, kernel=side == "kernel"
            )
            best[side] = max(best[side], rate)
    return {side: round(rate) for side, rate in best.items()}


def measure_grid() -> dict:
    # The repro-bench grid: both specs, all on the kernel.
    entry = run_hotpath_bench(
        POLICIES,
        refs_per_core=REFS_PER_CORE,
        reps=REPS,
        seed=7,
    )
    entry["pre_refactor_accesses_per_sec"] = dict(PRE_REFACTOR_BASELINE)
    kernel = {
        spec: {p: entry["accesses_per_sec"][spec][p][BACKEND] for p in POLICIES}
        for spec in SPECS
    }

    # The generic per-reference loop.
    generic = {}
    for spec in SPECS:
        system = replace(SystemConfig.scaled(), instrumentation=spec)
        generic[spec] = {p: round(_generic_throughput(system, p)) for p in POLICIES}
    entry["generic_accesses_per_sec"] = generic
    entry["speedup_kernel_vs_generic"] = {
        spec: {p: round(kernel[spec][p] / generic[spec][p], 2) for p in POLICIES}
        for spec in SPECS
    }
    entry["probe_free_vs_instrumented"] = {
        p: round(kernel["none"][p] / kernel["default"][p], 3) for p in POLICIES
    }
    entry["probe_free_vs_pre_refactor"] = {
        p: round(kernel["none"][p] / PRE_REFACTOR_BASELINE[p], 3) for p in POLICIES
    }
    entry["default_vs_pre_refactor"] = {
        p: round(kernel["default"][p] / PRE_REFACTOR_BASELINE[p], 3) for p in POLICIES
    }

    # Coherent leg (MOESI, default probes): kernel vs generic loop.
    coherent = {p: _coherent_throughput(p) for p in POLICIES}
    entry["coherent_accesses_per_sec"] = coherent
    entry["coherent_speedup_kernel_vs_generic"] = {
        p: round(coherent[p]["kernel"] / coherent[p]["generic"], 2) for p in POLICIES
    }

    # Telemetry-idle guard: with repro.obs's recorder modules imported
    # and a live span recorder installed — but no TraceProbe attached —
    # the probe-free hot path must be unchanged. Spans are coarse (one
    # per run and per kernel phase, never per access), so this measures
    # that the observability layer stays off the per-access path
    # entirely. The two sides alternate rep by rep so they see the same
    # host-speed phase (the grid above ran minutes earlier).
    import repro.obs.trace  # noqa: F401  (imported, never attached)
    from repro.obs.spans import SpanRecorder, install_recorder, uninstall_recorder

    probe_free_system = SystemConfig.scaled().probe_free()
    plain = {p: 0.0 for p in POLICIES}
    idle = {p: 0.0 for p in POLICIES}
    for policy in POLICIES:
        for _ in range(REPS):
            plain[policy] = max(plain[policy], _throughput(probe_free_system, policy, reps=1))
            previous = install_recorder(SpanRecorder())
            try:
                idle[policy] = max(idle[policy], _throughput(probe_free_system, policy, reps=1))
            finally:
                if previous is None:
                    uninstall_recorder()
                else:
                    install_recorder(previous)
    entry["telemetry_idle_accesses_per_sec"] = {p: round(idle[p]) for p in POLICIES}
    entry["telemetry_idle_vs_probe_free"] = {
        p: round(idle[p] / plain[p], 3) for p in POLICIES
    }
    return entry


def test_hotpath_throughput(benchmark, emit):
    from conftest import run_once

    entry = run_once(benchmark, measure_grid)
    append_entry(BENCH_PATH, entry)

    rates = entry["accesses_per_sec"]
    generic = entry["generic_accesses_per_sec"]
    speedup = entry["speedup_kernel_vs_generic"]
    lines = [
        f"{'policy':15s} {'spec':8s} {'generic':>10s} {'kernel':>10s} "
        f"{'kernel/generic':>15s}"
    ]
    for policy in POLICIES:
        for spec in SPECS:
            lines.append(
                f"{policy:15s} {spec:8s} {generic[spec][policy]:>10,} "
                f"{rates[spec][policy][BACKEND]:>10,} {speedup[spec][policy]:>14.2f}x"
            )
    coherent = entry["coherent_accesses_per_sec"]
    coherent_speedup = entry["coherent_speedup_kernel_vs_generic"]
    lines.append("")
    lines.append(
        f"coherent ({COHERENT_WORKLOAD}, MOESI, default probes, "
        f"{COHERENT_REFS_PER_CORE:,} refs/core)"
    )
    lines.append(f"{'policy':15s} {'generic':>10s} {'kernel':>10s} {'kernel/generic':>15s}")
    for policy in POLICIES:
        lines.append(
            f"{policy:15s} {coherent[policy]['generic']:>10,} "
            f"{coherent[policy]['kernel']:>10,} {coherent_speedup[policy]:>14.2f}x"
        )
    emit("hotpath_throughput", "\n".join(lines))

    # Loose in-benchmark gates (exact acceptance ratios are same-machine
    # comparisons; the appended JSON entry carries them): disabling
    # probes must never cost throughput, the kernel must beat the
    # generic loop by a wide margin with and without the probes, the
    # probe-free and the instrumented kernel must both stay ahead of the
    # pre-refactor seed, and idle telemetry must not tax the hot path.
    for policy in POLICIES:
        assert entry["probe_free_vs_instrumented"][policy] > 0.95, policy
    for spec in SPECS:
        for policy in POLICIES:
            assert speedup[spec][policy] >= MIN_KERNEL_SPEEDUP, (spec, policy)
    for policy in POLICIES:
        assert coherent_speedup[policy] >= MIN_COHERENT_SPEEDUP, policy
    for ratios in ("probe_free_vs_pre_refactor", "default_vs_pre_refactor"):
        grid_ratio = sum(entry[ratios].values()) / len(POLICIES)
        assert grid_ratio > 1.2, ratios
    for policy in POLICIES:
        assert entry["telemetry_idle_vs_probe_free"][policy] > 0.9, policy
