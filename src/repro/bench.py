"""Hot-path throughput benchmarking across execution paths and
instrumentation specs.

One bench run measures the simulation rate (accesses/sec, best of
``reps`` to shed scheduler noise) for each requested policy on both
execution paths (``"kernel"``: the batched kernel every shipped path
takes; ``"generic"``: the per-reference loop,
``Simulator.enable_batch_kernel = False``) under both instrumentation
specs (``"default"``: the paper's probes; ``"none"``: probe-free), with
a host-speed reading around every cell. ``make bench-hotpath``
(``benchmarks/test_hotpath_throughput.py``) appends the result as one
timestamped entry to ``BENCH_hotpath.json``; re-running never
overwrites earlier measurements, so before/after comparisons across
refactors stay in the file. ``repro bench trend`` reads it
(:mod:`repro.obs.trend`).

Entry shape::

    {
      "timestamp": "2026-10-18T12:00:00Z",
      "workload": "WL1", "refs_per_core": 30000, "reps": 3, "seed": 7,
      "paths": ["kernel", "generic"],
      "instrumentation": ["default", "none"],
      "accesses_per_sec": {"default": {"lap": {"kernel": <rate>,
                                               "generic": <rate>}}, ...},
      "host_ref_ms": {...},     # host-speed reading per cell, same shape
      ...                       # the benchmark's own ratios and legs
    }

The file also keeps, as frozen history that the trend does not read, a
``"legacy"`` record and entries from before the path axis (``"backends"``
columns ``object``/``soa``).
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, Sequence, Union

from .exec.jobs import WorkloadSpec
from .sim.simulator import Simulator
from .sim.system import SystemConfig

#: the kernel-eligible policies the hot-path bench tracks by default —
#: one per batched-kernel flow (non-inclusion, exclusion, LAP; the
#: switchers run the first two).
BENCH_POLICIES = ("non-inclusive", "exclusive", "lap")

#: instrumentation specs benched by default: the shipped configuration
#: and the probe-free one.
BENCH_INSTRUMENTATION = ("default", "none")

#: execution paths every cell is measured on
BENCH_PATHS = ("kernel", "generic")

DEFAULT_REFS = 30_000
DEFAULT_REPS = 5


def measure_throughput(
    system: SystemConfig,
    policy: str,
    workload_name: str = "WL1",
    refs_per_core: int = DEFAULT_REFS,
    reps: int = DEFAULT_REPS,
    seed: int = 7,
    kernel: bool = True,
) -> float:
    """Best-of-``reps`` accesses/sec for one (policy, system, path).

    Each rep builds a fresh simulator (cold caches — the measurement is
    of the engine, not of a warmed state) and times ``Simulator.run``
    wall-to-wall, workload generation included; ``kernel=False`` drives
    the generic per-reference loop. Best-of is deliberate: the floor of
    a throughput measurement is noise, the ceiling is the engine.
    """
    spec = WorkloadSpec.named(workload_name, system.hierarchy.ncores, seed)
    best = 0.0
    for _ in range(max(1, reps)):
        workload = spec.build(system.scale_context())
        sim = Simulator(system, policy, workload)
        sim.enable_batch_kernel = kernel
        start = time.perf_counter()
        sim.run(refs_per_core)
        elapsed = time.perf_counter() - start
        rate = (refs_per_core * workload.ncores) / elapsed
        if rate > best:
            best = rate
    return best


def _reference_work() -> int:
    # Dict, list and int work from a Python loop, like the simulator's
    # own mix; fixed, so it never changes with the code under test.
    table: Dict[int, int] = {}
    slots = [0] * 256
    total = 0
    for i in range(20_000):
        key = (i * 2654435761) & 4095
        table[key] = table.get(key, 0) + 1
        slots[key & 255] = i
        total += slots[(key >> 4) & 255]
    return total


def host_reference_ms(repeats: int = 3) -> float:
    """How fast the host runs right now: the median wall milliseconds of
    ``repeats`` runs of a fixed pure-Python workload on each CPU this
    process may use, averaged over the CPUs.

    A shared host runs everything up to twice as slowly while a
    neighbour is busy, in phases of seconds to minutes that differ per
    CPU. A rate times the reading taken around it drifts less with those
    phases than the raw rate; it does not remove sub-second jitter (on a
    shared 2-core x86_64 host, a 4-minute series of single-rep runs read
    IQR/median 0.26 raw, 0.20 normalised). The process's CPU set is
    restored afterwards.
    """

    def median_ms() -> float:
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            _reference_work()
            samples.append((time.perf_counter() - start) * 1e3)
        return statistics.median(samples)

    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return median_ms()
    per_cpu = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(median_ms())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(per_cpu)


def run_hotpath_bench(
    policies: Sequence[str] = BENCH_POLICIES,
    *,
    workload: str = "WL1",
    refs_per_core: int = DEFAULT_REFS,
    reps: int = DEFAULT_REPS,
    seed: int = 7,
) -> dict:
    """Measure every (instrumentation, policy, path) cell and return
    one bench entry.

    :func:`host_reference_ms` is read before the first cell and after
    every cell; ``"host_ref_ms"`` records, in the shape of
    ``"accesses_per_sec"``, the mean of the readings on either side of
    each cell, which :mod:`repro.obs.trend` uses to compare entries
    taken at different host speeds.
    """
    rates: Dict[str, Dict[str, Dict[str, int]]] = {}
    refs: Dict[str, Dict[str, Dict[str, float]]] = {}
    before = host_reference_ms()
    for spec in BENCH_INSTRUMENTATION:
        system = replace(SystemConfig.scaled(), instrumentation=spec)
        rates[spec] = {policy: {} for policy in policies}
        refs[spec] = {policy: {} for policy in policies}
        for policy in policies:
            for path in BENCH_PATHS:
                rate = measure_throughput(
                    system,
                    policy,
                    workload_name=workload,
                    refs_per_core=refs_per_core,
                    reps=reps,
                    seed=seed,
                    kernel=path == "kernel",
                )
                after = host_reference_ms()
                rates[spec][policy][path] = round(rate)
                refs[spec][policy][path] = round((before + after) / 2, 3)
                before = after
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": workload,
        "refs_per_core": refs_per_core,
        "reps": reps,
        "seed": seed,
        "paths": list(BENCH_PATHS),
        "instrumentation": list(BENCH_INSTRUMENTATION),
        "accesses_per_sec": rates,
        "host_ref_ms": refs,
    }


#: Per-process uniquifier for bench temp files (same pattern as the
#: result cache's atomic writes).
_tmp_counter = itertools.count()


def append_entry(path: Union[str, Path], entry: dict) -> dict:
    """Append one bench entry to ``path`` and return the full document.

    The write is crash-safe: the new document lands in a unique temp
    file in the same directory and is moved over the old one with
    ``os.replace``, so an interrupted bench run (ctrl-C, OOM-kill mid
    ``write_text``) can truncate the temp file but never the history —
    a half-written JSON file would lose every prior entry.
    """
    path = Path(path)
    data = json.loads(path.read_text()) if path.exists() else {"entries": []}
    data["entries"].append(entry)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{next(_tmp_counter)}.tmp")
    try:
        tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise
    return data
