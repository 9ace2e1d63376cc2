"""Hot-path throughput benchmarking across execution paths and
instrumentation specs.

One bench run measures the simulation rate (accesses/sec, best of
``reps`` to shed scheduler noise) for each requested policy on both
execution paths (``"kernel"``: the batched kernel every shipped path
takes; ``"generic"``: the per-reference loop,
``Simulator.enable_batch_kernel = False``) under both instrumentation
specs (``"default"``: the paper's probes; ``"none"``: probe-free).
``make bench-hotpath`` (``benchmarks/test_hotpath_throughput.py``)
appends the result as one timestamped entry to ``BENCH_hotpath.json``;
re-running never overwrites earlier measurements. The entry is a
record, not a verdict: its own in-run gates compare cells measured in
the same process, and no gate compares entries across days (a speed
claim is a paired before/after, :mod:`repro.obs.trend`).

Entry shape::

    {
      "timestamp": "2026-10-18T12:00:00Z",
      "workload": "WL1", "refs_per_core": 30000, "reps": 3, "seed": 7,
      "paths": ["kernel", "generic"],
      "instrumentation": ["default", "none"],
      "accesses_per_sec": {"default": {"lap": {"kernel": <rate>,
                                               "generic": <rate>}}, ...},
      ...                       # the benchmark's own ratios and legs
    }

The file also keeps, as frozen history, a ``"legacy"`` record, entries
from before the path axis (``"backends"`` columns ``object``/``soa``)
and entries that carry a host-speed reading per cell.
"""

from __future__ import annotations

import itertools
import json
import os
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


def run_hotpath_bench(
    policies: Sequence[str] = BENCH_POLICIES,
    *,
    workload: str = "WL1",
    refs_per_core: int = DEFAULT_REFS,
    reps: int = DEFAULT_REPS,
    seed: int = 7,
) -> dict:
    """Measure every (instrumentation, policy, path) cell and return
    one bench entry."""
    rates: Dict[str, Dict[str, Dict[str, int]]] = {}
    for spec in BENCH_INSTRUMENTATION:
        system = replace(SystemConfig.scaled(), instrumentation=spec)
        rates[spec] = {policy: {} for policy in policies}
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
                rates[spec][policy][path] = round(rate)
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": workload,
        "refs_per_core": refs_per_core,
        "reps": reps,
        "seed": seed,
        "paths": list(BENCH_PATHS),
        "instrumentation": list(BENCH_INSTRUMENTATION),
        "accesses_per_sec": rates,
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
        tmp.write_text(json.dumps(data, indent=2) + "\n")
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise
    return data
