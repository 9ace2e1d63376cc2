"""Hot-path throughput benchmarking across instrumentation specs.

One bench run measures the simulation rate (accesses/sec, best of
``reps`` to shed scheduler noise) for each requested policy under both
instrumentation specs (``"default"``: the paper's probes, as every
shipped path runs; ``"none"``: probe-free), and appends the result as
one timestamped entry to ``BENCH_hotpath.json``. The entry format is append-only
history: re-running the bench never overwrites earlier measurements,
so before/after comparisons across refactors stay in the file.

File schema (version 2)::

    {
      "schema": 2,
      "legacy": {...},          # the pre-refactor flat record, if any
      "entries": [
        {
          "timestamp": "2026-10-17T02:29:22Z",
          "workload": "WL1", "refs_per_core": 30000, "reps": 5,
          "backends": ["object"],
          "instrumentation": ["default", "none"],
          "accesses_per_sec": {
            "default": {"lap": {"object": <rate>}},
            "none": {"lap": {"object": <rate>}}
          },
          "host_ref_ms": {      # host-speed reading per cell, same shape
            "default": {"lap": {"object": <ms>}}, ...
          },
          ...
        }, ...
      ]
    }

Entries written before the instrumentation axis existed have no
``"instrumentation"`` key and a flat ``{policy: {backend: rate}}``
``accesses_per_sec``; they were all probe-free, and
:func:`repro.obs.trend.entry_rates` reads them as ``"none"``. (In those
entries the ``object`` column is the generic per-reference loop; since
the batched kernel checks out from the object store, it is the kernel.)
The per-cell ``"object"`` key and the ``"backends"`` list are kept so
the whole history reads alike; entries from before the numpy layout was
removed also hold ``"soa"`` columns, which stay as frozen history.

A version-1 file (one flat dict, no ``entries``) is migrated in place
on first append: the old record moves under ``"legacy"``.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Sequence, Union

from .obs.trend import entry_rates
from .sim.simulator import Simulator
from .sim.system import SystemConfig

#: the kernel-eligible policies the hot-path bench tracks by default —
#: one per batched-kernel flow (non-inclusion, exclusion, LAP; the
#: switchers run the first two).
BENCH_POLICIES = ("non-inclusive", "exclusive", "lap")

#: instrumentation specs benched by default: the shipped configuration
#: and the probe-free one.
BENCH_INSTRUMENTATION = ("default", "none")

#: the one tag layout; entries keep it as their column key
BACKEND = "object"

DEFAULT_REFS = 30_000
DEFAULT_REPS = 5


def measure_throughput(
    system: SystemConfig,
    policy: str,
    workload_name: str = "WL1",
    refs_per_core: int = DEFAULT_REFS,
    reps: int = DEFAULT_REPS,
    seed: int = 7,
) -> float:
    """Best-of-``reps`` accesses/sec for one (policy, system).

    Each rep builds a fresh simulator (cold caches — the measurement is
    of the engine, not of a warmed state) and times ``Simulator.run``
    wall-to-wall, workload generation included. Best-of is deliberate:
    the floor of a throughput measurement is noise, the ceiling is the
    engine.
    """
    from .workloads.mixes import make_table3_mix

    best = 0.0
    for _ in range(max(1, reps)):
        workload = make_table3_mix(workload_name, system.scale_context(), seed=seed)
        sim = Simulator(system, policy, workload)
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
    """Measure every (instrumentation, policy) cell, over
    :data:`BENCH_INSTRUMENTATION`, and return one bench entry.

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
        base = replace(SystemConfig.scaled(), instrumentation=spec)
        rates[spec] = {}
        refs[spec] = {}
        for policy in policies:
            rate = measure_throughput(
                base,
                policy,
                workload_name=workload,
                refs_per_core=refs_per_core,
                reps=reps,
                seed=seed,
            )
            after = host_reference_ms()
            rates[spec][policy] = {BACKEND: round(rate)}
            refs[spec][policy] = {BACKEND: round((before + after) / 2, 3)}
            before = after
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": workload,
        "refs_per_core": refs_per_core,
        "reps": reps,
        "seed": seed,
        "backends": [BACKEND],
        "instrumentation": list(BENCH_INSTRUMENTATION),
        "accesses_per_sec": rates,
        "host_ref_ms": refs,
    }


def load_bench_file(path: Union[str, Path]) -> dict:
    """Read ``BENCH_hotpath.json`` in schema-2 form (migrating v1)."""
    path = Path(path)
    if not path.exists():
        return {"schema": 2, "entries": []}
    data = json.loads(path.read_text())
    if "entries" not in data:
        # Version-1 flat record: preserve it under "legacy".
        data = {"schema": 2, "legacy": data, "entries": []}
    data.setdefault("schema", 2)
    return data


#: Per-process uniquifier for bench temp files (same pattern as the
#: result cache's atomic writes).
_tmp_counter = itertools.count()


def append_entry(path: Union[str, Path], entry: dict) -> dict:
    """Append one bench entry to ``path`` and return the full document.

    The write is crash-safe: the new document lands in a unique temp
    file in the same directory and is moved over the old one with
    ``os.replace``, so an interrupted bench run (ctrl-C, OOM-kill mid
    ``write_text``) can truncate the temp file but never the history —
    ``BENCH_hotpath.json`` is the repo's only append-only perf record
    and a half-written JSON file would lose every prior entry.
    """
    path = Path(path)
    data = load_bench_file(path)
    data["entries"].append(entry)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{next(_tmp_counter)}.tmp")
    try:
        tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise
    return data


def entry_rows(entry: dict) -> List[list]:
    """Flatten one entry into (policy, instrumentation, backend...) rows."""
    backends = entry["backends"]
    rows = []
    for spec, per_policy in entry_rates(entry).items():
        for policy, rates in sorted(per_policy.items()):
            rows.append([policy, spec, *(rates.get(b, "-") for b in backends)])
    return rows
