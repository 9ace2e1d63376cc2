"""Time the benchmark's set-up in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED``

Measures ``import repro``, benchmark-set and policy resolution, building
the ``JobSpec`` list (and the ``ResultCache`` on the cached workload)
and constructing the first ``Simulator`` -- everything before the first
simulated reference. Then it runs the host-speed reference
(hostspeed.py) and prints ``{"host_s": ..., "ref_ms": ...}`` as JSON.
Only ``common`` (``repro``, set resolution, spec building) is imported
inside the timed region; the harness and its profiling modules are not.
"""

import json
import shutil
import sys
import time


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    import common
    from repro import ResultCache, Simulator

    wl = common.WORKLOADS[name]
    jobs = common.jobs_for(wl, seed)
    cache_dir = common.fresh_dir("setup-cache") if wl.suite else None
    try:
        if cache_dir is not None:
            ResultCache(cache_dir)
        job = jobs[0]
        Simulator(job.system, job.policy, job.workload.build(job.system.scale_context()))
        elapsed = time.perf_counter() - start
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    import hostspeed

    print(json.dumps({"host_s": elapsed, "ref_ms": hostspeed.reference_ms()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
