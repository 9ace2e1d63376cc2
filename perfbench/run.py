"""The repo benchmark: end-to-end and per-layer metrics per workload.

Usage::

    python3 perfbench/run.py --workload suite-paper --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload kernel-grid --seed 0 --record-digest

Run it from the root of a checkout; it imports the simulator from that
checkout's ``src/``. Progress goes to stderr. Stdout ends with a
``perfbench-host {...}`` line (host facts) and then one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, the
``per_layer`` ones with ``--trace 1``. ``--record-digest`` stores the
results digest of one iteration for the given seed in digests.json
instead of measuring. Without importable sources it exits 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
from typing import Callable, Dict, Tuple

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"

#: Fresh-interpreter set-ups per ``--trace 0`` run; ``setup_s`` is their
#: median time, normalised by their median host-speed reference.
SETUP_REPEATS = 11
#: Seed 7919 is held out (README.md): check later speed claims on it too.
DEFAULT_SEED = 0


def metric_units(section: str) -> Dict[str, str]:
    """``{name: unit}`` for one metric section of BENCHMARK.json."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def probe_setup(workload: str, seed: int) -> Dict[str, float]:
    """One fresh-interpreter set-up time and the host-speed reference
    right after it (see setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def run(
    wl, seed: int, seconds: float, trace: bool,
    setup_repeats: int = SETUP_REPEATS,
    log: Callable[[str], None] = lambda line: None,
) -> Tuple[Dict, object]:
    """Measure one workload; returns the result object and the
    :class:`harness.Measurement` behind it."""
    import harness
    import hostspeed

    setups = [] if trace else [probe_setup(wl.name, seed) for _ in range(setup_repeats)]
    measurement = harness.measure(wl, seed, seconds, trace, log=log)
    values = dict(measurement.metrics)
    if not trace:
        values["setup_s"] = hostspeed.normalise(
            statistics.median(s["host_s"] for s in setups),
            statistics.median(s["ref_ms"] for s in setups),
        )
    units = metric_units("per_layer" if trace else "end_to_end")
    result = {
        "correct": measurement.correct,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    return result, measurement


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # The simulator honours REPRO_* variables (tag backend, cache dir,
    # spans, corpus); a run must not depend on the caller's environment.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    try:
        import harness
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from this checkout: {exc}",
              file=sys.stderr)
        return 2
    wl = harness.WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(harness.WORKLOADS)}")
    harness.WORK.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(harness.WORK)

    if args.record_digest:
        print(harness.record_digest(wl, args.seed))
        return 0

    def log(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    result, measurement = run(wl, args.seed, args.seconds, bool(args.trace), log=log)
    host = harness.host_facts()
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "digest": measurement.digest,
        "iterations": measurement.iterations, **result,
    }
    (harness.WORK / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print("perfbench-host " + json.dumps(host))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
