"""Append end-to-end perfbench records to ``BENCH_e2e.json``.

Usage::

    python benchmarks/bench_e2e.py                      # this checkout
    python benchmarks/bench_e2e.py --checkout ../parent # another one
    python benchmarks/bench_e2e.py --seed 7919          # another seed

Runs the ``perfbench/run.py`` of a checkout (default: this one) for
every workload its ``BENCHMARK.json`` declares, for the run length it
declares, at ``--trace 0`` (the end-to-end metrics) and ``--trace 1``
(the per-layer ones), with perfbench's ``--seed`` (default 0), and
appends one record per run to this checkout's ``BENCH_e2e.json``: the
measured checkout's git SHA and whether its tracked files other than
``BENCH_e2e.json`` had uncommitted changes, the seed, the
``perfbench-host`` facts and the final result JSON. It only calls
perfbench; ``repro bench trend BENCH_e2e.json`` reads the records.
Measuring a parent checkout and a change back to back, on the same
host and seed, gives a before/after pair.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_e2e.json"


def _dirty(checkout: pathlib.Path) -> bool:
    """Whether a tracked file other than ``BENCH_e2e.json`` has
    uncommitted changes: the record is left out because a before/after
    pair appends to it between the two runs."""
    proc = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=no",
         "--", ".", f":(exclude){OUT.name}"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    return proc.returncode != 0 or bool(proc.stdout.strip())


def measure(
    checkout: pathlib.Path, workload: str, trace: int, seconds: float, seed: int
) -> dict:
    """One perfbench run as a ``BENCH_e2e.json`` record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--trace", str(trace), "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("perfbench-host "):
        raise RuntimeError(
            f"perfbench {workload} --trace {trace} failed ({proc.returncode}): "
            f"{proc.stderr.strip()[-2000:]}"
        )
    host = json.loads(lines[-2][len("perfbench-host "):])
    return {
        "sha": host["git_sha"],
        "dirty": _dirty(checkout),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "host": host,
        "result": json.loads(lines[-1]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=pathlib.Path, default=ROOT)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    for wl in spec["workloads"]:
        for trace in (0, 1):
            record = measure(checkout, wl["name"], trace, spec["run_seconds"], args.seed)
            data = json.loads(OUT.read_text()) if OUT.exists() else {"entries": []}
            data["entries"].append(record)
            OUT.write_text(json.dumps(data, indent=2) + "\n")
            print(f"{wl['name']} seed={args.seed} trace={trace}: "
                  f"{json.dumps(record['result']['metrics'])}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
