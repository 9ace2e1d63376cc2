"""Append end-to-end perfbench records to ``BENCH_e2e.json``.

Usage::

    python benchmarks/bench_e2e.py                      # this checkout
    python benchmarks/bench_e2e.py --checkout ../parent # another one
    python benchmarks/bench_e2e.py --seed 7919          # another seed
    python benchmarks/bench_e2e.py --checkout ../parent --pairs 10

Runs the ``perfbench/run.py`` of a checkout (default: this one) for
every workload its ``BENCHMARK.json`` declares, for the run length it
declares, at ``--trace 0`` (the end-to-end metrics) and ``--trace 1``
(the per-layer ones), with perfbench's ``--seed`` (default 0), and
appends one record per run to this checkout's ``BENCH_e2e.json``: the
measured checkout's git SHA and whether its tracked files other than
``BENCH_e2e.json`` had uncommitted changes, the seed, the
``perfbench-host`` facts and the final result JSON. It only calls
perfbench; ``repro bench trend BENCH_e2e.json`` reads the records.

``--pairs N`` makes a paired before/after instead, the unit of a speed
claim on a shared host: per workload of this checkout's
``BENCHMARK.json``, it runs ``--checkout`` (the parent) and this
checkout (the change) back to back at ``--trace 0``, N times,
swapping which goes first every pair, and appends one pair record per
(workload, seed): each side's SHA, dirty flag and per-run end-to-end
metric values, and under ``"pair"`` the seed, the median change/parent
``norm_wall_s`` ratio and how many pairs the change won. ``repro bench
trend`` adds no series point for a pair record (it has no
``"result"``) and judges each on its own: with ``--fail-on-regression
PCT`` a median ratio above 1 + PCT/100 fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
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


def _append(record: dict) -> None:
    data = json.loads(OUT.read_text()) if OUT.exists() else {"entries": []}
    data["entries"].append(record)
    OUT.write_text(json.dumps(data, indent=2) + "\n")


def pair_record(workload: str, seed: int, seconds: float, parent: list, change: list) -> dict:
    """One pair record from the two sides' ``measure`` records, in pair
    order. A pair is won when the change's ``norm_wall_s`` is lower."""

    def side(records: list) -> dict:
        metrics: dict = {}
        for record in records:
            for name, metric in record["result"]["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
        return {
            "sha": records[0]["sha"],
            "dirty": any(r["dirty"] for r in records),
            "correct": all(r["result"]["correct"] for r in records),
            "metrics": metrics,
        }

    before, after = side(parent), side(change)
    walls = list(zip(before["metrics"]["norm_wall_s"], after["metrics"]["norm_wall_s"]))
    return {
        "workload": workload,
        "pair": {
            "seed": seed,
            "seconds": seconds,
            "pairs": len(walls),
            "median_ratio": statistics.median(c / p for p, c in walls),
            "change_wins": sum(c < p for p, c in walls),
        },
        "parent": before,
        "change": after,
        "host": change[-1]["host"],
    }


def measure_pairs(parent: pathlib.Path, workloads: list, seconds: float, seed: int,
                  pairs: int) -> None:
    """Alternate parent and change per workload; one pair record each."""
    for workload in workloads:
        runs: dict = {parent: [], ROOT: []}
        for i in range(pairs):
            for checkout in (parent, ROOT) if i % 2 == 0 else (ROOT, parent):
                runs[checkout].append(measure(checkout, workload, 0, seconds, seed))
        record = pair_record(workload, seed, seconds, runs[parent], runs[ROOT])
        _append(record)
        summary = record["pair"]
        print(f"{workload} seed={seed} pairs={pairs}: median ratio "
              f"{summary['median_ratio']:.3f}, change won {summary['change_wins']}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=pathlib.Path, default=ROOT)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=0, metavar="N",
                        help="paired before/after: --checkout is the parent")
    args = parser.parse_args(argv)

    checkout = args.checkout.resolve()
    spec = json.loads(((ROOT if args.pairs else checkout) / "BENCHMARK.json").read_text())
    names = [wl["name"] for wl in spec["workloads"]]
    if args.pairs:
        if checkout == ROOT:
            parser.error("--pairs needs --checkout PARENT (another checkout)")
        measure_pairs(checkout, names, spec["run_seconds"], args.seed, args.pairs)
        return 0
    for name in names:
        for trace in (0, 1):
            record = measure(checkout, name, trace, spec["run_seconds"], args.seed)
            _append(record)
            print(f"{name} seed={args.seed} trace={trace}: "
                  f"{json.dumps(record['result']['metrics'])}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
