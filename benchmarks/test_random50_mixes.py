"""The paper's 50 random SPEC mixes (Section V / Figs. 12-14 context).

The paper randomly chooses 50 four-benchmark combinations, sorts them by
relative exclusive-LLC write traffic, and selects Table III's ten
representatives from them. This benchmark regenerates that population:
it runs all 50 random mixes under non-inclusion and exclusion (plus LAP
on a subsample), reports the Wrel distribution and class split, and
checks that the Table III selection logic holds (both classes well
populated, favour-exclusion tracking Wrel).

Runs at a third of the standard reference count — the population's
*distribution* is the target, not per-mix precision.
"""

from conftest import run_once

from repro.analysis.figures import DEFAULT_BENCH_REFS
from repro.analysis.tables import render_table
from repro.exec import WorkloadSpec
from repro.sim import SystemConfig, run_policies
from repro.workloads import random_mixes


def _measure():
    refs = max(4000, DEFAULT_BENCH_REFS // 3)
    system = SystemConfig.scaled()
    mixes = random_mixes(count=50, seed=2016)
    rows = []
    for i, benchmarks in enumerate(mixes):
        builder = WorkloadSpec.multiprogrammed(benchmarks, seed=i, name=f"R{i:02d}")
        res = run_policies(system, ("non-inclusive", "exclusive"), builder, refs)
        noni, ex = res["non-inclusive"], res["exclusive"]
        wrel = ex.llc_writes / max(1, noni.llc_writes)
        rows.append(
            {
                "mix": f"R{i:02d}",
                "benchmarks": "+".join(b[:4] for b in benchmarks),
                "Wrel": wrel,
                "Mrel": ex.llc_misses / max(1, noni.llc_misses),
                "ex_epi": ex.epi / noni.epi,
            }
        )
    rows.sort(key=lambda r: r["Wrel"])
    return rows


def test_random50_mixes(benchmark, emit):
    rows = run_once(benchmark, _measure)
    table = render_table(
        "50 random mixes sorted by relative writes (the Table III population)",
        ["mix", "benchmarks", "Wrel", "Mrel", "ex_epi(STT)"],
        [[r["mix"], r["benchmarks"], r["Wrel"], r["Mrel"], r["ex_epi"]] for r in rows],
    )
    wl = [r for r in rows if r["Wrel"] < 1.0]
    wh = [r for r in rows if r["Wrel"] >= 1.0]
    summary = (
        f"\nWL population: {len(wl)} mixes (Wrel {wl[0]['Wrel']:.2f}.."
        f"{wl[-1]['Wrel']:.2f});  WH population: {len(wh)} mixes "
        f"(Wrel up to {wh[-1]['Wrel']:.2f})"
    )
    emit("random50_mixes", table + summary)

    # Both classes are well populated in a random draw (the paper could
    # pick five representatives of each).
    assert len(wl) >= 5 and len(wh) >= 5
    # Energy preference tracks the write ratio across the population:
    # the lowest-Wrel decile must favour exclusion, the highest must not.
    low, high = rows[:5], rows[-5:]
    assert sum(r["ex_epi"] < 1.0 for r in low) >= 4
    assert sum(r["ex_epi"] > 1.0 for r in high) >= 4
