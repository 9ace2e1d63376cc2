"""Extension ablation: loop-bit prediction quality.

Not a paper figure — DESIGN.md §6. The paper's single loop-bit predicts
"will travel clean again" from "travelled clean once". This ablation
quantifies the prediction's value by comparing:

- LAP with the loop-bit-driven replacement (``lap-loop``),
- LAP with recency-only replacement (``lap-lru``), and
- the selective-inclusion data flow under both,

on a loop-dominated mix (WH5) and a streaming mix (WL2). The loop-bit
should pay off exactly where loop-blocks exist.
"""

from conftest import run_once

from repro.analysis.figures import DEFAULT_BENCH_REFS
from repro.analysis.tables import render_mapping_table
from repro.exec import WorkloadSpec
from repro.sim import SystemConfig, run_policies


def _measure():
    refs = max(6000, DEFAULT_BENCH_REFS // 2)
    system = SystemConfig.scaled()
    rows = {}
    for mix in ("WH5", "WL2"):
        res = run_policies(
            system, ("non-inclusive", "lap-lru", "lap-loop"), WorkloadSpec.mix(mix), refs
        )
        base = res["non-inclusive"]
        rows[mix] = {
            "lap-lru_epi": res["lap-lru"].epi / base.epi,
            "lap-loop_epi": res["lap-loop"].epi / base.epi,
            "lap-lru_clean_writes": res["lap-lru"].llc.clean_victim_writes,
            "lap-loop_clean_writes": res["lap-loop"].llc.clean_victim_writes,
        }
    return rows


def test_ablation_loopbit(benchmark, emit):
    rows = run_once(benchmark, _measure)
    emit(
        "ablation_loopbit",
        render_mapping_table(
            "Ablation: value of the loop-bit prediction "
            "(loop-aware vs recency-only replacement under LAP's data flow)",
            rows,
            row_label="mix",
        ),
    )
    # On the loop-heavy mix, protecting predicted loop-blocks must cut
    # redundant clean insertions relative to recency-only replacement.
    wh = rows["WH5"]
    assert wh["lap-loop_clean_writes"] < wh["lap-lru_clean_writes"]
    # Both variants still save energy overall on both mixes.
    for mix, cols in rows.items():
        assert cols["lap-lru_epi"] < 1.0 and cols["lap-loop_epi"] < 1.0, mix
