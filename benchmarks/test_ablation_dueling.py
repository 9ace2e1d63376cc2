"""Extension ablation: set-dueling cadence for LAP.

Not a paper figure — DESIGN.md §6 calls this out: how sensitive is LAP
to the dueling interval? The 1/64 leader-set fraction the paper fixes
is not swept. The expectation is robustness: energy within a few
percent across an order of magnitude of cadence.
"""

from conftest import run_once

from repro.analysis.tables import render_mapping_table
from repro.sim import SystemConfig, run_policies
from repro.sim.runner import mix_builder

try:
    from repro.analysis.figures import DEFAULT_BENCH_REFS
except ImportError:  # pragma: no cover
    DEFAULT_BENCH_REFS = 30000

MIXES = ("WL2", "WH1")


def _sweep():
    rows = {}
    refs = max(6000, DEFAULT_BENCH_REFS // 2)
    for interval in (512, 2048, 8192):
        system = SystemConfig.scaled(duel_interval=interval)
        acc = 0.0
        for mix in MIXES:
            res = run_policies(system, ("non-inclusive", "lap"), mix_builder(mix), refs)
            acc += res["lap"].epi / res["non-inclusive"].epi / len(MIXES)
        rows[f"interval={interval}"] = {"lap_epi_vs_noni": acc}
    return rows


def test_ablation_dueling(benchmark, emit):
    rows = run_once(benchmark, _sweep)
    emit(
        "ablation_dueling",
        render_mapping_table(
            "Ablation: LAP EPI vs dueling interval "
            "(normalised to non-inclusive, WL2+WH1 average)",
            rows,
            row_label="configuration",
        ),
    )
    values = [c["lap_epi_vs_noni"] for c in rows.values()]
    assert all(v < 1.0 for v in values), "LAP must save energy at every cadence"
    assert max(values) - min(values) < 0.08, "LAP should be cadence-robust"
