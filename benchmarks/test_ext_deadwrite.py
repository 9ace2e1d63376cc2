"""Extension: dead-write bypass composed with LAP (paper Section VII).

The paper states that DASCA-style dead-write bypassing "is orthogonal
to our selective inclusion policies and can be combined with our
approaches to further reduce the dynamic energy consumption". This
benchmark quantifies the combination on streaming-heavy and loop-heavy
mixes.
"""

from conftest import run_once

from repro.analysis.figures import DEFAULT_BENCH_REFS
from repro.analysis.tables import render_mapping_table, summarize_columns
from repro.exec import WorkloadSpec
from repro.sim import SystemConfig, run_policies

POLICIES = ("non-inclusive", "exclusive", "exclusive+dwb", "lap", "lap+dwb")


def _measure():
    refs = max(6000, DEFAULT_BENCH_REFS // 2)
    system = SystemConfig.scaled()
    rows = {}
    for mix in ("WL2", "WL4", "WH1", "WH5"):
        res = run_policies(system, POLICIES, WorkloadSpec.mix(mix), refs)
        base = res["non-inclusive"]
        rows[mix] = {p: res[p].epi / base.epi for p in POLICIES}
        rows[mix]["lap_writes"] = res["lap"].llc_writes / max(1, base.llc_writes)
        rows[mix]["lap+dwb_writes"] = res["lap+dwb"].llc_writes / max(1, base.llc_writes)
    return rows


def test_ext_deadwrite(benchmark, emit):
    rows = run_once(benchmark, _measure)
    avg = summarize_columns(rows)
    emit(
        "ext_deadwrite",
        render_mapping_table(
            "Extension: dead-write bypass — EPI and writes normalised to "
            "non-inclusive",
            rows,
            row_label="mix",
        )
        + f"\naverages: {avg}",
    )
    # The combination must compound: LAP+DWB cuts writes below LAP alone
    # and improves (or at least preserves) LAP's energy on average.
    assert avg["lap+dwb_writes"] <= avg["lap_writes"]
    assert avg["lap+dwb"] <= avg["lap"] + 0.01
    # The bypass also rescues plain exclusion substantially.
    assert avg["exclusive+dwb"] < avg["exclusive"]
