"""Per-figure data assembly: one function per paper table/figure.

Every function returns plain ``{row: {column: value}}`` mappings that
:mod:`repro.analysis.tables` renders and the benchmark harness prints.
Reference counts default to :data:`DEFAULT_BENCH_REFS` (override with
the ``REPRO_REFS`` environment variable) — large enough for the scaled
working sets to cycle several times, small enough that the full
harness completes in minutes.

All comparisons follow the paper's conventions: metrics normalised to
the **non-inclusive** policy on the same workload; WL/WH classification
by relative write traffic under exclusion.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence, Tuple

from ..core.policies import (
    HOMOGENEOUS_POLICIES,
    HYBRID_POLICIES,
    LAP_VARIANTS,
    LHYBRID_STAGES,
)
from ..energy import PUBLISHED_CONFIGS, RAW_TABLE1, SRAM, STT_RAM
from ..sim.results import RunResult
from ..sim.runner import (
    benchmarks_builder,
    duplicate_builder,
    mix_builder,
    multithreaded_builder,
    normalized,
    run_matrix,
    run_policies,
)
from ..sim.simulator import simulate
from ..sim.system import SystemConfig
from ..workloads.mixes import TABLE3_MIXES, TABLE3_ORDER, make_table3_mix
from ..workloads.parsec import PARSEC_ORDER
from ..workloads.spec import PAPER_BENCHMARK_ORDER

DEFAULT_BENCH_REFS = int(os.environ.get("REPRO_REFS", "30000"))

Rows = Dict[str, Dict[str, float]]


# ---------------------------------------------------------------------------
# Tables I–IV (static regenerations)
# ---------------------------------------------------------------------------


def table1_rows() -> List[List]:
    """Table I: 2MB SRAM vs STT-RAM bank characteristics."""
    rows = []
    metrics = [
        ("Area (mm2)", "area_mm2"),
        ("Read latency (ns)", "read_latency_ns"),
        ("Write latency (ns)", "write_latency_ns"),
        ("Read energy (nJ/access)", "read_energy_nj"),
        ("Write energy (nJ/access)", "write_energy_nj"),
        ("Leakage power (mW)", "leakage_mw"),
    ]
    for label, key in metrics:
        rows.append([label, RAW_TABLE1["sram"][key], RAW_TABLE1["stt"][key]])
    return rows


def table2_rows(system: SystemConfig) -> List[List]:
    """Table II: system configuration of one SystemConfig."""
    h = system.hierarchy
    llc = h.llc
    rows = [
        ["cores", h.ncores],
        ["block size (B)", h.block_size],
        ["L1 per core (B)", h.l1.size_bytes],
        ["L1 assoc / latency", f"{h.l1.assoc}-way / {h.l1.latency} cyc"],
        ["L2 per core (B)", h.l2.size_bytes],
        ["L2 assoc / latency", f"{h.l2.assoc}-way / {h.l2.latency} cyc"],
        ["L3 shared (B)", llc.size_bytes],
        ["L3 assoc / banks", f"{llc.assoc}-way / {llc.banks} banks"],
        ["L3 technology", llc.tech.name + (f" (+{llc.sram_ways} SRAM ways)" if llc.is_hybrid else "")],
        ["L3 read/write latency", f"{llc.tech.read_latency_cycles}/{llc.tech.write_latency_cycles} cyc"],
        ["memory latency (cyc)", h.mem_latency],
    ]
    return rows


def table3_rows() -> List[List]:
    """Table III: the ten selected workload mixes."""
    return [[name, ", ".join(TABLE3_MIXES[name])] for name in TABLE3_ORDER]


def table4_rows() -> List[List]:
    """Table IV: evaluated policies."""
    return [
        ["non-inclusive", "baseline inclusion property"],
        ["exclusive", "exclusive policy used in commercial products"],
        ["flexclusion", "dynamic noni/ex switching on capacity & bandwidth"],
        ["dswitch", "dynamic noni/ex switching aware of LLC writes"],
        ["lap-lru", "LAP with LRU replacement"],
        ["lap-loop", "LAP always evicting non-loop-blocks first"],
        ["lap", "LAP with set-dueling replacement"],
        ["lhybrid", "LAP + loop-aware placement for hybrid LLCs"],
    ]


# ---------------------------------------------------------------------------
# Motivation figures (2, 4, 6) — single benchmarks, duplicate copies
# ---------------------------------------------------------------------------


def fig2_motivation(
    refs: int = DEFAULT_BENCH_REFS,
    benchmarks: Sequence[str] = PAPER_BENCHMARK_ORDER,
) -> Tuple[Rows, Rows]:
    """Fig. 2: exclusive vs non-inclusive EPI in SRAM and STT-RAM LLCs.

    Returns (sram_rows, stt_rows); each row holds the exclusive
    policy's EPI normalised to non-inclusive plus relative misses and
    writes (Fig. 2c).
    """
    sram_sys = SystemConfig.scaled(tech=SRAM)
    stt_sys = SystemConfig.scaled(tech=STT_RAM)
    sram_rows: Rows = {}
    stt_rows: Rows = {}
    for bench in benchmarks:
        builder = duplicate_builder(bench)
        sram_res = run_policies(sram_sys, ("non-inclusive", "exclusive"), builder, refs)
        stt_res = run_policies(stt_sys, ("non-inclusive", "exclusive"), builder, refs)
        sram_rows[bench] = {
            "ex_epi": normalized(sram_res, "epi")["exclusive"],
            "ex_static_epi": normalized(sram_res, "static_epi")["exclusive"],
        }
        stt_rows[bench] = {
            "ex_epi": normalized(stt_res, "epi")["exclusive"],
            "rel_misses": normalized(stt_res, "llc_misses")["exclusive"],
            "rel_writes": normalized(stt_res, "llc_writes")["exclusive"],
        }
    return sram_rows, stt_rows


def fig4_loop_blocks(
    refs: int = DEFAULT_BENCH_REFS,
    benchmarks: Sequence[str] = PAPER_BENCHMARK_ORDER,
) -> Rows:
    """Fig. 4: loop-block fraction and CTC bucket shares per benchmark."""
    system = SystemConfig.scaled()
    rows: Rows = {}
    for bench in benchmarks:
        res = run_policies(system, ("non-inclusive",), duplicate_builder(bench), refs)
        r = res["non-inclusive"]
        buckets = {f"share[{k}]": v for k, v in _ctc_shares(r).items()}
        rows[bench] = {"loop_fraction": r.loop_block_fraction, **buckets}
    return rows


def _ctc_shares(result: RunResult) -> Dict[str, float]:
    buckets = result.loop.ctc_buckets()
    total = sum(buckets.values())
    if total == 0:
        return {k: 0.0 for k in buckets}
    return {k: v / total for k, v in buckets.items()}


def fig6_redundant_fill(
    refs: int = DEFAULT_BENCH_REFS,
    benchmarks: Sequence[str] = PAPER_BENCHMARK_ORDER,
) -> Rows:
    """Fig. 6: fraction of redundant LLC data-fills (non-inclusive)."""
    system = SystemConfig.scaled()
    rows: Rows = {}
    for bench in benchmarks:
        res = run_policies(system, ("non-inclusive",), duplicate_builder(bench), refs)
        rows[bench] = {"redundant_fill_fraction": res["non-inclusive"].redundant_fill_fraction}
    return rows


# ---------------------------------------------------------------------------
# Mix-level evaluation (Figs. 12–19)
# ---------------------------------------------------------------------------


def _mix_results(
    system: SystemConfig,
    policies: Sequence[str],
    refs: int,
    mixes: Sequence[str] = TABLE3_ORDER,
) -> Dict[str, Dict[str, RunResult]]:
    return run_matrix(system, policies, {mix: mix_builder(mix) for mix in mixes}, refs)


def fig12_noni_vs_ex(
    refs: int = DEFAULT_BENCH_REFS,
    mixes: Sequence[str] = TABLE3_ORDER,
) -> Tuple[Rows, Rows]:
    """Fig. 12: exclusive EPI normalised to non-inclusive, SRAM vs STT,
    with the static/dynamic breakdown of the STT runs."""
    sram_sys = SystemConfig.scaled(tech=SRAM)
    stt_sys = SystemConfig.scaled(tech=STT_RAM)
    sram_rows: Rows = {}
    stt_rows: Rows = {}
    for mix in mixes:
        sres = run_policies(sram_sys, ("non-inclusive", "exclusive"), mix_builder(mix), refs)
        tres = run_policies(stt_sys, ("non-inclusive", "exclusive"), mix_builder(mix), refs)
        sram_rows[mix] = {"ex_epi": normalized(sres, "epi")["exclusive"]}
        noni, ex = tres["non-inclusive"], tres["exclusive"]
        stt_rows[mix] = {
            "ex_epi": ex.epi / noni.epi,
            "noni_static_share": noni.energy.static_share,
            "ex_static_share": ex.energy.static_share,
            "rel_writes": ex.llc_writes / max(1, noni.llc_writes),
        }
    return sram_rows, stt_rows


def fig13_scatter(
    refs: int = DEFAULT_BENCH_REFS,
    mixes: Sequence[str] = TABLE3_ORDER,
) -> Rows:
    """Fig. 13: relative misses (Mrel) vs relative writes (Wrel) of the
    exclusive LLC, with which policy each mix favours."""
    system = SystemConfig.scaled()
    rows: Rows = {}
    for mix in mixes:
        res = run_policies(system, ("non-inclusive", "exclusive"), mix_builder(mix), refs)
        noni, ex = res["non-inclusive"], res["exclusive"]
        mrel = ex.llc_misses / max(1, noni.llc_misses)
        wrel = ex.llc_writes / max(1, noni.llc_writes)
        rows[mix] = {
            "Mrel": mrel,
            "Wrel": wrel,
            "ex_epi": ex.epi / noni.epi,
            "favors_exclusion": 1.0 if ex.epi < noni.epi else 0.0,
        }
    return rows


def fig14_policy_comparison(
    refs: int = DEFAULT_BENCH_REFS,
    mixes: Sequence[str] = TABLE3_ORDER,
    policies: Sequence[str] = HOMOGENEOUS_POLICIES,
) -> Tuple[Rows, Rows, Rows]:
    """Fig. 14: overall EPI, dynamic EPI, and throughput per policy,
    all normalised to the non-inclusive STT-RAM LLC."""
    system = SystemConfig.scaled()
    matrix = _mix_results(system, policies, refs, mixes)
    epi: Rows = {}
    dyn: Rows = {}
    perf: Rows = {}
    for mix, res in matrix.items():
        epi[mix] = normalized(res, "epi")
        dyn[mix] = normalized(res, "dynamic_epi")
        perf[mix] = normalized(res, "throughput")
    return epi, dyn, perf


def fig15_write_breakdown(
    refs: int = DEFAULT_BENCH_REFS,
    mixes: Sequence[str] = TABLE3_ORDER,
    policies: Sequence[str] = ("non-inclusive", "exclusive", "lap"),
) -> Rows:
    """Fig. 15: LLC write classes per policy, normalised to the
    non-inclusive policy's total writes."""
    system = SystemConfig.scaled()
    rows: Rows = {}
    for mix, res in _mix_results(system, policies, refs, mixes).items():
        base = max(1, res["non-inclusive"].llc_writes)
        for policy in policies:
            b = res[policy].write_breakdown()
            rows[f"{mix}/{policy}"] = {
                "fill": b["llc_data_fill"] / base,
                "l2_dirty": b["l2_dirty"] / base,
                "l2_clean": b["l2_clean"] / base,
                "total": res[policy].llc_writes / base,
            }
    return rows


def fig16_loop_occupancy(
    refs: int = DEFAULT_BENCH_REFS,
    mixes: Sequence[str] = TABLE3_ORDER,
    policies: Sequence[str] = HOMOGENEOUS_POLICIES,
) -> Rows:
    """Fig. 16: share of LLC writes that redundantly re-insert
    loop-blocks (the energy-harmful writes each policy leaves behind).

    Operational definition: a clean-victim data write whose block had
    already completed at least one clean L2↔LLC trip. Non-inclusion
    never writes clean victims (share 0 by construction); exclusion
    re-inserts every travelling loop-block; the switching policies
    eliminate part of them; LAP's duplicate check eliminates most.
    """
    system = SystemConfig.scaled()
    rows: Rows = {}
    for mix, res in _mix_results(system, policies, refs, mixes).items():
        rows[mix] = {p: res[p].loop_reinsertion_share for p in policies}
    return rows


def fig17_redundant_fill_mixes(
    refs: int = DEFAULT_BENCH_REFS,
    mixes: Sequence[str] = TABLE3_ORDER,
) -> Rows:
    """Fig. 17: redundant-fill fraction of the non-inclusive LLC per mix."""
    system = SystemConfig.scaled()
    rows: Rows = {}
    for mix in mixes:
        res = run_policies(system, ("non-inclusive",), mix_builder(mix), refs)["non-inclusive"]
        rows[mix] = {"redundant_fill_fraction": res.redundant_fill_fraction}
    return rows


def fig18_mpki(
    refs: int = DEFAULT_BENCH_REFS,
    mixes: Sequence[str] = TABLE3_ORDER,
    policies: Sequence[str] = ("non-inclusive", "exclusive", "lap"),
) -> Rows:
    """Fig. 18: LLC MPKI normalised to the non-inclusive policy."""
    system = SystemConfig.scaled()
    rows: Rows = {}
    for mix, res in _mix_results(system, policies, refs, mixes).items():
        rows[mix] = normalized(res, "mpki")
    return rows


def fig19_lap_variants(
    refs: int = DEFAULT_BENCH_REFS,
    mixes: Sequence[str] = TABLE3_ORDER,
    policies: Sequence[str] = ("non-inclusive",) + LAP_VARIANTS,
) -> Rows:
    """Fig. 19: LAP-LRU vs LAP-Loop vs LAP overall EPI (normalised)."""
    system = SystemConfig.scaled()
    rows: Rows = {}
    for mix, res in _mix_results(system, policies, refs, mixes).items():
        rows[mix] = {p: v for p, v in normalized(res, "epi").items() if p != "non-inclusive"}
    return rows


# ---------------------------------------------------------------------------
# Multithreaded (Fig. 20)
# ---------------------------------------------------------------------------


def fig20_multithreaded(
    refs: int = DEFAULT_BENCH_REFS,
    benchmarks: Sequence[str] = PARSEC_ORDER,
    policies: Sequence[str] = ("non-inclusive", "exclusive", "flexclusion", "dswitch", "lap"),
) -> Tuple[Rows, Rows, Rows]:
    """Fig. 20: total LLC energy, performance (1/latency), and snoop
    traffic on PARSEC-like workloads, normalised to non-inclusion."""
    system = SystemConfig.scaled()
    energy: Rows = {}
    perf: Rows = {}
    snoop: Rows = {}
    for bench in benchmarks:
        res = run_policies(system, policies, multithreaded_builder(bench), refs)
        noni = res["non-inclusive"]
        energy[bench] = {p: res[p].total_energy / noni.total_energy for p in policies}
        perf[bench] = {p: noni.latency / res[p].latency for p in policies}
        snoop[bench] = {
            p: res[p].snoop_traffic / max(1, noni.snoop_traffic)
            for p in ("non-inclusive", "exclusive", "lap")
            if p in res
        }
    return energy, perf, snoop


# ---------------------------------------------------------------------------
# Sensitivity studies (Figs. 21–23)
# ---------------------------------------------------------------------------


def fig21_capacity_ratio(
    refs: int = DEFAULT_BENCH_REFS,
    mixes: Sequence[str] = ("WL2", "WL4", "WH1", "WH5"),
    policies: Sequence[str] = ("non-inclusive", "exclusive", "dswitch", "lap"),
) -> Rows:
    """Fig. 21: LLC EPI vs L2:L3 capacity ratio.

    (a) varies the private L2 (ratios 1:8, 1:4, 1:2 at fixed LLC);
    (b) enlarges the LLC (iso-geometry stand-ins for 16/24 MB LLCs).
    """
    configs = {
        "L2:L3=1:8": SystemConfig.scaled(l2_kb=4, llc_kb=128),
        "L2:L3=1:4": SystemConfig.scaled(l2_kb=8, llc_kb=128),
        "L2:L3=1:2": SystemConfig.scaled(l2_kb=16, llc_kb=128),
        "2x LLC": SystemConfig.scaled(l2_kb=8, llc_kb=256),
    }
    # The workloads are FIXED at the baseline geometry: the paper varies
    # the caches under the same applications, so region sizes must not
    # re-scale with the swept L2/LLC capacities. A workload that is no
    # function of its system has no JobSpec, so these runs simulate
    # directly instead of going through the engine and its cache.
    base_ctx = SystemConfig.scaled().scale_context()
    rows: Rows = {}
    for label, system in configs.items():
        acc: Dict[str, float] = {p: 0.0 for p in policies}
        for mix in mixes:
            res = {
                p: simulate(system, p, make_table3_mix(mix, base_ctx, seed=0), refs)
                for p in policies
            }
            norm = normalized(res, "epi")
            for p in policies:
                acc[p] += norm[p] / len(mixes)
        rows[label] = acc
    return rows


def fig22_core_count(
    refs: int = DEFAULT_BENCH_REFS,
    policies: Sequence[str] = ("non-inclusive", "exclusive", "dswitch", "lap"),
) -> Rows:
    """Fig. 22: 4-core vs 8-core LLC EPI (fixed cache sizes)."""
    mixes4 = [TABLE3_MIXES[m] for m in ("WL2", "WH1")]
    rows: Rows = {}
    for ncores in (4, 8):
        system = SystemConfig.scaled(ncores=ncores)
        acc: Dict[str, float] = {p: 0.0 for p in policies}
        for benchmarks in mixes4:
            # replicate the 4-benchmark mix across 8 cores
            benchlist = list(benchmarks) * (ncores // 4)
            res = run_policies(
                system, policies, benchmarks_builder(benchlist), refs
            )
            norm = normalized(res, "epi")
            for p in policies:
                acc[p] += norm[p] / len(mixes4)
        rows[f"{ncores}-core"] = acc
    return rows


def fig23_energy_ratio(
    refs: int = DEFAULT_BENCH_REFS,
    ratios: Sequence[float] = (2, 3.3, 5, 8, 12, 16, 20, 25),
    mixes: Sequence[str] = ("WL2", "WH1", "WH5"),
    include_published: bool = True,
) -> Tuple[Rows, Rows]:
    """Fig. 23: LAP's EPI savings over non-inclusion as the write/read
    energy ratio scales, plus the published STT-RAM design points."""
    curve: Rows = {}
    for ratio in ratios:
        system = SystemConfig.scaled(tech=STT_RAM.with_write_read_ratio(ratio))
        saving = _avg_lap_saving(system, mixes, refs)
        curve[f"ratio={ratio:g}"] = {"write_read_ratio": ratio, "epi_saving": saving}
    published: Rows = {}
    if include_published:
        for cfg in PUBLISHED_CONFIGS:
            system = SystemConfig.scaled(tech=cfg.technology())
            saving = _avg_lap_saving(system, mixes, refs)
            published[cfg.label] = {
                "write_read_ratio": cfg.write_read_ratio,
                "epi_saving": saving,
                "on_curve": 1.0 if cfg.on_curve else 0.0,
            }
    return curve, published


def _avg_lap_saving(system: SystemConfig, mixes: Sequence[str], refs: int) -> float:
    total = 0.0
    for mix in mixes:
        res = run_policies(system, ("non-inclusive", "lap"), mix_builder(mix), refs)
        noni, lap = res["non-inclusive"], res["lap"]
        total += 1.0 - lap.epi / noni.epi
    return total / len(mixes)


# ---------------------------------------------------------------------------
# Hybrid LLC (Figs. 24–25)
# ---------------------------------------------------------------------------


def fig24_hybrid(
    refs: int = DEFAULT_BENCH_REFS,
    mixes: Sequence[str] = TABLE3_ORDER,
    policies: Sequence[str] = HYBRID_POLICIES,
) -> Rows:
    """Fig. 24: hybrid-LLC EPI per policy, normalised to non-inclusion."""
    system = SystemConfig.scaled(hybrid=True)
    rows: Rows = {}
    for mix, res in _mix_results(system, policies, refs, mixes).items():
        rows[mix] = normalized(res, "epi")
    return rows


def fig25_lhybrid_stages(
    refs: int = DEFAULT_BENCH_REFS,
    mixes: Sequence[str] = TABLE3_ORDER,
    policies: Sequence[str] = LHYBRID_STAGES,
) -> Rows:
    """Fig. 25: Lhybrid placement-stage ablation (normalised EPI)."""
    system = SystemConfig.scaled(hybrid=True)
    rows: Rows = {}
    matrix = _mix_results(system, ("non-inclusive",) + tuple(policies), refs, mixes)
    for mix, res in matrix.items():
        rows[mix] = {p: v for p, v in normalized(res, "epi").items() if p != "non-inclusive"}
    return rows
