"""Experiment-report assembly.

The benchmark harness writes every regenerated table/figure to
``benchmarks/results/<name>.txt``. :func:`assemble_report` stitches
those files into a single markdown report (the mechanism behind
EXPERIMENTS.md), pairing each artefact with the paper's claim so
readers can compare measured-vs-paper side by side.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import List, Sequence, Union

from ..errors import AnalysisError


@dataclass(frozen=True)
class ExperimentEntry:
    """One table/figure: its result file and the paper's claim."""

    experiment_id: str
    title: str
    paper_claim: str
    result_file: str


# The full experiment index (mirrors DESIGN.md §4).
EXPERIMENT_INDEX: Sequence[ExperimentEntry] = (
    ExperimentEntry("Table I", "Technology characteristics",
                    "STT-RAM: ~3x denser, ~7x less leakage, ~8x write energy vs SRAM.",
                    "table1_technology"),
    ExperimentEntry("Table II", "System configuration",
                    "4 cores, 32KB L1 / 512KB L2 per core, 8MB 16-way 4-bank L3.",
                    "table2_config"),
    ExperimentEntry("Table III", "Selected workload mixes",
                    "Five WL and five WH mixes of SPEC CPU2006 benchmarks.",
                    "table3_mixes"),
    ExperimentEntry("Table IV", "Evaluated policies",
                    "noni/ex baselines, FLEXclusion, Dswitch, LAP variants, Lhybrid.",
                    "table4_policies"),
    ExperimentEntry("Fig. 2", "Per-benchmark motivation",
                    "SRAM always favours exclusion; STT-RAM splits by relative writes "
                    "(omnetpp/xalancbmk favour non-inclusion; astar/zeusmp/libquantum "
                    "favour exclusion).",
                    "fig02_motivation"),
    ExperimentEntry("Fig. 3", "Redundant clean insertion walk-through",
                    "Exclusive re-inserts clean loop-blocks A and C: two extra writes "
                    "vs non-inclusive.",
                    "fig03_redundant_clean_insertion"),
    ExperimentEntry("Fig. 4", "Loop-block distribution",
                    "omnetpp/xalancbmk >60% loop-blocks, bzip2 >20%, most with CTC>=5.",
                    "fig04_loopblocks"),
    ExperimentEntry("Fig. 5", "Redundant data-fill walk-through",
                    "Fills of B and C are modified before reuse: two redundant writes "
                    "under non-inclusion.",
                    "fig05_redundant_data_fill"),
    ExperimentEntry("Fig. 6", "Redundant LLC data-fill distribution",
                    "libquantum >80% redundant fills; astar/GemsFDTD/mcf high.",
                    "fig06_redundant_fill"),
    ExperimentEntry("Fig. 12", "noni vs ex on mixes",
                    "Exclusion: -18% EPI on WL mixes, +12% on WH mixes (STT).",
                    "fig12_mixes"),
    ExperimentEntry("Section V", "The 50 random SPEC mixes",
                    "50 random combinations sorted by relative exclusive-LLC "
                    "writes; Table III picks ten representatives spanning both "
                    "classes.",
                    "random50_mixes"),
    ExperimentEntry("Fig. 13", "Mrel/Wrel scatter",
                    "Mixes separate around a negatively sloped borderline (-0.8): "
                    "higher relative writes disfavour exclusion.",
                    "fig13_scatter"),
    ExperimentEntry("Fig. 14", "Policy comparison",
                    "LAP: -20%/-12% EPI vs noni/ex on average (up to -51%/-47%), "
                    "+2% throughput vs exclusion; beats FLEXclusion and Dswitch.",
                    "fig14_policy_comparison"),
    ExperimentEntry("Fig. 15", "Write breakdown",
                    "LAP cuts write traffic -35%/-29% vs noni/ex: no fills, "
                    "fewer clean insertions.",
                    "fig15_write_breakdown"),
    ExperimentEntry("Fig. 16", "Loop-blocks in the LLC",
                    "LAP retains loop-blocks; switching policies shed some.",
                    "fig16_loopblock_elim"),
    ExperimentEntry("Fig. 17", "Redundant fills per mix",
                    "9.6% of non-inclusive fills redundant on average; >30% for some.",
                    "fig17_redundant_fill_mixes"),
    ExperimentEntry("Fig. 18", "LLC MPKI",
                    "Exclusion -23% MPKI vs noni; LAP -22% (within ~1% of exclusion).",
                    "fig18_mpki"),
    ExperimentEntry("Fig. 19", "LAP replacement variants",
                    "Neither LAP-LRU nor LAP-Loop dominates; set-dueling LAP matches "
                    "the better one per mix.",
                    "fig19_lap_variants"),
    ExperimentEntry("Fig. 20", "Multithreaded (PARSEC)",
                    "LAP: -11%/-7% energy vs noni/ex on average (streamcluster -53%); "
                    "snoop traffic tracks LLC misses.",
                    "fig20_multithreaded"),
    ExperimentEntry("Fig. 21", "L2:L3 ratio sensitivity",
                    "Exclusion/LAP savings grow with the L2:L3 ratio; LAP still saves "
                    "~10% at triple LLC capacity.",
                    "fig21_ratio_sensitivity"),
    ExperimentEntry("Fig. 22", "Core-count sensitivity",
                    "At 8 cores exclusion's capacity benefit grows; LAP saves 25%/12% "
                    "vs noni/ex.",
                    "fig22_cores"),
    ExperimentEntry("Fig. 23", "Write/read energy-ratio scaling",
                    "Savings grow with the ratio, positive already at 2x (17%); "
                    "published design points track the curve.",
                    "fig23_energy_ratio"),
    ExperimentEntry("Fig. 24", "Hybrid LLC",
                    "LAP: -15%/-8% vs noni/ex on the hybrid; Lhybrid: -22%/-15%.",
                    "fig24_hybrid"),
    ExperimentEntry("Fig. 25", "Lhybrid stage ablation",
                    "Each stage helps slightly; NloopSRAM dominates on WL3/4/5; "
                    "combined Lhybrid ~7% better than LAP.",
                    "fig25_lhybrid_ablation"),
    ExperimentEntry("Ablation A", "Set-dueling cadence (extension)",
                    "(no paper counterpart) LAP should be robust to the dueling "
                    "interval; the leader-set fraction is fixed at 1/64.",
                    "ablation_dueling"),
    ExperimentEntry("Ablation B", "Loop-bit prediction value (extension)",
                    "(no paper counterpart) loop-aware replacement must cut clean "
                    "insertions exactly where loop-blocks exist.",
                    "ablation_loopbit"),
    ExperimentEntry("Extension", "Dead-write bypass composition (Section VII)",
                    "The paper states DASCA-style dead-write bypassing is orthogonal "
                    "to LAP and composes with it for further dynamic-energy savings.",
                    "ext_deadwrite"),
    ExperimentEntry("Arena EPI", "Cross-paper policy arena: EPI (extension)",
                    "(no paper counterpart) every arena-registry policy — the LAP "
                    "families plus reuse-detector, rd-copyback and ways-off rivals — "
                    "on the Table III mixes, EPI normalised to non-inclusive.",
                    "arena_epi"),
    ExperimentEntry("Arena writes", "Cross-paper policy arena: LLC writes (extension)",
                    "(no paper counterpart) the same grid's total-LLC-write "
                    "ratios; write-avoiding rivals land between LAP and the "
                    "switching policies, ways-off trades writes for leakage.",
                    "arena_writes"),
    ExperimentEntry("Harness", "Hot-path throughput (infrastructure)",
                    "Simulator accesses/sec on WL1 for the kernel-eligible trio: "
                    "the generic per-reference loop vs the batched kernel, "
                    "with the default probes and probe-free, plus "
                    "kernel vs generic on a coherent (MOESI) PARSEC canneal run; "
                    "every run appends to BENCH_hotpath.json.",
                    "hotpath_throughput"),
    ExperimentEntry("Harness", "Benchmark-suite geomean (infrastructure)",
                    "The paper's summary statistic as a harness primitive: "
                    "`repro suite run <set>` fans a named benchmark set "
                    "through the exec pool and reports per-policy geometric "
                    "means of the metric ratios vs the baseline policy "
                    "(`make suite-demo`).",
                    "suite_geomean"),
    ExperimentEntry("Harness", "Trace diff: LAP vs non-inclusive (infrastructure)",
                    "Flight-recorder evidence for the paper's write-count claims: "
                    "on the same (workload, seed), LAP's event stream shows zero "
                    "llc_fill events (no fill-on-miss writes) where non-inclusion "
                    "pays one per LLC miss (`make trace-demo`).",
                    "trace_demo"),
)


def assemble_report(
    results_dir: Union[str, pathlib.Path],
    index: Sequence[ExperimentEntry] = EXPERIMENT_INDEX,
    title: str = "Experiment record",
    preamble: str = "",
) -> str:
    """Render a markdown report from the harness's result files.

    Missing result files are reported as *not yet regenerated* rather
    than failing, so partial harness runs still produce a useful
    document.
    """
    results_dir = pathlib.Path(results_dir)
    if not results_dir.exists():
        raise AnalysisError(
            f"results directory {results_dir} does not exist — run "
            "`pytest benchmarks/ --benchmark-only` first"
        )
    parts: List[str] = [f"# {title}", ""]
    if preamble:
        parts += [preamble.strip(), ""]
    for entry in index:
        parts.append(f"## {entry.experiment_id}: {entry.title}")
        parts.append("")
        parts.append(f"**Paper:** {entry.paper_claim}")
        parts.append("")
        path = results_dir / f"{entry.result_file}.txt"
        if path.exists():
            parts.append("**Measured:**")
            parts.append("")
            parts.append("```")
            parts.append(path.read_text().rstrip())
            parts.append("```")
        else:
            parts.append(
                f"*Not yet regenerated — run the `{entry.result_file}` benchmark.*"
            )
        parts.append("")
    return "\n".join(parts)

