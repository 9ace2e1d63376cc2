"""The arena grid: Fig. 14/15-style comparison across registry policies.

Extends the paper's headline comparisons beyond LAP's own variants to
every policy the registry marks as an arena member — including the
cross-paper rivals (reuse-detector, rd-copyback, ways-off). One grid
row per policy, all metrics normalised to the non-inclusive baseline
on a bit-identical trace, with the Fig. 15 write-class split expressed
as a share of the baseline's total LLC writes.

``repro compare --arena`` renders this grid for one workload;
``arena_over_mixes`` assembles the Fig. 14-shaped (mix x policy)
matrices for the experiment record.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..arena import registry
from ..errors import AnalysisError
from ..exec.jobs import WorkloadSpec
from ..sim.results import RunResult
from ..sim.runner import mix_builder, normalized, run_matrix, run_policies
from ..sim.system import SystemConfig
from ..workloads.mixes import TABLE3_ORDER

Rows = Dict[str, Dict[str, float]]

BASELINE = "non-inclusive"


def arena_policies(hybrid: bool = False) -> Tuple[str, ...]:
    """Grid membership, baseline first (the normalisation anchor)."""
    names = registry.arena_names(hybrid=hybrid)
    return (BASELINE, *[n for n in names if n != BASELINE])


def arena_grid(
    system: SystemConfig,
    workload_name: str,
    refs: int,
    *,
    seed: int = 0,
    policies: Optional[Sequence[str]] = None,
) -> Rows:
    """One workload, every arena policy: the ``--arena`` grid rows.

    Each policy replays a bit-identical trace (same workload name and
    seed). Columns: EPI, dynamic EPI, throughput and total LLC writes
    normalised to the non-inclusive baseline, plus the write-class
    split (fills / clean victims / dirty victims, as shares of the
    baseline's total writes — the Fig. 15 convention).
    """
    if policies is None:
        policies = arena_policies(hybrid=system.hierarchy.llc.sram_ways is not None)
    policies = registry.validate_names(policies)
    if BASELINE not in policies:
        raise AnalysisError(
            f"the arena grid normalises to {BASELINE!r}; include it in the policy set"
        )
    spec = WorkloadSpec.named(workload_name, system.hierarchy.ncores, seed)
    return grid_rows(run_policies(system, policies, spec, refs))


def grid_rows(results: Dict[str, RunResult]) -> Rows:
    """Normalise finished runs into grid rows (baseline must be present)."""
    base = results[BASELINE]
    base_writes = max(1, base.llc_writes)
    rows: Rows = {}
    for policy, r in results.items():
        b = r.write_breakdown()
        rows[policy] = {
            "epi": r.epi / base.epi,
            "dyn_epi": r.dynamic_epi / max(1e-30, base.dynamic_epi),
            "perf": r.throughput / max(1e-30, base.throughput),
            "llc_w": r.llc_writes / base_writes,
            "fill_w": b["llc_data_fill"] / base_writes,
            "clean_w": b["l2_clean"] / base_writes,
            "dirty_w": b["l2_dirty"] / base_writes,
        }
    return rows


def arena_over_mixes(
    refs: int,
    mixes: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
) -> Tuple[Rows, Rows]:
    """Fig. 14-shaped (mix x policy) EPI and write matrices for the
    arena set on the scaled STT-RAM system (experiment record)."""
    if mixes is None:
        mixes = TABLE3_ORDER
    if policies is None:
        policies = arena_policies()
    policies = registry.validate_names(policies)
    system = SystemConfig.scaled()
    epi: Rows = {}
    writes: Rows = {}
    builders = {mix: mix_builder(mix) for mix in mixes}
    for mix, res in run_matrix(system, policies, builders, refs).items():
        epi[mix] = normalized(res, "epi")
        base_writes = max(1, res[BASELINE].llc_writes)
        writes[mix] = {p: res[p].llc_writes / base_writes for p in policies}
    return epi, writes
