"""Section II workload traits, measured and checked against declarations.

:func:`measure_benchmark` is the one code that runs a workload's
non-inclusive/exclusive pair and derives the traits the paper motivates
LAP with: the loop-block fraction and its clean-trip-count split
(Fig. 4), the redundant LLC data-fill fraction (Fig. 6), and exclusion's
relative misses and writes (Mrel/Wrel, Fig. 2c), which decide the WL/WH
class and the favoured inclusion property. Each SPEC-like benchmark in
:mod:`repro.workloads.spec` also declares traits; a report checks them,
so a region retuning that breaks one fails ``repro characterize`` (its
printer) and the test suite rather than a figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..analysis.metrics import classify_wl_wh, favors_exclusion
from ..exec.jobs import DUPLICATE, WorkloadSpec
from ..sim.runner import run_policies
from ..sim.system import SystemConfig
from .spec import (
    PAPER_BENCHMARK_ORDER,
    TRAIT_LOOP_HEAVY,
    TRAIT_REDUNDANT_FILL,
    TRAIT_WRITE_HEAVY_EX,
    TRAIT_WRITE_LIGHT_EX,
    get_benchmark,
)

# Measured thresholds for each declared trait.
LOOP_HEAVY_MIN = 0.20  # Fig. 4: ">20% loop-blocks"
REDUNDANT_FILL_MIN = 0.25  # Fig. 6: visibly redundant-fill-heavy
WREL_TOLERANCE = 0.05  # slack around Wrel = 1 for the WL/WH split


@dataclass(frozen=True)
class TraitReport:
    """Measured characteristics of one workload plus the verdicts."""

    benchmark: str
    loop_fraction: float
    #: CTC bucket -> share of loop-block lifetimes (Fig. 4 stacking)
    ctc_shares: dict
    redundant_fill_fraction: float
    mrel: float
    wrel: float
    wl_class: str  # "WL" or "WH"
    favours: str  # "exclusive" or "non-inclusive"
    declared_traits: frozenset
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def measure_benchmark(
    benchmark: str,
    system: Optional[SystemConfig] = None,
    refs: int = 12_000,
    seed: int = 0,
) -> TraitReport:
    """Measure one workload's traits and compare them to its declaration.

    ``benchmark`` is any name ``WorkloadSpec.named`` accepts; only a
    SPEC-like benchmark declares traits, so only its report can carry
    violations.
    """
    system = system or SystemConfig.scaled()
    workload = WorkloadSpec.named(benchmark, system.hierarchy.ncores, seed)
    res = run_policies(system, ("non-inclusive", "exclusive"), workload, refs_per_core=refs)
    noni, ex = res["non-inclusive"], res["exclusive"]
    loop_fraction = noni.loop_block_fraction
    redundant = noni.redundant_fill_fraction
    mrel = ex.llc_misses / max(1, noni.llc_misses)
    wrel = ex.llc_writes / max(1, noni.llc_writes)

    violations: List[str] = []
    traits = get_benchmark(benchmark).traits if workload.kind == DUPLICATE else frozenset()
    if TRAIT_LOOP_HEAVY in traits and loop_fraction < LOOP_HEAVY_MIN:
        violations.append(f"declared loop-heavy but measured loop fraction {loop_fraction:.2f}")
    if TRAIT_REDUNDANT_FILL in traits and redundant < REDUNDANT_FILL_MIN:
        violations.append(f"declared redundant-fill-heavy but measured fraction {redundant:.2f}")
    if TRAIT_WRITE_HEAVY_EX in traits and wrel < 1.0 - WREL_TOLERANCE:
        violations.append(f"declared WH but measured Wrel {wrel:.2f}")
    if TRAIT_WRITE_LIGHT_EX in traits and wrel > 1.0 + WREL_TOLERANCE:
        violations.append(f"declared WL but measured Wrel {wrel:.2f}")
    return TraitReport(
        benchmark=benchmark,
        loop_fraction=loop_fraction,
        ctc_shares=noni.loop.ctc_shares(),
        redundant_fill_fraction=redundant,
        mrel=mrel,
        wrel=wrel,
        wl_class=classify_wl_wh(noni, ex),
        favours="exclusive" if favors_exclusion(noni, ex) else "non-inclusive",
        declared_traits=traits,
        violations=tuple(violations),
    )


def validate_all(
    system: Optional[SystemConfig] = None,
    refs: int = 12_000,
    benchmarks: Sequence[str] = PAPER_BENCHMARK_ORDER,
    seed: int = 0,
) -> Dict[str, TraitReport]:
    """Measure every benchmark; returns reports keyed by name."""
    return {b: measure_benchmark(b, system, refs, seed) for b in benchmarks}


def violations(reports: Dict[str, TraitReport]) -> Dict[str, tuple]:
    """Extract only the failing benchmarks from a report set."""
    return {b: r.violations for b, r in reports.items() if not r.ok}
