"""Workload-model validation against the paper's published traits.

Every synthetic benchmark in :mod:`repro.workloads.spec` declares the
behavioural traits it is supposed to reproduce (loop-heavy,
redundant-fill-heavy, WL/WH class, …). This module *measures* those
traits on a live system and checks them, so any retuning of region
parameters that silently breaks a benchmark's published characteristics
is caught by the test-suite and the ``validate-workloads`` harness
target rather than surfacing as a mysteriously failing figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..exec.jobs import WorkloadSpec
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
    """Measured characteristics of one benchmark plus the verdicts."""

    benchmark: str
    loop_fraction: float
    redundant_fill_fraction: float
    mrel: float
    wrel: float
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
    """Measure one benchmark's traits and compare to its declaration."""
    spec = get_benchmark(benchmark)
    system = system or SystemConfig.scaled()
    res = run_policies(
        system,
        ("non-inclusive", "exclusive"),
        WorkloadSpec.duplicate(spec.name, ncores=system.hierarchy.ncores, seed=seed),
        refs_per_core=refs,
    )
    noni, ex = res["non-inclusive"], res["exclusive"]
    loop_fraction = noni.loop_block_fraction
    redundant = noni.redundant_fill_fraction
    mrel = ex.llc_misses / max(1, noni.llc_misses)
    wrel = ex.llc_writes / max(1, noni.llc_writes)

    violations: List[str] = []
    traits = spec.traits
    if TRAIT_LOOP_HEAVY in traits and loop_fraction < LOOP_HEAVY_MIN:
        violations.append(
            f"declared loop-heavy but measured loop fraction {loop_fraction:.2f}"
        )
    if TRAIT_REDUNDANT_FILL in traits and redundant < REDUNDANT_FILL_MIN:
        violations.append(
            f"declared redundant-fill-heavy but measured fraction {redundant:.2f}"
        )
    if TRAIT_WRITE_HEAVY_EX in traits and wrel < 1.0 - WREL_TOLERANCE:
        violations.append(f"declared WH but measured Wrel {wrel:.2f}")
    if TRAIT_WRITE_LIGHT_EX in traits and wrel > 1.0 + WREL_TOLERANCE:
        violations.append(f"declared WL but measured Wrel {wrel:.2f}")
    return TraitReport(
        benchmark=spec.name,
        loop_fraction=loop_fraction,
        redundant_fill_fraction=redundant,
        mrel=mrel,
        wrel=wrel,
        declared_traits=traits,
        violations=tuple(violations),
    )


def validate_all(
    system: Optional[SystemConfig] = None,
    refs: int = 12_000,
    benchmarks: Sequence[str] = PAPER_BENCHMARK_ORDER,
) -> Dict[str, TraitReport]:
    """Measure every benchmark; returns reports keyed by name."""
    return {b: measure_benchmark(b, system, refs) for b in benchmarks}


def violations(reports: Dict[str, TraitReport]) -> Dict[str, tuple]:
    """Extract only the failing benchmarks from a report set."""
    return {b: r.violations for b, r in reports.items() if not r.ok}
