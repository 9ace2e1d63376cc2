"""Differential harness: one trace, every policy, cross-policy laws.

Single-policy invariants (``invariants.py``) catch state corruption;
this harness catches *accounting* divergence between policies that the
paper's comparisons rely on. Because the L2 front-end is policy-blind
— every policy fills the L2 on an L2 miss, and L2 replacement never
consults the LLC — a bit-identical trace must produce bit-identical
L2-side behaviour under every non-back-invalidating policy. The LLC
side then obeys per-policy write-class laws (Fig. 15): non-inclusion
writes fills + dirty victims, exclusion writes clean + dirty victims,
LAP writes only non-duplicate clean victims + dirty victims.

Cross-policy identities checked (coherence off; coherent runs check
the per-policy subset only, since snoop supplies depend on LLC hits):

- retired references and stores are equal everywhere (harness sanity);
- L1/L2 hits, LLC demand accesses, and the L2 victim stream's totals
  are equal across all non-back-invalidating policies;
- ``mem_reads`` equals LLC demand misses per policy (no silent DRAM
  traffic);
- the write ledger balances per policy (``mem_writes`` = LLC dirty
  evictions + back-invalidation writebacks);
- write-class laws: fill-free policies report zero ``fill_writes``,
  drop-clean policies report zero ``clean_victim_writes``.

Every run carries an :class:`~repro.validate.invariants.InvariantProbe`,
so the differential pass also exercises the single-policy catalog —
including dirty-data conservation at end of run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..arena import registry
from ..core.lhybrid import LhybridPolicy
from ..core.policies import make_policy
from ..hierarchy import CacheHierarchy
from ..inclusion.base import InclusionPolicy
from ..inclusion.switching import SwitchingPolicy
from ..testing import micro_hierarchy_config
from .invariants import InvariantProbe, violation

#: the evaluated-policy set ``repro check`` covers by default, derived
#: from the registry's ``check_default`` declarations: the paper's
#: Table IV policies, strict inclusion (Fig. 1a), and the arena rivals.
DEFAULT_POLICIES: Tuple[str, ...] = registry.check_names()

#: (core, addr, is_write) — the trace triple both harnesses replay.
Ref = Tuple[int, int, bool]


def run_trace(
    policy: Union[str, InclusionPolicy],
    trace: Iterable[Ref],
    *,
    ncores: int = 1,
    enable_coherence: bool = False,
    interval: int = 64,
    sram_ways: Optional[int] = None,
    **config_kwargs,
) -> CacheHierarchy:
    """Replay ``trace`` under ``policy`` with the invariant probe armed.

    Builds a micro hierarchy (see :mod:`repro.testing`), attaches an
    :class:`InvariantProbe` checking every ``interval`` references, and
    finishes the run (which runs one final check pass). Lhybrid-family
    policies get a hybrid LLC automatically (4 SRAM ways) when
    ``sram_ways`` is not given. The probe keeps every run on the
    generic access path, not the batched kernel. Raises
    :class:`~repro.errors.InvariantViolation` on the first failure.
    """
    if isinstance(policy, str):
        policy = make_policy(policy)
    if sram_ways is None and isinstance(policy, LhybridPolicy):
        sram_ways = 4
    config = micro_hierarchy_config(ncores=ncores, sram_ways=sram_ways, **config_kwargs)
    probe = InvariantProbe(interval=interval)
    h = CacheHierarchy(
        config,
        policy,
        enable_coherence=enable_coherence,
        probes=(probe,),
    )
    for core, addr, is_write in trace:
        h.access(core, addr, is_write)
    h.finish()
    return h


@dataclass
class DifferentialReport:
    """Outcome of one differential pass: per-policy stats + the laws
    that were checked (all passed — failures raise instead)."""

    policies: Tuple[str, ...]
    enable_coherence: bool
    identities: List[str] = field(default_factory=list)
    hier: Dict[str, dict] = field(default_factory=dict)
    llc: Dict[str, dict] = field(default_factory=dict)

    def as_rows(self) -> List[list]:
        """Stat table rows (policy, accesses, llc_writes, mem_writes)."""
        return [
            [
                name,
                self.hier[name]["llc_demand_accesses"],
                self.llc[name]["fill_writes"],
                self.llc[name]["clean_victim_writes"],
                self.llc[name]["dirty_victim_writes"] + self.llc[name]["update_writes"],
                self.hier[name]["mem_writes"],
            ]
            for name in self.policies
        ]


def _check_equal(metric: str, values: Dict[str, int], identities: List[str]) -> None:
    """All policies must report the same value for ``metric``."""
    distinct = set(values.values())
    if len(distinct) > 1:
        detail = ", ".join(f"{name}={value}" for name, value in sorted(values.items()))
        raise violation(
            "differential",
            f"{metric} must be trace-determined, not policy-determined: {detail}",
        )
    identities.append(f"{metric} equal across {{{', '.join(sorted(values))}}}")


def run_differential(
    trace: Sequence[Ref],
    policies: Sequence[str] = DEFAULT_POLICIES,
    *,
    ncores: int = 1,
    enable_coherence: bool = False,
    interval: int = 64,
    sram_ways: Optional[int] = None,
    **config_kwargs,
) -> DifferentialReport:
    """Run ``trace`` under every policy and assert the cross-policy laws.

    All policies share one geometry, so when the set includes a hybrid-
    only policy (lhybrid family) the whole pass runs on a hybrid LLC —
    legal for every policy, and the paper's Fig. 24 setting.
    """
    wants_hybrid = sram_ways is not None or any(
        isinstance(make_policy(name), LhybridPolicy) for name in policies
    )
    if wants_hybrid and sram_ways is None:
        sram_ways = 4
    report = DifferentialReport(tuple(policies), enable_coherence)
    runs: Dict[str, CacheHierarchy] = {}
    for name in policies:
        runs[name] = run_trace(
            name,
            trace,
            ncores=ncores,
            enable_coherence=enable_coherence,
            interval=interval,
            sram_ways=sram_ways,
            **config_kwargs,
        )
        report.hier[name] = runs[name].stats.snapshot()
        report.llc[name] = runs[name].llc.stats.snapshot()

    identities = report.identities
    hier = report.hier

    # Trace-determined totals: equal across *all* policies.
    for metric in ("accesses", "stores"):
        _check_equal(metric, {n: hier[n][metric] for n in policies}, identities)

    # L2-side behaviour: equal across non-back-invalidating policies
    # when no coherence protocol reshapes private-cache contents.
    if not enable_coherence:
        front = [n for n in policies if not runs[n].policy.back_invalidates]
        if len(front) > 1:
            for metric in ("l1_hits", "l2_hits", "llc_demand_accesses"):
                _check_equal(metric, {n: hier[n][metric] for n in front}, identities)
            _check_equal(
                "l2_victims",
                {n: hier[n]["l2_clean_victims"] + hier[n]["l2_dirty_victims"] for n in front},
                identities,
            )

    for name in policies:
        h = runs[name]
        stats = h.stats
        llc = h.llc.stats
        if not enable_coherence:
            # Without peer supplies, every LLC demand miss reads memory.
            misses = stats.llc_demand_accesses - stats.llc_demand_hits
            if stats.mem_reads != misses:
                raise violation(
                    "differential",
                    f"{name}: mem_reads={stats.mem_reads} but LLC demand "
                    f"misses={misses}",
                )
        expected = llc.dirty_evictions + stats.mem_writes_backinval
        if stats.mem_writes != expected:
            raise violation(
                "differential",
                f"{name}: mem_writes={stats.mem_writes} != LLC dirty "
                f"evictions {llc.dirty_evictions} + backinval "
                f"{stats.mem_writes_backinval}",
            )
        policy = h.policy
        if not policy.fill_on_miss and not isinstance(policy, SwitchingPolicy):
            if llc.fill_writes:
                raise violation(
                    "differential",
                    f"{name}: fill-free policy reported {llc.fill_writes} "
                    f"fill_writes",
                )
        if not policy.clean_writeback and not isinstance(policy, SwitchingPolicy):
            if llc.clean_victim_writes:
                raise violation(
                    "differential",
                    f"{name}: drop-clean policy reported "
                    f"{llc.clean_victim_writes} clean_victim_writes",
                )
    identities.append(
        "per-policy: mem_reads=LLC misses (coherence off), write ledger "
        "balanced, Fig. 15 write-class laws"
    )
    return report
