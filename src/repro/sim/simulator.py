"""The trace-driven multi-core simulator.

:class:`Simulator` instantiates a hierarchy for one (system, policy,
workload) triple and drives it: per-core trace batches are pulled from
the workload's generators and interleaved reference-by-reference across
cores (round-robin), which bounds the clock skew the bank-contention
model sees. Coherence is enabled automatically for multithreaded
workloads and skipped for multiprogrammed ones (their address spaces
are disjoint by construction, so every snoop would miss).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..arena import registry
from ..core.policies import make_policy
from ..errors import SimulationError
from ..hierarchy.hierarchy import CacheHierarchy
from ..inclusion.base import InclusionPolicy
from ..instr import Probe
from ..obs.spans import span
from ..workloads.mixes import MULTITHREADED, Workload
from .results import RunResult
from .system import SystemConfig

DEFAULT_BATCH = 4096


class Simulator:
    """Runs one workload under one inclusion policy."""

    def __init__(
        self,
        system: SystemConfig,
        policy: Union[str, InclusionPolicy],
        workload: Workload,
        enable_coherence: Optional[bool] = None,
        probes: Optional[Sequence[Probe]] = None,
        **policy_kwargs,
    ) -> None:
        if workload.ncores != system.hierarchy.ncores:
            raise SimulationError(
                f"workload has {workload.ncores} generators but the system has "
                f"{system.hierarchy.ncores} cores"
            )
        if isinstance(policy, str):
            # Only dueling policies take the system's duel cadence.
            if registry.get(policy).accepts("duel_interval"):
                policy_kwargs.setdefault("duel_interval", system.duel_interval)
            policy = make_policy(policy, **policy_kwargs)
        self.system = system
        self.workload = workload
        self.policy = policy
        if enable_coherence is None:
            enable_coherence = workload.kind == MULTITHREADED
        # The probe list comes from the system config unless the caller
        # supplies one explicitly (tests, custom instrumentation).
        if probes is None:
            probes = system.probes()
        #: when True (default), runs that pass
        #: :func:`repro.kernel.batch.eligible` execute through the batched
        #: kernel; parity tests set this False to force the generic loop.
        self.enable_batch_kernel = True
        self.hierarchy = CacheHierarchy(
            system.hierarchy,
            policy,
            enable_coherence=enable_coherence,
            occupancy_sample_interval=system.occupancy_sample_interval,
            probes=probes,
        )

    def run(self, refs_per_core: int, batch: int = DEFAULT_BATCH) -> RunResult:
        """Simulate ``refs_per_core`` references on every core."""
        if refs_per_core <= 0:
            raise SimulationError(f"refs_per_core must be positive, got {refs_per_core}")
        h = self.hierarchy
        with span(
            "simulate",
            policy=self.policy.name,
            workload=self.workload.name,
            refs_per_core=refs_per_core,
        ) as run_span:
            core_instr = self._run_references(refs_per_core, batch)
            h.finish()
            run_span.set(accesses=h.stats.accesses)
        return self._collect(refs_per_core, core_instr)

    def _run_references(self, refs_per_core: int, batch: int):
        """Drive the references, through the batched kernel when possible.

        Both flows produce identical stats and timing; the kernel is
        purely a faster execution of the same reference stream (see
        :mod:`repro.kernel.batch` for the eligibility conditions).
        """
        h = self.hierarchy
        if self.enable_batch_kernel:
            from ..kernel import batch as _batch

            if _batch.eligible(h):
                return _batch.run_kernel(self, refs_per_core, batch)
        timing = h.timing
        gens = self.workload.generators
        ncores = len(gens)
        access = h.access
        core_instr = [0.0] * ncores

        remaining = refs_per_core
        while remaining > 0:
            take = min(batch, remaining)
            batches = [gen.batch(take) for gen in gens]
            addr_lists = [b[0].tolist() for b in batches]
            write_lists = [b[1].tolist() for b in batches]
            for i in range(take):
                for core in range(ncores):
                    access(core, addr_lists[core][i], write_lists[core][i])
            for core, gen in enumerate(gens):
                instrs = take * gen.instr_per_ref
                core_instr[core] += instrs
                timing.advance_instructions(core, instrs)
            remaining -= take
        return core_instr

    def _collect(self, refs_per_core: int, core_instr) -> RunResult:
        h = self.hierarchy
        instructions = int(sum(core_instr))
        cycles = h.timing.max_cycles
        # Way-gating policies (arena ways-off) power down part of the
        # LLC; their leakage is charged only for the active fraction.
        active_fraction = float(getattr(self.policy, "llc_active_fraction", 1.0))
        energy = self.system.energy_model().compute(
            h.llc.stats, int(cycles), instructions, active_fraction=active_fraction
        )
        extra = dict(self.policy.extra_stats())
        if active_fraction < 1.0:
            # Leakage the gated ways would have cost at full power.
            extra["llc_static_saved_j"] = energy.static_j * (
                1.0 / active_fraction - 1.0
            )
        if getattr(self.policy, "winv_redirects", None) is not None:
            extra["winv_redirects"] = self.policy.winv_redirects
        dueling = getattr(self.policy, "dueling", None)
        if dueling is not None:
            extra["duel_decisions_a"] = dueling.stats.decisions_a
            extra["duel_decisions_b"] = dueling.stats.decisions_b
        return RunResult(
            extra=extra,
            policy=self.policy.name,
            workload=self.workload.name,
            system=self.system.label,
            refs_per_core=refs_per_core,
            instructions=instructions,
            cycles=cycles,
            core_instructions=[int(x) for x in core_instr],
            core_cycles=list(h.timing.core_cycles),
            llc=h.llc.stats,
            hier=h.stats,
            loop=h.loop_stats(),
            energy=energy,
            coherence=h.coherence.stats if h.coherence else None,
        )


def simulate(
    system: SystemConfig,
    policy: Union[str, InclusionPolicy],
    workload: Workload,
    refs_per_core: int,
    **kwargs,
) -> RunResult:
    """One-shot convenience wrapper around :class:`Simulator`."""
    return Simulator(system, policy, workload, **kwargs).run(refs_per_core)
