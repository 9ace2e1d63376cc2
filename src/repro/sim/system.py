"""System-level configuration (paper Table II) and scaled variants.

:class:`SystemConfig` bundles the hierarchy geometry with the energy
model's knobs and the set-dueling cadence, and derives the
:class:`~repro.workloads.synthetic.ScaleContext` workload builders use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..energy import (
    DEFAULT_CLOCK_HZ,
    DEFAULT_LEAKAGE_COMPENSATION,
    LLCEnergyModel,
    SRAM,
    STT_RAM,
    TechnologyParams,
)
from ..hierarchy.config import HierarchyConfig, scaled_config, table2_config
from ..workloads.synthetic import ScaleContext


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to instantiate and meter one simulated system.

    ``instrumentation`` selects the probe set the simulator attaches to
    the hierarchy (see :func:`repro.instr.make_probes`): ``"default"``
    is the paper's always-on instrumentation (loop tracker,
    redundant-fill detector, occupancy sampler), ``"none"`` runs with
    zero per-access instrumentation overhead, and a comma-separated
    list of probe names selects exactly those probes.

    Runs go through the batched kernel (:mod:`repro.kernel.batch`) when
    :func:`~repro.kernel.batch.eligible` holds — non-inclusive,
    exclusive, FLEXclusion, Dswitch or LAP, coherent or not, and
    instrumentation that is probe-free or a subset of the default
    probes — and through the
    generic loop otherwise. Stats are bit-identical across the two.
    """

    hierarchy: HierarchyConfig
    label: str = "system"
    clock_hz: float = DEFAULT_CLOCK_HZ
    leakage_compensation: float = DEFAULT_LEAKAGE_COMPENSATION
    duel_interval: int = 4096
    occupancy_sample_interval: int = 2048
    instrumentation: str = "default"

    # ------------------------------------------------------------------
    # stock configurations
    # ------------------------------------------------------------------
    @classmethod
    def scaled(
        cls,
        ncores: int = 4,
        tech: TechnologyParams = STT_RAM,
        hybrid: bool = False,
        llc_kb: int = 128,
        l2_kb: int = 8,
        **kwargs,
    ) -> "SystemConfig":
        """The geometry-preserving scaled system used by the harness."""
        label = kwargs.pop("label", f"scaled-{tech.name}{'-hybrid' if hybrid else ''}")
        return cls(
            hierarchy=scaled_config(
                ncores=ncores, tech=tech, hybrid=hybrid, llc_kb=llc_kb, l2_kb=l2_kb
            ),
            label=label,
            **kwargs,
        )

    @classmethod
    def table2(
        cls,
        ncores: int = 4,
        tech: TechnologyParams = STT_RAM,
        hybrid: bool = False,
        **kwargs,
    ) -> "SystemConfig":
        """The paper's full-scale Table II system (8 MB LLC).

        Full-scale runs use no leakage compensation — the access-per-
        instruction rate is realistic at this geometry.
        """
        label = kwargs.pop("label", f"table2-{tech.name}{'-hybrid' if hybrid else ''}")
        kwargs.setdefault("leakage_compensation", 1.0)
        return cls(
            hierarchy=table2_config(ncores=ncores, tech=tech, hybrid=hybrid),
            label=label,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def with_tech(self, tech: TechnologyParams) -> "SystemConfig":
        """Same geometry, different LLC technology (Fig. 23 sweeps)."""
        return replace(
            self,
            hierarchy=self.hierarchy.with_llc(tech=tech),
            label=f"{self.label}@{tech.name}",
        )

    def probe_free(self) -> "SystemConfig":
        """Same system with all instrumentation probes disabled.

        Loop-block stats come back empty and ``redundant_fills`` stays
        zero, but every mechanical counter (hits, misses, write classes,
        energy inputs) is unaffected. The batched kernel runs either
        way (it carries the default probes as counters), so this saves
        only the probes' few per-event operations there; on the generic
        loop (the policies it does not inline) it saves their dispatch.
        """
        return replace(self, instrumentation="none")

    def probes(self):
        """The probe list implied by ``instrumentation`` (fresh instances)."""
        from ..instr import make_probes

        return make_probes(
            self.instrumentation, occupancy_interval=self.occupancy_sample_interval
        )

    def scale_context(self) -> ScaleContext:
        """Cache geometry as seen by workload builders."""
        h = self.hierarchy
        return ScaleContext(
            l1_bytes=h.l1.size_bytes,
            l2_bytes=h.l2.size_bytes,
            llc_bytes=h.llc.size_bytes,
            block_size=h.block_size,
        )

    def energy_model(self) -> LLCEnergyModel:
        """The LLC energy model implied by the hierarchy's technology."""
        llc = self.hierarchy.llc
        return LLCEnergyModel(
            sram_bytes=llc.sram_bytes,
            stt_bytes=llc.stt_bytes,
            sram=llc.sram_tech if llc.is_hybrid or llc.tech.name.startswith("sram") else SRAM,
            stt=llc.tech if not llc.tech.name.startswith("sram") else STT_RAM,
            clock_hz=self.clock_hz,
            leakage_compensation=self.leakage_compensation,
        )
