"""Hierarchy geometry and latency configuration.

:class:`HierarchyConfig` describes the three-level hierarchy of the
paper's Table II: private L1s and L2s per core, one shared (optionally
hybrid SRAM/STT-RAM) LLC, and a flat main memory. Two stock
configurations are provided:

- :func:`table2_config` — the paper's full-scale system (8 MB LLC);
- :func:`scaled_config` — a geometry-preserving scaled system used by
  the test-suite and benchmark harness (ΣL2 : L3 = 1 : 4 as in the
  paper; every capacity divided by 64).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..energy.technology import SRAM, STT_RAM, TechnologyParams
from ..errors import ConfigurationError
from ..utils import require_pow2


@dataclass(frozen=True)
class LevelConfig:
    """Geometry of one private cache level."""

    size_bytes: int
    assoc: int
    latency: int  # hit latency in cycles

    def __post_init__(self) -> None:
        require_pow2(self.size_bytes, "size_bytes")
        if self.assoc <= 0:
            raise ConfigurationError(f"assoc must be positive, got {self.assoc}")
        if self.latency < 0:
            raise ConfigurationError(f"latency must be >= 0, got {self.latency}")


@dataclass(frozen=True)
class LLCLevelConfig:
    """Geometry and technology of the shared LLC.

    ``sram_ways`` selects the hybrid organisation: ``None`` means a
    homogeneous LLC of ``tech``; an integer splits every set's ways into
    an SRAM region (ways ``[0, sram_ways)``) and an STT-RAM region, as
    in Table II's 2 MB SRAM (4-way) + 6 MB STT-RAM (12-way).
    """

    size_bytes: int
    assoc: int
    banks: int
    tech: TechnologyParams
    sram_ways: int | None = None
    sram_tech: TechnologyParams = SRAM

    def __post_init__(self) -> None:
        require_pow2(self.size_bytes, "llc size_bytes")
        require_pow2(self.banks, "llc banks")
        if self.assoc <= 0:
            raise ConfigurationError(f"llc assoc must be positive, got {self.assoc}")
        if self.sram_ways is not None and not 0 < self.sram_ways < self.assoc:
            raise ConfigurationError(
                f"hybrid sram_ways must be in (0, assoc), got {self.sram_ways}"
            )

    @property
    def is_hybrid(self) -> bool:
        return self.sram_ways is not None

    @property
    def sram_bytes(self) -> int:
        """Capacity of the SRAM region (0 for homogeneous STT LLCs)."""
        if self.sram_ways is None:
            return self.size_bytes if self.tech.name.startswith("sram") else 0
        return self.size_bytes * self.sram_ways // self.assoc

    @property
    def stt_bytes(self) -> int:
        """Capacity of the STT region."""
        return self.size_bytes - self.sram_bytes


@dataclass(frozen=True)
class HierarchyConfig:
    """Full three-level hierarchy description."""

    ncores: int
    block_size: int
    l1: LevelConfig
    l2: LevelConfig
    llc: LLCLevelConfig
    mem_latency: int = 150
    # fraction of off-chip miss latency exposed to the core after
    # memory-level parallelism overlap (1.0 = fully serialised)
    mlp_exposure: float = 0.6

    def __post_init__(self) -> None:
        if self.ncores <= 0:
            raise ConfigurationError(f"ncores must be positive, got {self.ncores}")
        require_pow2(self.block_size, "block_size")
        if not 0.0 < self.mlp_exposure <= 1.0:
            raise ConfigurationError(
                f"mlp_exposure must be in (0,1], got {self.mlp_exposure}"
            )

    def with_llc(self, **changes) -> "HierarchyConfig":
        """A copy with LLC fields replaced (tech sweeps, hybrid toggles)."""
        return replace(self, llc=replace(self.llc, **changes))


def table2_config(
    ncores: int = 4,
    tech: TechnologyParams = STT_RAM,
    hybrid: bool = False,
) -> HierarchyConfig:
    """The paper's full-scale Table II system.

    32 KB 4-way L1s, 512 KB 8-way L2s, 8 MB 16-way 4-bank shared L3
    (hybrid: 2 MB SRAM / 4 ways + 6 MB STT-RAM / 12 ways), 64 B blocks.
    """
    return HierarchyConfig(
        ncores=ncores,
        block_size=64,
        l1=LevelConfig(size_bytes=32 * 1024, assoc=4, latency=2),
        l2=LevelConfig(size_bytes=512 * 1024, assoc=8, latency=4),
        llc=LLCLevelConfig(
            size_bytes=8 * 1024 * 1024,
            assoc=16,
            banks=4,
            tech=tech,
            sram_ways=4 if hybrid else None,
        ),
        mem_latency=150,
    )


def scaled_config(
    ncores: int = 4,
    tech: TechnologyParams = STT_RAM,
    hybrid: bool = False,
    llc_kb: int = 128,
    l2_kb: int = 8,
) -> HierarchyConfig:
    """Geometry-preserving scaled system (default 1/64 of Table II).

    Defaults keep the paper's shape: per-core L1 : L2 = 1 : 16,
    ΣL2 : L3 = 1 : 4 with four cores, 16-way 4-bank LLC, 64 B blocks.
    ``llc_kb`` / ``l2_kb`` expose the Fig. 21 capacity sweeps.
    """
    return HierarchyConfig(
        ncores=ncores,
        block_size=64,
        # The paper's L1:L2 ratio is 1:16, but 512 B is a degenerate L1;
        # the scaled system floors L1 at 1:4 of L2 so it still filters
        # the hot working set the way a real L1 does.
        l1=LevelConfig(size_bytes=max(2048, l2_kb * 1024 // 4), assoc=4, latency=2),
        l2=LevelConfig(size_bytes=l2_kb * 1024, assoc=8, latency=4),
        llc=LLCLevelConfig(
            size_bytes=llc_kb * 1024,
            assoc=16,
            banks=4,
            tech=tech,
            sram_ways=4 if hybrid else None,
        ),
        mem_latency=150,
    )
