"""Tests for repro.testing (the public micro-hierarchy helpers)."""

from repro.core import LAPPolicy
from repro.energy import SRAM
from repro.testing import (
    A,
    B,
    BLOCK,
    H,
    build_micro,
    micro_hierarchy_config,
    run_refs,
)


class TestMicroConfig:
    def test_named_blocks_share_the_l2_set(self):
        config = micro_hierarchy_config()
        from repro.hierarchy import CacheHierarchy
        from repro.core.policies import make_policy

        h = CacheHierarchy(config, make_policy("non-inclusive"))
        l2 = h.l2s[0]
        assert {l2.set_index(a) for a in (A, B, H)} == {0}

    def test_defaults(self):
        config = micro_hierarchy_config()
        assert config.l2.assoc == 4
        assert config.l2.size_bytes == 256  # exactly 4 blocks
        assert config.llc.assoc == 16

    def test_overrides(self):
        config = micro_hierarchy_config(
            ncores=2, llc_bytes=2048, llc_assoc=8, tech=SRAM, sram_ways=None
        )
        assert config.ncores == 2
        assert config.llc.size_bytes == 2048
        assert config.llc.tech is SRAM

    def test_block_constants_aligned(self):
        assert A == 0 and B == BLOCK and H == 7 * BLOCK


class TestBuildMicro:
    def test_accepts_policy_name(self):
        h = build_micro("exclusive")
        assert h.policy.name == "exclusive"

    def test_accepts_policy_instance(self):
        pol = LAPPolicy(replacement_mode="loop")
        h = build_micro(pol)
        assert h.policy is pol

    def test_coherence_flag(self):
        assert build_micro("lap", ncores=2, enable_coherence=True).coherence is not None
        assert build_micro("lap").coherence is None

    def test_hybrid_construction(self):
        h = build_micro("lhybrid", sram_ways=4)
        assert h.llc.hybrid


class TestRunRefs:
    def test_drives_accesses(self):
        h = build_micro("non-inclusive")
        run_refs(h, [(A, False), (B, True)])
        assert h.stats.accesses == 2
        assert h.stats.stores == 1

    def test_core_selection(self):
        h = build_micro("non-inclusive", ncores=2)
        run_refs(h, [(A, False)], core=1)
        assert h.l1s[1].peek(A) is not None
        assert h.l1s[0].peek(A) is None
