"""The policy arena: registry semantics, the cross-paper rivals, and
the coverage guarantees the registry is supposed to enforce.

The last class is the point of the refactor: every registered policy
is pushed through the armed invariant checker and the differential
harness *by parametrizing over the registry itself*, so registering a
policy without that coverage is impossible — the tests pick it up on
the next run. A doc-sync test holds DESIGN.md §15 to the same
standard: every entry must be documented with its source paper.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.arena import registry
from repro.arena.registry import PolicyEntry
from repro.arena.reuse_detector import ReuseDetectorPolicy
from repro.arena.rd_copyback import RDCopybackPolicy
from repro.arena.ways_off import WaysOffPolicy
from repro.core.policies import (
    HOMOGENEOUS_POLICIES,
    HYBRID_POLICIES,
    LAP_VARIANTS,
    make_policy,
)
from repro.errors import ConfigurationError, ExecutionError
from repro.inclusion.traditional import NonInclusivePolicy
from repro.testing import A, B, C, D, E, F, G, H, build_micro, run_refs
from repro.validate import DEFAULT_POLICIES, generate_trace, run_differential, run_trace

NEW_RIVALS = ("reuse-detector", "rd-copyback", "ways-off")


def reads(*addrs):
    return [(a, False) for a in addrs]


def writes(*addrs):
    return [(a, True) for a in addrs]


class TestRegistry:
    def test_aliases_resolve(self):
        assert registry.canonical("noni") == "non-inclusive"
        assert registry.canonical("ex") == "exclusive"
        assert isinstance(registry.make("noni"), NonInclusivePolicy)

    def test_unknown_name_lists_and_suggests(self):
        with pytest.raises(ConfigurationError) as info:
            make_policy("exclusiv")
        msg = str(info.value)
        assert "valid policies:" in msg
        assert "did you mean 'exclusive'?" in msg
        # every canonical name is in the list
        for name in registry.names():
            assert name in msg

    def test_suggest_handles_hopeless_input(self):
        assert registry.suggest("zzzzzzzzzz") is None
        msg = str(registry.unknown_policy("zzzzzzzzzz"))
        assert "did you mean" not in msg

    def test_duplicate_registration_rejected(self):
        clash = registry.entries()[0]
        with pytest.raises(ConfigurationError, match="registered twice"):
            registry.register(clash)
        # alias collisions are caught before any state is mutated
        with pytest.raises(ConfigurationError, match="registered twice"):
            registry.register(
                PolicyEntry(
                    name="fresh-name",
                    factory="repro.inclusion.traditional:NonInclusivePolicy",
                    summary="s",
                    paper="p",
                    anchor="a",
                    rules="r",
                    aliases=("noni",),
                )
            )
        assert "fresh-name" not in registry.names()

    def test_defaults_merge_under_caller_kwargs(self):
        assert registry.make("lap-lru").replacement_mode == "lru"
        assert registry.make("lap-lru", replacement_mode="loop").replacement_mode == "loop"

    def test_overridden_restores(self):
        class Sub(NonInclusivePolicy):
            pass

        with registry.overridden("non-inclusive", Sub):
            assert type(registry.make("non-inclusive")) is Sub
        assert type(registry.make("non-inclusive")) is NonInclusivePolicy

    def test_validate_names_rewraps(self):
        with pytest.raises(ExecutionError):
            registry.validate_names(("lappy",), error=ExecutionError)
        assert registry.validate_names(("noni", "lap")) == ("non-inclusive", "lap")


class TestCatalog:
    def test_curated_sets(self):
        assert len(registry.names()) >= 18
        check = registry.check_names()
        assert check == DEFAULT_POLICIES
        assert len(check) >= 10
        for name in NEW_RIVALS:
            assert name in check
        # the acceptance criterion: the arena grid covers >= 10 policies
        assert len(registry.arena_names()) >= 10
        assert "lhybrid" in registry.arena_names(hybrid=True)
        assert "lhybrid" not in registry.arena_names(hybrid=False)

    def test_every_entry_is_paper_anchored(self):
        for e in registry.entries():
            assert e.paper and e.anchor and e.rules and e.summary, e.name

    def test_paper_tuples_are_registered(self):
        for name in (*HOMOGENEOUS_POLICIES, *LAP_VARIANTS, *HYBRID_POLICIES):
            assert registry.canonical(name) == name

    def test_kernel_column_is_derived(self, capsys):
        """The ``kernel`` column is the kernel's own answer for each
        built entry: ``repro list`` and ``catalog_rows()`` report
        ``batched`` for exactly the seven inlined policies."""
        from repro.cli import main

        batched = {
            "non-inclusive", "exclusive", "flexclusion", "dswitch", "lap", "lap-lru", "lap-loop"
        }
        rows = registry.catalog_rows()
        assert {r["name"] for r in rows if r["kernel"] == "batched"} == batched
        assert {r["kernel"] for r in rows} == {"batched", "generic"}
        assert main(["list"]) == 0
        listed = {}
        for line in capsys.readouterr().out.split("\n\nworkloads")[0].splitlines():
            cells = [c.strip() for c in line.split("|")]
            if len(cells) == 5 and cells[0] in registry.names():
                listed[cells[0]] = cells[2]
        assert listed == {r["name"]: r["kernel"] for r in rows}

    def test_design_section15_documents_every_entry(self):
        """Doc-sync: DESIGN.md §15 must catalog every registered policy
        with its source paper, and the §15.2 table's kernel column must
        match the catalog's derived one."""
        text = (pathlib.Path(__file__).parent.parent / "DESIGN.md").read_text()
        section = text.split("## 15. Policy arena")[1]
        # §15.2 rows: | `name` (`alias`) | source | kernel | sets | rules |
        kernel_column = {}
        for line in section.split("### 15.2 Catalog")[1].splitlines():
            cells = [c.strip() for c in line.split("|")[1:-1]]
            if cells and cells[0].startswith("`"):
                kernel_column[cells[0].split("`")[1]] = cells[2]
        kernel = {r["name"]: r["kernel"] for r in registry.catalog_rows()}
        for e in registry.entries():
            assert f"`{e.name}`" in section, f"{e.name} missing from DESIGN.md §15"
            citation = e.paper.split(" via ")[0]
            assert citation in section, f"{e.name}: paper {citation!r} not in §15"
            assert kernel_column.get(e.name) == kernel[e.name], (
                f"{e.name}: §15.2 kernel column says {kernel_column.get(e.name)!r}, "
                f"catalog reports {kernel[e.name]!r}"
            )

    def test_jobspec_admission_canonicalises(self):
        from repro.exec.jobs import JobSpec, WorkloadSpec
        from repro.sim import SystemConfig

        system = SystemConfig.scaled()
        w = WorkloadSpec.mix("WL1")
        via_alias = JobSpec(system=system, workload=w, policy="noni", refs_per_core=100)
        assert via_alias.policy == "non-inclusive"
        canonical = JobSpec(
            system=system, workload=w, policy="non-inclusive", refs_per_core=100
        )
        assert via_alias.key() == canonical.key()
        with pytest.raises(ExecutionError, match="valid policies"):
            JobSpec(system=system, workload=w, policy="lappy", refs_per_core=100)


class TestReuseDetector:
    def test_first_miss_bypasses_second_fills(self):
        policy = ReuseDetectorPolicy(detector_entries=8)
        h = build_micro(policy)
        run_refs(h, reads(A))
        assert h.llc.peek(A) is None  # bypassed, only tracked
        assert policy.reuse_bypasses == 1
        run_refs(h, reads(B, C, D, E))  # evict A from the 4-way L2
        run_refs(h, reads(A))  # second LLC miss while tracked: reuse
        assert h.llc.peek(A) is not None
        assert policy.reuse_fills == 1

    def test_detector_capacity_forgets_old_tags(self):
        policy = ReuseDetectorPolicy(detector_entries=2)
        h = build_micro(policy)
        run_refs(h, reads(A, B, C, D, E))  # A long evicted from the FIFO
        run_refs(h, reads(A))
        assert h.llc.peek(A) is None  # forgotten: bypassed again
        assert policy.reuse_fills == 0

    def test_dirty_victims_always_insert(self):
        h = build_micro(ReuseDetectorPolicy())
        run_refs(h, writes(A) + reads(B, C, D, E))
        assert h.llc.peek(A) is not None and h.llc.peek(A).dirty
        assert h.llc.stats.clean_victim_writes == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ReuseDetectorPolicy(detector_entries=0)


class TestRDCopyback:
    def test_reused_clean_victim_copies_back(self):
        policy = RDCopybackPolicy()
        h = build_micro(policy)
        run_refs(h, reads(A, B, C, D, E))  # A's L2 eviction, then...
        run_refs(h, reads(A))  # ...a short-distance LLC re-access of A
        run_refs(h, reads(F, G, H, B))  # evict A clean from L2 again
        assert h.llc.peek(A) is not None
        assert policy.copybacks >= 1

    def test_unmeasured_block_is_dropped(self):
        policy = RDCopybackPolicy()
        h = build_micro(policy)
        run_refs(h, reads(A, B, C, D, E))  # A evicted clean, seen once
        assert h.llc.peek(A) is None  # no measured reuse distance: drop
        assert policy.copyback_drops >= 1
        assert h.llc.stats.fill_writes == 0  # and it never fills

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            RDCopybackPolicy(window=0)


class TestWaysOff:
    def test_victims_confined_to_active_ways(self):
        policy = WaysOffPolicy(off_fraction=0.5)
        h = build_micro(policy)  # 16-way single-set LLC: 8 active
        distinct = [i * 64 for i in range(32)]
        run_refs(h, reads(*distinct))
        valid = [b for b in h.llc.sets[0].blocks if b.valid]
        assert len(valid) <= 8
        stats = policy.extra_stats()
        assert stats["llc_ways_off"] == 8 and stats["llc_ways_total"] == 16
        assert stats["llc_active_fraction"] == 0.5

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            WaysOffPolicy(off_fraction=1.0)
        with pytest.raises(ConfigurationError):
            WaysOffPolicy(off_fraction=-0.1)

    def test_static_energy_scales_with_active_fraction(self):
        from repro import make_workload, simulate
        from repro.sim import SystemConfig

        system = SystemConfig.scaled()
        r_base = simulate(
            system, "non-inclusive", make_workload("WL1", system, seed=2), refs_per_core=600
        )
        r_off = simulate(
            system, "ways-off", make_workload("WL1", system, seed=2), refs_per_core=600
        )
        assert r_off.extra["llc_active_fraction"] == 0.5
        assert r_off.extra["llc_static_saved_j"] > 0
        # same trace, fewer powered ways: static energy per cycle halves
        assert (r_off.energy.static_j / r_off.cycles) < 0.6 * (
            r_base.energy.static_j / r_base.cycles
        )


class TestEveryPolicyIsCovered:
    """Registering a policy buys it this coverage automatically; a
    policy whose flags lie about its write classes fails here."""

    @pytest.mark.parametrize("name", registry.names())
    def test_invariants_hold(self, name):
        trace = generate_trace(13, refs=500, ncores=2)
        run_trace(name, trace, ncores=2, interval=16)  # armed checker

    @pytest.mark.parametrize("name", registry.names())
    def test_differential_identities_vs_baseline(self, name):
        trace = generate_trace(17, refs=500, ncores=1)
        policies = ("non-inclusive", name) if name != "non-inclusive" else (name,)
        report = run_differential(trace, policies, interval=32)
        assert "write-class laws" in " | ".join(report.identities)
