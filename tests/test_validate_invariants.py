"""Tests for repro.validate.invariants: the InvariantProbe catalog.

Each invariant gets three kinds of coverage: it *passes* on healthy
runs, it *skips* where it does not apply, and it *fires* when the state
is corrupted behind the engine's back (or, for the headline
dirty-conservation law, when the historical exclusive hit-invalidation
bug is re-introduced via a policy subclass).
"""

import pytest

from repro.errors import InvariantViolation
from repro.validate import (
    InvariantProbe,
    check_coherence,
    check_dirty_conservation,
    check_exclusion,
    check_inclusion,
    check_l1_inclusion,
    check_no_fill,
    check_write_ledger,
    run_trace,
    violation,
)
from tests.conftest import A, B, C, D, E, F, G, H, BuggyExclusivePolicy, build_micro, run_refs


def reads(*addrs):
    return [(a, False) for a in addrs]


def writes(*addrs):
    return [(a, True) for a in addrs]


def probed(policy, enable_coherence=False, interval=0, **kwargs):
    """A micro hierarchy with an armed InvariantProbe attached."""
    h = build_micro(policy, enable_coherence=enable_coherence, **kwargs)
    probe = InvariantProbe(interval=interval)
    h.attach_probe(probe)
    return h, probe


class TestViolationFactory:
    def test_tags_the_invariant(self):
        exc = violation("no-fill", "boom")
        assert isinstance(exc, InvariantViolation)
        assert exc.invariant == "no-fill"
        assert "no-fill: boom" in str(exc)


class TestApplicability:
    def test_inclusion_skips_non_back_invalidating(self):
        h, _ = probed("non-inclusive")
        assert check_inclusion(h) is False

    def test_exclusion_only_pure_exclusive_single_core(self):
        assert check_exclusion(probed("exclusive")[0]) is True
        assert check_exclusion(probed("exclusive", ncores=2)[0]) is False
        assert check_exclusion(probed("flexclusion")[0]) is False
        assert check_exclusion(probed("lap")[0]) is False

    def test_no_fill_skips_fillers_and_switchers(self):
        assert check_no_fill(probed("exclusive")[0]) is True
        assert check_no_fill(probed("lap")[0]) is True
        assert check_no_fill(probed("non-inclusive")[0]) is False
        assert check_no_fill(probed("dswitch")[0]) is False

    def test_coherence_skips_incoherent_runs(self):
        assert check_coherence(probed("lap")[0]) is False
        assert check_coherence(probed("lap", enable_coherence=True, ncores=2)[0]) is True


class TestHealthyRunsPass:
    @pytest.mark.parametrize(
        "policy",
        ["inclusive", "non-inclusive", "exclusive", "flexclusion", "dswitch", "lap"],
    )
    def test_micro_trace_clean(self, policy):
        h, probe = probed(policy)
        run_refs(h, writes(A, B) + reads(C, D, E, F, G, H) + writes(A) + reads(B, C))
        probe.check_now()  # no raise
        assert probe.counts["write-ledger"] == 1
        assert probe.counts["l1-inclusion"] == 1

    def test_interval_checking_via_bus(self):
        h, probe = probed("exclusive", interval=2)
        run_refs(h, reads(A, B, C, D, E, F))
        # six retired refs, interval 2 -> three mid-run passes
        assert probe.counts["exclusion"] == 3

    def test_finish_runs_a_final_pass(self):
        h, probe = probed("lap", interval=0)
        run_refs(h, writes(A) + reads(B, C))
        assert probe.counts["no-fill"] == 0
        h.finish()
        assert probe.counts["no-fill"] == 1


class TestCorruptionFires:
    def test_inclusion_violation(self):
        h, _ = probed("inclusive")
        run_refs(h, reads(A, B))
        h.llc.discard(A)  # break strict inclusion behind the policy
        with pytest.raises(InvariantViolation, match="inclusion"):
            check_inclusion(h)

    def test_exclusion_violation(self):
        h, _ = probed("exclusive")
        run_refs(h, reads(A))
        h.llc.insert(A)  # plant a duplicate of the L2-resident line
        with pytest.raises(InvariantViolation, match="exclusion"):
            check_exclusion(h)

    def test_l1_inclusion_violation(self):
        h, _ = probed("non-inclusive")
        run_refs(h, reads(A))
        h.l2s[0].discard(A)  # L1 still holds A
        with pytest.raises(InvariantViolation, match="l1-inclusion"):
            check_l1_inclusion(h)

    def test_no_fill_violation(self):
        h, _ = probed("exclusive")
        run_refs(h, reads(A))
        h.llc.stats.fill_writes = 1
        with pytest.raises(InvariantViolation, match="no-fill"):
            check_no_fill(h)

    def test_write_ledger_violation(self):
        h, _ = probed("non-inclusive")
        run_refs(h, reads(A))
        h.stats.mem_writes += 1  # a memory write from thin air
        with pytest.raises(InvariantViolation, match="write-ledger"):
            check_write_ledger(h)

    def test_coherence_sharers_drift(self):
        h, _ = probed("non-inclusive", enable_coherence=True, ncores=2)
        run_refs(h, reads(A, B))
        h.coherence.on_l2_drop(0, A)  # desync the map from the tags
        with pytest.raises(InvariantViolation, match="sharers map drift"):
            check_coherence(h)

    def test_coherence_dirty_state_mismatch(self):
        h, _ = probed("non-inclusive", enable_coherence=True, ncores=2)
        run_refs(h, writes(A))
        h.l2s[0].peek(A).dirty = False  # dirty bit contradicts state M
        with pytest.raises(InvariantViolation, match="state=M"):
            check_coherence(h)

    def test_dirty_conservation_violation(self):
        h, _ = probed("non-inclusive")
        run_refs(h, writes(A))
        h.l2s[0].peek(A).dirty = False  # silently lose the dirty bit
        with pytest.raises(InvariantViolation, match="dirty-conservation"):
            check_dirty_conservation(h, {A})


class TestHeadlineBugDetection:
    """The dirty-loss bug class the subsystem exists to keep fixed."""

    def test_buggy_exclusive_caught_deterministically(self):
        trace = [(0, A, True)] + [(0, x, False) for x in (B, C, D, E)] + [(0, A, False)]
        with pytest.raises(InvariantViolation) as info:
            run_trace(BuggyExclusivePolicy(), trace, interval=1)
        assert info.value.invariant == "dirty-conservation"

    def test_fixed_exclusive_passes_same_trace(self):
        trace = [(0, A, True)] + [(0, x, False) for x in (B, C, D, E)] + [(0, A, False)]
        h = run_trace("exclusive", trace, interval=1)
        assert h.l2s[0].peek(A).dirty

    def test_writeback_retires_the_obligation(self):
        """Once the dirty line's data reaches memory, the conservation
        set drains — the probe does not cry wolf after legal evictions."""
        h, probe = probed("exclusive", interval=1)
        run_refs(h, writes(A) + reads(B, C, D, E))
        run_refs(h, reads(A))
        run_refs(h, reads(*[i * 64 for i in range(8, 32)]))  # push A to memory
        assert h.stats.mem_writes == 1
        assert A not in probe.outstanding
        probe.check_now()

    def test_writeback_keeps_obligation_while_dirty_copy_remains(self):
        """A memory writeback of the LLC copy must not absolve a dirty
        L2 copy of the same address."""
        h, probe = probed("non-inclusive", interval=1)
        run_refs(h, writes(A) + reads(B, C, D, E))  # dirty A lands in LLC
        run_refs(h, writes(A))  # refill + re-dirty the L2 copy: both dirty
        # Flood the LLC while touching A between misses so the L2 keeps
        # A hot: the LLC evicts its dirty duplicate (memory writeback)
        # while the L2 copy still owes memory.
        flood = []
        for i in range(8, 28):
            flood += [(A, False), (i * 64, False)]
        run_refs(h, flood)
        assert h.llc.peek(A) is None and h.l2s[0].peek(A).dirty
        assert h.stats.mem_writes >= 1
        assert A in probe.outstanding  # the L2 copy still owes memory
        probe.check_now()
