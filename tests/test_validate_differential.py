"""Tests for the differential harness and the end-to-end check suite.

The centerpiece is the mutation test: re-introduce the historical
dirty-loss bug (exclusive hit-invalidation dropping the dirty bit) into
the policy registry and prove that ``repro check``'s machinery — the
fuzz stage included — fires on it, with the shrunk counterexample still
reproducing the same invariant violation.
"""

import pytest

from repro.arena import registry
from repro.errors import InvariantViolation
from repro.inclusion.traditional import NonInclusivePolicy
from repro.validate import (
    DEFAULT_POLICIES,
    fuzz,
    generate_trace,
    run_checks,
    run_differential,
    run_trace,
)
from tests.conftest import BuggyExclusivePolicy


@pytest.fixture
def buggy_exclusive():
    """Swap the registry's exclusive policy for the pre-fix one."""
    with registry.overridden("exclusive", BuggyExclusivePolicy):
        yield


class TestCrossPolicyIdentities:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_default_policies_no_coherence(self, seed):
        trace = generate_trace(seed, refs=1200, ncores=1)
        report = run_differential(trace, DEFAULT_POLICIES, interval=64)
        assert report.policies == DEFAULT_POLICIES
        joined = " | ".join(report.identities)
        # The L2 front-end is policy-blind for the
        # non-back-invalidating policies ...
        assert "l2_hits equal across" in joined
        assert "l2_victims equal across" in joined
        segment = joined.split("l2_hits equal across")[1].split("|")[0]
        members = segment.strip().strip("{}").split(", ")
        assert "non-inclusive" in members and "inclusive" not in members
        # ... and the write-class laws were asserted per policy.
        assert "write-class laws" in joined

    @pytest.mark.parametrize("seed", [3, 11])
    def test_default_policies_with_coherence(self, seed):
        trace = generate_trace(seed, refs=1200, ncores=2)
        report = run_differential(
            trace, DEFAULT_POLICIES, ncores=2, enable_coherence=True, interval=64
        )
        assert "accesses equal across" in " | ".join(report.identities)

    def test_write_class_numbers_match_fig15_laws(self):
        trace = generate_trace(5, refs=1500, ncores=1)
        report = run_differential(trace, DEFAULT_POLICIES)
        # non-inclusive / inclusive: never write clean victims.
        assert report.llc["non-inclusive"]["clean_victim_writes"] == 0
        assert report.llc["inclusive"]["clean_victim_writes"] == 0
        # exclusive / LAP family / rd-copyback: never data-fill the LLC.
        for name in ("exclusive", "lap", "lhybrid", "rd-copyback"):
            assert report.llc[name]["fill_writes"] == 0
        # reuse-detector drops clean victims like non-inclusion does.
        assert report.llc["reuse-detector"]["clean_victim_writes"] == 0

    def test_as_rows_covers_every_policy(self):
        trace = generate_trace(2, refs=400)
        report = run_differential(trace, ("non-inclusive", "exclusive"))
        rows = report.as_rows()
        assert [r[0] for r in rows] == ["non-inclusive", "exclusive"]

    def test_detects_accounting_divergence(self):
        """A policy that lies about its write classes is caught."""

        class Miscounting(NonInclusivePolicy):
            def l2_victim(self, h, core, line):
                if not line.dirty:
                    return
                # dirty victims miscounted as clean ones
                self.insert_or_update(h, core, line.addr, dirty=False, category="clean_victim")

        with registry.overridden("non-inclusive", Miscounting):
            trace = generate_trace(9, refs=800)
            with pytest.raises(InvariantViolation):
                run_differential(trace, ("non-inclusive", "exclusive"))


class TestMutationDetection:
    """Reverting the dirty-loss fix must trip the checker."""

    def test_fuzz_catches_reverted_fix(self, buggy_exclusive):
        failures = fuzz(6, ("exclusive",), base_seed=0, coherence_modes=(False,))
        assert failures, "fuzzer missed the re-introduced dirty-loss bug"
        failure = failures[0]
        assert failure.invariant == "dirty-conservation"
        # The shrunk trace is drastically smaller and still reproduces.
        assert 0 < len(failure.trace) <= 20
        with pytest.raises(InvariantViolation) as info:
            run_trace(
                "exclusive",
                failure.trace,
                ncores=failure.case.ncores,
                enable_coherence=failure.case.enable_coherence,
                interval=1,
            )
        assert info.value.invariant == "dirty-conservation"

    def test_repro_snippet_is_valid_python(self, buggy_exclusive):
        failures = fuzz(3, ("exclusive",), base_seed=0, coherence_modes=(False,))
        assert failures
        compile(failures[0].repro_snippet(), "<repro>", "exec")

    def test_run_checks_reports_the_failure(self, buggy_exclusive):
        report = run_checks(("exclusive",), fuzz_rounds=4, refs=600, coherence="off")
        assert not report.ok
        assert any("dirty-conservation" in e.detail for e in report.failures)

    def test_run_checks_clean_after_fix(self):
        report = run_checks(("exclusive",), fuzz_rounds=4, refs=600, coherence="off")
        assert report.ok, [e.detail for e in report.failures]


class TestRunChecks:
    def test_full_suite_all_policies(self):
        report = run_checks(DEFAULT_POLICIES, refs=600, interval=32)
        assert report.ok, [e.detail for e in report.failures]
        names = [e.name for e in report.entries]
        # every default policy x 3 modes + 3 differential passes
        expected = 3 * len(DEFAULT_POLICIES)
        assert len([n for n in names if n.startswith("invariants[")]) == expected
        assert len([n for n in names if n.startswith("differential[")]) == 3

    def test_coherence_mode_filter(self):
        report = run_checks(("lap",), refs=300, coherence="on")
        assert all("coh" in e.name for e in report.entries)
        assert report.ok

    def test_progress_callback(self):
        seen = []
        run_checks(("non-inclusive",), refs=200, coherence="off", progress=seen.append)
        assert any(label.startswith("invariants[") for label in seen)
        assert any(label.startswith("differential[") for label in seen)
