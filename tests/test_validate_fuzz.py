"""Tests for the deterministic trace fuzzer and its ddmin shrinker."""

import importlib

import pytest

from repro.validate import (
    FuzzCase,
    fuzz,
    generate_trace,
    run_case,
    shrink_trace,
)


class TestGenerateTrace:
    def test_deterministic_per_seed(self):
        assert generate_trace(7, refs=500) == generate_trace(7, refs=500)
        assert generate_trace(7, refs=500) != generate_trace(8, refs=500)

    def test_shape(self):
        trace = generate_trace(3, refs=400, ncores=2)
        assert len(trace) == 400
        for core, addr, is_write in trace:
            assert core in (0, 1)
            assert addr % 64 == 0
            assert isinstance(is_write, bool)

    def test_single_core_stays_on_core_zero(self):
        assert {ref[0] for ref in generate_trace(1, refs=300, ncores=1)} == {0}

    def test_multicore_actually_hops(self):
        cores = {ref[0] for ref in generate_trace(2, refs=600, ncores=2)}
        assert cores == {0, 1}

    def test_mixes_reads_and_writes(self):
        kinds = {ref[2] for ref in generate_trace(5, refs=600)}
        assert kinds == {True, False}


class TestFuzzCase:
    def test_describe_names_the_setup(self):
        case = FuzzCase(seed=9, policy="lap", ncores=2, enable_coherence=True)
        text = case.describe()
        assert "lap" in text and "seed=9" in text and "coh" in text

    def test_run_case_clean_policy_passes(self):
        run_case(FuzzCase(seed=0, policy="exclusive", refs=400))  # no raise


class TestFuzzClean:
    def test_clean_policies_produce_no_failures(self):
        failures = fuzz(8, ("exclusive", "lap"), base_seed=0)
        assert failures == []

    def test_progress_reports_each_round(self):
        seen = []
        fuzz(
            4,
            ("non-inclusive",),
            coherence_modes=(False,),
            progress=lambda i, case: seen.append((i, case.describe())),
        )
        assert [i for i, _ in seen] == [0, 1, 2, 3]


class TestShrink:
    def test_removes_irrelevant_prefix(self):
        # Only the last three refs matter to this predicate.
        trace = [(0, i * 64, False) for i in range(40)] + [
            (0, 4096, True),
            (0, 4160, False),
            (0, 4096, False),
        ]

        def still_fails(candidate):
            kinds = [(a, w) for (_, a, w) in candidate]
            return (4096, True) in kinds and kinds.count((4096, False)) >= 1

        shrunk = shrink_trace(trace, still_fails)
        assert still_fails(shrunk)
        assert len(shrunk) <= 4

    def test_returns_input_when_nothing_removable(self):
        trace = [(0, 0, True), (0, 64, False)]
        shrunk = shrink_trace(trace, lambda t: len(t) == 2)
        assert shrunk == trace

    def test_respects_run_budget(self):
        calls = []

        def predicate(candidate):
            calls.append(1)
            return True

        shrink_trace([(0, i * 64, False) for i in range(64)], predicate, max_runs=10)
        assert len(calls) <= 10

    def test_result_always_still_fails(self):
        trace = generate_trace(4, refs=200)

        def still_fails(candidate):
            return sum(1 for r in candidate if r[2]) >= 5  # needs 5 writes

        shrunk = shrink_trace(trace, still_fails)
        assert still_fails(shrunk)
        assert len(shrunk) < len(trace)


# ----------------------------------------------------------------------
# kernel-vs-generic replays
# ----------------------------------------------------------------------
def test_fuzz_replays_kernel_policies_on_both_loops(monkeypatch):
    """Every case of a kernel policy replays on the kernel and the
    generic loop, in both coherence modes, at varied shapes."""
    fuzz_module = importlib.import_module("repro.validate.fuzz")  # not the function
    calls = []
    real = fuzz_module.check_kernel_parity

    def spy(policy, trace, **shape):
        calls.append((policy, shape))
        real(policy, trace, **shape)

    monkeypatch.setattr(fuzz_module, "check_kernel_parity", spy)
    assert fuzz_module.fuzz(16, ("lap", "inclusive", "exclusive", "dswitch")) == []
    assert {p for p, _ in calls} == {"lap", "exclusive", "dswitch"}
    assert {s["enable_coherence"] for _, s in calls} == {False, True}
    assert len({(s["batch"], s["sample_interval"]) for _, s in calls}) > 1
    assert {s["instrumentation"] for _, s in calls} == {"default", "none"}


def test_every_policy_gets_two_core_cases_without_coherence():
    """Which non-coherent cases run two cores shifts by one policy per
    pass, so every policy gets some (not only the fifth and tenth)."""
    from repro.validate.differential import DEFAULT_POLICIES

    seen = set()
    fuzz(3 * len(DEFAULT_POLICIES), coherence_modes=(False,), shrink=False,
         progress=lambda i, case: seen.add((case.policy, case.ncores)))
    for ncores in (1, 2):
        assert {p for p, n in seen if n == ncores} == set(DEFAULT_POLICIES)


def test_boundary_trace_straddles_the_run_boundary():
    """Both cores have equally many references; one stores to exactly
    two lines, both of which the other sweeps, each store after at least
    ten reads, so the sweep can open streaks on them first."""
    from repro.validate.fuzz import boundary_trace

    for seed in range(20):
        trace = boundary_trace(seed)
        assert boundary_trace(seed) == trace
        per_core = [[(a, w) for c, a, w in trace if c == core] for core in (0, 1)]
        assert len(per_core[0]) == len(per_core[1])
        (holder,) = [refs for refs in per_core if any(w for _, w in refs)]
        (sweeper,) = [refs for refs in per_core if refs is not holder]
        stored = [a for a, w in holder if w]
        assert len(set(stored)) == 2 and holder.index((stored[0], True)) >= 10
        assert set(stored) <= {a for a, _ in sweeper}
        assert 5 <= len({a for a, _ in sweeper}) <= 7


def test_boundary_cases_are_non_coherent_kernel_cases_with_the_loop_tracker(monkeypatch):
    fuzz_module = importlib.import_module("repro.validate.fuzz")
    boundary_trace = fuzz_module.boundary_trace
    shaped = {}

    def spy(seed):
        shaped[seed] = trace = boundary_trace(seed)
        return trace

    monkeypatch.setattr(fuzz_module, "boundary_trace", spy)
    cases = []
    fuzz(40, ("lap", "inclusive"), shrink=False, progress=lambda i, case: cases.append(case))
    boundary = [c for c in cases if c.seed in shaped]
    assert boundary and all(
        c.policy == "lap" and c.ncores == 2 and not c.enable_coherence
        and c.instrumentation == "default" and c.refs == len(shaped[c.seed])
        for c in boundary
    )


def test_kernel_divergence_is_shrunk_to_a_snippet(monkeypatch):
    from repro.validate import KernelDivergence

    fuzz_module = importlib.import_module("repro.validate.fuzz")
    culprit = generate_trace(0, 600, 1)[17]

    def diverge(policy, trace, **shape):
        if culprit in trace:
            raise KernelDivergence("RunResult differs at ['llc']['hits']")

    monkeypatch.setattr(fuzz_module, "check_kernel_parity", diverge)
    (failure,) = fuzz_module.fuzz(1, ("lap",))
    assert failure.invariant == "kernel-parity"
    assert failure.trace == [culprit]
    snippet = failure.repro_snippet()
    assert "check_kernel_parity('lap'" in snippet
    monkeypatch.undo()
    exec(snippet, {})  # the real kernel agrees with the generic loop


def test_a_corrupted_kernel_state_is_shrunk_to_its_invariant(monkeypatch):
    """After the kernel replay the state checks run over the kernel
    side: an L1 line whose block is in no L2 map (dropped on both sides,
    so parity still holds) is an ``l1-inclusion`` failure, shrunk to one
    reference, with a snippet that reproduces it."""
    from repro.errors import InvariantViolation
    from repro.validate import parity

    real = parity.run_pair

    def corrupted(*args, **kwargs):
        pair = real(*args, **kwargs)
        for sim, _ in pair:
            l1, l2 = sim.hierarchy.l1s[0], sim.hierarchy.l2s[0]
            addr = l1.resident_addrs()[0]
            del l2.sets[l2.set_index(addr)].tag_map[l2.tag_of(addr)]
        return pair

    monkeypatch.setattr(parity, "run_pair", corrupted)
    (failure,) = fuzz(1, ("lap",))
    assert failure.invariant == "l1-inclusion" and failure.kernel
    assert "with no L2 copy" in failure.message
    assert len(failure.trace) == 1
    snippet = failure.repro_snippet()
    with pytest.raises(InvariantViolation, match="l1-inclusion"):
        exec(snippet, {})
    monkeypatch.undo()
    exec(snippet, {})  # the real kernel state holds
