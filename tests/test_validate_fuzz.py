"""Tests for the deterministic trace fuzzer and its ddmin shrinker."""

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
