"""Named benchmark suites over the exec pool.

``repro.suite`` is the harness layer the paper's evaluation implies:
named sets of workloads (the Table III mixes, SPEC-like int/fp splits,
trait families, trace corpora) that fan out through
:func:`repro.exec.pool.execute_jobs` with per-benchmark error
surfacing and a geomean summary normalised to a baseline policy.
"""

from .registry import (
    CORPUS_SET,
    BenchmarkSet,
    corpus_set,
    get_set,
    register_set,
    resolve,
    set_names,
    sets,
    suggest,
    unknown_set,
)
from .report import (
    RECORD_METRICS,
    SweepRecord,
    benchmark_table,
    failure_lines,
    geomean_table,
    records_to_csv,
    result_text,
    suite_records,
    write_result_file,
)
from .runner import (
    DEFAULT_POLICIES,
    SUMMARY_METRICS,
    BenchmarkOutcome,
    SuiteReport,
    run_suite,
    workload_spec_for,
)

__all__ = [
    "BenchmarkSet",
    "CORPUS_SET",
    "register_set",
    "set_names",
    "sets",
    "get_set",
    "resolve",
    "corpus_set",
    "suggest",
    "unknown_set",
    "BenchmarkOutcome",
    "SuiteReport",
    "run_suite",
    "workload_spec_for",
    "DEFAULT_POLICIES",
    "SUMMARY_METRICS",
    "benchmark_table",
    "geomean_table",
    "failure_lines",
    "suite_records",
    "RECORD_METRICS",
    "SweepRecord",
    "records_to_csv",
    "result_text",
    "write_result_file",
]
