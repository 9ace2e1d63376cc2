"""Suite-report rendering: tables, CSV records, result-file text.

One :class:`~repro.suite.runner.SuiteReport` feeds three consumers —
the terminal (``repro suite run``), the sweep-CSV toolchain
(:func:`suite_records` emits :class:`~repro.sim.sweeps.SweepRecord`
rows that ``records_to_csv``/``load_csv`` already understand), and the
experiment record (:func:`result_text` writes the
``suite_geomean`` artefact :mod:`repro.analysis.report` indexes).
"""

from __future__ import annotations

import pathlib
from typing import List, Optional, Union

from ..analysis.tables import render_mapping_table, render_table
from ..sim.sweeps import RECORD_METRICS, SweepRecord
from .runner import SUMMARY_METRICS, SuiteReport


def benchmark_table(report: SuiteReport, metric: str = "epi") -> str:
    """Per-benchmark absolute values of one metric, policies as columns."""
    rows = []
    for outcome in report.outcomes:
        if outcome.ok:
            rows.append(
                [outcome.benchmark]
                + [getattr(outcome.results[p], metric) for p in report.policies]
            )
        else:
            rows.append([outcome.benchmark] + ["FAILED"] * len(report.policies))
    return render_table(
        f"suite {report.set_name!r}: {metric} ({report.refs_per_core} refs/core)",
        ["benchmark", *report.policies],
        rows,
    )


def geomean_table(report: SuiteReport) -> str:
    """The summary: per-policy geomean metric ratios vs the baseline."""
    summary = report.geomean_summary()
    data = {
        policy: {metric: summary[policy][metric] for metric in SUMMARY_METRICS}
        for policy in report.policies
    }
    return render_mapping_table(
        f"suite {report.set_name!r}: geomean ratios vs {report.baseline!r} "
        f"({len(report.succeeded)}/{len(report.outcomes)} benchmarks)",
        data,
        row_label="policy",
    )


def failure_lines(report: SuiteReport) -> List[str]:
    """One diagnostic line per failed benchmark (empty when all ran)."""
    return [f"FAILED {o.benchmark}: {o.error}" for o in report.failures]


def suite_records(report: SuiteReport) -> List[SweepRecord]:
    """Flatten successful runs into sweep records (CSV-ready)."""
    records: List[SweepRecord] = []
    for outcome in report.outcomes:
        if not outcome.ok:
            continue
        for policy in report.policies:
            result = outcome.results[policy]
            records.append(
                SweepRecord(
                    system=report.system,
                    workload=outcome.benchmark,
                    policy=policy,
                    metrics={m: float(getattr(result, m)) for m in RECORD_METRICS},
                )
            )
    return records


def result_text(report: SuiteReport) -> str:
    """The full text artefact: summary, per-benchmark EPI, failures."""
    parts = [geomean_table(report), "", benchmark_table(report, "epi")]
    failures = failure_lines(report)
    if failures:
        parts += ["", *failures]
    parts.append(
        f"\n{len(report.profiles)} job(s): {report.cache_hits} from cache, "
        f"{report.simulated} simulated"
    )
    return "\n".join(parts) + "\n"


def write_result_file(
    report: SuiteReport,
    results_dir: Union[str, pathlib.Path],
    name: Optional[str] = None,
) -> pathlib.Path:
    """Write the artefact ``analysis.report`` indexes (``suite_geomean``)."""
    results_dir = pathlib.Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{name or 'suite_geomean'}.txt"
    path.write_text(result_text(report))
    return path
