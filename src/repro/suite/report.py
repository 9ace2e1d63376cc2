"""Suite-report rendering: tables, CSV records, result-file text.

One :class:`~repro.suite.runner.SuiteReport` feeds three consumers —
the terminal (``repro suite run``), CSV (:func:`suite_records`
flattens it into one :class:`SweepRecord` per member and policy, and
:func:`records_to_csv` writes them; ``repro sweep`` is a suite run over
its ``--workloads`` printed this way), and the experiment record
(:func:`result_text` writes the ``suite_geomean`` artefact
:mod:`repro.analysis.report` indexes).
"""

from __future__ import annotations

import csv
import io
import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..analysis.tables import render_mapping_table, render_table
from ..errors import AnalysisError
from .runner import SUMMARY_METRICS, SuiteReport

#: The metrics a CSV record carries, in column order.
RECORD_METRICS = (
    "epi",
    "static_epi",
    "dynamic_epi",
    "throughput",
    "mpki",
    "llc_writes",
    "llc_misses",
    "loop_block_fraction",
    "redundant_fill_fraction",
    "snoop_traffic",
)


@dataclass(frozen=True)
class SweepRecord:
    """One run's flattened outcome."""

    system: str
    workload: str
    policy: str
    metrics: Dict[str, float]

    def row(self) -> Dict[str, Union[str, float]]:
        return {"system": self.system, "workload": self.workload,
                "policy": self.policy, **self.metrics}


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
    """Flatten successful runs into records (CSV-ready), member-major."""
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


def records_to_csv(
    records: Sequence[SweepRecord],
    path: Optional[Union[str, pathlib.Path]] = None,
) -> str:
    """Serialise records as CSV; optionally also write to ``path``."""
    if not records:
        raise AnalysisError("no records to serialise")
    fieldnames = list(records[0].row().keys())
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    for r in records:
        writer.writerow(r.row())
    text = buf.getvalue()
    if path is not None:
        pathlib.Path(path).write_text(text)
    return text


def result_text(report: SuiteReport) -> str:
    """The full text artefact: summary (when any benchmark succeeded),
    per-benchmark EPI, failures."""
    parts = [geomean_table(report), ""] if report.succeeded else []
    parts.append(benchmark_table(report, "epi"))
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
