"""Parameter-sweep framework with CSV export.

The paper's Section VI-D sensitivity studies are grids over system
parameters (L2:L3 ratio, core count, write/read energy ratio) crossed
with workloads and policies. :class:`Sweep` expresses such grids
declaratively and collects one flat record per run, ready for CSV
export or downstream aggregation — the machinery behind the Fig. 21–23
benchmarks and any new sensitivity study a user wants to script.
"""

from __future__ import annotations

import csv
import io
import pathlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from ..errors import AnalysisError
from ..exec.cache import ResultCache
from ..exec.jobs import JobSpec, WorkloadSpec
from ..exec.pool import execute_jobs
from .results import RunResult
from .system import SystemConfig

# A sweep axis: label -> SystemConfig
SystemAxis = Dict[str, SystemConfig]
# workload axis: label -> declarative workload spec
WorkloadAxis = Dict[str, WorkloadSpec]

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


@dataclass
class Sweep:
    """A systems × workloads × policies grid.

    Example
    -------
    >>> sweep = Sweep(
    ...     systems={"1:4": SystemConfig.scaled(l2_kb=8)},
    ...     workloads={"WH1": mix_builder("WH1")},
    ...     policies=("non-inclusive", "lap"),
    ...     refs_per_core=10_000,
    ... )
    >>> records = sweep.run()  # doctest: +SKIP
    """

    systems: SystemAxis
    workloads: WorkloadAxis
    policies: Sequence[str]
    refs_per_core: int = 10_000
    metrics: Sequence[str] = RECORD_METRICS

    def __post_init__(self) -> None:
        if not self.systems or not self.workloads or not self.policies:
            raise AnalysisError("a sweep needs at least one system, workload, and policy")
        if self.refs_per_core <= 0:
            raise AnalysisError("refs_per_core must be positive")

    def size(self) -> int:
        """Number of simulations the sweep will run."""
        return len(self.systems) * len(self.workloads) * len(self.policies)

    def run(
        self,
        progress: Optional[Callable[[SweepRecord], None]] = None,
        max_workers: int = 1,
        cache: Optional[ResultCache] = None,
        manifest_dir: Optional[Union[str, pathlib.Path]] = None,
        heartbeat_interval: Optional[float] = None,
    ) -> List[SweepRecord]:
        """Execute the grid; returns one record per run (stable order).

        Every cell is lowered to a :class:`JobSpec` and the grid runs as
        one :func:`execute_jobs` batch. ``max_workers > 1`` fans it out
        over worker processes and ``cache`` memoises results by content
        address; records always come back in the grid order (systems ×
        workloads × policies, insertion order), so downstream
        CSV/normalisation is oblivious to how the grid was executed.

        A run with a cache writes the per-job profile roll-up as
        ``manifest.json`` next to the cached results (``manifest_dir``
        overrides the location). ``heartbeat_interval`` emits progress
        lines for long sweeps.
        """
        cells = [
            (sys_label, system, wl_label, spec, policy)
            for sys_label, system in self.systems.items()
            for wl_label, spec in self.workloads.items()
            for policy in self.policies
        ]
        if manifest_dir is None and cache is not None:
            manifest_dir = cache.root
        results = execute_jobs(
            [
                JobSpec(system=system, workload=spec, policy=policy,
                        refs_per_core=self.refs_per_core)
                for _, system, _, spec, policy in cells
            ],
            max_workers=max_workers,
            cache=cache,
            manifest_dir=manifest_dir,
            heartbeat_interval=heartbeat_interval,
        )
        records: List[SweepRecord] = []
        for (sys_label, _, wl_label, _, policy), result in zip(cells, results):
            record = SweepRecord(
                system=sys_label,
                workload=wl_label,
                policy=policy,
                metrics=self._extract(result),
            )
            records.append(record)
            if progress is not None:
                progress(record)
        return records

    def _extract(self, result: RunResult) -> Dict[str, float]:
        out = {}
        for metric in self.metrics:
            value = getattr(result, metric)
            out[metric] = float(value)
        return out


def normalize_records(
    records: Iterable[SweepRecord],
    metric: str,
    baseline_policy: str = "non-inclusive",
) -> Dict[tuple, Dict[str, float]]:
    """Normalise a metric per (system, workload) cell to a baseline policy.

    Returns ``{(system, workload): {policy: normalised value}}``.
    """
    cells: Dict[tuple, Dict[str, float]] = {}
    for r in records:
        cells.setdefault((r.system, r.workload), {})[r.policy] = r.metrics[metric]
    out: Dict[tuple, Dict[str, float]] = {}
    for cell, by_policy in cells.items():
        if baseline_policy not in by_policy:
            raise AnalysisError(
                f"cell {cell} is missing baseline policy {baseline_policy!r}"
            )
        base = by_policy[baseline_policy]
        if base == 0:
            raise AnalysisError(f"baseline {metric} is zero in cell {cell}")
        out[cell] = {p: v / base for p, v in by_policy.items()}
    return out


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


def load_csv(
    path: Union[str, pathlib.Path],
    on_error: str = "raise",
) -> List[SweepRecord]:
    """Read records back from a CSV written by :func:`records_to_csv`.

    A row with a missing/empty/non-numeric metric value raises
    :class:`AnalysisError` naming the row and column; pass
    ``on_error="skip"`` to drop such rows instead.
    """
    if on_error not in ("raise", "skip"):
        raise AnalysisError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
    path = pathlib.Path(path)
    if not path.exists():
        raise AnalysisError(f"no such sweep CSV: {path}")
    records: List[SweepRecord] = []
    with path.open() as fh:
        reader = csv.DictReader(fh)
        for lineno, row in enumerate(reader, start=2):  # line 1 is the header
            try:
                records.append(_parse_csv_row(path, lineno, row))
            except AnalysisError:
                if on_error == "raise":
                    raise
    return records


def _parse_csv_row(path: pathlib.Path, lineno: int, row: Dict) -> SweepRecord:
    meta = {}
    for key in ("system", "workload", "policy"):
        value = row.pop(key, None)
        if value is None or value == "":
            raise AnalysisError(f"{path}:{lineno}: row is missing its {key!r} column")
        meta[key] = value
    metrics: Dict[str, float] = {}
    for k, v in row.items():
        if v is None or v == "":
            raise AnalysisError(
                f"{path}:{lineno}: row ({meta['system']}/{meta['workload']}/"
                f"{meta['policy']}) has no value for metric {k!r}"
            )
        try:
            metrics[k] = float(v)
        except ValueError:
            raise AnalysisError(
                f"{path}:{lineno}: metric {k!r} has non-numeric value {v!r}"
            ) from None
    return SweepRecord(metrics=metrics, **meta)
