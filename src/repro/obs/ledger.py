"""The run ledger: one normalized view over result-cache directories.

A sweep leaves its records in three places: ``manifest.json`` (per-job
profiles), content-addressed ``<sha256>.json`` result entries (the job
spec *and* its full metrics) and ``spans.jsonl`` (the span trace, when
the run passed ``--spans <dir>/spans.jsonl``).
:func:`scan_dirs` walks one or more such directories and merges
everything into a :class:`RunLedger`: one :class:`LedgerRow` per job
with provenance (policy, cache-hit source, retries) and headline result
metrics, plus the merged spans. The ledger is the in-memory view that
``repro report`` renders. It parses neither file format itself:
:meth:`~repro.obs.profiling.RunManifest.load` reads the manifest and
:meth:`~repro.exec.cache.ResultCache.scan` the entries.

Scanning is forgiving by design: a corrupt entry, a missing manifest,
or a half-written span dump downgrades to a partial row (and a note in
``ledger.problems``) rather than an exception — the dashboard must
render *something* when one worker died mid-write. An entry or a
manifest written under another ``CACHE_SCHEMA_VERSION`` is noted the
same way and kept out of the rows: its numbers come from older
semantics, which :meth:`~repro.exec.cache.ResultCache.get` refuses to
serve too.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from ..errors import TelemetryError
from ..exec.cache import ResultCache
from ..exec.jobs import CACHE_SCHEMA_VERSION
from .profiling import MANIFEST_NAME, RunManifest
from .spans import SPANS_NAME, read_spans


@dataclass
class LedgerRow:
    """One job's normalized record across manifest + cache entry."""

    key: str
    workload: str = "?"
    policy: str = "?"
    system: str = "?"
    refs_per_core: int = 0
    #: Result provenance: "cache", "pool", "serial", or "disk" for an
    #: entry found on disk with no manifest row claiming it.
    source: str = "disk"
    wall_s: float = 0.0
    accesses: int = 0
    accesses_per_s: float = 0.0
    retries: int = 0
    cache_dir: str = ""
    #: Headline result metrics (RunResult.summary) when the cache entry
    #: was readable; empty for manifest-only rows.
    metrics: Dict[str, float] = field(default_factory=dict)


@dataclass
class RunLedger:
    """Everything :func:`scan_dirs` learned, normalized and roll-up-able."""

    rows: List[LedgerRow] = field(default_factory=list)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    dirs: List[str] = field(default_factory=list)
    manifests: int = 0
    problems: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    # roll-ups the dashboard leans on
    # ------------------------------------------------------------------
    def workloads(self) -> List[str]:
        return sorted({r.workload for r in self.rows})

    def policies(self) -> List[str]:
        return sorted({r.policy for r in self.rows})

    def by_source(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for r in self.rows:
            counts[r.source] = counts.get(r.source, 0) + 1
        return counts

    def total_retries(self) -> int:
        return sum(r.retries for r in self.rows)

    def simulated_accesses(self) -> int:
        return sum(r.accesses for r in self.rows if r.source not in ("cache", "disk"))

    def total_wall_s(self) -> float:
        return sum(r.wall_s for r in self.rows)

    def cache_hit_share(self) -> Optional[float]:
        if not self.rows:
            return None
        hits = sum(1 for r in self.rows if r.source == "cache")
        return hits / len(self.rows)

    def grid(self, metric: str) -> Dict[str, Dict[str, float]]:
        """``{workload: {policy: value}}`` for one summary metric.

        When several rows share a (workload, policy) cell — reruns, or
        the same job under several systems — the last scanned wins;
        the dashboard notes multiplicity separately.
        """
        table: Dict[str, Dict[str, float]] = {}
        for r in self.rows:
            if metric in r.metrics:
                table.setdefault(r.workload, {})[r.policy] = r.metrics[metric]
        return table


# ----------------------------------------------------------------------
# scanning
# ----------------------------------------------------------------------
def _row(rows: Dict[str, LedgerRow], key: str, root: pathlib.Path) -> LedgerRow:
    row = rows.get(key)
    if row is None:
        row = rows[key] = LedgerRow(key=key, cache_dir=str(root))
    return row


def _scan_manifest(root: pathlib.Path, ledger: RunLedger,
                   rows: Dict[str, LedgerRow]) -> None:
    path = root / MANIFEST_NAME
    if not path.exists():
        return
    try:
        manifest = RunManifest.load(path)
    except TelemetryError as exc:
        ledger.problems.append(str(exc))
        return
    if manifest.cache_schema != CACHE_SCHEMA_VERSION:
        ledger.problems.append(
            f"{path}: manifest cache schema {manifest.cache_schema!r} "
            f"is not the current {CACHE_SCHEMA_VERSION}; left out"
        )
        return
    ledger.manifests += 1
    for job in manifest.jobs:
        row = _row(rows, job.key, root)
        row.workload = job.workload
        row.policy = job.policy
        row.system = job.system
        row.source = job.source
        row.wall_s = job.wall_s
        row.accesses = job.accesses
        row.accesses_per_s = job.accesses_per_s
        row.retries = job.retries


def _scan_entries(root: pathlib.Path, ledger: RunLedger,
                  rows: Dict[str, LedgerRow]) -> None:
    for key, job, result in ResultCache(root).scan(ledger.problems):
        row = _row(rows, key, root)
        row.policy = job.policy
        row.refs_per_core = job.refs_per_core
        if row.workload == "?":
            row.workload = result.workload
        if row.system == "?":
            row.system = result.system
        summary = result.summary()
        row.metrics = {k: float(v) for k, v in summary.items()}
        row.metrics["llc_hit_rate"] = (
            result.llc.hits / result.llc.lookups if result.llc.lookups else 0.0
        )


def _scan_spans(root: pathlib.Path, ledger: RunLedger) -> None:
    path = root / SPANS_NAME
    if not path.exists():
        return
    try:
        ledger.spans.extend(read_spans(path))
    except TelemetryError as exc:
        ledger.problems.append(str(exc))


def scan_dirs(dirs: Sequence[Union[str, pathlib.Path]]) -> RunLedger:
    """Build the merged ledger for one or more result-cache directories."""
    ledger = RunLedger()
    rows: Dict[str, LedgerRow] = {}
    for d in dirs:
        root = pathlib.Path(d)
        if not root.is_dir():
            raise TelemetryError(f"no such result-cache directory: {root}")
        ledger.dirs.append(str(root))
        _scan_manifest(root, ledger, rows)
        _scan_entries(root, ledger, rows)
        _scan_spans(root, ledger)
    # Deterministic order: workload, then policy, then key.
    ledger.rows = sorted(
        rows.values(), key=lambda r: (r.workload, r.policy, r.key)
    )
    return ledger
