"""The run ledger: one normalized view over result-cache directories.

A sweep leaves its records in three places: ``manifest.json`` (per-job
profiles), content-addressed ``<sha256>.json`` result entries (the job
spec *and* its full metrics) and ``spans.jsonl`` (the span trace, when
the run passed ``--spans <dir>/spans.jsonl``).
:func:`scan_dirs` walks one or more such directories and merges
everything into a :class:`RunLedger`: one :class:`LedgerRow` per job
with provenance (policy, cache-hit source, retries) and headline result
metrics, plus the merged spans. The ledger is what ``repro report``
renders and what any future fleet aggregation ships between hosts —
plain JSON-safe data, no simulator objects.

Scanning is forgiving by design: a corrupt entry, a missing manifest,
or a half-written span dump downgrades to a partial row (and a note in
``ledger.problems``) rather than an exception — the dashboard must
render *something* for a fleet where one worker died mid-write. An
entry or a manifest written under another ``CACHE_SCHEMA_VERSION`` is
noted the same way and kept out of the rows: its numbers come from
older semantics, which :meth:`~repro.exec.cache.ResultCache.get`
refuses to serve too.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from ..errors import TelemetryError
from .profiling import MANIFEST_NAME
from .spans import SPANS_NAME, read_spans

LEDGER_SCHEMA = 2
LEDGER_KIND = "repro-ledger"


def _is_entry_name(stem: str) -> bool:
    return len(stem) == 64 and all(c in "0123456789abcdef" for c in stem)


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

    @property
    def has_result(self) -> bool:
        return bool(self.metrics)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "workload": self.workload,
            "policy": self.policy,
            "system": self.system,
            "refs_per_core": self.refs_per_core,
            "source": self.source,
            "wall_s": self.wall_s,
            "accesses": self.accesses,
            "accesses_per_s": self.accesses_per_s,
            "retries": self.retries,
            "cache_dir": self.cache_dir,
            "metrics": dict(self.metrics),
        }


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

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": LEDGER_KIND,
            "schema": LEDGER_SCHEMA,
            "dirs": list(self.dirs),
            "manifests": self.manifests,
            "totals": {
                "rows": len(self.rows),
                "workloads": len(self.workloads()),
                "policies": len(self.policies()),
                "by_source": self.by_source(),
                "retries": self.total_retries(),
                "simulated_accesses": self.simulated_accesses(),
                "wall_s": self.total_wall_s(),
                "spans": len(self.spans),
            },
            "rows": [r.as_dict() for r in self.rows],
            "spans": list(self.spans),
            "problems": list(self.problems),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)


# ----------------------------------------------------------------------
# scanning
# ----------------------------------------------------------------------
def _scan_manifest(root: pathlib.Path, ledger: RunLedger,
                   rows: Dict[str, LedgerRow]) -> None:
    from ..exec.jobs import CACHE_SCHEMA_VERSION

    path = root / MANIFEST_NAME
    if not path.exists():
        return
    try:
        data = json.loads(path.read_text())
        jobs = data.get("jobs", [])
        if not isinstance(jobs, list):
            raise ValueError("manifest jobs is not a list")
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        ledger.problems.append(f"{path}: unreadable manifest ({exc})")
        return
    if data.get("cache_schema") != CACHE_SCHEMA_VERSION:
        ledger.problems.append(
            f"{path}: manifest cache schema {data.get('cache_schema')!r} "
            f"is not the current {CACHE_SCHEMA_VERSION}; left out"
        )
        return
    ledger.manifests += 1
    for job in jobs:
        if not isinstance(job, dict) or "key" not in job:
            ledger.problems.append(f"{path}: malformed job profile entry")
            continue
        key = str(job["key"])
        row = rows.get(key)
        if row is None:
            row = rows[key] = LedgerRow(key=key, cache_dir=str(root))
        row.workload = job.get("workload", row.workload)
        row.policy = job.get("policy", row.policy)
        row.system = job.get("system", row.system)
        row.source = job.get("source", row.source)
        row.wall_s = float(job.get("wall_s", row.wall_s))
        row.accesses = int(job.get("accesses", row.accesses))
        row.accesses_per_s = float(job.get("accesses_per_s", row.accesses_per_s))
        row.retries = int(job.get("retries", row.retries))


def _scan_entries(root: pathlib.Path, ledger: RunLedger,
                  rows: Dict[str, LedgerRow]) -> None:
    from ..exec.jobs import CACHE_SCHEMA_VERSION
    from ..exec.serialize import result_from_dict

    for path in sorted(root.glob("*.json")):
        if not _is_entry_name(path.stem):
            continue
        try:
            payload = json.loads(path.read_text())
            if payload.get("schema") != CACHE_SCHEMA_VERSION:
                ledger.problems.append(
                    f"{path.name}: cache entry schema {payload.get('schema')!r} "
                    f"is not the current {CACHE_SCHEMA_VERSION}; left out"
                )
                continue
            job = payload["job"]
            result = result_from_dict(payload["result"])
        except Exception as exc:  # any malformed entry: note and move on
            ledger.problems.append(f"{path.name}: unreadable cache entry ({exc})")
            continue
        key = path.stem
        row = rows.get(key)
        if row is None:
            row = rows[key] = LedgerRow(key=key, cache_dir=str(root))
        workload = job.get("workload", {})
        row.policy = job.get("policy", row.policy)
        row.refs_per_core = int(job.get("refs_per_core", row.refs_per_core))
        if row.workload == "?":
            row.workload = result.workload
        if row.system == "?":
            row.system = result.system
        summary = result.summary()
        row.metrics = {k: float(v) for k, v in summary.items()}
        row.metrics["llc_hit_rate"] = (
            result.llc.hits / result.llc.lookups if result.llc.lookups else 0.0
        )
        # keep a couple of workload-provenance facts handy for tooltips
        if isinstance(workload, dict) and workload.get("benchmarks"):
            row.metrics.setdefault("ncores", float(workload.get("ncores", 0)))


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
