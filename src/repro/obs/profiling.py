"""Per-job profiles, per-sweep run manifests, and heartbeat progress.

:func:`repro.exec.pool.execute_jobs` fills one :class:`JobProfile` per
job — wall time, simulated accesses/s, retry count, result provenance
(fresh worker / in-process / content-addressed cache) and peak RSS
where the platform reports it — and rolls them up into a
:class:`RunManifest` written as ``manifest.json`` next to the cached
results. The manifest is the sweep-level flight log: when a Fig. 14
grid produces a surprising number, it answers "which jobs actually
ran, which came from cache, and where did the time go" without
re-running anything.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from ..errors import TelemetryError

MANIFEST_SCHEMA_VERSION = 1
MANIFEST_KIND = "repro-manifest"
MANIFEST_NAME = "manifest.json"

#: Result provenance values a profile can carry.
SOURCE_CACHE = "cache"  # served from the content-addressed result cache
SOURCE_POOL = "pool"  # simulated in a worker process
SOURCE_SERIAL = "serial"  # simulated in-process (serial path or retry fallback)


def peak_rss_kb() -> Optional[int]:
    """This process's peak resident set size in KiB, if knowable.

    Uses :mod:`resource` (Unix). Linux reports ``ru_maxrss`` in KiB,
    macOS in bytes; both are normalised to KiB. Returns ``None`` on
    platforms without the module.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-Unix
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        rss //= 1024
    return int(rss)


@dataclass
class JobProfile:
    """Execution telemetry for one job of a sweep."""

    index: int
    key: str
    workload: str
    policy: str
    system: str
    source: str
    wall_s: float = 0.0
    accesses: int = 0
    retries: int = 0
    peak_rss_kb: Optional[int] = None

    @property
    def accesses_per_s(self) -> float:
        """Simulation throughput (0 for cache hits — nothing was simulated)."""
        if self.source == SOURCE_CACHE or self.wall_s <= 0:
            return 0.0
        return self.accesses / self.wall_s

    def as_dict(self) -> Dict:
        return {
            "index": self.index,
            "key": self.key,
            "workload": self.workload,
            "policy": self.policy,
            "system": self.system,
            "source": self.source,
            "wall_s": self.wall_s,
            "accesses": self.accesses,
            "accesses_per_s": self.accesses_per_s,
            "retries": self.retries,
            "peak_rss_kb": self.peak_rss_kb,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "JobProfile":
        try:
            return cls(
                index=data["index"],
                key=data["key"],
                workload=data["workload"],
                policy=data["policy"],
                system=data["system"],
                source=data["source"],
                wall_s=data.get("wall_s", 0.0),
                accesses=data.get("accesses", 0),
                retries=data.get("retries", 0),
                peak_rss_kb=data.get("peak_rss_kb"),
            )
        except KeyError as exc:
            raise TelemetryError(f"malformed job profile: missing {exc}") from None


@dataclass
class RunManifest:
    """One sweep's flight log: every job's profile plus roll-ups."""

    jobs: List[JobProfile] = field(default_factory=list)
    max_workers: int = 1
    wall_s: float = 0.0

    # ------------------------------------------------------------------
    # roll-ups
    # ------------------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        return sum(1 for j in self.jobs if j.source == SOURCE_CACHE)

    @property
    def cache_misses(self) -> int:
        return sum(1 for j in self.jobs if j.source != SOURCE_CACHE)

    @property
    def total_retries(self) -> int:
        return sum(j.retries for j in self.jobs)

    @property
    def simulated_accesses(self) -> int:
        return sum(j.accesses for j in self.jobs if j.source != SOURCE_CACHE)

    def as_dict(self) -> Dict:
        """The manifest document, stamped with the result-cache version
        its jobs ran under, so the ledger can leave out stale runs."""
        from ..exec.jobs import CACHE_SCHEMA_VERSION

        return {
            "kind": MANIFEST_KIND,
            "schema": MANIFEST_SCHEMA_VERSION,
            "cache_schema": CACHE_SCHEMA_VERSION,
            "max_workers": self.max_workers,
            "wall_s": self.wall_s,
            "totals": {
                "jobs": len(self.jobs),
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "retries": self.total_retries,
                "simulated_accesses": self.simulated_accesses,
            },
            "jobs": [j.as_dict() for j in self.jobs],
        }

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def write(self, target: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write the manifest; a directory target gets ``manifest.json``."""
        path = pathlib.Path(target)
        if path.is_dir():
            path = path / MANIFEST_NAME
        try:
            path.write_text(json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            raise TelemetryError(f"cannot write manifest {path}: {exc}") from None
        return path

    @classmethod
    def load(cls, source: Union[str, pathlib.Path]) -> "RunManifest":
        path = pathlib.Path(source)
        if path.is_dir():
            path = path / MANIFEST_NAME
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            raise TelemetryError(f"no such manifest: {path}") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise TelemetryError(f"unreadable manifest {path}: {exc}") from None
        if not isinstance(data, dict) or data.get("kind") != MANIFEST_KIND:
            raise TelemetryError(f"{path}: not a {MANIFEST_KIND} file")
        if data.get("schema") != MANIFEST_SCHEMA_VERSION:
            raise TelemetryError(
                f"{path}: manifest schema {data.get('schema')!r} is not the "
                f"supported version {MANIFEST_SCHEMA_VERSION}"
            )
        return cls(
            jobs=[JobProfile.from_dict(j) for j in data.get("jobs", [])],
            max_workers=data.get("max_workers", 1),
            wall_s=data.get("wall_s", 0.0),
        )


class Heartbeat:
    """Rate-limited progress lines for long sweeps.

    ``beat(done, cached)`` emits at most once per ``interval`` seconds;
    ``final()`` always emits. ``interval=None`` disables emission
    entirely (the default for library callers — the CLI turns it on).
    """

    def __init__(
        self,
        total: int,
        interval: Optional[float],
        emit: Optional[Callable[[str], None]] = None,
        label: str = "exec",
    ) -> None:
        if interval is not None and interval < 0:
            raise TelemetryError(f"heartbeat interval must be >= 0, got {interval}")
        self.total = total
        self.interval = interval
        self.label = label
        self._emit = emit if emit is not None else self._default_emit
        self._start = time.perf_counter()
        self._last = self._start

    @staticmethod
    def _default_emit(line: str) -> None:
        print(line, file=sys.stderr)

    def _line(self, done: int, cached: int) -> str:
        elapsed = time.perf_counter() - self._start
        parts = [f"[{self.label}] {done}/{self.total} job(s) done"]
        if cached:
            parts.append(f"{cached} from cache")
        parts.append(f"{elapsed:.1f}s elapsed")
        return ", ".join(parts)

    def beat(self, done: int, cached: int = 0) -> None:
        if self.interval is None:
            return
        now = time.perf_counter()
        if now - self._last >= self.interval:
            self._last = now
            self._emit(self._line(done, cached))

    def final(self, done: int, cached: int = 0) -> None:
        if self.interval is None:
            return
        self._emit(self._line(done, cached))
